"""The store operation registry (``repro.cache.store.OPS``), op by op.

Every op the daemon serves runs the same ``GraphStore`` method in the
daemon that an in-process store runs, so it must answer the same thing
through a live daemon as in process on a copy of the same store; when
the daemon stops mid-session, the op's one failed call falls the store
open and the local store answers.  Each registry entry needs a case
here, and an op outside the registry is refused.
"""

import shutil
import tempfile

import pytest

from repro.cache.client import QuotaExceeded, StoreClient
from repro.cache.store import OPS, GraphStore
from repro.service import StoreDaemon, running_daemon
from tests.cache.test_packed_store import _mined

K1 = "1" * 16 + "-" + "a" * 16
K2 = "2" * 16 + "-" + "a" * 16
K3 = "3" * 16 + "-" + "b" * 16
NEW = "4" * 16 + "-" + "b" * 16
ABSENT = "f" * 16 + "-" + "f" * 16


def _store_part(stats):
    return {name: value for name, value in stats.items() if name != "daemon"}


#: One case per registry op: a function of a store whose first call is
#: that op, returning what the parity test compares.
CASES = {
    "get": lambda store: (
        store.record_get("widget_sets", K1),
        store.record_get("graphs", ABSENT),
    ),
    "has": lambda store: (
        store.record_has("graphs", K1),
        store.record_has("widget_sets", ABSENT),
    ),
    "put": lambda store: (
        store.record_put("widget_sets", NEW, b"widgets 4\n"),  # no graph yet
        store.record_put("widget_sets", NEW, b"widgets 4\n", b"graph 4\n"),
        store.record_get("graphs", NEW),
        store.record_get("widget_sets", NEW),
    ),
    "keys": lambda store: store.keys(),
    "stats": lambda store: _store_part(store.stats()),
    "prune": lambda store: (store.prune(max_entries=2), store.keys()),
    "invalidate": lambda store: (
        store.invalidate(options_fingerprint="a" * 16),
        store.keys(),
    ),
    "invalidate_table": lambda store: (
        store.invalidate_table("widget_sets"),
        store.record_has("widget_sets", K1),
    ),
    "compact": lambda store: (store.compact(), store.compact()),
}


def _populate(root):
    """Three keys of raw records, one widget record overwritten (so the
    segment carries compaction debt)."""
    store = GraphStore(root)
    for n, key in enumerate((K1, K2, K3), start=1):
        store.record_put("graphs", key, b"graph %d\n" % n)
        store.record_put("widget_sets", key, b"widgets %d\n" % n)
    store.record_put("widget_sets", K1, b"widgets 1, again\n")
    return root


def _socket_dir():
    """A socket directory short enough for AF_UNIX (~100-byte limit)."""
    return tempfile.mkdtemp(prefix="repro-sock-", dir="/tmp")


@pytest.fixture
def sock_path():
    workdir = _socket_dir()
    yield f"{workdir}/d.sock"
    shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture
def base(tmp_path):
    return _populate(tmp_path / "base")


@pytest.fixture(scope="module")
def over_quota(tmp_path_factory):
    """One daemon for the quota tests: its meter is per client, and this
    process is one client, over quota from its first ping on."""
    workdir = _socket_dir()
    root = _populate(tmp_path_factory.mktemp("quota") / "served")
    with running_daemon(root, f"{workdir}/d.sock", quota_requests=1) as daemon:
        yield daemon
    shutil.rmtree(workdir, ignore_errors=True)


def _copy(base, name):
    return shutil.copytree(base, base.parent / name)


def _record_calls(monkeypatch):
    """The ops this process sends from now on, failed calls included."""
    sent = []
    call = StoreClient.call

    def recording(self, op, *args, **fields):
        sent.append(op)
        return call(self, op, *args, **fields)

    monkeypatch.setattr(StoreClient, "call", recording)
    return sent


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_answers_alike_through_the_daemon_and_falls_open_once(
    name, base, sock_path, monkeypatch
):
    assert name in CASES, f"registry op {name!r} has no case"
    case = CASES[name]
    expected = case(GraphStore(_copy(base, "local")))

    with running_daemon(_copy(base, "served"), sock_path):
        client = GraphStore(base.parent / "client", remote=sock_path)
        assert client.format == "remote"
        assert case(client) == expected

    daemon = StoreDaemon(_copy(base, "fallback"), sock_path)
    daemon.start()
    store = GraphStore(base.parent / "fallback", remote=sock_path)
    daemon.stop()
    sent = _record_calls(monkeypatch)
    assert case(store) == expected
    assert sent == [name]  # one failed call, then the local store answers
    assert store.remote is None


#: What each op answers over quota; every op not listed raises.
OVER_QUOTA = {
    "get": (None, None),
    "has": (False, False),
    "put": (False, False, None, None),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_over_quota_outcome(name, over_quota, tmp_path):
    store = GraphStore(tmp_path / "client", remote=over_quota.socket_path)
    if name == "stats":
        # unmetered, so a refused client can see why
        assert store.stats()["daemon"]["clients"]
    elif name in OVER_QUOTA:
        assert CASES[name](store) == OVER_QUOTA[name]
    else:
        with pytest.raises(QuotaExceeded):
            CASES[name](store)
    assert store.format == "remote"  # refused, never fallen open


def test_an_over_quota_save_is_not_retried(over_quota, tmp_path, monkeypatch):
    payload = _mined()
    store = GraphStore(tmp_path / "client", remote=over_quota.socket_path)
    sent = _record_calls(monkeypatch)
    store.save_widget_set(
        payload["log_fp"], payload["opts_fp"], payload["widgets"], payload["graph"]
    )
    assert sent == ["put"]  # refused for quota, not resent with its graph


@pytest.mark.parametrize("op", ["frobnicate", "record_get", "clear", "import_json"])
def test_an_op_outside_the_registry_is_refused(op, base, sock_path):
    daemon = StoreDaemon(base, sock_path)  # dispatch needs no socket
    reply, payload = daemon.dispatch({"op": op, "client": "test"}, b"", b"")
    assert reply == {"ok": False, "error": f"unknown op {op!r}"}
    assert payload == b""
    assert daemon.store.keys() == [K1, K2, K3]


@pytest.mark.parametrize(
    "call",
    [
        lambda store: store.record_get("no_such_table", K1),
        lambda store: store.prune(max_bytes=-1),
        lambda store: store.invalidate_table("graphs"),
    ],
    ids=["unknown-table", "negative-cap", "graphs-table"],
)
def test_a_rejected_argument_raises_value_error_alike(call, base, sock_path):
    with pytest.raises(ValueError) as in_process:
        call(GraphStore(base))
    with running_daemon(base, sock_path):
        with pytest.raises(ValueError) as through_daemon:
            call(GraphStore(base.parent / "client", remote=sock_path))
    assert str(in_process.value) in str(through_daemon.value)
