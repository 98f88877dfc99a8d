"""The store daemon: RPC round trips, lifecycle, fail-open, quotas.

The daemon's contract is *byte dumbness*: a ``GraphStore(remote=...)``
client must see exactly the records an in-process store would, because
the daemon only moves the same payload bytes the local segments persist.
These tests drive the full client API through a live daemon, then
exercise what only the remote mode does: fail-open when the daemon dies
mid-session, re-attachment after a restart, stale-socket reclaim, and
per-client quota refusals that degrade to misses instead of falling
back to direct disk access (which would defeat the quota).
"""

import shutil
import socket
import tempfile
import time

import pytest

from repro.cache.blockstore import SegmentReader
from repro.cache.client import DaemonUnavailable, QuotaExceeded, StoreClient
from repro.api import InterfaceSession
from repro.cache import store as store_module
from repro.cache.store import TABLES, GraphStore
from repro.core.options import PipelineOptions
from repro.errors import CacheError, ServiceError
from repro.service import StoreDaemon, running_daemon
from repro.service import daemon as daemon_module
from tests.cache.test_packed_store import _mined, _save_all


@pytest.fixture
def sock_path():
    """A socket path short enough for AF_UNIX (~100-byte limit) —
    pytest's tmp_path nests too deep to be safe."""
    workdir = tempfile.mkdtemp(prefix="repro-sock-", dir="/tmp")
    yield f"{workdir}/d.sock"
    shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture
def payload():
    return _mined()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestRoundTrip:
    def test_all_four_tables_through_the_daemon(self, tmp_path, sock_path, payload):
        daemon_root = tmp_path / "served"
        client_root = tmp_path / "client-side"
        with running_daemon(daemon_root, sock_path):
            store = GraphStore(client_root, remote=sock_path)
            assert store.format == "remote"
            assert store.remote == sock_path
            _save_all(store, payload)

            graph, _stats = store.load(payload["log_fp"], payload["opts_fp"])
            assert graph.summary() == payload["graph"].summary()
            widgets = store.load_widget_set(
                payload["log_fp"], payload["opts_fp"], graph,
                payload["options"].library, payload["options"].annotations,
            )
            assert len(widgets) == len(payload["widgets"])

            key = store.key(payload["log_fp"], payload["opts_fp"])
            assert store.keys() == [key]
            assert store.has(payload["log_fp"], payload["opts_fp"])

        # every byte landed in the daemon's directory, none in the
        # client's local root
        assert not list(client_root.glob("*")) or not any(
            p.stat().st_size for p in client_root.glob("*.seg")
        )
        assert SegmentReader(daemon_root / "graphs.seg").keys() == [key]

    def test_record_bytes_identical_to_in_process_store(
        self, tmp_path, sock_path, payload
    ):
        """The packed record a daemon persists is byte-for-byte the one
        an in-process packed store writes for the same save."""
        local = GraphStore(tmp_path / "local")
        _save_all(local, payload)
        with running_daemon(tmp_path / "served", sock_path):
            remote = GraphStore(tmp_path / "unused", remote=sock_path)
            _save_all(remote, payload)
        key = local.key(payload["log_fp"], payload["opts_fp"])
        for table in TABLES:
            record = SegmentReader(tmp_path / "served" / table.segment).get(key)
            assert record is not None, table.name
            assert (
                record == SegmentReader(tmp_path / "local" / table.segment).get(key)
            ), table.name

    def test_two_clients_share_one_store(self, tmp_path, sock_path, payload):
        with running_daemon(tmp_path / "served", sock_path):
            writer = GraphStore(tmp_path / "a", remote=sock_path)
            reader = GraphStore(tmp_path / "b", remote=sock_path)
            _save_all(writer, payload)
            graph, _ = reader.load(payload["log_fp"], payload["opts_fp"])
            assert graph.summary() == payload["graph"].summary()

    def test_stats_reports_store_and_per_client_meters(
        self, tmp_path, sock_path, payload
    ):
        with running_daemon(tmp_path / "served", sock_path):
            store = GraphStore(tmp_path / "x", remote=sock_path)
            _save_all(store, payload)
            stats = store.stats()
            assert stats["n_keys"] == 1
            daemon_stats = stats["daemon"]
            assert daemon_stats["pid"] > 0
            assert daemon_stats["socket"] == sock_path
            clients = daemon_stats["clients"]
            assert len(clients) == 1
            meter = next(iter(clients.values()))
            assert meter["requests"] >= 2  # the two saves at minimum
            assert meter["bytes_in"] > 0
            assert meter["refused"] == 0

    def test_prune_and_invalidate_through_the_daemon(
        self, tmp_path, sock_path, payload
    ):
        with running_daemon(tmp_path / "served", sock_path):
            store = GraphStore(tmp_path / "x", remote=sock_path)
            _save_all(store, payload)
            removed = store.invalidate(payload["log_fp"], payload["opts_fp"])
            assert removed >= 1
            assert not store.has(payload["log_fp"], payload["opts_fp"])
            _save_all(store, payload)
            assert store.prune(max_entries=0) == 1
            assert store.keys() == []

    def test_migrate_through_a_daemon_is_refused(self, tmp_path, sock_path):
        with running_daemon(tmp_path / "served", sock_path):
            store = GraphStore(tmp_path / "x", remote=sock_path)
            with pytest.raises(CacheError, match="daemon"):
                store.import_json()
            with pytest.raises(CacheError, match="daemon"):
                store.export_json(tmp_path / "json")


class TestFlushThroughTheDaemon:
    """A session flush through the daemon sends each graph once; a
    derived record is resent with its graph only when the daemon refuses
    it for a missing graph record."""

    def _count_graph_encodes(self, monkeypatch):
        calls = []
        real = store_module.graph_to_jsonl_bytes

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(store_module, "graph_to_jsonl_bytes", counting)
        return calls

    def test_flush_encodes_each_graph_once(self, tmp_path, sock_path, monkeypatch):
        with running_daemon(tmp_path / "served", sock_path) as daemon:
            options = PipelineOptions(
                cache_dir=str(tmp_path / "local"), daemon_socket=sock_path
            )
            session = InterfaceSession(options=options)
            session.append_sql(["SELECT a FROM t WHERE x = 1",
                                "SELECT a FROM t WHERE x = 2",
                                "SELECT a FROM t WHERE x = 5"])
            calls = self._count_graph_encodes(monkeypatch)
            bytes_in = daemon.daemon_stats()["clients"]
            before = sum(meter["bytes_in"] for meter in bytes_in.values())
            session.flush_to_store()
            assert len(calls) == 1
            after = sum(
                meter["bytes_in"]
                for meter in daemon.daemon_stats()["clients"].values()
            )
            reader = GraphStore(tmp_path / "x", remote=sock_path)
            (key,) = reader.keys()
            graph_record = reader.record_get("graphs", key)
            assert reader.record_has("widget_sets", key)
        # the graph travelled once: the widget save no longer carries a
        # second copy of it
        assert len(graph_record) <= after - before < 2 * len(graph_record)

    @pytest.mark.parametrize("transport", ["local", "daemon"])
    def test_evicted_graph_lands_again_with_the_widgets(
        self, tmp_path, sock_path, payload, monkeypatch, transport
    ):
        fps = (payload["log_fp"], payload["opts_fp"])
        with running_daemon(tmp_path / "served", sock_path):
            remote = sock_path if transport == "daemon" else None
            store = GraphStore(tmp_path / "served", remote=remote)
            store.save(*fps, payload["graph"], payload["stats"])
            # a pruner evicts the key between the graph and widget saves
            assert GraphStore(tmp_path / "served", remote=remote).invalidate(*fps) == 1
            calls = self._count_graph_encodes(monkeypatch)
            store.save_widget_set(*fps, payload["widgets"], payload["graph"])
            assert len(calls) == 1  # encoded only for the resend
            key = store.key(*fps)
            assert store.record_has("graphs", key)
            assert store.record_has("widget_sets", key)
            assert store.format == ("remote" if remote else "packed")


class TestSessionTraffic:
    """What a session asks of the store daemon: its first append probes
    the graph table once, later appends and their compiles ask nothing,
    and a flush puts one graph and one widget set."""

    STATEMENTS = [f"SELECT a FROM t WHERE x = {v}" for v in (1, 2, 5, 9, 4)]

    @staticmethod
    def _session(tmp_path, sock_path):
        return InterfaceSession(
            options=PipelineOptions(
                cache_dir=str(tmp_path / "local"), daemon_socket=sock_path
            )
        )

    @staticmethod
    def _requests(daemon):
        return sum(m["requests"] for m in daemon.daemon_stats()["clients"].values())

    def test_appends_after_the_first_make_no_requests(self, tmp_path, sock_path):
        with running_daemon(tmp_path / "served", sock_path) as daemon:
            session = self._session(tmp_path, sock_path)
            before = self._requests(daemon)
            session.append_sql(self.STATEMENTS[:2])
            session.compile_patch()
            first = self._requests(daemon) - before
            later = []
            for statement in self.STATEMENTS[2:]:
                before = self._requests(daemon)
                session.append_sql([statement])
                session.compile_patch()
                later.append(self._requests(daemon) - before)
        assert first == 1  # the graph-table probe
        assert later == [0, 0, 0]

    def test_flush_puts_one_graph_and_one_widget_set(
        self, tmp_path, sock_path, monkeypatch
    ):
        sent = []
        call = StoreClient.call

        def recording(self, op, *args, **fields):
            sent.append((op, fields.get("table")))
            return call(self, op, *args, **fields)

        with running_daemon(tmp_path / "served", sock_path):
            session = self._session(tmp_path, sock_path)
            session.append_sql(self.STATEMENTS)
            session.compile_patch()
            session.expresses(self.STATEMENTS[0])
            monkeypatch.setattr(StoreClient, "call", recording)
            session.flush_to_store()
        assert sent == [("put", "graphs"), ("put", "widget_sets")]


class TestLifecycle:
    def test_client_fails_open_when_daemon_dies(self, tmp_path, sock_path, payload):
        root = tmp_path / "store"
        daemon = StoreDaemon(root, sock_path)
        daemon.start()
        try:
            store = GraphStore(root, remote=sock_path)
            _save_all(store, payload)
        finally:
            daemon.stop()
        # daemon gone mid-session: the next operation falls open to the
        # local layout instead of erroring, and the fallback sees every
        # record the daemon persisted
        graph, _ = store.load(payload["log_fp"], payload["opts_fp"])
        assert graph.summary() == payload["graph"].summary()
        assert store.format == "packed"
        assert store.remote is None

    def test_fail_open_is_one_way(self, tmp_path, sock_path, payload):
        root = tmp_path / "store"
        daemon = StoreDaemon(root, sock_path)
        daemon.start()
        store = GraphStore(root, remote=sock_path)
        daemon.stop()
        store.save(payload["log_fp"], payload["opts_fp"], payload["graph"])
        assert store.format == "packed"
        # a recovered daemon must NOT pull this store back to remote
        # mode: flip-flopping would interleave two writers' lock domains
        with running_daemon(root, sock_path):
            assert store.has(payload["log_fp"], payload["opts_fp"])
            assert store.remote is None

    def test_new_client_reattaches_after_restart(self, tmp_path, sock_path, payload):
        root = tmp_path / "store"
        with running_daemon(root, sock_path):
            GraphStore(tmp_path / "a", remote=sock_path)
            first = GraphStore(tmp_path / "a2", remote=sock_path)
            _save_all(first, payload)
        with running_daemon(root, sock_path):
            fresh = GraphStore(tmp_path / "b", remote=sock_path)
            assert fresh.format == "remote"
            graph, _ = fresh.load(payload["log_fp"], payload["opts_fp"])
            assert graph.summary() == payload["graph"].summary()

    def test_stale_socket_file_is_reclaimed(self, tmp_path, sock_path):
        # a dead daemon leaves its socket file behind; binding must
        # replace it rather than fail with EADDRINUSE
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock_path)
        stale.close()  # closed without accept(): nobody answers here
        with running_daemon(tmp_path / "store", sock_path) as daemon:
            assert daemon.running
            assert StoreClient(sock_path).ping()["pid"] == daemon.daemon_stats()["pid"]

    def test_live_daemon_on_the_socket_is_an_error(self, tmp_path, sock_path):
        with running_daemon(tmp_path / "a", sock_path):
            with pytest.raises(ServiceError, match="already listening"):
                StoreDaemon(tmp_path / "b", sock_path)._claim_socket()

    def test_shutdown_rpc_stops_the_daemon(self, tmp_path, sock_path):
        daemon = StoreDaemon(tmp_path / "store", sock_path)
        daemon.start()
        client = StoreClient(sock_path)
        reply, _ = client.call("shutdown")
        assert reply["ok"]
        assert _wait_until(lambda: not daemon.running)
        daemon.stop()  # idempotent after an RPC shutdown

    def test_idle_daemon_stops_at_once(self, tmp_path, sock_path):
        """stop() waits for the serve loop's next poll, which came every
        0.5 s (each stop of an idle daemon took about 450 ms)."""
        daemon = StoreDaemon(tmp_path / "store", sock_path)
        daemon.start()
        time.sleep(0.05)  # the loop is idle in its poll
        started = time.perf_counter()
        daemon.stop()
        assert time.perf_counter() - started < 0.2
        assert not daemon.running

    def test_shutdown_reply_is_written_before_the_teardown(
        self, tmp_path, sock_path, monkeypatch
    ):
        """The teardown severs the handler's connection and unlinks the
        socket, so it may only start once the reply is out: otherwise a
        descheduled handler loses the reply and the client's reconnect
        finds no socket."""
        order = []
        write_message = daemon_module.write_message
        request_shutdown = StoreDaemon._request_async_shutdown

        def recording_write(*args, **kwargs):
            write_message(*args, **kwargs)
            order.append("reply")

        def recording_shutdown(self):
            order.append("shutdown")
            request_shutdown(self)

        monkeypatch.setattr(daemon_module, "write_message", recording_write)
        monkeypatch.setattr(StoreDaemon, "_request_async_shutdown", recording_shutdown)
        daemon = StoreDaemon(tmp_path / "store", sock_path)
        daemon.start()
        reply, _ = StoreClient(sock_path).call("shutdown")
        assert reply["ok"]
        assert _wait_until(lambda: not daemon.running)
        daemon.stop()
        assert order == ["reply", "shutdown"]

    def test_missing_daemon_constructor_fails_open(self, tmp_path, payload):
        """remote= pointing nowhere never blocks a worker: the store
        opens its local layout instead."""
        store = GraphStore(tmp_path / "store", remote="/tmp/no-such-daemon.sock")
        assert store.format == "packed"
        assert store.remote is None
        store.save(payload["log_fp"], payload["opts_fp"], payload["graph"])
        assert store.has(payload["log_fp"], payload["opts_fp"])


class TestQuota:
    def test_refusals_degrade_to_misses_without_falling_open(
        self, tmp_path, sock_path, payload
    ):
        root = tmp_path / "store"
        with running_daemon(root, sock_path, quota_requests=4):
            store = GraphStore(tmp_path / "x", remote=sock_path)  # ping: req 1
            store.save(payload["log_fp"], payload["opts_fp"], payload["graph"])
            assert store.has(payload["log_fp"], payload["opts_fp"])  # req 3
            assert store.load(payload["log_fp"], payload["opts_fp"])  # req 4
            # over quota now: reads become misses, writes no-ops — but
            # the store must NOT fall open to direct disk access, which
            # would hand the refused client the whole store
            assert store.load(payload["log_fp"], payload["opts_fp"]) is None
            assert not store.record_put(
                "graphs", "f" * 16 + "-" + "e" * 16, b'{"v": 1}\n'
            )
            assert store.format == "remote"
            # ping/stats stay unmetered so a refused client can see why
            stats = store.stats()
            meter = next(iter(stats["daemon"]["clients"].values()))
            assert meter["refused"] >= 2

    def test_quota_is_per_client(self, tmp_path, sock_path):
        key = "a" * 16 + "-" + "b" * 16
        with running_daemon(tmp_path / "store", sock_path, quota_requests=2):
            greedy = StoreClient(sock_path, client_id="greedy")
            frugal = StoreClient(sock_path, client_id="frugal")
            for _ in range(2):
                greedy.call("has", table="graphs", key=key)
            with pytest.raises(QuotaExceeded):
                greedy.call("has", table="graphs", key=key)
            # one client exhausting its quota must not starve another
            reply, _ = frugal.call("has", table="graphs", key=key)
            assert reply["ok"] and reply["found"] is False

    def test_byte_quota_refuses_large_clients(self, tmp_path, sock_path, payload):
        with running_daemon(tmp_path / "store", sock_path, quota_bytes=64):
            store = GraphStore(tmp_path / "x", remote=sock_path)
            # first save may exceed the cap mid-flight or be refused
            # outright; either way the follow-up must be refused and the
            # client must stay attached
            store.save(payload["log_fp"], payload["opts_fp"], payload["graph"])
            assert not store.record_put(
                "graphs", "a" * 16 + "-" + "b" * 16, b'{"v": 1}\n'
            )
            assert store.format == "remote"


class TestProtocol:
    def test_unknown_op_is_an_error_not_a_hangup(self, tmp_path, sock_path):
        with running_daemon(tmp_path / "store", sock_path):
            client = StoreClient(sock_path)
            with pytest.raises(CacheError, match="unknown op"):
                client.call("frobnicate")
            # the connection survives the refusal
            assert client.ping()["pid"] > 0

    def test_client_reconnects_after_a_dropped_connection(
        self, tmp_path, sock_path
    ):
        with running_daemon(tmp_path / "store", sock_path):
            client = StoreClient(sock_path)
            assert client.ping()
            client._drop()  # simulate a broken pipe
            assert client.ping()  # transparent reconnect

    def test_unreachable_socket_raises_daemon_unavailable(self):
        client = StoreClient("/tmp/absent-repro-daemon.sock")
        with pytest.raises(DaemonUnavailable):
            client.ping()
