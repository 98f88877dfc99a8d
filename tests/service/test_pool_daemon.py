"""Pool ↔ daemon integration: live streaming and store parity.

Two acceptance criteria of the daemon work live here.  First, a pool
wired to a store daemon must produce *byte-identical* store records —
graphs and widget sets — to a pool writing the packed layout
in-process, on every bundled log family.  Second,
``SessionPool.serve(on_result=...)`` must deliver each append's ack to
the subscriber *before* the drain barrier returns, so a live dashboard
never lags the batch path.
"""

import asyncio
import json
import pickle
import shutil
import tempfile
import time

import pytest

from repro.cache.blockstore import SegmentReader
from repro.cache.store import TABLES
from repro.core.options import PipelineOptions
from repro.logs import AdhocLogGenerator, OLAPLogGenerator, SDSSLogGenerator
from repro.logs.sessions import segment_asts
from repro.service import SessionPool, running_daemon

FAMILIES = ["sdss", "olap", "adhoc", "sessions"]
_SEGMENTS = tuple(table.segment for table in TABLES)


def _family_log(family):
    """Small cuts of the four bundled log families (the full-size parity
    sweep lives in test_merge_incremental; here the families exercise
    the daemon path, not merge depth)."""
    if family == "sdss":
        return SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 18).asts()
    if family == "olap":
        return OLAPLogGenerator(seed=1).generate(18).asts()
    if family == "adhoc":
        return AdhocLogGenerator(seed=2).student_log("S1", 14).asts()
    interleaved = SDSSLogGenerator(seed=3).interleaved(2, 8).asts()
    return max(segment_asts(interleaved, 0.3, 0.3), key=len)


@pytest.fixture
def sock_path():
    workdir = tempfile.mkdtemp(prefix="repro-sock-", dir="/tmp")
    yield f"{workdir}/d.sock"
    shutil.rmtree(workdir, ignore_errors=True)


def _serve_families(options):
    """Run every family through a pool in two batches; returns the
    per-family widget summaries after drain + close-flush."""
    summaries = {}
    with SessionPool(options=options, pool_size=2) as pool:
        for family in FAMILIES:
            log = _family_log(family)
            pool.submit(f"fam-{family}", log[: len(log) // 2])
            pool.submit(f"fam-{family}", log[len(log) // 2 :])
        results = pool.drain()
        for family in FAMILIES:
            summaries[family] = results[
                f"fam-{family}"
            ].interface.widget_summary()
    return summaries


class TestPoolDaemonParity:
    def test_all_families_byte_identical_to_in_process_store(
        self, tmp_path, sock_path
    ):
        local_root = tmp_path / "local-store"
        daemon_root = tmp_path / "daemon-store"
        client_root = tmp_path / "client-unused"

        local_summaries = _serve_families(
            PipelineOptions(cache_dir=str(local_root))
        )
        with running_daemon(daemon_root, sock_path) as daemon:
            remote_summaries = _serve_families(
                PipelineOptions(
                    cache_dir=str(client_root), daemon_socket=sock_path
                )
            )
            meters = daemon.daemon_stats()["clients"]
        # identical interfaces per family
        assert remote_summaries == local_summaries
        # the records travelled through the daemon, not the client root
        assert meters and any(m["bytes_in"] > 0 for m in meters.values())
        assert not any(client_root.glob("*.seg")) or all(
            SegmentReader(p).keys() == [] for p in client_root.glob("*.seg")
        )
        # and every persisted record is byte-identical across the paths
        # (graph headers carry wall-clock mining stats, the one field
        # two runs can never agree on — normalised before comparing)
        local_keys = {
            name: SegmentReader(local_root / name).keys() for name in _SEGMENTS
        }
        assert sorted(local_keys["graphs.seg"])  # the sweep stored things
        for name in _SEGMENTS:
            reader = SegmentReader(daemon_root / name)
            assert sorted(reader.keys()) == sorted(local_keys[name]), name
            local_reader = SegmentReader(local_root / name)
            for key in local_keys[name]:
                assert _stable(name, reader.get(key)) == _stable(
                    name, local_reader.get(key)
                ), (name, key)


def _stable(segment_name, record):
    if segment_name != "graphs.seg":
        return record
    header, _, rest = record.partition(b"\n")
    parsed = json.loads(header)
    parsed.get("stats", {}).pop("mining_seconds", None)
    return json.dumps(parsed, sort_keys=True).encode() + b"\n" + rest


class TestServeStreaming:
    LOG = [
        "SELECT a FROM t WHERE x = 1",
        "SELECT a FROM t WHERE x = 2",
        "SELECT a FROM t WHERE x = 5",
        "SELECT b FROM u WHERE y = 3",
    ]

    def _events(self):
        return [
            ("stream-a", self.LOG[0]),
            ("stream-b", self.LOG[3]),
            ("stream-a", self.LOG[1]),
            ("stream-a", self.LOG[2]),
        ]

    def test_every_ack_is_streamed_before_drain_returns(self):
        streamed = []
        drained_at = []

        with SessionPool(pool_size=2) as pool:
            results = asyncio.run(
                pool.serve(self._events(), on_result=streamed.append)
            )
            drained_at.append(len(streamed))

        assert len(streamed) == 4
        assert drained_at == [4]  # all four delivered before drain returned
        by_client = {}
        for ack in streamed:
            by_client[ack.client_id] = ack
        # the *last* streamed ack per client describes the drained result
        for client_id, result in results.items():
            assert by_client[client_id].n_queries == result.provenance["n_queries"]
            assert by_client[client_id].n_widgets == len(result.interface.widgets)
        # per-client streaming order follows submit order
        a_counts = [
            ack.n_queries for ack in streamed if ack.client_id == "stream-a"
        ]
        assert a_counts == sorted(a_counts)

    def test_async_subscriber_is_awaited(self):
        streamed = []

        async def subscriber(ack):
            await asyncio.sleep(0)
            streamed.append(ack.client_id)

        with SessionPool(pool_size=2) as pool:
            asyncio.run(pool.serve(self._events(), on_result=subscriber))
        assert sorted(streamed) == ["stream-a", "stream-a", "stream-a", "stream-b"]

    def test_failed_appends_are_streamed_too(self):
        streamed = []
        with SessionPool(pool_size=1) as pool:
            asyncio.run(
                pool.serve(
                    [("bad", "SELEC nope"), ("bad", self.LOG[0])],
                    strict=False,
                    on_result=streamed.append,
                )
            )
        assert [ack.ok for ack in streamed] == [False, True]
        assert "SQLSyntaxError" in streamed[0].error
        assert streamed[1].error is None and streamed[1].n_widgets >= 0

    def test_without_a_subscriber_results_stay_detached(self):
        """No subscriber, no ack kept: the pool only counts appends."""
        with SessionPool(pool_size=1) as pool:
            asyncio.run(pool.serve(self._events()))
            stats = pool.stats()
            assert (stats.n_completed, stats.n_failed) == (4, 0)
            assert not pool._routes

    def test_streamed_ack_pickles_small(self):
        """An ack carries counters (and the compiled interface when asked
        for), never the append's whole result."""
        streamed = []
        with SessionPool(pool_size=1) as pool:
            asyncio.run(pool.serve(self._events(), on_result=streamed.append))
        assert len(streamed) == 4
        assert all(not hasattr(ack, "result") for ack in streamed)
        assert max(len(pickle.dumps(ack)) for ack in streamed) < 1024

    def test_subscription_is_scoped_to_one_serve_call(self):
        """Acks from before the streaming serve are not replayed into
        the subscriber, and later acks are counted, not kept."""
        streamed = []
        with SessionPool(pool_size=1) as pool:
            pool.submit("earlier", self.LOG[0])
            while pool.pending():
                time.sleep(0.02)
            asyncio.run(
                pool.serve(
                    [("scoped", self.LOG[1])], on_result=streamed.append
                )
            )
            assert [ack.client_id for ack in streamed] == ["scoped"]
            pool.submit("later", self.LOG[2])
            while pool.pending():
                time.sleep(0.02)
            assert not pool._routes
            assert pool.stats().n_completed == 3
            assert [ack.client_id for ack in streamed] == ["scoped"]
