"""Streaming session surface: stream(), astream(), and the memoised
closure membership the steady-state service path uses."""

import asyncio

import pytest

from repro.api import InterfaceSession, generate
from repro.errors import LogError
from repro.logs import SDSSLogGenerator
from repro.sqlparser.parser import parse_sql

SQL = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
    "SELECT a FROM t WHERE x = 9",
]


@pytest.fixture(scope="module")
def sdss_asts():
    return SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 60).asts()


class TestStream:
    def test_yields_one_snapshot_per_batch(self, sdss_asts):
        session = InterfaceSession()
        batches = [sdss_asts[i : i + 15] for i in range(0, 60, 15)]
        snapshots = list(session.stream(batches))
        assert len(snapshots) == 4
        assert [s.provenance["n_appends"] for s in snapshots] == [1, 2, 3, 4]
        # each snapshot carries per-append stage reports
        for snapshot in snapshots:
            assert snapshot.provenance["incremental"] is True
            assert snapshot.run.stage("mine") is not None
            assert snapshot.run.stage("map") is not None
            assert snapshot.run.stage("merge") is not None
        assert snapshots[-1] is session.result

    def test_stream_equals_one_shot(self, sdss_asts):
        session = InterfaceSession()
        last = None
        for last in session.stream([sdss_asts[i : i + 12] for i in range(0, 60, 12)]):
            pass
        full = generate(sdss_asts)
        assert last.interface.widget_summary() == full.interface.widget_summary()
        assert session.n_pairs_compared == full.run.n_pairs_compared

    def test_accepts_strings_nodes_and_batches(self):
        session = InterfaceSession()
        snapshots = list(
            session.stream(
                [
                    SQL[0],                      # bare statement
                    parse_sql(SQL[1]),           # bare AST
                    [SQL[2], parse_sql(SQL[3])], # mixed batch
                ]
            )
        )
        assert len(snapshots) == 3
        assert len(session) == 4
        assert (
            snapshots[-1].interface.widget_summary()
            == generate(SQL).interface.widget_summary()
        )

    def test_stream_is_lazy(self):
        """Batches must be pulled one at a time — a stream over an
        unbounded source must not be drained ahead of consumption."""
        pulled = []

        def source():
            for index in range(100):
                pulled.append(index)
                yield [f"SELECT a FROM t WHERE x = {index}"]

        session = InterfaceSession()
        stream = session.stream(source())
        next(stream)
        next(stream)
        assert len(pulled) == 2

    def test_empty_batch_raises(self):
        session = InterfaceSession()
        with pytest.raises(LogError):
            list(session.stream([[]]))

    def test_empty_iterable_yields_nothing(self):
        session = InterfaceSession()
        assert list(session.stream([])) == []
        assert session.result is None

    def test_steady_state_reuses_components(self, sdss_asts):
        session = InterfaceSession()
        last = None
        for last in session.stream([sdss_asts[i : i + 6] for i in range(0, 60, 6)]):
            pass
        merge_stats = last.run.stage("merge").stats
        assert (
            merge_stats["n_components_reused"] + merge_stats["n_components_merged"]
            == merge_stats["n_components"]
        )
        map_stats = last.run.stage("map").stats
        assert map_stats["n_partitions_reused"] > 0


class TestAstream:
    def test_async_iterable_source(self, sdss_asts):
        async def main():
            session = InterfaceSession()

            async def source():
                for i in range(0, 60, 20):
                    await asyncio.sleep(0)
                    yield sdss_asts[i : i + 20]

            snapshots = []
            async for snapshot in session.astream(source()):
                snapshots.append(snapshot)
            return session, snapshots

        session, snapshots = asyncio.run(main())
        assert len(snapshots) == 3
        full = generate(sdss_asts)
        assert (
            snapshots[-1].interface.widget_summary()
            == full.interface.widget_summary()
        )
        assert session.n_pairs_compared == full.run.n_pairs_compared

    def test_sync_iterable_source(self):
        async def main():
            session = InterfaceSession()
            return [s async for s in session.astream([SQL[:2], SQL[2:]])]

        snapshots = asyncio.run(main())
        assert len(snapshots) == 2
        assert (
            snapshots[-1].interface.widget_summary()
            == generate(SQL).interface.widget_summary()
        )

    def test_loop_stays_responsive(self, sdss_asts):
        """Appends run in a worker thread; a concurrent task must get
        scheduled while the session chews through a batch."""
        async def main():
            session = InterfaceSession()
            ticks = []

            async def ticker():
                while True:
                    ticks.append(1)
                    await asyncio.sleep(0.001)

            task = asyncio.create_task(ticker())
            async for _snapshot in session.astream([sdss_asts[:40]]):
                pass
            task.cancel()
            return ticks

        assert len(asyncio.run(main())) >= 1


class TestSessionExpresses:
    def test_memoised_membership_matches_interface(self, sdss_asts):
        session = InterfaceSession()
        session.append(sdss_asts[:40])
        suite = sdss_asts[:5] + sdss_asts[40:45]
        memoised = [session.expresses(q) for q in suite]
        plain = [session.interface.expresses(q) for q in suite]
        assert memoised == plain
        # repeated queries hit the proof cache and stay consistent
        assert [session.expresses(q) for q in suite] == memoised

    def test_accepts_raw_sql(self):
        session = InterfaceSession()
        session.append_sql(SQL)
        assert session.expresses("SELECT a FROM t WHERE x = 2") is True

    def test_before_first_append_raises(self):
        with pytest.raises(LogError, match="before the first append"):
            InterfaceSession().expresses("SELECT a FROM t")

    def test_cache_survives_clean_appends(self, sdss_asts):
        """Proof reuse across appends is keyed to widget identity: the
        verdicts must stay correct when appends rebuild the widget set."""
        session = InterfaceSession()
        session.append(sdss_asts[:30])
        target = sdss_asts[0]
        before = session.expresses(target)
        session.append(sdss_asts[30:])
        after = session.expresses(target)
        assert before is True and after is True
