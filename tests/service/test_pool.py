"""SessionPool behaviour: routing, ordering, drain, errors, lifecycle,
backpressure, async serving, and shared-store publication."""

import asyncio
import time

import pytest

from repro.api import InterfaceSession, generate
from repro.cache.store import GraphStore
from repro.core.options import PipelineOptions
from repro.errors import ServiceError
from repro.service import SessionPool
from repro.service.pool import _shard_of

LOG_A = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
]
LOG_B = [
    "SELECT b FROM u WHERE y = 3",
    "SELECT b FROM u WHERE y = 9",
    "SELECT b FROM u WHERE y = 4",
]


@pytest.fixture(scope="module")
def pool():
    """One module-scoped pool; tests isolate through distinct client ids."""
    with SessionPool(pool_size=2, queue_depth=4) as shared:
        yield shared


class TestSubmitDrain:
    def test_parity_with_one_shot_generate(self, pool):
        for statement in LOG_A:
            pool.submit("parity-a", statement)
        pool.submit("parity-b", LOG_B)  # whole log as one batch
        results = pool.drain()
        assert (
            results["parity-a"].interface.widget_summary()
            == generate(LOG_A).interface.widget_summary()
        )
        assert (
            results["parity-b"].interface.widget_summary()
            == generate(LOG_B).interface.widget_summary()
        )

    def test_batches_of_one_client_apply_in_submit_order(self, pool):
        session = InterfaceSession()
        for statement in LOG_A:
            session.append_sql([statement])
            pool.submit("ordered", statement)
        results = pool.drain()
        assert results["ordered"].provenance["n_queries"] == len(LOG_A)
        assert (
            results["ordered"].interface.widget_summary()
            == session.interface.widget_summary()
        )

    def test_drain_keeps_sessions_alive_for_later_appends(self, pool):
        pool.submit("alive", LOG_A[:2])
        first = pool.drain()["alive"]
        assert first.provenance["n_queries"] == 2
        pool.submit("alive", LOG_A[2])
        second = pool.drain()["alive"]
        assert second.provenance["n_queries"] == 3
        assert (
            second.interface.widget_summary()
            == generate(LOG_A).interface.widget_summary()
        )

    def test_release_forgets_a_client(self, pool):
        pool.submit("released", LOG_A[:2])
        pool.drain()
        pool.release(["released"])
        pool.submit("released", LOG_B)
        result = pool.drain()["released"]
        # a fresh session: only LOG_B, not LOG_A[:2] + LOG_B
        assert result.provenance["n_queries"] == len(LOG_B)

    def test_sharding_is_stable_and_covers_workers(self):
        assert _shard_of("some-client", 4) == _shard_of("some-client", 4)
        shards = {_shard_of(f"client-{i}", 2) for i in range(32)}
        assert shards == {0, 1}

    def test_acks_and_stats_count_appends(self, pool):
        before = pool.stats()
        acks = []
        events = [("counted", LOG_A[0]), ("counted", LOG_A[1])]
        asyncio.run(pool.serve(events, on_result=acks.append, drain=False))
        pool.drain()
        stats = pool.stats()
        assert stats.n_submitted == before.n_submitted + 2
        assert stats.n_completed == before.n_completed + 2
        assert [a.client_id for a in acks] == ["counted", "counted"]
        assert all(a.ok and a.n_widgets >= 0 for a in acks)
        assert [a.n_queries for a in sorted(acks, key=lambda a: a.seq)] == [1, 2]


class TestErrors:
    def test_bad_batch_fails_that_append_not_the_pool(self, pool):
        pool.submit("broken", "SELECT FROM WHERE")  # unparseable
        with pytest.raises(ServiceError) as excinfo:
            pool.drain()
        assert excinfo.value.failures
        assert "broken" in excinfo.value.failures[0]
        # the pool survives and the next drain is clean
        pool.submit("fine", LOG_A[0])
        results = pool.drain()
        assert "fine" in results

    def test_non_strict_drain_reports_through_stats(self, pool):
        pool.submit("lenient", "")  # empty batch -> LogError in the worker
        results = pool.drain(strict=False)
        assert "lenient" not in results
        assert pool.stats().n_failed >= 1

    def test_empty_batch_is_an_error(self, pool):
        pool.submit("empty-batch", [])
        with pytest.raises(ServiceError):
            pool.drain()

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            SessionPool(pool_size=0)
        with pytest.raises(ServiceError):
            SessionPool(queue_depth=0)

    def test_submit_after_close_raises(self):
        pool = SessionPool(pool_size=1)
        pool.close()
        with pytest.raises(ServiceError):
            pool.submit("late", LOG_A[0])
        with pytest.raises(ServiceError):
            pool.drain()
        pool.close()  # idempotent


class TestConcurrentIntrospection:
    def test_stats_polling_during_drain_does_not_lose_the_reply(self):
        """Regression: a stats()/pending() call racing drain() used to
        pop the worker's 'drained' reply off the shared outbox and drop
        it, hanging drain() forever.  Poll aggressively while draining."""
        import threading

        with SessionPool(pool_size=2, queue_depth=4) as pool:
            for index in range(6):
                pool.submit(f"poll-{index % 2}", LOG_A[index % len(LOG_A)])
            stop = threading.Event()
            errors = []

            def hammer_stats():
                try:
                    while not stop.is_set():
                        pool.stats()
                        pool.pending()
                except Exception as exc:  # surfaced below, not swallowed
                    errors.append(exc)

            poller = threading.Thread(target=hammer_stats, daemon=True)
            poller.start()
            try:
                results = pool.drain()
            finally:
                stop.set()
                poller.join(timeout=10)
            assert set(results) == {"poll-0", "poll-1"}
            assert not errors

    def test_counts_stay_exact_under_concurrent_polling(self):
        """Acks are counted by whichever thread reads the outbox; with
        several threads polling at a tiny switch interval, a lost
        update would leave a completed append uncounted."""
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SessionPool(pool_size=1, queue_depth=4) as pool:
                stop = threading.Event()

                def poll():
                    while not stop.is_set():
                        pool.stats()
                        pool.pending()

                pollers = [threading.Thread(target=poll, daemon=True) for _ in range(4)]
                for poller in pollers:
                    poller.start()
                try:
                    for index in range(30):
                        pool.submit("polled", LOG_A[index % len(LOG_A)])
                    pool.drain()
                finally:
                    stop.set()
                    for poller in pollers:
                        poller.join(timeout=10)
                assert not any(poller.is_alive() for poller in pollers)
                stats = pool.stats()
                assert (stats.n_completed, stats.n_failed) == (30, 0)
                assert pool.pending() == 0
        finally:
            sys.setswitchinterval(interval)

    def test_flush_errors_accessor_defaults_empty(self, pool):
        pool.submit("flushless", LOG_A[0])
        pool.drain()
        assert pool.flush_errors() == []


class TestBackpressure:
    def test_submit_blocks_when_the_shard_queue_is_full(self):
        """With queue_depth=1 and a worker busy on a slow append, the
        second-plus submits must wait for capacity instead of buffering."""
        slow = [f"SELECT a FROM t WHERE x = {i}" for i in range(60)]
        with SessionPool(pool_size=1, queue_depth=1) as pool:
            pool.submit("pressure", slow)  # occupies the worker
            started = time.perf_counter()
            for i in range(3):
                pool.submit("pressure", f"SELECT a FROM t WHERE x = {100 + i}")
            blocked = time.perf_counter() - started
            results = pool.drain()
        assert results["pressure"].provenance["n_queries"] == len(slow) + 3
        # the submits cannot all have been instantaneous: at least one
        # waited for the worker to pop the queue
        assert blocked > 0.001


class TestServe:
    def test_serve_consumes_a_sync_stream(self, pool):
        events = [("serve-sync", batch) for batch in (LOG_A[:2], LOG_A[2])]
        results = asyncio.run(pool.serve(events))
        assert (
            results["serve-sync"].interface.widget_summary()
            == generate(LOG_A).interface.widget_summary()
        )

    def test_serve_consumes_an_async_stream(self, pool):
        async def stream():
            for batch in (LOG_B[:1], LOG_B[1:]):
                await asyncio.sleep(0)
                yield "serve-async", batch

        results = asyncio.run(pool.serve(stream()))
        assert (
            results["serve-async"].interface.widget_summary()
            == generate(LOG_B).interface.widget_summary()
        )

    def test_serve_without_drain_leaves_synchronisation_to_caller(self, pool):
        events = [("serve-nodrain", LOG_A[0])]
        assert asyncio.run(pool.serve(events, drain=False)) == {}
        results = pool.drain()
        assert "serve-nodrain" in results


class TestServeCompile:
    def test_patch_stream_folds_to_the_full_page(self, pool):
        from repro.compiler import compile_html
        from repro.compiler.incremental import apply_patch, page_html

        acks = []
        events = [
            ("fold-a", LOG_A[:2]),
            ("fold-b", LOG_B[:2]),
            ("fold-a", LOG_A[2]),
            ("fold-b", LOG_B[2]),
        ]
        results = asyncio.run(
            pool.serve(events, on_result=acks.append, compile="patch")
        )
        assert len(acks) == len(events)
        states = {}
        for ack in sorted(acks, key=lambda a: a.seq):
            assert ack.compiled is not None
            states[ack.client_id] = apply_patch(
                states.get(ack.client_id), ack.compiled
            )
        # folding each client's patch stream reproduces the full page a
        # one-shot compile of its final interface would render (the
        # module-scoped pool drains other tests' clients too — only ours
        # carry folded state)
        for client_id in ("fold-a", "fold-b"):
            assert page_html(states[client_id]) == compile_html(
                results[client_id].interface
            )

    def test_page_mode_ships_full_html_every_append(self, pool):
        from repro.compiler import compile_html

        acks = []
        events = [("page-mode", LOG_A[:2]), ("page-mode", LOG_A[2])]
        results = asyncio.run(
            pool.serve(events, on_result=acks.append, compile="page")
        )
        last = max(acks, key=lambda a: a.seq)
        assert last.compiled["kind"] == "page_html"
        assert last.compiled["html"] == compile_html(results["page-mode"].interface)

    def test_compile_failure_does_not_fail_the_append(self, pool):
        # one query mines no widgets: the compile errors, the append lands
        acks = []
        results = asyncio.run(
            pool.serve(
                [("compile-err", LOG_A[0])],
                on_result=acks.append,
                compile="page",
            )
        )
        assert results["compile-err"].interface is not None
        assert acks[0].compiled["kind"] == "error"
        assert "CompileError" in acks[0].compiled["error"]

    def test_invalid_compile_mode_rejected(self, pool):
        with pytest.raises(ServiceError, match="compile"):
            asyncio.run(pool.serve([], compile="xml"))

    def test_compile_mode_resets_after_serve(self, pool):
        asyncio.run(pool.serve([("reset-check", LOG_A[0])], compile="page"))
        # the mode rode on that call's appends only: a later serve without
        # compile= gets uncompiled acks
        acks = []
        asyncio.run(
            pool.serve([("reset-check", LOG_A[1])], on_result=acks.append)
        )
        assert [ack.compiled for ack in acks] == [None]
        pool.submit("reset-check", LOG_A[2])
        results = pool.drain()
        assert "reset-check" in results


class TestConcurrentServe:
    def test_each_serve_call_owns_its_acks_and_compile_mode(self):
        """Regression: serve() kept its subscriber and compile mode in
        pool attributes, so of two calls gathered on one event loop the
        first subscriber got none of its acks (the second got all six),
        and the second call's compile mode applied to the first call's
        appends."""
        from repro.compiler import compile_html
        from repro.compiler.incremental import apply_patch, page_html

        batches = {
            "own-patch": [LOG_A[0:2], LOG_A[1:3], LOG_A[0:3:2]],
            "own-plain": [LOG_B[0:2], LOG_B[1:3], LOG_B[0:3:2]],
        }
        modes = {"own-patch": "patch", "own-plain": None}
        acks = {client: [] for client in batches}

        async def both(pool):
            await asyncio.gather(
                *(
                    pool.serve(
                        [(client, batch) for batch in batches[client]],
                        on_result=acks[client].append,
                        compile=modes[client],
                        drain=False,
                    )
                    for client in batches
                )
            )

        with SessionPool(pool_size=1, queue_depth=4) as pool:
            asyncio.run(both(pool))
            results = pool.drain()
        for client, client_acks in acks.items():
            # exactly this call's three acks, in submit order
            assert [ack.client_id for ack in client_acks] == [client] * 3
            assert [ack.n_queries for ack in client_acks] == [2, 4, 6]
            assert all(ack.ok for ack in client_acks)
        assert all(ack.compiled is None for ack in acks["own-plain"])
        state = None
        for ack in acks["own-patch"]:
            assert ack.compiled is not None and ack.compiled["kind"] != "error"
            state = apply_patch(state, ack.compiled)
        assert page_html(state) == compile_html(results["own-patch"].interface)
        assert not pool._routes  # every ack was delivered, none kept


class TestSharedStore:
    def test_drain_publishes_graphs_widgets_and_proofs(self, tmp_path):
        cache_dir = tmp_path / "store"
        options = PipelineOptions(cache_dir=str(cache_dir))
        with SessionPool(options=options, pool_size=2) as pool:
            pool.submit("pub-a", LOG_A)
            pool.submit("pub-b", LOG_B)
            pool.drain()
        store = GraphStore(cache_dir)
        stats = store.stats()
        assert stats["n_graphs"] == 2
        assert stats["n_widget_sets"] == 2
        # a later one-shot generate over the same log is a full hit
        warm = generate(LOG_A, options=PipelineOptions(cache_dir=str(cache_dir)))
        assert warm.run.stage("mine").stats["skipped"] is True
        assert warm.run.stage("merge").stats["skipped"] is True

    def test_drains_publish_only_sessions_with_new_appends(self, tmp_path):
        """A drain flushes a session only when it appended since its last
        flush: re-publishing an unchanged session re-encoded and re-sent
        its whole graph and widget set under the same key."""
        from repro.cache import SegmentReader
        from repro.cache.format import TRAILER_FRAME_LEN
        from repro.cache.store import TABLES
        from repro.logs import SDSSLogGenerator

        logs = SDSSLogGenerator(0).clients(2, 30)
        log_a, log_b = logs["C1"].statements(), logs["C2"].statements()
        cache_dir = tmp_path / "store"
        segments = [cache_dir / table.segment for table in TABLES]

        def snapshot():
            readers = [SegmentReader(str(path)) for path in segments]
            try:
                return [path.stat().st_size for path in segments], [
                    reader.index() for reader in readers
                ]
            finally:
                for reader in readers:
                    reader.close()

        options = PipelineOptions(cache_dir=str(cache_dir))
        with SessionPool(options=options, pool_size=1) as pool:
            pool.submit("a", log_a)
            pool.submit("b", log_b[:10])
            pool.drain()
            sizes, indexes = snapshot()
            pool.submit("b", log_b[10:11])
            pool.drain()
            after_sizes, after_indexes = snapshot()
            for size, after_size, before, after in zip(
                sizes, after_sizes, indexes, after_indexes
            ):
                written = {k for k, e in after.items() if e.offset >= size}
                # b's new key and the write's trailer: no record or
                # recency marker of a
                assert written == set(after) - set(before)
                assert len(written) == 1
                (key,) = written
                assert after_size - size == after[key].frame_len + TRAILER_FRAME_LEN
            pool.drain()
            assert snapshot()[0] == after_sizes
