"""Pool shutdown escalation: the close()/lock-lifecycle contract.

The old teardown fire-and-forgot: a worker wedged in ``flush_to_store``
was terminated *while holding the store flock*, and flush errors a
drain had queued but nobody collected were silently dropped.  These
tests pin the repaired lifecycle: flushes run under a deadline, a
terminated worker unwinds via ``SystemExit`` (SIGTERM handler) instead
of dying mid-write, ``close()`` reports exactly what was not published,
and the store lock is always acquirable afterwards — no orphaned
``.lock`` holder survives a shutdown, wedged or not.
"""

import fcntl
import time

import pytest

from repro.cache.lock import LOCK_FILE_NAME
from repro.cache.store import GraphStore
from repro.core.options import PipelineOptions
from repro.errors import ServiceError
from repro.service import SessionPool
from repro.service.pool import _Reply

LOG = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
]


class _GlacialBatch:
    """A batch whose iteration wedges the worker mid-append (pickles by
    reference; the forked worker imports this module)."""

    def __iter__(self):
        time.sleep(60)
        return iter(())


def _wait_for_acks(pool, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool.pending() == 0:
            return
        time.sleep(0.05)
    raise AssertionError(f"{pool.pending()} appends still pending")


def _assert_lock_acquirable(store_root):
    """The shutdown left no flock holder behind."""
    with open(store_root / LOCK_FILE_NAME, "a+") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class TestCleanClose:
    def test_close_flushes_sessions_and_reports_clean(self, tmp_path):
        cache_dir = tmp_path / "store"
        options = PipelineOptions(cache_dir=str(cache_dir))
        pool = SessionPool(options=options, pool_size=2)
        pool.submit("clean-a", LOG)
        pool.submit("clean-b", LOG[0])
        _wait_for_acks(pool)
        report = pool.close()
        assert report.clean
        assert report.flush_errors == ()
        assert report.unflushed_clients == ()
        assert report.terminated_workers == ()
        # close() published the sessions even though nobody drained
        assert GraphStore(cache_dir).stats()["n_graphs"] == 2
        _assert_lock_acquirable(cache_dir)

    def test_stats_and_pending_answer_after_close(self):
        """The final counts, read after the outbox is closed."""
        pool = SessionPool(pool_size=1)
        pool.submit("after", LOG)
        pool.submit("after", "SELECT FROM WHERE")
        pool.close()
        stats = pool.stats()
        assert (stats.n_submitted, stats.n_completed, stats.n_failed) == (2, 1, 1)
        assert stats.n_clients == 1
        assert pool.pending() == 0

    def test_close_is_idempotent_and_returns_the_same_report(self, tmp_path):
        pool = SessionPool(pool_size=1)
        pool.submit("idem", LOG[0])
        first = pool.close()
        assert pool.close() is first
        with pytest.raises(ServiceError):
            pool.submit("idem", LOG[1])


class TestWedgedFlush:
    def test_flush_wedged_on_the_store_lock_misses_the_deadline(self, tmp_path):
        """A worker whose close-flush blocks on a held flock reports the
        unpublished clients and exits — and no lock holder is orphaned."""
        cache_dir = tmp_path / "store"
        options = PipelineOptions(cache_dir=str(cache_dir))
        pool = SessionPool(options=options, pool_size=1)
        pool.submit("wedge-c", LOG)
        _wait_for_acks(pool)

        holder = open(cache_dir / LOCK_FILE_NAME, "a+")
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        try:
            report = pool.close(flush_timeout=1.0)
        finally:
            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
            holder.close()

        assert not report.clean
        assert report.unflushed_clients == ("wedge-c",)
        # the worker answered in time (the flush thread missed the
        # deadline, not the worker) — nothing had to be terminated
        assert report.terminated_workers == ()
        _assert_lock_acquirable(cache_dir)
        # nothing was published: the graph never reached the store
        assert GraphStore(cache_dir).stats()["n_graphs"] == 0

    def test_worker_wedged_in_an_append_is_terminated(self, tmp_path):
        """A worker that cannot even answer the close sentinel is
        escalated to SIGTERM, and its clients are reported unflushed.
        The ``SystemExit`` the signal raises mid-append ends the worker:
        it neither acks the append as failed nor answers the barrier."""
        cache_dir = tmp_path / "store"
        options = PipelineOptions(cache_dir=str(cache_dir))
        pool = SessionPool(options=options, pool_size=1)
        pool.submit("stuck", _GlacialBatch())
        started = time.monotonic()
        report = pool.close(flush_timeout=0.5)
        elapsed = time.monotonic() - started
        assert not report.clean
        assert len(report.terminated_workers) == 1
        assert "stuck" in report.unflushed_clients
        assert pool._workers[0].exitcode == 143
        # the close deadline (flush_timeout + 5 s), then the exit
        assert elapsed < 0.5 + 5.0 + 2.0
        assert pool.stats().n_failed == 0
        _assert_lock_acquirable(cache_dir)

    def test_sigterm_unwinds_a_worker_instead_of_killing_it(self):
        """``Process.terminate()`` lands as ``SystemExit(143)`` — the
        worker's ``finally``/``with lock.held()`` blocks run, which is
        what releases a held flock before the process dies."""
        pool = SessionPool(pool_size=1)
        pool.submit("sig", LOG[0])
        _wait_for_acks(pool)
        worker = pool._workers[0]
        worker.terminate()  # idle in inbox.get(): the handler fires there
        worker.join(timeout=10)
        assert worker.exitcode == 143
        report = pool.close()
        # the dead worker's clients were (potentially) unpublished
        assert "sig" in report.unflushed_clients


class TestFlushErrorReporting:
    def test_uncollected_drain_flush_errors_survive_close(self, tmp_path):
        """Regression: a drain reply left in the outbox (e.g. a serve()
        cancelled between worker reply and collection) used to vanish at
        teardown together with its flush errors."""
        pool = SessionPool(pool_size=1)
        pool.submit("orphan-err", LOG[0])
        _wait_for_acks(pool)
        pool._outbox.put(_Reply(0, -1, {}, ["orphan-err: flock timeout"], []))
        report = pool.close()
        assert "orphan-err: flock timeout" in pool.flush_errors()
        assert "orphan-err: flock timeout" in report.flush_errors

    def test_close_reports_store_publication_failures(self, tmp_path):
        """A flush that *fails* (rather than wedges) lands in the
        report's flush_errors with the client named."""
        import shutil

        cache_dir = tmp_path / "store"
        options = PipelineOptions(cache_dir=str(cache_dir))
        pool = SessionPool(options=options, pool_size=1)
        pool.submit("doomed", LOG)
        _wait_for_acks(pool)
        # sabotage the store root: the directory becomes a file, so the
        # close-flush cannot even open the lock
        shutil.rmtree(cache_dir)
        cache_dir.write_text("not a directory\n", encoding="utf-8")
        report = pool.close()
        assert any(err.startswith("doomed:") for err in report.flush_errors)
        assert any(err.startswith("doomed:") for err in pool.flush_errors())
