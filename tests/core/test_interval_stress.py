"""Interval-index staleness hunt under interleaved append/resume cycles.

Marked ``stress``: excluded from the default (tier-1) run by the
``-m "not stress"`` addopts and executed by CI's dedicated stress job
(``pytest -m stress``).

Worker threads drive the same template-traffic log through
:class:`~repro.api.InterfaceSession` appends, randomly snapshotting and
resuming — including *cross-thread* resumes, where a worker abandons its
session and picks up the latest snapshot some other worker published.
Every resume rebuilds the MapCache interval index from scratch (interval
annotations are derived state, never persisted), so the interleaving
hammers exactly the seam where a stale revision vector could hide: a
window-memo or component-memo entry recorded by one incarnation being
consulted by an index rebuilt in another.

The invariants checked after **every** append and resume:

* the interval annotations satisfy the full nesting/disjointness/size
  contract (``check_invariants``);
* the per-path revision counters and the Fenwick revision mass agree —
  the window sums the merge layer trusts are exactly the dirtiness the
  partition index recorded;
* no memoised component signature exceeds its live window revision
  (revisions only grow, so a larger stored signature is impossible
  unless state leaked across incarnations);
* at the end of each worker's schedule the widget summary equals a
  one-shot build of the same log — the observable that a stale window
  replay would corrupt.
"""

import random
import threading

import pytest

from repro.api import InterfaceSession, generate
from repro.sqlparser import parse_sql

pytestmark = pytest.mark.stress

N_THREADS = 4
N_CYCLES = 3
STEP = 5


def _log():
    """Template traffic with a hot literal and a nested clean subtree —
    the workload that actually exercises window-memo replays."""
    statements = (
        ["SELECT g, SUM(m) FROM t GROUP BY g"]
        + [
            f"SELECT a, b FROM t WHERE x = 0 AND f(y, {j}) = 5"
            for j in range(5)
        ]
        + [
            "SELECT a, b FROM t WHERE x = 0 AND z = 5",
            "SELECT a, b FROM t WHERE x = 0 AND f(y, 2) = 5",
        ]
        + [
            f"SELECT a, b FROM t WHERE x = {value} AND f(y, 3) = 5"
            for value in range(40)
        ]
    )
    return [parse_sql(s) for s in statements]


def _check_cache(session, errors, where):
    cache = session._state.map_cache
    index = cache.index
    try:
        index.intervals.check_invariants()
        for path, rev in index.rev.items():
            if index.intervals.revision_of(path) != rev:
                raise AssertionError(
                    f"revision vector out of sync at {path}: "
                    f"{index.intervals.revision_of(path)} != {rev}"
                )
        for root, (signature, _) in cache.merge.items():
            live = index.window_revision(root)
            if signature > live:
                raise AssertionError(
                    f"stale component signature at {root}: "
                    f"memoised {signature} > live window revision {live}"
                )
    except AssertionError as exc:
        errors.append(f"{where}: {exc}")


def _worker(thread_idx, asts, tmp_path, latest, lock, expected, errors):
    rng = random.Random(thread_idx)
    for cycle in range(N_CYCLES):
        session = InterfaceSession()
        consumed = 0
        while consumed < len(asts):
            session.append(asts[consumed : consumed + STEP])
            consumed = len(session)
            _check_cache(
                session, errors, f"t{thread_idx} c{cycle} append@{consumed}"
            )
            if consumed < len(asts) and rng.random() < 0.4:
                snap = tmp_path / f"snap-{thread_idx}.jsonl"
                session.save(snap)
                with lock:
                    latest[thread_idx] = snap
                    # sometimes adopt another worker's snapshot instead
                    # of our own — the cross-incarnation interleaving
                    candidates = list(latest.values())
                resume_from = (
                    rng.choice(candidates) if rng.random() < 0.5 else snap
                )
                session = InterfaceSession.resume(resume_from)
                consumed = len(session)
                _check_cache(
                    session,
                    errors,
                    f"t{thread_idx} c{cycle} resume@{consumed}",
                )
        summary = session.interface.widget_summary()
        if summary != expected:
            errors.append(
                f"t{thread_idx} c{cycle}: widget summary diverged from "
                f"one-shot build after append/resume interleaving"
            )


def test_interleaved_append_resume_never_goes_stale(tmp_path):
    asts = _log()
    expected = generate(asts).interface.widget_summary()
    errors: list[str] = []
    latest: dict[int, object] = {}
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_worker,
            args=(i, asts, tmp_path, latest, lock, expected, errors),
        )
        for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, "\n".join(errors)
