"""Interaction-graph construction with the sliding-window optimisation.

The baseline implementation of Section 6 compares *all* pairs of queries —
``O(|Q|^2)`` tree alignments.  The sliding-window optimisation (Section 6.1)
exploits locality in analysis logs: only pairs within ``window`` positions
of each other are compared, reducing the work to ``O(|Q| * window)`` and
shrinking the interaction graph the mapper must process.

Identical consecutive queries (common in real logs) produce no diff records
and therefore no edges.

Template-repetitive logs get a second optimisation on top of the window:
pass a :class:`~repro.treediff.memo.DiffMemo` and every pair whose
*shape* (skeleton pair + literal pattern) was aligned before replays the
memoised alignment plan instead of re-running the child-alignment DP —
mining cost becomes proportional to unique shape pairs, not raw pairs,
with byte-identical output (see :mod:`repro.treediff.memo`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import LogError
from repro.graph.interaction import Edge, InteractionGraph
from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS, GrammarAnnotations
from repro.treediff.diff import extract_diffs
from repro.treediff.memo import DiffMemo

__all__ = [
    "BuildStats",
    "build_interaction_graph",
    "extend_interaction_graph",
    "in_build_order",
]

# _compare_pair outcomes, tallied into BuildStats by the extension loop
_SKIPPED = 0  # structurally identical pair: no alignment at all
_FULL = 1  # full alignment (no memo, first-of-shape, or fallback)
_MEMOISED = 2  # alignment plan replay


@dataclass
class BuildStats:
    """Instrumentation produced while mining interactions.

    Attributes:
        n_pairs_compared: number of tree alignments performed (replayed
            or full; structurally identical pairs count too, matching the
            pair-set semantics the incremental session relies on).
        mining_seconds: wall-clock time spent extracting diffs.
        n_alignments_memoised: pairs answered by a
            :class:`~repro.treediff.memo.DiffMemo` plan replay — no
            alignment DP was run for them.
        n_alignments_full: pairs that ran the full alignment (includes
            every pair when mining without a memo).
    """

    n_pairs_compared: int = 0
    mining_seconds: float = 0.0
    n_alignments_memoised: int = 0
    n_alignments_full: int = 0


def _compare_pair(
    graph: InteractionGraph,
    i: int,
    j: int,
    prune: bool,
    annotations: GrammarAnnotations,
    memo: DiffMemo | None = None,
) -> int:
    """Align queries ``i`` and ``j`` and record the diffs/edge, if any.

    With a ``memo``, known shapes replay their alignment plan
    (result-identical, see :class:`~repro.treediff.memo.DiffMemo`).
    Returns the outcome code the extension loop tallies into
    :class:`BuildStats`.
    """
    left, right = graph.queries[i], graph.queries[j]
    if left.fingerprint == right.fingerprint and left.equals(right):
        return _SKIPPED
    if memo is not None:
        before = memo.n_replayed
        records = memo.extract(
            left, right, q1=i, q2=j, prune=prune, annotations=annotations
        )
        outcome = _MEMOISED if memo.n_replayed > before else _FULL
    else:
        records = extract_diffs(
            left, right, q1=i, q2=j, prune=prune, annotations=annotations
        )
        outcome = _FULL
    if not records:
        return outcome
    graph.diffs.extend(records)
    leaf = tuple(d for d in records if d.is_leaf)
    graph.edges.append(Edge(q1=i, q2=j, interaction=leaf))
    return outcome


def build_interaction_graph(
    queries: list[Node],
    window: int | None = None,
    prune: bool = True,
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
    stats: BuildStats | None = None,
    memo: DiffMemo | None = None,
) -> InteractionGraph:
    """Mine the interaction graph from a parsed query log.

    A one-shot build is one :func:`extend_interaction_graph` from an empty
    graph — the same pair set — normalised to the ``(q1, q2)``-lexicographic
    edge and diff order by :func:`in_build_order`.

    Args:
        queries: ASTs in log order.
        window: sliding-window size; compare queries at positions ``i < j``
            only when ``j - i < window``.  ``None`` (or a window of at least
            ``len(queries)``) compares all pairs — the unoptimised baseline.
            The minimum useful window is 2 (adjacent pairs only).
        prune: apply LCA pruning while extracting diffs (Section 6.2).
        annotations: grammar annotations for typing changes.
        stats: optional instrumentation sink.
        memo: optional :class:`~repro.treediff.memo.DiffMemo`; repeated
            query shapes replay their alignment plan instead of re-running
            the alignment DP.  Output is byte-identical either way.

    Returns:
        The mined :class:`InteractionGraph`.

    Raises:
        LogError: for an empty log or a nonsensical window.
    """
    if not queries:
        raise LogError("cannot mine an empty query log")
    graph = extend_interaction_graph(
        InteractionGraph(queries=[]),
        queries,
        window=window,
        prune=prune,
        annotations=annotations,
        stats=stats,
        memo=memo,
    )
    return in_build_order(graph)


def in_build_order(graph: InteractionGraph) -> InteractionGraph:
    """The graph with edges and diffs stably sorted by ``(q1, q2)``.

    :func:`extend_interaction_graph` appends in arrival order (by the later
    query of each pair), which differs from the lexicographic order once
    ``window > 2``.  The mapper's greedy merge is order-sensitive and its
    result is defined against the lexicographic order, so every persisted
    or one-shot graph is normalised here; records of one pair keep their
    extraction order.
    """
    return InteractionGraph(
        queries=list(graph.queries),
        edges=sorted(graph.edges, key=lambda e: (e.q1, e.q2)),
        diffs=sorted(graph.diffs, key=lambda d: (d.q1, d.q2)),
    )


def extend_interaction_graph(
    graph: InteractionGraph,
    new_queries: list[Node],
    window: int | None = None,
    prune: bool = True,
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
    stats: BuildStats | None = None,
    memo: DiffMemo | None = None,
) -> InteractionGraph:
    """Incrementally extend a mined graph with appended queries.

    Only pairs that involve a new query are aligned: for each appended
    position ``j``, the partners are ``i in [max(0, j - window + 1), j)``
    (all earlier queries when ``window`` is ``None``).  Together with the
    pairs already in ``graph`` this is exactly the pair set
    :func:`build_interaction_graph` would compare on the concatenated log,
    so growing a log by increments never re-diffs an already-compared pair.

    The graph is mutated in place and returned.  Note that edges/diffs are
    appended in arrival order, which differs from the full build's
    ``(q1, q2)``-lexicographic order once ``window > 2``; callers that need
    build order (persistence, one-shot builds) normalise with
    :func:`in_build_order`.

    Raises:
        LogError: for an empty batch or a nonsensical window.
    """
    if not new_queries:
        raise LogError("cannot extend the graph with an empty batch")
    if window is not None and window < 2:
        raise LogError(f"window must be >= 2, got {window}")

    old_n = len(graph.queries)
    graph.queries.extend(new_queries)
    started = time.perf_counter()
    n_pairs = 0
    n_memoised = 0
    n_full = 0

    for j in range(old_n, len(graph.queries)):
        start = 0 if window is None else max(0, j - window + 1)
        for i in range(start, j):
            n_pairs += 1
            outcome = _compare_pair(graph, i, j, prune, annotations, memo)
            if outcome == _MEMOISED:
                n_memoised += 1
            elif outcome == _FULL:
                n_full += 1

    if stats is not None:
        stats.n_pairs_compared += n_pairs
        stats.mining_seconds += time.perf_counter() - started
        stats.n_alignments_memoised += n_memoised
        stats.n_alignments_full += n_full
    return graph
