"""Skeleton-level diff memoisation — alignment plans replayed by path.

Analysis logs are overwhelmingly *template-repetitive*: thousands of query
pairs differ only in literal values and share one structural skeleton.
:func:`~repro.treediff.diff.extract_diffs` nevertheless re-runs the full
child-alignment DP for every pair, so the Mine stage's cost is
proportional to raw pairs.  A :class:`DiffMemo` collapses that to *unique
shape pairs*: the first alignment of a shape pair records an **alignment
plan** — the matched paths, change classifications, and emission order of
its diff records — and every later concrete pair of the same shape
*replays* the plan by direct path lookup, emitting fully concrete
:class:`~repro.treediff.diff.Diff` records without touching
``align_children`` at all.

Result-equivalence is the hard requirement, and a skeleton pair alone is
not enough to guarantee it: the aligner's anchoring stage pins children
that are *concretely* equal, so two pairs with identical skeletons but a
different equality pattern among their literals can align differently
(``[x=0, x=0] vs [x=0, x=9]`` anchors the first conjunct; ``[x=1, x=2] vs
[x=3, x=2]`` anchors the second).  Plans are therefore validated by a
**literal pattern** — the canonical first-appearance numbering of both
trees' literal values.  Skeleton equality fixes everything about the pair
except literal values; the pattern fixes every equality between them.
Together they determine every predicate ``extract_diffs`` evaluates
(subtree equality, node-type equality, attribute equality), so a plan
replayed under a matching pattern is byte-identical to direct extraction.
A pair whose pattern was never seen, or whose replay hits a path or kind
mismatch (defence in depth — e.g. a hash collision between skeletons),
falls back to a full alignment and records a new plan.

The memo is in-memory and process-salted (skeleton hashes build on
``hash``), so it lives as long as its owner — a session's memo replays
plans across that session's appends.
"""

from __future__ import annotations

from repro.paths import Path
from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS, GrammarAnnotations
from repro.treediff.diff import Diff, classify_change, extract_diffs

__all__ = ["DiffMemo", "literal_pattern"]

# plan-entry opcodes
_REPLACE = 0
_DELETE = 1
_INSERT = 2

#: one replayable diff: (path, source_path, opcode, kind, is_leaf)
_PlanEntry = tuple[Path, Path, int, str, bool]
_Plan = tuple[_PlanEntry, ...]
#: (skeleton(a), skeleton(b), prune)
_ShapeKey = tuple[int, int, bool]
#: canonical literal numbering of a pair (see :func:`literal_pattern`)
_Pattern = tuple[int, ...]


def literal_pattern(a: Node, b: Node) -> tuple[int, ...]:
    """Canonical numbering of the pair's literal values.

    Walks ``a`` then ``b`` in preorder and maps every literal value to the
    index of its first appearance.  Two pairs with equal skeletons and
    equal patterns have an identical subtree-equality matrix at every
    level, which is the property that makes plan replay exact.
    """
    ids: dict[object, int] = {}
    out: list[int] = []
    for value in a.literal_values + b.literal_values:
        index = ids.setdefault(value, len(ids))
        out.append(index)
    return tuple(out)


def _resolve(node: Node, path: Path) -> Node | None:
    """The subtree at ``path``, or ``None`` when the path walks off the
    tree (one walk — no separate ``has_path`` probe)."""
    for step in path.steps:
        if step >= len(node.children):
            return None
        node = node.children[step]
    return node


class DiffMemo:
    """Memoises :func:`~repro.treediff.diff.extract_diffs` by query shape.

    One memo serves one mining configuration: plans depend on the grammar
    annotations (change kinds) and the ``prune`` flag, so ``prune`` is
    part of the key and replay is disabled outright under non-default
    annotations (the cached :attr:`~repro.sqlparser.astnodes.Node.skeleton`
    is defined by :data:`~repro.sqlparser.grammar.SQL_ANNOTATIONS`).

    Under high-cardinality traffic (random literals, low template
    repetition) a shape pair accumulates one plan per distinct literal
    pattern without bound.  ``max_plans_per_shape`` caps each shape's
    pattern table with LRU order — a replay hit refreshes its plan, an
    insert past the cap evicts the least-recently-used pattern — so
    adversarial logs cost re-alignment, never unbounded memory.

    Args:
        max_plans_per_shape: optional cap (>= 1) on plans kept per shape
            pair; ``None`` (the default) keeps every pattern.

    Attributes:
        n_replayed: pairs answered by plan replay (no alignment DP).
        n_full: pairs that ran the full alignment (first of their shape,
            pattern misses, fallbacks, and non-default-annotation calls).
        n_evicted_plans: plans dropped by the per-shape LRU cap.
    """

    def __init__(self, max_plans_per_shape: int | None = None) -> None:
        if max_plans_per_shape is not None and max_plans_per_shape < 1:
            raise ValueError(
                f"max_plans_per_shape must be >= 1, got {max_plans_per_shape}"
            )
        self.max_plans_per_shape = max_plans_per_shape
        # (skeleton(a), skeleton(b), prune) -> {literal pattern -> plan};
        # patterns are hashable tuples, so a shape pair that accumulates
        # many patterns (non-template traffic) still looks up in O(1).
        # The inner dicts are insertion-ordered, which is what makes them
        # an LRU when capped (hits reinsert, eviction pops the front).
        self._plans: dict[_ShapeKey, dict[_Pattern, _Plan]] = {}
        self.n_replayed = 0
        self.n_full = 0
        self.n_evicted_plans = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_shapes(self) -> int:
        """Number of distinct ``(skeleton, skeleton, prune)`` shape pairs."""
        return len(self._plans)

    @property
    def n_plans(self) -> int:
        """Number of stored alignment plans (>= :attr:`n_shapes`: one per
        distinct literal pattern of a shape pair)."""
        return sum(len(entries) for entries in self._plans.values())

    def __len__(self) -> int:
        return self.n_plans

    # ------------------------------------------------------------------
    # the memoised extraction
    # ------------------------------------------------------------------
    def extract(
        self,
        a: Node,
        b: Node,
        q1: int = 0,
        q2: int = 1,
        prune: bool = True,
        annotations: GrammarAnnotations = SQL_ANNOTATIONS,
    ) -> list[Diff]:
        """Drop-in :func:`~repro.treediff.diff.extract_diffs`, memoised.

        Returns exactly what direct extraction would return for
        ``(a, b)``; the only difference is where the answer comes from.
        """
        if annotations is not SQL_ANNOTATIONS and annotations != SQL_ANNOTATIONS:
            # skeletons are defined by the default annotations; a custom
            # grammar mines unmemoised rather than risking a wrong replay
            self.n_full += 1
            return extract_diffs(a, b, q1, q2, prune=prune, annotations=annotations)
        key = (a.skeleton, b.skeleton, prune)
        pattern = literal_pattern(a, b)
        entries = self._plans.get(key)
        if entries is not None:
            plan = entries.get(pattern)
            if plan is not None:
                replayed = self._replay(plan, a, b, q1, q2, annotations)
                if replayed is not None:
                    self.n_replayed += 1
                    if self.max_plans_per_shape is not None:
                        # LRU refresh: reinsert at the back of the
                        # insertion-ordered pattern table
                        entries[pattern] = entries.pop(pattern)
                    return replayed
                # path/kind mismatch: the plan is wrong for this pair
                # (skeleton hash collision); drop it and re-align
                del entries[pattern]
        records = extract_diffs(a, b, q1, q2, prune=prune, annotations=annotations)
        self.n_full += 1
        # insert as most-recently-used, evicting past the cap
        entries = self._plans.setdefault(key, {})
        entries[pattern] = _plan_from(records)
        cap = self.max_plans_per_shape
        if cap is not None:
            while len(entries) > cap:
                entries.pop(next(iter(entries)))
                self.n_evicted_plans += 1
        return records

    @staticmethod
    def _replay(
        plan: _Plan,
        a: Node,
        b: Node,
        q1: int,
        q2: int,
        annotations: GrammarAnnotations,
    ) -> list[Diff] | None:
        """Instantiate a plan against a concrete pair, or ``None`` on any
        path or kind mismatch (the caller falls back to full alignment)."""
        out: list[Diff] = []
        for path, source_path, op, kind, is_leaf in plan:
            if op == _INSERT:
                t1 = None
                t2 = _resolve(b, path)
                if t2 is None:
                    return None
            elif op == _DELETE:
                t1 = _resolve(a, source_path)
                t2 = None
                if t1 is None:
                    return None
            else:
                t1 = _resolve(a, source_path)
                t2 = _resolve(b, path)
                if t1 is None or t2 is None:
                    return None
            if classify_change(t1, t2, annotations) != kind:
                return None
            out.append(
                Diff(
                    q1=q1,
                    q2=q2,
                    path=path,
                    t1=t1,
                    t2=t2,
                    kind=kind,
                    is_leaf=is_leaf,
                    source_path=source_path,
                )
            )
        return out


def _plan_from(records: list[Diff]) -> _Plan:
    """Abstract a concrete diff list into a replayable plan.

    Every diff a pair produces locates its subtrees at recorded paths
    (``t1`` at ``source_path`` in the source tree, ``t2`` at ``path`` in
    the target tree), so the plan is just the paths plus the emission
    metadata — subtrees are re-fetched from each concrete pair at replay.
    """
    plan: list[_PlanEntry] = []
    for diff in records:
        if diff.is_insertion:
            op = _INSERT
        elif diff.is_deletion:
            op = _DELETE
        else:
            op = _REPLACE
        source = diff.source_path
        assert source is not None  # set in __post_init__
        plan.append((diff.path, source, op, diff.kind, diff.is_leaf))
    return tuple(plan)
