"""The interaction mapper (Section 5, Algorithms 1–3).

The interface generation problem — pick a minimum-cost widget set whose
closure covers the log — is NP-hard (reduction from vertex cover, §4.5), so
the mapper runs the paper's two-phase graph-contraction heuristic:

* **Initialize** (Algorithm 1): partition the diffs table by path and
  instantiate, per partition, the cheapest widget type whose rule accepts
  the partition's domain (``pickWidget``, Algorithm 2).  This yields an
  interface that expresses every edge, but with redundant widgets.
* **Merge** (Algorithm 3): repeatedly compare an *ancestor* widget with the
  set of its *descendant* widgets (prefix paths), compute the overlapping
  diffs — those whose incident queries are expressed by both sides — and
  remove the overlap from whichever side yields the larger cost reduction.
  Iterate to a fixed point.

Both phases run over one maintained structure, a :class:`MapCache`, and a
one-shot run is the case of an empty cache.  :func:`initialize` consumes
the diffs table's new suffix into the cache's partition index and re-solves
only the partitions whose revision moved.  :func:`merge_widgets` groups
widgets into **prefix components** — the connected components of the
path-prefix relation over widget paths, which are exactly the units a merge
step can read — and runs one fixed point per component, memoised under the
component's window revision; inside a dirty component, clean sub-windows
replay their recorded merge steps (:class:`WindowMemo`).  The
decomposition is lossless: a merge step only ever pairs an ancestor with
its prefix-descendants, so no candidate merge crosses a component boundary
and the union of per-component fixed points equals the paper's global
fixed point (asserted against the reference in ``tests/oracle.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.errors import MappingError
from repro.paths import Path
from repro.sqlparser.grammar import SQL_ANNOTATIONS, GrammarAnnotations
from repro.treediff.diff import Diff
from repro.treediff.paths import IntervalIndex
from repro.widgets.base import Widget, WidgetType
from repro.widgets.domain import WidgetDomain

__all__ = [
    "MapCache",
    "PartitionIndex",
    "WindowMemo",
    "pick_widget",
    "initialize",
    "merge_widgets",
]


def _pair(diff: Diff) -> tuple[int, int]:
    return (diff.q1, diff.q2)


class PartitionIndex:
    """Incrementally maintained path-partitions of a growing diffs table.

    The mapper consumes the diffs table partitioned by path and ordered by
    ``(q1, q2)`` within each partition (the full build's order, which the
    result-equivalence guarantee is defined against).  Re-deriving that
    from the flat table costs ``O(|W|)`` per append — this index instead
    consumes only the table's *new suffix* (the session's diffs table is
    append-only in arrival order) and keeps every partition sorted by
    insertion, so a steady-state append costs ``O(new diffs)``.

    Each partition carries a revision counter, bumped once per update that
    adds diffs to it.  Revisions are what make dirtiness O(1) to test: a
    memo entry recorded at revision ``r`` is valid exactly while the
    partition is still at ``r``.

    The index also owns the partition paths' **interval annotations**
    (:class:`~repro.treediff.paths.IntervalIndex`): every path gets a
    ``(pre_order, post_order, subtree_size)`` triple, so the merge
    layer's ancestor/descendant tests are O(1) containment, subtree
    membership is a contiguous window query, and a subtree's cumulative
    revision (:meth:`window_revision`) is an O(log n) range sum —
    strictly monotone, so equality proves the window clean.
    """

    def __init__(self) -> None:
        self.by_path: dict[Path, list[Diff]] = {}
        # global (q1, q2) → leaf diffs index, maintained append-only so
        # dirty-component merges never rebuild it; safe to share across
        # components because every consumer filters by ancestor path
        self.leaf_by_pair: dict[tuple[int, int], list[Diff]] = {}
        self.rev: dict[Path, int] = {}
        self.n_consumed = 0
        self.intervals = IntervalIndex()
        # identity spot-check anchors: first and last already-consumed
        # entries (a shrunken table is caught by the length check; a
        # *mutated* one — replaced or reordered prefix — is caught here)
        self._consumed_head: Diff | None = None
        self._consumed_tail: Diff | None = None

    def update(self, diffs: list[Diff]) -> set[Path]:
        """Consume the table's new suffix; returns the paths it touched.

        ``diffs`` must be the same ever-growing arrival-order list on
        every call: previously consumed entries must not change, because
        partitions hold references into them.  Enforced by the
        consumed-count check plus a cheap identity spot-check of the
        consumed prefix's first and last entries — O(1), so it cannot
        catch an interior splice, but it catches the common corruptions
        (a rebuilt, re-sorted, or truncated-and-regrown table).
        """
        if len(diffs) < self.n_consumed:
            raise MappingError(
                "diffs table shrank between updates; the partition index "
                "only supports append-only tables (reset the MapCache to "
                "re-index from scratch)"
            )
        if self.n_consumed and (
            diffs[0] is not self._consumed_head
            or diffs[self.n_consumed - 1] is not self._consumed_tail
        ):
            raise MappingError(
                "already-consumed diffs table entries changed between "
                "updates; the partition index holds references into the "
                "consumed prefix, so the table must be append-only "
                "(reset the MapCache to re-index from scratch)"
            )
        new = diffs[self.n_consumed :]
        self.n_consumed = len(diffs)
        if diffs:
            self._consumed_head = diffs[0]
            self._consumed_tail = diffs[-1]
        touched: set[Path] = set()
        for diff in new:
            pair = (diff.q1, diff.q2)
            partition = self.by_path.setdefault(diff.path, [])
            # keep the full build's (q1, q2) order, same-pair runs in
            # arrival order like a stable sort; a diff at or after the
            # tail — every diff of a one-shot build or a window-2 append —
            # appends where bisect_right would have put it anyway
            if not partition or (partition[-1].q1, partition[-1].q2) <= pair:
                partition.append(diff)
            else:
                partition.insert(bisect_right(partition, pair, key=_pair), diff)
            if diff.is_leaf:
                self.leaf_by_pair.setdefault(pair, []).append(diff)
            touched.add(diff.path)
        # index new paths first (renumbering rebuilds the Fenwick tree
        # from self.rev), then bump so each touched window's revision sum
        # rises exactly once per update
        self.intervals.extend(touched)
        for path in touched:
            self.rev[path] = self.rev.get(path, 0) + 1
            self.intervals.bump(path, 1)
        return touched

    def window_revision(self, root: Path) -> int:
        """Cumulative revision of every partition under ``root``
        (inclusive) — the clean-window signature; see
        :meth:`repro.treediff.paths.IntervalIndex.window_revision`."""
        return self.intervals.window_revision(root)

    def ordered_paths(self) -> list[Path]:
        """Every partition path in pre-order — identical to
        ``sorted(self.by_path)``, maintained incrementally."""
        return self.intervals.ordered_paths()


class WindowMemo:
    """Sub-component merge memo keyed by window revision signatures.

    A dirty component re-runs its Algorithm-3 fixed point, but most of
    its *subtrees* are usually clean — in the skewed (one-hot) workloads
    a production pool sees, one deep path receives every diff while the
    component's other branches never change.  This memo caches the
    outcome of each per-ancestor merge step under a key that can only
    match when the step's inputs are byte-identical:

    ``(ancestor token, descendant token tuple, window revision)``

    where a *token* identifies a widget object (tokens pin their widget,
    so ids cannot be recycled while the memo lives) and the *window
    revision* is the monotone cumulative revision of every partition in
    the ancestor's interval window.  Widgets are rebuilt deterministically
    from their diff lists, so an identical token tuple plus an unchanged
    window sum implies the step reads exactly the same diffs and must
    produce the same outcome — a memo replayed after its window went
    dirty is impossible by construction (the sum strictly increases).
    Replay then skips the step's overlap/cover/pickWidget work entirely.
    """

    def __init__(self, index: PartitionIndex) -> None:
        self.index = index
        #: step outcome memo — key as documented above, value is the
        #: ``_merge_step`` result (``None`` = proven no-op)
        self.steps: dict[tuple, tuple[Widget | None, list[Widget | None], float] | None] = {}
        #: widget object -> token; the widget rides in the value to pin it
        self._tokens: dict[int, tuple[Widget, int]] = {}
        self._next_token = 0
        #: cumulative counters (per-run deltas are reported by
        #: :func:`merge_widgets` as ``n_windows_reused`` /
        #: ``n_windows_merged``)
        self.n_reused = 0
        self.n_merged = 0

    def token(self, widget: Widget) -> int:
        """The memo token of a widget object (assigning one if new)."""
        entry = self._tokens.get(id(widget))
        if entry is not None:
            return entry[1]
        token = self._next_token
        self._next_token += 1
        self._tokens[id(widget)] = (widget, token)
        return token

    def key(self, ancestor: Widget, descendants: list[Widget]) -> tuple:
        """The staleness-proof memo key for one merge step."""
        return (
            self.token(ancestor),
            tuple(self.token(w) for w in descendants),
            self.index.window_revision(ancestor.path),
        )

    def __len__(self) -> int:
        return len(self.steps)

    def clear(self) -> None:
        """Drop every step outcome and token pin."""
        self.steps.clear()
        self._tokens.clear()


@dataclass
class MapCache:
    """The mapping phase's maintained state: a one-shot run starts from an
    empty cache, a long-lived caller (the incremental session) keeps one so
    each run only re-solves what an append actually touched.

    Attributes:
        index: the partition index over the owning graph's diffs table,
            including the interval annotations of every partition path.
        paths: per-path widget memo for Initialize —
            ``path -> (revision, widget)``; valid while the partition is
            still at that revision.
        merge: per-component merge memo —
            ``component root path -> (signature, merged widgets)`` where
            the signature is the monotone window revision of the component
            root's interval window (see :func:`merge_widgets`).
    """

    index: PartitionIndex = field(default_factory=PartitionIndex)
    paths: dict[Path, tuple[int, Widget | None]] = field(default_factory=dict)
    merge: dict[Path, tuple[int, list[Widget]]] = field(default_factory=dict)
    #: pickWidget memo shared by the merge fixed points —
    #: ``(path, diff-identity tuple) -> widget``; sound because diff
    #: objects live exactly as long as the owning graph.  Bounded by
    #: :data:`_PICK_MEMO_CAP` (cleared wholesale when exceeded).
    pick: dict[tuple, Widget | None] = field(default_factory=dict)
    #: per-ancestor merge-step memo for dirty components; lazily bound to
    #: :attr:`index` by :meth:`window_memo`.  Bounded like :attr:`pick`.
    windows: WindowMemo | None = None

    def window_memo(self) -> WindowMemo:
        """The sub-component merge memo, created on first use (and
        re-bound after :meth:`clear` replaced the index)."""
        if self.windows is None or self.windows.index is not self.index:
            self.windows = WindowMemo(self.index)
        return self.windows

    def clear(self) -> None:
        """Drop the index and all memos (forces a full re-index and
        re-map on the next run)."""
        self.index = PartitionIndex()
        self.paths.clear()
        self.merge.clear()
        self.pick.clear()
        self.windows = None


def pick_widget(
    diffs: list[Diff],
    library: list[WidgetType],
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
) -> Widget | None:
    """Algorithm 2: instantiate the lowest-cost widget type for a partition.

    Args:
        diffs: diff records sharing one path (the partition ``W_p``).
        library: candidate widget types ``L``.
        annotations: grammar annotations for typing the domain.

    Returns:
        The cheapest valid widget, or ``None`` for an empty partition.

    Raises:
        MappingError: when no widget type accepts the domain.
    """
    if not diffs:
        return None
    path = diffs[0].path
    entries = []
    for diff in diffs:
        entries.append(diff.t1)
        entries.append(diff.t2)
    domain = WidgetDomain(entries, annotations)
    valid = [wt for wt in library if wt.accepts(domain)]
    if not valid:
        raise MappingError(
            f"no widget type in the library accepts the domain at path {path} "
            f"(size={domain.size}, none={domain.includes_none})"
        )
    best = min(valid, key=lambda wt: (wt.cost_for(domain), wt.name))
    return Widget(widget_type=best, path=path, domain=domain, D=list(diffs))


def initialize(
    cache: MapCache,
    diffs: list[Diff],
    library: list[WidgetType],
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
) -> tuple[list[Widget], int, int]:
    """Algorithm 1: path-partition the diffs table and pick one widget per
    partition, re-solving only what changed since the cache's last run.

    ``diffs`` is the owning graph's append-only diffs table; its new
    suffix is consumed into the cache's :class:`PartitionIndex`, and a
    partition is re-solved only when its revision moved past the one its
    memoised widget was built at.  From an empty cache every partition is
    solved once, in path order.

    Partitions that no widget type accepts — in practice, tree-valued
    domains beyond the enumeration-size cap, such as the root partition of
    a highly heterogeneous log — are skipped: a several-dozen-option
    query selector is the "one button per query" interface Section 4.4
    rejects, and the leaf partitions still express the log's structural
    changes.

    Returns ``(widgets, n_reused, n_rebuilt)``.
    """
    index = cache.index
    index.update(diffs)
    widgets: list[Widget] = []
    n_reused = 0
    n_rebuilt = 0
    # the interval index's pre-order IS sorted(by_path), maintained
    # incrementally — no per-run sort of every partition path
    for path in index.intervals.iter_preorder():
        revision = index.rev[path]
        cached = cache.paths.get(path)
        if cached is not None and cached[0] == revision:
            n_reused += 1
            widget = cached[1]
        else:
            n_rebuilt += 1
            try:
                widget = pick_widget(index.by_path[path], library, annotations)
            except MappingError:
                widget = None
            cache.paths[path] = (revision, widget)
        if widget is not None:
            widgets.append(widget)
    return widgets, n_reused, n_rebuilt


def _incident_queries(diffs: list[Diff]) -> set[int]:
    """Vertices incident to the edges a set of diffs participates in."""
    out: set[int] = set()
    for diff in diffs:
        out.add(diff.q1)
        out.add(diff.q2)
    return out


def _depth_order(widget: Widget) -> tuple[int, Path]:
    """The reference fixed point's widget order: shallow to deep."""
    return (widget.path.depth, widget.path)


def _preorder_view(
    widgets: list[Widget], intervals: IntervalIndex
) -> tuple[list[Widget], list[int]]:
    """Sort widgets by pre-order and pair them with their positions.

    A subtree's widgets occupy one contiguous pre-order range, so the
    merge loop can bisect this view for each ancestor's descendants
    instead of filtering the whole widget list per step.  Widget paths are
    distinct, so the pre-order ranks are too.
    """
    keyed = sorted(
        ((intervals.interval(w.path).pre_order, w) for w in widgets),
        key=lambda item: item[0],
    )
    return [w for _, w in keyed], [pre for pre, _ in keyed]


#: Entry cap for the shared pickWidget memo; exceeded → cleared wholesale.
_PICK_MEMO_CAP = 65536


def _merge_step(
    ancestor: Widget,
    descendants: list[Widget],
    library: list[WidgetType],
    annotations: GrammarAnnotations,
    index: PartitionIndex,
    pick_memo: dict[tuple, Widget | None],
) -> tuple[Widget | None, list[Widget | None], float] | None:
    """Algorithm 3 for one (ancestor, descendant-set) pair.

    The overlap sets carry an *edge-coverage guard* on top of the paper's
    vertex-intersection: a diff is only removable from one side when the
    other side still fully expresses its edge.  Without the guard,
    successive rounds can strip an edge's leaf diffs from the descendants
    and then its replacement diff from the ancestor, silently losing log
    expressiveness.

    Returns:
        ``(new_ancestor, new_descendants, savings)`` where a ``None`` widget
        means "removed", or ``None`` when there is no overlap to resolve.
    """
    vertices_a = _incident_queries(ancestor.D)
    vertices_d: set[int] = set()
    for widget in descendants:
        vertices_d |= _incident_queries(widget.D)
    shared = vertices_a & vertices_d
    if not shared:
        return None

    descendant_diff_ids = {id(d) for w in descendants for d in w.D}
    ancestor_pairs = {(d.q1, d.q2) for d in ancestor.D}
    intervals = index.intervals
    ancestor_path = ancestor.path

    def descendants_cover(pair: tuple[int, int]) -> bool:
        """Do the descendants still hold every leaf diff of this edge that
        lies under the ancestor's path?"""
        required = [
            d
            for d in index.leaf_by_pair.get(pair, ())
            if intervals.strictly_contains(ancestor_path, d.path)
        ]
        if not required:
            return False
        return all(id(d) in descendant_diff_ids for d in required)

    overlap_a = [
        d
        for d in ancestor.D
        if d.q1 in shared and d.q2 in shared and descendants_cover((d.q1, d.q2))
    ]
    overlaps_d = [
        [
            d
            for d in w.D
            if d.q1 in shared
            and d.q2 in shared
            and (d.q1, d.q2) in ancestor_pairs
        ]
        for w in descendants
    ]
    if not overlap_a and not any(overlaps_d):
        return None

    def rebuilt(widget: Widget, removed: list[Diff]) -> Widget | None:
        if not removed:
            return widget
        removed_ids = {id(d) for d in removed}
        kept = [d for d in widget.D if id(d) not in removed_ids]
        # memoised: successive rounds (and appends) re-evaluate the same
        # candidate removals, and pickWidget's domain construction is the
        # single hottest part of the fixed point
        key = (widget.path, tuple(id(d) for d in kept))
        if key in pick_memo:
            return pick_memo[key]
        result = pick_widget(kept, library, annotations)
        pick_memo[key] = result
        return result

    def cost_of(widget: Widget | None) -> float:
        return 0.0 if widget is None else widget.cost

    # savings if the overlap is removed from the descendants
    new_descendants = [
        rebuilt(w, overlap) for w, overlap in zip(descendants, overlaps_d)
    ]
    savings_d = sum(
        cost_of(w) - cost_of(nw) for w, nw in zip(descendants, new_descendants)
    )
    # savings if the overlap is removed from the ancestor
    new_ancestor = rebuilt(ancestor, overlap_a)
    savings_a = ancestor.cost - cost_of(new_ancestor)

    if savings_a > savings_d:
        if savings_a <= 0:
            return None
        return new_ancestor, list(descendants), savings_a
    if savings_d <= 0:
        return None
    return ancestor, new_descendants, savings_d


def _fixed_point(
    widgets: list[Widget],
    library: list[WidgetType],
    annotations: GrammarAnnotations,
    cache: MapCache,
    windows: WindowMemo,
) -> tuple[list[Widget], int]:
    """Iterate Algorithm 3 to a fixed point over one prefix component.

    Each round scans ancestor widgets shallow-to-deep; a round that
    reduces total cost triggers another round.  Every per-ancestor step
    goes through ``windows``: an ancestor whose subtree window is clean
    and whose widgets are the same objects as last time replays its
    recorded outcome — including the common "no overlap to resolve"
    no-op — without touching a single diff.  Replayed outcomes are the
    recorded outcomes, so the fixed point is the same with or without a
    hit.  Returns ``(widgets, n_rounds)``.
    """
    intervals = cache.index.intervals
    current = list(widgets)
    rounds = 0
    while True:
        rounds += 1
        changed = False
        current.sort(key=_depth_order)
        # pre-order view of the live widget set: a subtree's widgets are
        # one contiguous slice, so each ancestor's descendant scan is a
        # bisect + slice (O(log W + k)) instead of an O(W) filter; the
        # view is rebuilt only after a replacement actually happens
        ordered, pres = _preorder_view(current, intervals)
        current_ids = {id(w) for w in current}
        for ancestor in list(current):
            if id(ancestor) not in current_ids:
                continue
            annot = intervals.interval(ancestor.path)
            lo = bisect_right(pres, annot.pre_order)
            hi = bisect_left(pres, annot.pre_order + annot.subtree_size)
            if lo >= hi:
                continue
            # the memo probe keys on the raw pre-order slice; the
            # (depth, path) order a step reads is only restored when a
            # step actually runs or applies
            window_slice = ordered[lo:hi]
            step_key = windows.key(ancestor, window_slice)
            if step_key in windows.steps:
                windows.n_reused += 1
                result = windows.steps[step_key]
            else:
                windows.n_merged += 1
                result = _merge_step(
                    ancestor,
                    sorted(window_slice, key=_depth_order),
                    library,
                    annotations,
                    cache.index,
                    cache.pick,
                )
                windows.steps[step_key] = result
            if result is None:
                continue
            new_ancestor, new_descendants, _savings = result
            # a recorded outcome is replayed against the same widget
            # objects it was recorded with (identity tokens in the key),
            # so sorting now yields exactly the order it was zipped with
            descendants = sorted(window_slice, key=_depth_order)
            changed = True
            new_by_old = dict(zip((id(w) for w in descendants), new_descendants))
            replacement: list[Widget] = []
            for widget in current:
                kept: Widget | None = widget
                if widget is ancestor:
                    kept = new_ancestor
                elif id(widget) in new_by_old:
                    kept = new_by_old[id(widget)]
                if kept is not None:
                    replacement.append(kept)
            current = replacement
            current_ids = {id(w) for w in current}
            ordered, pres = _preorder_view(current, intervals)
        if not changed:
            return current, rounds


def _component_roots(
    paths: list[Path], intervals: IntervalIndex
) -> dict[Path, Path]:
    """Map each widget path to the root of its prefix component.

    Two widget paths interact during merging only when one is a (strict)
    prefix of the other, directly or through a chain of present widget
    paths; the components of that relation are prefix trees, each with a
    unique shallowest member (its *root*).  Because merging only rebuilds
    or removes widgets — never moves one to a new path — the components of
    the initial widget set are closed under every merge step.

    One pre-order sweep with a stack of open intervals: when a path
    arrives, every stack entry that does not contain it has been left,
    and the surviving top (if any) is its nearest present ancestor — no
    per-path walk up the parent chain, no path-string prefix tests.
    """
    roots: dict[Path, Path] = {}
    stack: list[Path] = []
    for path in sorted(paths, key=lambda p: intervals.interval(p).pre_order):
        while stack and not intervals.strictly_contains(stack[-1], path):
            stack.pop()
        roots[path] = roots[stack[-1]] if stack else path
        stack.append(path)
    return roots


def merge_widgets(
    widgets: list[Widget],
    cache: MapCache,
    library: list[WidgetType],
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
) -> tuple[list[Widget], dict[str, int]]:
    """Algorithm 3: merge the widget set to its fixed point, per prefix
    component, replaying every component the cache proves clean.

    ``widgets`` is :func:`initialize`'s output over the same ``cache``.
    The widget set is decomposed into prefix components (see
    :func:`_component_roots`); each component runs its own fixed point
    over only its members, memoised under the *window revision* of its
    root — the monotone cumulative revision of every partition in the
    root's interval window.  On the next call — typically the next append
    of an :class:`~repro.api.session.InterfaceSession` — components whose
    signature is unchanged replay their memoised result; only components
    incident to new diffs re-run, and inside them clean sub-windows
    replay their merge steps through the cache's :class:`WindowMemo`.
    From an empty cache every component runs once.

    Result-equivalence to the paper's global fixed point holds because a
    merge step only ever pairs an ancestor with its prefix-descendants —
    no candidate merge crosses a component boundary — and the global
    round order restricted to one component equals that component's own
    round order; the output is normalised to the global ``(depth, path)``
    widget order.

    Returns ``(merged_widgets, counters)`` with the counters keyed as the
    merge stage reports them: ``n_components``, ``n_components_reused``,
    ``n_components_merged``, ``n_windows_reused``, ``n_windows_merged``
    and ``n_merge_rounds`` (the most rounds any component took).
    """
    index = cache.index
    memo = cache.merge
    roots = _component_roots([w.path for w in widgets], index.intervals)
    components: dict[Path, list[Widget]] = {}
    for widget in widgets:
        components.setdefault(roots[widget.path], []).append(widget)
    windows = cache.window_memo()
    windows_reused_before = windows.n_reused
    windows_merged_before = windows.n_merged

    merged: list[Widget] = []
    n_reused = 0
    n_merged = 0
    max_rounds = 0
    for root in sorted(components, key=lambda p: (p.depth, p)):
        # monotone clean-window proof: equal sum ⟺ no member partition
        # gained a diff and no new partition entered the window
        signature = index.window_revision(root)
        cached = memo.get(root)
        if cached is not None and cached[0] == signature:
            n_reused += 1
            merged.extend(cached[1])
            continue
        n_merged += 1
        if len(cache.pick) > _PICK_MEMO_CAP:
            cache.pick.clear()
        if len(windows.steps) > _PICK_MEMO_CAP:
            windows.clear()
        result, rounds = _fixed_point(
            components[root], library, annotations, cache, windows
        )
        memo[root] = (signature, result)
        merged.extend(result)
        max_rounds = max(max_rounds, rounds)
    for stale in set(memo) - set(components):
        del memo[stale]
    merged.sort(key=_depth_order)
    return merged, {
        "n_components": len(components),
        "n_components_reused": n_reused,
        "n_components_merged": n_merged,
        "n_windows_reused": windows.n_reused - windows_reused_before,
        "n_windows_merged": windows.n_merged - windows_merged_before,
        "n_merge_rounds": max_rounds,
    }
