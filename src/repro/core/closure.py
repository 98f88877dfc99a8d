"""Interface closure: membership testing and enumeration (Section 4.4).

The closure of an interface is the set of queries reachable from the
initial query ``q0`` by any combination of widget interactions.  Two
operations are needed:

* :func:`expresses` — membership: can the widget set transform ``q0`` into
  a given target query?  Used by the expressiveness metric and all recall
  experiments (Section 7.2).
* :func:`enumerate_closure` — exhaustive enumeration of expressible
  queries, used by the precision experiment (Appendix D).

Membership works on the diff structure between ``q0`` and the target: each
minimal changed subtree must be *covered*, either directly by a widget at
its exact path whose domain contains the target subtree (with slider
extrapolation and textbox free-entry), or by an *ancestor* widget that can
swap in a domain subtree which the remaining widgets can then edit into the
target subtree (this is how Figure 5e's "toggle subquery, then modify it"
interfaces express unseen queries).

The search over ancestor substitutions is exponential in principle, so the
implementation memoises on ``(current, target, base)`` triples, orders
candidate domain entries by a cheap similarity to the target, and carries a
work budget; a query whose cover is not found within the budget is
reported inexpressible.  The budget is generous relative to the search
depth real interfaces need (Figure 5e needs depth 2), so this is a
completeness cut-off only for adversarial inputs.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from repro.paths import Path
from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS, GrammarAnnotations
from repro.treediff.diff import extract_diffs
from repro.widgets.base import Widget

__all__ = ["ClosureCache", "expresses", "enumerate_closure", "apply_widget_choice"]

_MAX_DEPTH = 5           # recursion guard for ancestor substitution chains
_WORK_BUDGET = 4000      # max _cover invocations per membership query
_MAX_ENTRY_TRIES = 12    # candidate domain entries tried per widget


class ClosureCache:
    """Cover proofs reusable across membership queries — and appends.

    A membership search memoises ``(current, target, base) -> bool``
    triples, but a *negative* entry can be a budget artefact (the search
    gave up, not proved impossibility), so only **positive** entries are
    safe to carry from one query to the next.  This cache keeps exactly
    those, keyed to the identity of the widget set they were proved
    against: the incremental session's clean merge components return the
    *same* widget objects append after append, so steady-state appends keep
    their accumulated proofs, while any rebuilt widget resets the cache
    (a proof against an old domain must not outlive it).

    The keys fingerprint subtrees with the process-salted
    ``Node.fingerprint``, so the cache lives and dies with its process.
    """

    def __init__(self) -> None:
        self._signature: tuple | None = None
        self._proven: dict[tuple[int, int, Path], bool] = {}

    def proven_for(self, widgets: list[Widget]) -> dict[tuple[int, int, Path], bool]:
        """The positive-proof memo for exactly this widget set (identity
        signature); a different set clears and re-arms the cache."""
        signature = tuple(sorted((str(w.path), id(w)) for w in widgets))
        if signature != self._signature:
            self._proven = {}
            self._signature = signature
        return self._proven

    def __len__(self) -> int:
        return len(self._proven)


class _Search:
    """Shared state for one membership query."""

    __slots__ = ("by_path", "annotations", "budget", "memo", "proven")

    def __init__(
        self,
        by_path: dict[Path, Widget],
        annotations: GrammarAnnotations,
        proven: dict[tuple[int, int, Path], bool] | None = None,
    ):
        self.by_path = by_path
        self.annotations = annotations
        self.budget = _WORK_BUDGET
        # (current_fp, target_fp, base) -> bool
        self.memo: dict[tuple[int, int, Path], bool] = {}
        # positive entries shared across queries via ClosureCache
        self.proven = proven if proven is not None else {}


def expresses(
    widgets: list[Widget],
    initial_query: Node,
    target: Node,
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
    cache: ClosureCache | None = None,
) -> bool:
    """Is ``target`` within the closure of ``(widgets, initial_query)``?

    ``cache`` optionally carries positive cover proofs between calls (see
    :class:`ClosureCache`); repeated membership tests against the same
    widget set — the recall suites, the session's per-append checks —
    skip re-deriving covers they have already found.
    """
    by_path: dict[Path, Widget] = {}
    for widget in widgets:
        # Initialization produces one widget per path; if a caller passes
        # several, keep the one with the larger domain.
        kept = by_path.get(widget.path)
        if kept is None or widget.domain.size > kept.domain.size:
            by_path[widget.path] = widget
    proven = cache.proven_for(widgets) if cache is not None else None
    search = _Search(by_path, annotations, proven=proven)
    return _cover(search, initial_query, target, Path.root(), depth=0)


def _entry_similarity(entry: Node, target: Node) -> float:
    """Cheap similarity used to order candidate domain entries: shared
    top-level child fingerprints (higher is more similar)."""
    if entry.fingerprint == target.fingerprint:
        return float("inf")
    entry_children = {c.fingerprint for c in entry.children}
    target_children = {c.fingerprint for c in target.children}
    if not entry_children and not target_children:
        return 0.0
    return len(entry_children & target_children)


def _cover(
    search: _Search,
    current: Node,
    target: Node,
    base: Path,
    depth: int,
) -> bool:
    """Can the widgets transform ``current`` into ``target``?  Both are
    subtrees rooted at absolute path ``base``."""
    if current.fingerprint == target.fingerprint and current.equals(target):
        return True
    if depth > _MAX_DEPTH or search.budget <= 0:
        return False
    key = (current.fingerprint, target.fingerprint, base)
    cached = search.memo.get(key)
    if cached is None:
        cached = search.proven.get(key)
    if cached is not None:
        return cached
    search.budget -= 1
    result = _cover_uncached(search, current, target, base, depth)
    search.memo[key] = result
    if result:
        search.proven[key] = True
    return result


def _cover_uncached(
    search: _Search,
    current: Node,
    target: Node,
    base: Path,
    depth: int,
) -> bool:
    leaf_diffs = [
        d
        for d in extract_diffs(
            current, target, prune=True, annotations=search.annotations
        )
        if d.is_leaf
    ]

    pending: list[tuple[Path, object]] = []
    for diff in leaf_diffs:
        absolute = base.concat(diff.path)
        widget = search.by_path.get(absolute)
        if widget is not None and widget.can_express_subtree(diff.t2):
            continue
        pending.append((absolute, diff))
    if not pending:
        return True

    # Try covering leftover diffs through ancestor widgets: substitute a
    # domain subtree at the widget's path, then recursively cover the
    # remaining difference inside that subtree.  Deepest ancestors first.
    candidate_paths = sorted(
        (
            path
            for path in search.by_path
            if base.is_prefix_of(path)
            and any(path.is_prefix_of(p) for p, _ in pending)
        ),
        key=lambda p: p.depth,
        reverse=True,
    )
    for widget_path in candidate_paths:
        group = [(p, d) for p, d in pending if widget_path.is_prefix_of(p)]
        if not group:
            continue
        relative = widget_path.relative_to(base)
        if not target.has_path(relative):
            continue
        target_subtree = target.get(relative)
        widget = search.by_path[widget_path]
        # the ancestor widget may express the whole target subtree itself
        # (extrapolating range sliders, textboxes, exact domain entries)
        solved = widget.can_express_subtree(target_subtree)
        if not solved:
            candidates = [
                entry
                for entry in widget.domain.subtrees()
                if entry.node_type == target_subtree.node_type
            ]
            candidates.sort(
                key=lambda entry: _entry_similarity(entry, target_subtree),
                reverse=True,
            )
            for entry in candidates[:_MAX_ENTRY_TRIES]:
                if search.budget <= 0:
                    break
                if _cover(search, entry, target_subtree, widget_path, depth + 1):
                    solved = True
                    break
        if solved:
            pending = [(p, d) for p, d in pending if not widget_path.is_prefix_of(p)]
            if not pending:
                return True
    return not pending


def apply_widget_choice(query: Node, widget: Widget, entry: Node | None) -> Node:
    """Apply one widget state to a query AST.

    ``entry is None`` removes the element at the widget's path (when
    present); a subtree entry replaces the element, or inserts it when the
    path does not resolve (clamping the insert index into the parent).

    Returns the (possibly unchanged) query.
    """
    path = widget.path
    if entry is None:
        if path.is_root() or not query.has_path(path):
            return query
        node = query.get(path)
        if widget.domain.node_types and node.node_type not in widget.domain.node_types:
            return query
        # never empty a collection: deleting the only projection / group-by
        # column / conjunct would leave an unrenderable clause
        if len(query.get(path.parent()).children) <= 1:
            return query
        return query.delete_at(path)
    if path.is_root():
        return entry
    if query.has_path(path):
        return query.replace_at(path, entry)
    parent = path.parent()
    if not query.has_path(parent):
        return query
    index = min(path.steps[-1], len(query.get(parent).children))
    return query.insert_at(parent, index, entry)


def enumerate_closure(
    widgets: list[Widget],
    initial_query: Node,
    limit: int = 100_000,
    slider_samples: int = 3,
) -> Iterator[Node]:
    """Exhaustively enumerate the interface closure (Appendix D).

    Every widget contributes its domain entries plus a "leave unchanged"
    choice; sliders are sampled at up to ``slider_samples`` values from
    their initialising subtrees (a continuous range cannot be enumerated).
    Widgets are applied ancestors-first so that descendant widgets edit the
    subtree an ancestor substituted in.

    Args:
        widgets: the interface's widget set.
        initial_query: the interface's ``q0``.
        limit: hard cap on the number of produced queries.
        slider_samples: per-widget cap on numeric domain entries for
            extrapolating widgets.

    Enumeration proceeds by the *number of widgets touched*: first the
    initial query, then every single-widget interaction, then every pair,
    and so on.  Under a ``limit`` this samples the cross product fairly —
    the plain lexicographic product would only ever vary the last widgets.

    Yields:
        Distinct query ASTs in the closure, ``q0`` first.
    """
    from itertools import combinations

    ordered = sorted(widgets, key=lambda w: (w.path.depth, w.path))
    choice_lists: list[list[Node | None]] = []
    for widget in ordered:
        domain_entries = list(widget.domain.entries())
        if widget.widget_type.extrapolates and len(domain_entries) > slider_samples:
            domain_entries = domain_entries[:slider_samples]
        choice_lists.append(domain_entries)

    seen: set[int] = set()
    produced = 0

    def produce(query: Node):
        nonlocal produced
        if query.fingerprint in seen:
            return None
        seen.add(query.fingerprint)
        produced += 1
        return query

    first = produce(initial_query)
    if first is not None:
        yield first
        if produced >= limit:
            return

    indices = range(len(ordered))
    for touched in range(1, len(ordered) + 1):
        for subset in combinations(indices, touched):
            for combo in product(*(choice_lists[i] for i in subset)):
                query = initial_query
                for index, choice in zip(subset, combo):
                    query = apply_widget_choice(query, ordered[index], choice)
                result = produce(query)
                if result is not None:
                    yield result
                    if produced >= limit:
                        return
