"""First-class pipeline stages (Figure 2a, made composable).

The paper's generation pipeline is an explicit sequence —

    parse → (segment) → [cache lookup] → mine interaction graph
          → map to widgets → merge

— and each step here is a :class:`Stage` object with the uniform contract
``run(state) -> state`` over a shared :class:`PipelineState`.  Stages are
stateless and reusable; per-run data lives only in the state, so one stage
instance can serve many concurrent pipelines.

The bracketed step is optional: when ``options.cache_dir`` is set, the
default pipeline inserts a :class:`CacheStage` that consults a persistent
:class:`~repro.cache.store.GraphStore` keyed by (log, options)
fingerprints.  On a hit the mined graph is restored from disk and
:class:`MineStage` skips its ``O(|Q| * window)`` tree alignments; on a
*full* hit (the store also holds the key's widget set) :class:`MapStage`
and :class:`MergeStage` skip as well — every skip is visible in the run's
stage reports (``stats["skipped"]``).

Stages record their counters with :meth:`PipelineState.record`; the
:class:`~repro.api.pipeline.Pipeline` wraps each ``run`` with wall-clock
timing and turns the records into frozen
:class:`~repro.api.result.StageReport` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cache.fingerprint import log_fingerprint, options_fingerprint
from repro.cache.store import GraphStore
from repro.core.mapper import MapCache, initialize, merge_widgets
from repro.core.options import PipelineOptions
from repro.errors import CacheError, LogError
from repro.graph.build import BuildStats, build_interaction_graph
from repro.graph.interaction import InteractionGraph
from repro.logs.sessions import segment_asts, validate_threshold
from repro.sqlparser.astnodes import Node
from repro.sqlparser.parser import parse_sql
from repro.treediff.memo import DiffMemo
from repro.widgets.base import Widget

__all__ = [
    "PipelineState",
    "Stage",
    "ParseStage",
    "SegmentStage",
    "CacheStage",
    "MineStage",
    "MapStage",
    "MergeStage",
    "parse_deduplicated",
]


def parse_deduplicated(statements: list[str]) -> tuple[list[Node], int]:
    """Parse statements with byte-identical ones parsed once.

    Replayed logs repeat identical statements constantly; since ASTs are
    immutable, repeats can share one object (the cache loader aliases
    identical queries the same way).  Returns ``(queries, n_hits)`` —
    one AST per input statement, and how many reused a previous parse.
    Shared by :class:`ParseStage` and the session's ``append_sql``.
    """
    parsed: dict[str, Node] = {}
    queries: list[Node] = []
    hits = 0
    for sql in statements:
        ast = parsed.get(sql)
        if ast is None:
            parsed[sql] = ast = parse_sql(sql)
        else:
            hits += 1
        queries.append(ast)
    return queries, hits


@dataclass
class PipelineState:
    """The mutable carrier threaded through the stages of one run.

    Attributes:
        options: pipeline configuration shared by every stage.
        statements: raw SQL strings (input of :class:`ParseStage`).
        queries: parsed ASTs in log order.
        segments: per-analysis query lists (output of :class:`SegmentStage`).
        graph: the mined interaction graph (output of :class:`MineStage`).
        widgets: the widget set (output of :class:`MapStage` /
            :class:`MergeStage`).
        source: free-form label of where the log came from (provenance).
        records: per-stage counters, keyed by stage name.
        cache_store: the :class:`~repro.cache.store.GraphStore` the run is
            using, set by :class:`CacheStage` (``None`` = caching off).
        cache_key: the run's ``(log_fingerprint, options_fingerprint)``
            pair, set by :class:`CacheStage`; :class:`MineStage` saves a
            freshly mined graph under it and :class:`MergeStage` a freshly
            merged widget set.
        map_cache: the :class:`~repro.core.mapper.MapCache` that
            :class:`MapStage` and :class:`MergeStage` run over — empty by
            default, so a one-shot run maps from scratch.  A long-lived
            caller (the session) passes its own, so each run rebuilds
            only the partitions whose diff lists changed since the
            previous run and re-merges only the components incident to
            them.
        widgets_from_cache: set by :class:`CacheStage` on a widget-set
            hit; tells :class:`MapStage` and :class:`MergeStage` to skip.
        diff_memo: the :class:`~repro.treediff.memo.DiffMemo` the Mine
            stage aligns through.  A long-lived caller (the session) sets
            it so memoised alignment plans survive across appends; when
            unset, :class:`MineStage` creates a run-local memo, which
            still collapses repeated shapes *within* one log.
    """

    options: PipelineOptions
    statements: list[str] | None = None
    queries: list[Node] | None = None
    segments: list[list[Node]] | None = None
    graph: InteractionGraph | None = None
    widgets: list[Widget] | None = None
    source: str = "log"
    records: dict[str, dict[str, Any]] = field(default_factory=dict)
    cache_store: GraphStore | None = None
    cache_key: tuple[str, str] | None = None
    map_cache: MapCache = field(default_factory=MapCache)
    widgets_from_cache: bool = False
    diff_memo: DiffMemo | None = None

    def record(self, stage_name: str, **stats: Any) -> None:
        """Merge counters into the named stage's record."""
        self.records.setdefault(stage_name, {}).update(stats)


class Stage:
    """One pipeline step.  Subclasses implement :meth:`run`.

    The contract is uniform: take the state, advance it, return it.  A stage
    must raise (typically :class:`~repro.errors.LogError`) when its input is
    missing, rather than silently skipping.
    """

    name = "stage"

    def run(self, state: PipelineState) -> PipelineState:
        """Advance ``state`` by this stage's work and return it."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class ParseStage(Stage):
    """Parse raw SQL statements into ASTs (no-op when ASTs were supplied).

    Replayed logs repeat byte-identical statements constantly, so parse
    results are memoised per run keyed by the raw SQL: a repeated string
    reuses the already-parsed AST object (ASTs are immutable, so sharing
    is safe — the cache loader aliases identical queries the same way).
    The stage reports the reuse as ``n_parse_hits``.
    """

    name = "parse"

    def run(self, state: PipelineState) -> PipelineState:
        """Fill ``state.queries`` from ``state.statements`` if needed."""
        if state.queries is None:
            if not state.statements:
                raise LogError("cannot generate an interface from an empty log")
            state.queries, hits = parse_deduplicated(state.statements)
            state.record(
                self.name, n_parsed=len(state.queries), n_parse_hits=hits
            )
        else:
            state.record(self.name, n_parsed=0, n_parse_hits=0)
        state.record(self.name, n_queries=len(state.queries))
        return state


class SegmentStage(Stage):
    """Split a mixed log into per-analysis segments (Section 3.3).

    Delegates to :func:`repro.logs.sessions.segment_asts` — one
    implementation serves both the log-level helpers and this stage.
    Pipelines that embed this stage fan the downstream stages out over
    ``state.segments``.
    """

    name = "segment"

    def __init__(
        self, jump_threshold: float = 0.3, cluster_threshold: float = 0.3
    ) -> None:
        # validate eagerly so a bad composition fails at build time
        validate_threshold(jump_threshold)
        validate_threshold(cluster_threshold)
        self.jump_threshold = jump_threshold
        self.cluster_threshold = cluster_threshold

    def run(self, state: PipelineState) -> PipelineState:
        """Fill ``state.segments`` with per-analysis query lists."""
        if not state.queries:
            raise LogError("cannot segment an empty query log")
        state.segments = segment_asts(
            state.queries, self.jump_threshold, self.cluster_threshold
        )
        state.record(self.name, n_segments=len(state.segments))
        return state


class CacheStage(Stage):
    """Look up the run's interaction graph — and widget set — in a
    persistent store.

    Fingerprints the parsed log and the options, then consults the
    :class:`~repro.cache.store.GraphStore` under ``options.cache_dir``.
    On a graph hit the cached graph becomes ``state.graph`` and the
    downstream :class:`MineStage` has nothing to do; on a *full* hit the
    key's widget-set entry decodes against the loaded graph into
    ``state.widgets`` and :class:`MapStage`/:class:`MergeStage` skip too —
    the warm path performs no pairwise diffing and no widget solving at
    all.  On a miss the store and key are left on the state so
    :class:`MineStage` (and :class:`MergeStage`) persist what they
    compute.  With no ``cache_dir`` configured the stage records
    ``enabled=False`` and passes the state through untouched.
    """

    name = "cache"

    def run(self, state: PipelineState) -> PipelineState:
        """Fill ``state.graph`` (and ``state.widgets``) from the store on
        a hit; otherwise arm ``state.cache_store``/``state.cache_key``."""
        if state.options.cache_dir is None:
            state.record(self.name, enabled=False, hit=False)
            return state
        if not state.queries:
            raise LogError("cache lookup needs a parsed query log")
        store = GraphStore(
            state.options.cache_dir, remote=state.options.daemon_socket
        )
        try:
            log_fp = log_fingerprint(state.queries)
            opts_fp = options_fingerprint(state.options)
        except CacheError as exc:
            # a cache must fail open: a log that cannot be fingerprinted
            # (e.g. exotic non-JSON attribute values) mines normally, it
            # just cannot be cached
            state.record(self.name, enabled=True, hit=False, error=str(exc))
            return state
        state.cache_store = store
        state.cache_key = (log_fp, opts_fp)
        key = store.key(log_fp, opts_fp)
        cached = store.load(log_fp, opts_fp)
        if cached is None:
            state.record(self.name, enabled=True, hit=False, key=key)
            return state
        graph, mined_stats = cached
        state.graph = graph
        widgets = store.load_widget_set(
            log_fp, opts_fp, graph, state.options.library, state.options.annotations
        )
        if widgets is not None:
            state.widgets = widgets
            state.widgets_from_cache = True
        # persist the hits' batched LRU recency (packed stores buffer
        # touches in memory; a pure-hit run performs no save to carry them)
        store.flush_recency()
        state.record(
            self.name,
            enabled=True,
            hit=True,
            widgets_hit=widgets is not None,
            key=key,
            n_pairs_compared_original=mined_stats.n_pairs_compared,
        )
        return state


class MineStage(Stage):
    """Mine the interaction graph (Section 4.2 with the Section 6
    sliding-window and LCA-pruning optimisations, plus skeleton-level
    diff memoisation).

    Mining runs through a :class:`~repro.treediff.memo.DiffMemo` —
    ``state.diff_memo`` when a long-lived caller (the session) provided
    one, else a fresh run-local memo — so repeated query shapes replay
    their alignment plan instead of re-running the alignment DP.  The
    stage reports the split as ``n_alignments_memoised`` /
    ``n_alignments_full``.

    When the state already carries a graph — a :class:`CacheStage` hit, or
    a caller that mined out-of-band — the stage skips the alignment work
    and records ``skipped=True`` with zero pairs compared.  After a fresh
    mine it persists the graph through ``state.cache_store`` when a
    :class:`CacheStage` armed it.
    """

    name = "mine"

    def run(self, state: PipelineState) -> PipelineState:
        """Fill ``state.graph`` by mining (or skip if already present)."""
        if state.graph is not None:
            state.record(
                self.name,
                skipped=True,
                n_pairs_compared=0,
                n_edges=state.graph.n_edges,
                n_diffs=state.graph.n_diffs,
            )
            return state
        if not state.queries:
            raise LogError("cannot mine an empty query log")
        options = state.options
        stats = BuildStats()
        if state.diff_memo is None:
            state.diff_memo = DiffMemo(
                max_plans_per_shape=options.max_plans_per_shape
            )
        state.graph = build_interaction_graph(
            state.queries,
            window=options.window,
            prune=options.lca_pruning,
            annotations=options.annotations,
            stats=stats,
            memo=state.diff_memo,
        )
        state.record(
            self.name,
            n_pairs_compared=stats.n_pairs_compared,
            n_alignments_memoised=stats.n_alignments_memoised,
            n_alignments_full=stats.n_alignments_full,
            n_edges=state.graph.n_edges,
            n_diffs=state.graph.n_diffs,
        )
        if state.cache_store is not None and state.cache_key is not None:
            try:
                state.cache_store.save(*state.cache_key, state.graph, stats)
            except (CacheError, OSError) as exc:
                # the mine already succeeded; a failed persist must not
                # destroy the run — surface it in the stage stats instead
                state.record(self.name, cache_save_error=str(exc))
        return state


class MapStage(Stage):
    """Initialize (Algorithm 1): one cheapest widget per diff partition.

    The stage feeds the graph's new diffs to the state's
    :class:`~repro.core.mapper.MapCache` — the session's, or an empty one
    for a one-shot run — and re-solves only the partitions whose revision
    moved; untouched partitions reuse their widget, and a one-shot run
    solves every partition once.  When :class:`CacheStage` already
    restored a cached widget set, the stage skips entirely
    (``skipped=True``).
    """

    name = "map"

    def run(self, state: PipelineState) -> PipelineState:
        """Fill ``state.widgets`` with one widget per diff partition."""
        if state.graph is None:
            raise LogError("map stage needs a mined interaction graph")
        options = state.options
        diffs = state.graph.diffs
        if state.widgets_from_cache and state.widgets is not None:
            state.record(
                self.name,
                skipped=True,
                n_partitions=len({d.path for d in diffs}),
                n_initial_widgets=len(state.widgets),
                initial_cost=sum(w.cost for w in state.widgets),
            )
            return state
        state.widgets, n_reused, n_rebuilt = initialize(
            state.map_cache, diffs, options.library, options.annotations
        )
        state.record(
            self.name,
            n_partitions_reused=n_reused,
            n_partitions_rebuilt=n_rebuilt,
            n_partitions=len(state.map_cache.index.by_path),
            n_initial_widgets=len(state.widgets),
            initial_cost=sum(w.cost for w in state.widgets),
        )
        return state


class MergeStage(Stage):
    """Merge (Algorithm 3) to a fixed point; identity when merging is
    disabled in the options (the ablation configuration).

    The fixed point runs per prefix component over the state's
    :class:`~repro.core.mapper.MapCache`: only components whose
    partitions changed since the previous run re-merge, the rest replay
    their memoised result (result-equivalent to the global fixed point),
    and a one-shot run merges every component once.  Inside a dirty
    component, per-ancestor merge steps whose interval window stayed
    clean replay through the cache's
    :class:`~repro.core.mapper.WindowMemo` — reported as
    ``n_windows_reused`` / ``n_windows_merged``.  When
    :class:`CacheStage` restored a cached widget set, the stage skips.
    After a fresh merge the widget set is persisted through
    ``state.cache_store`` when a :class:`CacheStage` armed one, making the
    next run over this key a full hit.
    """

    name = "merge"

    def run(self, state: PipelineState) -> PipelineState:
        """Contract ``state.widgets`` to the merged fixed point."""
        if state.widgets is None or state.graph is None:
            raise LogError("merge stage needs mapped widgets")
        options = state.options
        if state.widgets_from_cache:
            state.record(
                self.name,
                skipped=True,
                merged=options.merge,
                n_merge_rounds=0,
                n_widgets=len(state.widgets),
                final_cost=sum(w.cost for w in state.widgets),
            )
            return state
        counters = {"n_merge_rounds": 0}
        if options.merge and state.widgets:
            state.widgets, counters = merge_widgets(
                state.widgets, state.map_cache, options.library, options.annotations
            )
        state.record(
            self.name,
            **counters,
            merged=options.merge,
            n_widgets=len(state.widgets),
            final_cost=sum(w.cost for w in state.widgets),
        )
        if state.cache_store is not None and state.cache_key is not None:
            try:
                state.cache_store.save_widget_set(
                    *state.cache_key, state.widgets, state.graph
                )
            except (CacheError, OSError) as exc:
                # the merge already succeeded; a failed persist must not
                # destroy the run — surface it in the stage stats instead
                state.record(self.name, cache_save_error=str(exc))
        return state
