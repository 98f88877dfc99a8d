"""First-class pipeline stages (Figure 2a, made composable).

The paper's generation pipeline is an explicit sequence —

    parse → (segment) → [cache lookup] → mine interaction graph
          → map to widgets → merge

— and each step here is a :class:`Stage` object with the uniform contract
``run(state) -> state`` over a shared :class:`PipelineState`.  Stages are
stateless and reusable; per-run data lives only in the state, so one stage
instance can serve many concurrent pipelines.

One run path serves both the one-shot :func:`repro.api.generate` and every
:class:`~repro.api.session.InterfaceSession` append: a one-shot run starts
from an empty graph, a session's run carries the session's long-lived
members (graph, map cache, diff memo, store, running fingerprint,
cumulative build stats and graph encoder), and :class:`MineStage`
extends the graph with the run's new queries either way.

The bracketed step is optional: when ``options.cache_dir`` is set, the
default pipeline inserts a :class:`CacheStage` that consults a persistent
:class:`~repro.cache.store.GraphStore` keyed by (log, options)
fingerprints.  On a hit the mined graph is restored from disk and
:class:`MineStage` skips its ``O(|Q| * window)`` tree alignments; on a
*full* hit (the store also holds the key's widget set) :class:`MapStage`
and :class:`MergeStage` skip as well — every skip is visible in the run's
stage reports (``stats["skipped"]``).  :func:`publish` is the one write
site: it stores what a run computed and the store did not supply.

Stages record their counters with :meth:`PipelineState.record`; the
:class:`~repro.api.pipeline.Pipeline` wraps each ``run`` with wall-clock
timing and turns the records into frozen
:class:`~repro.api.result.StageReport` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.cache.fingerprint import LogFingerprinter, options_fingerprint
from repro.cache.serialize import GraphEncoder
from repro.cache.store import GraphStore
from repro.core.mapper import MapCache, initialize, merge_widgets
from repro.core.options import PipelineOptions
from repro.errors import CacheError, LogError
from repro.graph.build import BuildStats, extend_interaction_graph, in_build_order
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
    "publish",
]


def parse_deduplicated(statements: list[str | Node]) -> tuple[list[Node], int]:
    """Parse statements with byte-identical ones parsed once.

    Replayed logs repeat identical statements constantly; since ASTs are
    immutable, repeats can share one object (the cache loader aliases
    identical queries the same way).  An item that is already an AST
    passes through.  Returns ``(queries, n_hits)`` — one AST per input
    item, and how many needed no parse (a repeat, or an AST).
    """
    parsed: dict[str, Node] = {}
    queries: list[Node] = []
    hits = 0
    for item in statements:
        if isinstance(item, Node):
            queries.append(item)
            hits += 1
            continue
        ast = parsed.get(item)
        if ast is None:
            parsed[item] = ast = parse_sql(item)
        else:
            hits += 1
        queries.append(ast)
    return queries, hits


def _add_stats(total: BuildStats, part: BuildStats) -> None:
    """Fold one mine's counters into cumulative build stats."""
    for stat in fields(BuildStats):
        setattr(total, stat.name, getattr(total, stat.name) + getattr(part, stat.name))


@dataclass
class PipelineState:
    """The mutable carrier threaded through the stages of one run.

    Per-run attributes:
        options: pipeline configuration shared by every stage.
        statements: raw SQL strings (input of :class:`ParseStage`; an
            item that is already an AST passes through).
        queries: this run's parsed ASTs in log order — the whole log of a
            one-shot run, the appended batch of a session's run.  The
            accumulated log is ``graph.queries``.
        segments: per-analysis query lists (output of :class:`SegmentStage`).
        widgets: the widget set (output of :class:`MapStage` /
            :class:`MergeStage`).
        source: free-form label of where the log came from (provenance).
        records: per-stage counters, keyed by stage name.
        graph_from_cache / widgets_from_cache: set by :class:`CacheStage`
            when the store supplied the graph / the widget set; the stages
            that would compute them skip, and :func:`publish` does not
            write them back.

    Long-lived attributes (one-shot runs start them empty; a session's
    runs carry them from append to append, see :meth:`next_run`):
        graph: the interaction graph, extended by :class:`MineStage`.
        map_cache: the :class:`~repro.core.mapper.MapCache` that
            :class:`MapStage` and :class:`MergeStage` run over, so a run
            rebuilds only the partitions whose diff lists changed since
            the previous run and re-merges only the components incident
            to them.
        diff_memo: the :class:`~repro.treediff.memo.DiffMemo` the Mine
            stage aligns through (created on first use), so memoised
            alignment plans survive across runs.
        cache_store: the :class:`~repro.cache.store.GraphStore`
            (``None`` = caching off, or not opened yet).
        fingerprinter: the running
            :class:`~repro.cache.fingerprint.LogFingerprinter` of
            ``graph.queries``, kept by :class:`CacheStage` only while a
            store is configured (``None`` on a non-empty graph = a log that
            could not be fingerprinted, so the graph stays uncached).
        options_fp: the options' fingerprint, computed once; with the
            fingerprinter's digest it is the store key.
        build_stats: cumulative :class:`~repro.graph.build.BuildStats` of
            the graph, written with it by :func:`publish`.
        encoder: the :class:`~repro.cache.serialize.GraphEncoder` that
            :func:`publish` encodes the graph through (created on first
            use), so a flush encodes only what was added since the last.
    """

    options: PipelineOptions
    statements: list[str | Node] | None = None
    queries: list[Node] | None = None
    segments: list[list[Node]] | None = None
    graph: InteractionGraph | None = None
    widgets: list[Widget] | None = None
    source: str = "log"
    records: dict[str, dict[str, Any]] = field(default_factory=dict)
    cache_store: GraphStore | None = None
    map_cache: MapCache = field(default_factory=MapCache)
    graph_from_cache: bool = False
    widgets_from_cache: bool = False
    diff_memo: DiffMemo | None = None
    fingerprinter: LogFingerprinter | None = None
    options_fp: str | None = None
    build_stats: BuildStats = field(default_factory=BuildStats)
    encoder: GraphEncoder | None = None

    def record(self, stage_name: str, **stats: Any) -> None:
        """Merge counters into the named stage's record."""
        self.records.setdefault(stage_name, {}).update(stats)

    def next_run(self, **per_run: Any) -> "PipelineState":
        """A fresh state for the next run over this state's long-lived
        members; ``per_run`` sets per-run attributes (the batch, the
        source label)."""
        return PipelineState(
            options=self.options,
            graph=self.graph,
            map_cache=self.map_cache,
            diff_memo=self.diff_memo,
            cache_store=self.cache_store,
            fingerprinter=self.fingerprinter,
            options_fp=self.options_fp,
            build_stats=self.build_stats,
            encoder=self.encoder,
            **per_run,
        )


def publish(state: PipelineState) -> None:
    """Write a run's graph and widget set to its store — the one write site.

    The key is the running fingerprint of every query in ``state.graph``
    with the options' fingerprint.  The graph is written in full-build
    ``(q1, q2)`` order (store consumers map straight off the stored diff
    order, and the greedy merge is order-sensitive) with the cumulative
    build stats, then the widget set, which references the graph's diffs
    by index.  A record the store itself supplied to the run is skipped.
    A no-op without a store or a running fingerprint.

    The records hold the whole graph, but ``state.encoder`` keeps what
    earlier publishes of this graph encoded: encoding costs what was
    added since the last publish, plus one renumbering pass.

    Raises:
        CacheError: when a record cannot be encoded.
        OSError: when the store cannot be written.
    """
    store, fingerprinter, graph = state.cache_store, state.fingerprinter, state.graph
    if store is None or fingerprinter is None or graph is None:
        return
    widgets = None if state.widgets_from_cache else state.widgets
    if state.graph_from_cache and widgets is None:
        return
    if state.options_fp is None:
        state.options_fp = options_fingerprint(state.options)
    if state.encoder is None:
        state.encoder = GraphEncoder()
    log_fp, opts_fp = fingerprinter.hexdigest(), state.options_fp
    ordered = in_build_order(graph)
    if not state.graph_from_cache:
        store.save(log_fp, opts_fp, ordered, state.build_stats, state.encoder)
    if widgets is not None:
        store.save_widget_set(
            log_fp, opts_fp, widgets, ordered, state.build_stats, state.encoder
        )


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
    persistent store, and keep the running log fingerprint.

    Only an empty graph is looked up: the stage fingerprints the parsed
    log and the options and consults the
    :class:`~repro.cache.store.GraphStore` under ``options.cache_dir``
    (``state.cache_store`` when the caller opened it already).  On a graph
    hit the cached graph becomes ``state.graph`` and the downstream
    :class:`MineStage` has nothing to do; on a *full* hit the key's
    widget-set entry decodes against the loaded graph into
    ``state.widgets`` and :class:`MapStage`/:class:`MergeStage` skip too —
    the warm path performs no pairwise diffing and no widget solving at
    all.  A later run over a growing graph (a session's append) only
    feeds its queries to ``state.fingerprinter``, so :func:`publish` can
    key the accumulated log without re-hashing it.  A log that cannot be
    fingerprinted fails open: it is mined normally and stays uncached.
    With no ``cache_dir`` configured the stage records ``enabled=False``
    and passes the state through untouched.
    """

    name = "cache"

    def run(self, state: PipelineState) -> PipelineState:
        """Fill ``state.graph`` (and ``state.widgets``) from the store on
        a hit; keep ``state.fingerprinter`` running either way."""
        options = state.options
        if options.cache_dir is None:
            state.record(self.name, enabled=False, hit=False)
            return state
        if not state.queries:
            raise LogError("cache lookup needs a parsed query log")
        if state.graph is not None and state.graph.queries:
            if state.fingerprinter is not None:
                try:
                    state.fingerprinter.update(state.queries)
                except CacheError as exc:
                    state.fingerprinter = None
                    state.record(self.name, error=str(exc))
            state.record(self.name, enabled=True, hit=False)
            return state
        try:
            fingerprinter = LogFingerprinter().update(state.queries)
            opts_fp = options_fingerprint(options)
        except CacheError as exc:
            # a cache must fail open: a log that cannot be fingerprinted
            # (e.g. exotic non-JSON attribute values) mines normally, it
            # just cannot be cached
            state.record(self.name, enabled=True, hit=False, error=str(exc))
            return state
        if state.cache_store is None:
            state.cache_store = GraphStore(
                options.cache_dir, remote=options.daemon_socket
            )
        store = state.cache_store
        log_fp = fingerprinter.hexdigest()
        state.fingerprinter = fingerprinter
        state.options_fp = opts_fp
        key = store.key(log_fp, opts_fp)
        cached = store.load(log_fp, opts_fp)
        if cached is None:
            state.record(self.name, enabled=True, hit=False, key=key)
            return state
        graph, mined_stats = cached
        state.graph = graph
        state.graph_from_cache = True
        # the alignments were paid for by whoever populated the store;
        # the graph's cumulative stats still count them
        _add_stats(state.build_stats, mined_stats)
        widgets = store.load_widget_set(
            log_fp, opts_fp, graph, options.library, options.annotations
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

    The stage extends ``state.graph`` with the run's queries — a one-shot
    run extends an empty graph, a session's run its accumulated one — so
    only pairs that involve a new query are aligned (see
    :func:`~repro.graph.build.extend_interaction_graph`; the graph keeps
    arrival order, which :func:`publish` normalises).  Alignment runs
    through ``state.diff_memo`` (created on first use), so repeated query
    shapes replay their alignment plan instead of re-running the
    alignment DP; the stage reports the split as
    ``n_alignments_memoised`` / ``n_alignments_full`` and folds its
    counters into ``state.build_stats``.

    When :class:`CacheStage` restored the graph, the stage skips the
    alignment work and records ``skipped=True`` with zero pairs compared.
    """

    name = "mine"

    def run(self, state: PipelineState) -> PipelineState:
        """Extend ``state.graph`` by mining (or skip a cached graph)."""
        if state.graph_from_cache and state.graph is not None:
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
        if state.graph is None:
            state.graph = InteractionGraph()
        if state.diff_memo is None:
            state.diff_memo = DiffMemo(
                max_plans_per_shape=options.max_plans_per_shape
            )
        stats = BuildStats()
        extend_interaction_graph(
            state.graph,
            state.queries,
            window=options.window,
            prune=options.lca_pruning,
            annotations=options.annotations,
            stats=stats,
            memo=state.diff_memo,
        )
        _add_stats(state.build_stats, stats)
        state.record(
            self.name,
            n_pairs_compared=stats.n_pairs_compared,
            n_alignments_memoised=stats.n_alignments_memoised,
            n_alignments_full=stats.n_alignments_full,
            n_edges=state.graph.n_edges,
            n_diffs=state.graph.n_diffs,
        )
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
        return state
