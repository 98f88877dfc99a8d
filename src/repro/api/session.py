"""Incremental generation sessions, including a streaming surface.

Production logs grow; re-mining the whole log on every arrival is
``O(|Q| * window)`` tree alignments *per append*.  An
:class:`InterfaceSession` keeps the interaction graph built so far and, on
each append, aligns only the pairs that involve a new query — the already
compared pairs (and their diff records) are reused as-is.  Mapping is
incremental end to end: the session's :class:`~repro.core.mapper.MapCache`
maintains a partition index (with interval annotations — pre/post-order
windows over partition paths) over the growing diffs table, Initialize
(Algorithm 1) re-solves only the diff partitions an append actually
touched, and the Merge fixed point (Algorithm 3) runs partition-scoped —
only the merge components incident to the new pairs re-merge, the rest
replay their memoised result — and window-scoped inside dirty
components: clean sibling subtrees replay memoised merge steps, so a
skewed append pays for its dirty subtree window, not the enclosing
component.  Steady-state append cost is therefore O(dirty subtree), not
O(accumulated log).

The session is result-equivalent to batch generation: after any sequence
of appends, the widget set matches a one-shot :func:`repro.api.generate`
over the concatenated log, because the pair set is identical and the
partition index maintains the full build's ``(q1, q2)``-lexicographic
diff order.

Sessions are also durable.  :meth:`InterfaceSession.save` snapshots the
accumulated graph (via :mod:`repro.cache.serialize`) and
:meth:`InterfaceSession.resume` restores it in another process without
re-mining a single pair; when ``options.cache_dir`` is set the session
additionally reads and writes the shared
:class:`~repro.cache.store.GraphStore`, so a session can adopt a graph a
previous ``generate()`` run already mined, and
:meth:`InterfaceSession.flush_to_store` publishes both the accumulated
graph and the current widget set for later runs to full-hit on.

Usage::

    session = InterfaceSession()
    session.append_sql(morning_statements)
    result = session.append_sql(afternoon_statements)
    result.run.n_pairs_compared     # pairs aligned by THIS append only
    session.expresses("SELECT ...")  # memoised closure membership

    for snapshot in session.stream(batches_of_statements):
        print(snapshot.run.stage("merge").stats["n_components_reused"])

    session.save("session.jsonl")
    # ... later, in a different process ...
    session = InterfaceSession.resume("session.jsonl")
    session.append_sql(evening_statements)
"""

from __future__ import annotations

import asyncio
from pathlib import Path as FilePath
from typing import TYPE_CHECKING, Any, AsyncIterator, Iterable, Iterator

from repro.api.pipeline import (
    PipelineObserver,
    Pipeline,
    _assemble_result,
)
from repro.api.result import GenerationResult, StageReport
from repro.api.stages import (
    MapStage,
    MergeStage,
    MineStage,
    PipelineState,
    parse_deduplicated,
)
from repro.cache.fingerprint import LogFingerprinter, options_fingerprint
from repro.cache.serialize import load_graph, save_graph
from repro.cache.store import GraphStore
from repro.compiler.incremental import IncrementalCompiler
from repro.core.closure import ClosureCache
from repro.core.mapper import MapCache
from repro.core.options import PipelineOptions
from repro.errors import CacheError, CompileError, LogError
from repro.graph.build import BuildStats, extend_interaction_graph, in_build_order
from repro.graph.interaction import InteractionGraph
from repro.sqlparser.astnodes import Node
from repro.sqlparser.parser import parse_sql
from repro.treediff.memo import DiffMemo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.runtime import Database
    from repro.core.interface import Interface

__all__ = ["InterfaceSession"]


class InterfaceSession:
    """A generation session that consumes a query log incrementally.

    Args:
        options: pipeline configuration (defaults to the paper's
            recommended configuration).  With ``options.cache_dir`` set,
            the session shares the :class:`~repro.cache.store.GraphStore`
            with one-shot ``generate()`` runs: the first append adopts a
            cached graph of the same batch if one exists, and
            :meth:`flush_to_store` publishes the accumulated graph and
            widget set for later runs to reuse (explicit, because
            serialising the whole graph on *every* append would cost
            O(accumulated log) — the very thing the incremental session
            avoids).
        observers: hooks notified by the mapping pipeline of every append.
    """

    def __init__(
        self,
        options: PipelineOptions | None = None,
        observers: Iterable[PipelineObserver] = (),
    ) -> None:
        self.options = options or PipelineOptions()
        self._observers = tuple(observers)
        self._graph = InteractionGraph(queries=[])
        self._stats = BuildStats()
        self._n_appends = 0
        self._last: GenerationResult | None = None
        # partition index (with its interval annotations over partition
        # paths) + per-path, per-component, and per-window memos threaded
        # into MapStage/MergeStage on every append (see
        # repro.core.mapper.MapCache): the interval index lives exactly
        # as long as the session, so window-revision signatures recorded
        # by one append stay comparable at every later append
        self._map_cache = MapCache()
        # skeleton-level alignment plans shared by every append: once a
        # template shape has been aligned, later appends of that shape
        # replay the plan and do zero alignment-DP work (optionally
        # LRU-capped per shape for high-cardinality traffic)
        self._diff_memo = DiffMemo(
            max_plans_per_shape=self.options.max_plans_per_shape
        )
        # accumulated-log fingerprint, maintained per append so store
        # adoption/publication never re-hashes the whole log
        self._fingerprinter = LogFingerprinter()
        # positive closure proofs reused across expresses() calls while
        # the widget set is unchanged
        self._closure_cache = ClosureCache()
        # accumulated-log fingerprint for which persisted proofs were
        # already probed in the store (probe once per interface revision)
        self._proofs_probed: str | None = None
        self._proofs_adopted = 0
        # incremental page compiler, created lazily on the first
        # compile()/compile_patch() and kept across appends so per-widget
        # artifacts and closure slices carry over (see
        # repro.compiler.incremental)
        self._compiler: IncrementalCompiler | None = None
        # accumulated-log fingerprint for which a persisted compiled page
        # was already probed in the store
        self._compiled_probed: str | None = None
        self._store = (
            GraphStore(
                self.options.cache_dir, remote=self.options.daemon_socket
            )
            if self.options.cache_dir is not None
            else None
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._graph.queries)

    @property
    def queries(self) -> list[Node]:
        """The queries consumed so far (a copy, in log order)."""
        return list(self._graph.queries)

    @property
    def n_pairs_compared(self) -> int:
        """Total tree alignments across all appends — equal to what one
        full build over the same log would perform."""
        return self._stats.n_pairs_compared

    @property
    def n_alignments_memoised(self) -> int:
        """Pairs answered by diff-memo plan replay across all appends
        (no alignment DP was run for them)."""
        return self._stats.n_alignments_memoised

    @property
    def n_alignments_full(self) -> int:
        """Pairs that ran the full alignment across all appends."""
        return self._stats.n_alignments_full

    @property
    def n_windows_reused(self) -> int:
        """Merge steps answered by the interval-window memo across all
        appends — clean sibling subtrees inside dirty components whose
        recorded outcome replayed instead of re-merging (see
        :class:`~repro.core.mapper.WindowMemo`)."""
        windows = self._map_cache.windows
        return windows.n_reused if windows is not None else 0

    @property
    def n_windows_merged(self) -> int:
        """Merge steps that actually recomputed across all appends (the
        dirty-subtree work the interval index could not skip)."""
        windows = self._map_cache.windows
        return windows.n_merged if windows is not None else 0

    @property
    def result(self) -> GenerationResult | None:
        """The result of the latest append, if any."""
        return self._last

    @property
    def interface(self) -> Interface | None:
        """The latest interface, if any append happened yet."""
        return self._last.interface if self._last else None

    def expresses(self, query: Node | str) -> bool:
        """Closure membership of ``query`` in the current interface.

        Reuses positive cover proofs across calls (and across appends
        whose merge components were all clean), so repeated membership
        checks against a steady interface are much cheaper than
        ``session.interface.expresses(...)`` from cold.  With a shared
        store configured, the first check against each interface revision
        additionally adopts any proofs a previous session (or pool
        worker) published for the same accumulated log — memos survive
        session death.

        Raises:
            LogError: when nothing has been appended yet.
        """
        if self._last is None:
            raise LogError("cannot test expressibility before the first append")
        if isinstance(query, str):
            query = parse_sql(query)
        self._adopt_cached_proofs()
        return self._last.interface.expresses(query, cache=self._closure_cache)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        title: str = "Precision Interface",
        database: "Database | None" = None,
        limit: int = 2048,
        columns: int = 2,
    ) -> str:
        """The current interface compiled to its HTML page, incrementally.

        Byte-identical to ``compile_html(session.interface, ...)``, but
        steady-state cost is proportional to the *dirty* part of the
        page: the session's :class:`IncrementalCompiler` re-renders a
        widget only when it is a new object whose picked type or diff
        list differs from the cached rendering at its path (clean merge
        components hand back the same objects), and renders only the
        closure combinations the previous page did not hold — those that
        select a choice of a re-rendered widget, or that are new to the
        page (with a database, executing them — gated on the session's
        closure proofs).  The compiler survives appends; call this after
        each append for the incremental saving.

        Raises:
            LogError: when nothing has been appended yet.
            CompileError: when the interface has no widgets.
        """
        compiler = self._compiler_for(title, database, limit, columns)
        self._adopt_cached_proofs()
        page = compiler.compile(
            self._last.interface, closure_cache=self._closure_cache
        )
        return page.html()

    def compile_patch(
        self,
        title: str = "Precision Interface",
        database: "Database | None" = None,
        limit: int = 2048,
        columns: int = 2,
    ) -> dict[str, Any]:
        """Compile incrementally and return the *structural patch* since
        the previous compile: replaced widget blocks plus the closure
        delta (wire format of :func:`repro.compiler.incremental.make_patch`).

        The first call (or a title/layout change) returns a full
        ``kind="page"`` patch; :func:`repro.compiler.incremental.apply_patch`
        folds the stream into a page state whose
        :func:`~repro.compiler.incremental.page_html` is byte-identical
        to a full recompile at every step.

        Raises:
            LogError: when nothing has been appended yet.
            CompileError: when the interface has no widgets.
        """
        compiler = self._compiler_for(title, database, limit, columns)
        self._adopt_cached_proofs()
        return compiler.compile_patch(
            self._last.interface, closure_cache=self._closure_cache
        )

    def _compiler_for(
        self,
        title: str,
        database: "Database | None",
        limit: int,
        columns: int,
    ) -> IncrementalCompiler:
        """The session's compiler, recreated when the compile options
        change (artifacts and slices are only sound for one configuration)."""
        if self._last is None:
            raise LogError("cannot compile before the first append")
        compiler = self._compiler
        if (
            compiler is None
            or compiler.title != title
            or compiler.database is not database
            or compiler.limit != limit
            or compiler.columns != columns
        ):
            compiler = IncrementalCompiler(
                title=title, database=database, limit=limit, columns=columns
            )
            self._compiler = compiler
            self._compiled_probed = None
        self._adopt_cached_compiled(compiler)
        return compiler

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | FilePath) -> None:
        """Snapshot the session to ``path`` (versioned JSON lines).

        The snapshot holds the accumulated graph, the cumulative build
        stats, the append counter, and a fingerprint of the options, so
        :meth:`resume` can refuse a snapshot mined under different options.

        Raises:
            LogError: when nothing has been appended yet.
        """
        if not self._graph.queries:
            raise LogError("cannot save a session before the first append")
        # snapshot in full-build order so the file also loads cleanly as a
        # bare graph (load_graph, then map) outside a session
        save_graph(
            path,
            self._normalised_graph(),
            self._stats,
            extra={
                "session": {
                    "n_appends": self._n_appends,
                    "options_fingerprint": options_fingerprint(self.options),
                }
            },
        )

    @classmethod
    def resume(
        cls,
        path: str | FilePath,
        options: PipelineOptions | None = None,
        observers: Iterable[PipelineObserver] = (),
    ) -> "InterfaceSession":
        """Restore a :meth:`save` snapshot — typically in a new process.

        No pair is re-aligned: the graph comes back from disk and one
        mapping pass rebuilds the current interface, so ``session.result``
        is immediately available and later appends continue incrementally.

        Args:
            path: a file written by :meth:`save`.
            options: must describe the same mining configuration the
                snapshot was built under (fingerprints are compared).
            observers: hooks for the resumed session's future appends
                (they also see the resume's mapping pass).

        Raises:
            CacheError: for a snapshot of a different format version, a
                file that is not a session snapshot, or an options
                mismatch.
        """
        graph, stats, extra = load_graph(path)
        session_meta = extra.get("session")
        if not session_meta:
            raise CacheError(
                f"{path} is a bare graph file, not a session snapshot"
            )
        session = cls(options=options, observers=observers)
        expected = session_meta.get("options_fingerprint")
        actual = options_fingerprint(session.options)
        if expected != actual:
            raise CacheError(
                "session snapshot was mined under different options "
                f"(snapshot {str(expected)[:16]}…, resume {actual[:16]}…); "
                "pass the original options to resume()"
            )
        session._graph = graph
        session._stats = stats
        session._n_appends = int(session_meta.get("n_appends", 1))
        session._fingerprinter.update(graph.queries)
        if session._store is not None and graph.queries:
            # inherit the accumulated log's persisted alignment plans, if
            # a previous incarnation flushed them: future appends of
            # known template shapes then do zero alignment-DP work
            session._adopt_cached_diff_memo(
                session._fingerprinter.hexdigest(), actual
            )
        if graph.queries:
            session._last = session._remap(BuildStats(), resumed=True)
        return session

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def append_sql(self, statements: Iterable[str]) -> GenerationResult:
        """Parse raw SQL statements and append them.

        Byte-identical statements within the batch are parsed once and
        share their (immutable) AST, mirroring the pipeline's
        :class:`~repro.api.stages.ParseStage` de-duplication.

        Raises:
            LogError: for an empty batch.
            SQLSyntaxError: if any statement fails to parse.
        """
        statements = list(statements)
        if not statements:
            raise LogError("cannot append an empty batch of queries")
        queries, _hits = parse_deduplicated(statements)
        return self.append(queries)

    def append(self, queries: Iterable[Node]) -> GenerationResult:
        """Append parsed queries, mine only the new pairs, and remap.

        Returns the refreshed :class:`GenerationResult`; its run's
        ``n_pairs_compared`` counts only the alignments this append
        performed (the incremental saving the ROADMAP asks for).
        """
        queries = list(queries)
        if not queries:
            raise LogError("cannot append an empty batch of queries")
        append_stats = BuildStats()
        cache_hit = self._adopt_cached_graph(queries)
        if not cache_hit:
            extend_interaction_graph(
                self._graph,
                queries,
                window=self.options.window,
                prune=self.options.lca_pruning,
                annotations=self.options.annotations,
                stats=append_stats,
                memo=self._diff_memo,
            )
            self._fingerprinter.update(queries)
        self._stats.n_pairs_compared += append_stats.n_pairs_compared
        self._stats.mining_seconds += append_stats.mining_seconds
        self._stats.n_alignments_memoised += append_stats.n_alignments_memoised
        self._stats.n_alignments_full += append_stats.n_alignments_full
        self._n_appends += 1
        self._last = self._remap(append_stats, cache_hit=cache_hit)
        return self._last

    def append_batch(self, batch: Any) -> GenerationResult:
        """Append one polymorphic batch: a statement, an AST, or an
        iterable of either (mixing strings and ASTs within one batch is
        allowed).  This is the element contract of :meth:`stream` /
        :meth:`astream` — and of one :class:`~repro.service.SessionPool`
        ``submit()`` — exposed directly.

        Raises:
            LogError: for an empty batch.
            SQLSyntaxError: if any raw statement fails to parse.
        """
        if isinstance(batch, str):
            return self.append_sql([batch])
        if isinstance(batch, Node):
            return self.append([batch])
        items = list(batch)
        if not items:
            raise LogError("cannot append an empty batch of queries")
        return self.append(
            [parse_sql(item) if isinstance(item, str) else item for item in items]
        )

    def stream(self, batches: Iterable[Any]) -> Iterator[GenerationResult]:
        """Consume an iterable of batches, yielding a result per batch.

        Each element of ``batches`` may be a raw SQL string, a parsed
        :class:`~repro.sqlparser.astnodes.Node`, or an iterable of either
        (one append per element).  Yields the refreshed
        :class:`GenerationResult` snapshot after every append — the same
        object :meth:`append` would return, per-append stage reports
        included — so a consumer can watch recall, cost, and incremental
        counters evolve while the log is still arriving.  Lazy: batches
        are pulled one at a time, making it safe to pass an unbounded
        generator (e.g. a tailed log file).

        Raises:
            LogError: for an empty batch (an empty *iterable* of batches
                yields nothing).
            SQLSyntaxError: if any raw statement fails to parse.
        """
        for batch in batches:
            yield self.append_batch(batch)

    async def astream(self, batches: Any) -> AsyncIterator[GenerationResult]:
        """Async :meth:`stream`: consume a sync or async iterable of
        batches, yielding a result snapshot per batch.

        Each append runs in a worker thread (``asyncio.to_thread``), so an
        event loop serving other traffic is not blocked by the mining and
        mapping work.  Appends are sequential — the session is not
        re-entrant — but the loop stays responsive between and during
        them.

        Usage::

            async for snapshot in session.astream(queue_reader()):
                publish(snapshot.to_dict())
        """
        if hasattr(batches, "__aiter__"):
            async for batch in batches:
                yield await asyncio.to_thread(self.append_batch, batch)
        else:
            for batch in batches:
                yield await asyncio.to_thread(self.append_batch, batch)

    # ------------------------------------------------------------------
    # shared graph store
    # ------------------------------------------------------------------
    def _adopt_cached_graph(self, queries: list[Node]) -> bool:
        """On the session's first batch, try the shared store.

        A previous ``generate()`` (or session) over exactly this batch
        under these options left its graph in the store; adopting it makes
        the first append mine nothing.  The key's persisted diff memo —
        the alignment plans that mine produced — is adopted alongside, so
        *later* appends of known template shapes replay instead of
        aligning.  Later appends never hit the graph table — their
        accumulated log is session-specific — so the lookup is skipped.
        """
        if self._store is None or self._graph.queries:
            return False
        probe = LogFingerprinter().update(queries)
        opts_fp = options_fingerprint(self.options)
        self._adopt_cached_diff_memo(probe.hexdigest(), opts_fp)
        cached = self._store.load(probe.hexdigest(), opts_fp)
        if cached is None:
            return False
        graph, mined_stats = cached
        self._graph = graph
        self._fingerprinter = probe
        # the alignments were paid for by whoever populated the store;
        # count them into the session totals to keep the "equal to one
        # full build" invariant of n_pairs_compared
        self._stats.n_pairs_compared += mined_stats.n_pairs_compared
        return True

    def _adopt_cached_diff_memo(self, log_fp: str, opts_fp: str) -> int:
        """Warm the session's diff memo from the store's fourth table.

        Each persisted representative pair is re-aligned once by the
        current algorithm (see
        :meth:`~repro.treediff.memo.DiffMemo.import_pairs`), so adoption
        costs O(unique shapes) and can never change results.  Returns the
        number of plans imported.
        """
        if self._store is None:
            return 0
        pairs = self._store.load_diff_memo_pairs(log_fp, opts_fp)
        if not pairs:
            return 0
        return self._diff_memo.import_pairs(pairs)

    def _adopt_cached_proofs(self) -> None:
        """Arm the closure cache with persisted proofs for the current
        accumulated log, once per interface revision.

        Proofs live in the store's third table under the same
        content-addressed key as the graph and widget set; they were
        proved against the key's deterministic widget set, which the
        session's current widgets match whenever the accumulated
        fingerprints match.  Negative results are never persisted (see
        :class:`~repro.core.closure.ClosureCache`), so adopting can only
        skip work, not change answers.
        """
        if self._store is None or self._last is None:
            return
        log_fp = self._fingerprinter.hexdigest()
        if self._proofs_probed == log_fp:
            return
        self._proofs_probed = log_fp
        triples = self._store.load_proof_triples(
            log_fp, options_fingerprint(self.options)
        )
        if triples is None:
            return
        self._proofs_adopted += self._closure_cache.import_proofs(
            self._last.interface.widgets, triples
        )

    def _adopt_cached_compiled(self, compiler: IncrementalCompiler) -> int:
        """Warm the compiler's closure-slice cache from the store's fifth
        table, once per accumulated-log fingerprint.

        The persisted page's slices are keyed by content-addressed widget
        fingerprints (see
        :meth:`~repro.compiler.incremental.IncrementalCompiler.import_state`),
        so a stale or foreign record can cost time but never correctness.
        Returns the number of slices adopted.
        """
        if self._store is None or not self._graph.queries:
            return 0
        log_fp = self._fingerprinter.hexdigest()
        if self._compiled_probed == log_fp:
            return 0
        self._compiled_probed = log_fp
        state = self._store.load_compiled_page(
            log_fp, options_fingerprint(self.options)
        )
        if state is None:
            return 0
        try:
            return compiler.import_state(state)
        except CompileError:
            # foreign patch version: the record is unusable, not an error
            return 0

    def flush_to_store(self) -> None:
        """Publish the accumulated graph and widget set to the store.

        Keyed by the *accumulated* log's fingerprint, so both a one-shot
        ``generate()`` over the concatenated log and a future session fed
        the same batches will hit — and, with the widget set alongside,
        full-hit (Mine, Map, and Merge all skipped).  The *normalised*
        graph is what gets written: store consumers map straight off the
        stored diff order, and the greedy merge is order-sensitive, so
        entries must always be in full-build ``(q1, q2)``-lexicographic
        order.

        Explicit rather than automatic: serialising the whole graph costs
        O(accumulated log), so the caller decides when that is worth
        paying (typically once, after the last append of a batch window).
        A no-op when no ``cache_dir`` is configured.

        Raises:
            LogError: when nothing has been appended yet.
        """
        if self._store is None:
            return
        if not self._graph.queries:
            raise LogError("cannot flush a session before the first append")
        log_fp = self._fingerprinter.hexdigest()
        opts_fp = options_fingerprint(self.options)
        normalised = self._normalised_graph()
        self._store.save(log_fp, opts_fp, normalised, self._stats)
        # the alignment plans ride along so the next session (or pool
        # worker) over this log mines known templates by replay only
        self._store.save_diff_memo(log_fp, opts_fp, self._diff_memo)
        if self._last is not None:
            self._store.save_widget_set(
                log_fp, opts_fp, self._last.interface.widgets, normalised
            )
            # proofs accumulated by expresses() ride along so the next
            # session over this log starts with a warm closure cache
            self._store.save_closure_proofs(
                log_fp, opts_fp, self._closure_cache, self._last.interface.widgets
            )
        if self._compiler is not None and self._compiler.page is not None:
            # the compiled page rides along so the next session over this
            # log serves its first page from replayed closure slices
            self._store.save_compiled_page(
                log_fp, opts_fp, self._compiler.page.to_state()
            )

    # ------------------------------------------------------------------
    # mapping over the accumulated graph
    # ------------------------------------------------------------------
    def _normalised_graph(self) -> InteractionGraph:
        """The accumulated graph with edges/diffs in full-build order.

        ``extend_interaction_graph`` appends in arrival order; the mapper's
        greedy merge is order-sensitive, so persistence normalises to the
        ``(q1, q2)``-lexicographic order a one-shot build produces — the
        in-memory remap gets the same order from the
        :class:`~repro.core.mapper.PartitionIndex` without sorting.
        """
        return in_build_order(self._graph)

    def _remap(
        self,
        append_stats: BuildStats,
        cache_hit: bool = False,
        resumed: bool = False,
    ) -> GenerationResult:
        # the raw (arrival-order) graph is enough here: MapStage/MergeStage
        # consume the diffs through the MapCache's partition index, which
        # maintains full-build order incrementally
        state = PipelineState(
            options=self.options,
            queries=list(self._graph.queries),
            graph=self._graph,
            source=f"session#{self._n_appends}",
            map_cache=self._map_cache,
        )
        mine_stats: dict[str, Any] = {
            "n_pairs_compared": append_stats.n_pairs_compared,
            "n_pairs_compared_total": self._stats.n_pairs_compared,
            "n_alignments_memoised": append_stats.n_alignments_memoised,
            "n_alignments_full": append_stats.n_alignments_full,
            "n_edges": self._graph.n_edges,
            "n_diffs": self._graph.n_diffs,
            "incremental": True,
        }
        if cache_hit:
            mine_stats["cache_hit"] = True
        if resumed:
            mine_stats["resumed"] = True
        state.record(MineStage.name, **mine_stats)
        mine_report = StageReport(
            name=MineStage.name,
            seconds=append_stats.mining_seconds,
            stats=mine_stats,
        )
        # the mine report rides along as a prior report so observers'
        # on_pipeline_end sees a run with the real mining stats
        pipeline = Pipeline([MapStage(), MergeStage()], self.options)
        state, reports, run = pipeline.run(
            state, observers=self._observers, prior_reports=(mine_report,)
        )
        provenance_extra: dict[str, Any] = {
            "incremental": True,
            "n_appends": self._n_appends,
            "n_pairs_compared_total": self._stats.n_pairs_compared,
        }
        if resumed:
            provenance_extra["resumed"] = True
        return _assemble_result(
            state,
            reports,
            run=run,
            provenance_extra=provenance_extra,
        )
