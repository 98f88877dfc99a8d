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

Every append runs :meth:`Pipeline.default <repro.api.pipeline.Pipeline.default>`,
the stages a one-shot :func:`repro.api.generate` runs, over a
:class:`~repro.api.stages.PipelineState` that carries the session's
long-lived members (graph, map cache, diff memo, store, running log
fingerprint and cumulative build stats) from one append to the next.

Sessions are also durable.  :meth:`InterfaceSession.save` snapshots the
accumulated graph (via :mod:`repro.cache.serialize`) and
:meth:`InterfaceSession.resume` restores it in another process without
re-mining a single pair; when ``options.cache_dir`` is set the session
additionally reads and writes the shared
:class:`~repro.cache.store.GraphStore`, so a session's first append can
adopt the graph and widget set a previous ``generate()`` run stored, and
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
from repro.api.result import GenerationResult, PipelineRun
from repro.api.stages import (
    MapStage,
    MergeStage,
    PipelineState,
    parse_deduplicated,
    publish,
)
from repro.cache.fingerprint import LogFingerprinter, options_fingerprint
from repro.cache.serialize import load_graph, save_graph
from repro.cache.store import GraphStore
from repro.compiler.incremental import IncrementalCompiler
from repro.core.closure import ClosureCache
from repro.core.options import PipelineOptions
from repro.errors import CacheError, LogError
from repro.graph.build import extend_interaction_graph, in_build_order
from repro.graph.interaction import InteractionGraph
from repro.sqlparser.astnodes import Node
from repro.sqlparser.parser import parse_sql
from repro.treediff.memo import DiffMemo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.runtime import Database
    from repro.core.interface import Interface

__all__ = ["InterfaceSession"]

# ``parse_deduplicated`` and ``extend_interaction_graph`` are no longer
# called here (the pipeline's stages run them); they stay importable from
# this module because perfbench's tracer wraps them here by name.


class InterfaceSession:
    """A generation session that consumes a query log incrementally.

    Args:
        options: pipeline configuration (defaults to the paper's
            recommended configuration).  With ``options.cache_dir`` set,
            the session shares the :class:`~repro.cache.store.GraphStore`
            with one-shot ``generate()`` runs: the first append adopts a
            cached graph (and widget set) of the same batch if one exists,
            and :meth:`flush_to_store` publishes the accumulated graph and
            widget set for later runs to reuse (explicit, because
            serialising the whole graph on *every* append would cost
            O(accumulated log) — the very thing the incremental session
            avoids).
        observers: hooks notified by the pipeline of every append.
    """

    def __init__(
        self,
        options: PipelineOptions | None = None,
        observers: Iterable[PipelineObserver] = (),
    ) -> None:
        self.options = options or PipelineOptions()
        self._observers = tuple(observers)
        self._pipeline = Pipeline.default(self.options)
        self._n_appends = 0
        self._last: GenerationResult | None = None
        # the latest append's state (before the first, a seed): each
        # append's state carries its long-lived members on (see
        # PipelineState.next_run), so the map cache's window-revision
        # signatures and the diff memo's alignment plans outlive appends.
        # The store is opened here, once: the first append's lookup is
        # then its only request to a store daemon.
        self._state = PipelineState(
            options=self.options,
            graph=InteractionGraph(),
            diff_memo=DiffMemo(max_plans_per_shape=self.options.max_plans_per_shape),
            cache_store=(
                GraphStore(self.options.cache_dir, remote=self.options.daemon_socket)
                if self.options.cache_dir is not None
                else None
            ),
        )
        # positive closure proofs reused across expresses() calls while
        # the widget set is unchanged
        self._closure_cache = ClosureCache()
        # incremental page compiler, created lazily on the first
        # compile()/compile_patch() and kept across appends so per-widget
        # artifacts and closure slices carry over (see
        # repro.compiler.incremental)
        self._compiler: IncrementalCompiler | None = None

    @property
    def _graph(self) -> InteractionGraph:
        """The accumulated graph (every state the session keeps has one)."""
        graph = self._state.graph
        assert graph is not None
        return graph

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
        """Total tree alignments behind the accumulated graph — equal to
        what one full build over the same log would perform (a graph
        adopted from the store counts its producer's alignments)."""
        return self._state.build_stats.n_pairs_compared

    @property
    def n_alignments_memoised(self) -> int:
        """Pairs answered by diff-memo plan replay behind the accumulated
        graph (no alignment DP was run for them)."""
        return self._state.build_stats.n_alignments_memoised

    @property
    def n_alignments_full(self) -> int:
        """Pairs that ran the full alignment behind the accumulated graph."""
        return self._state.build_stats.n_alignments_full

    @property
    def n_windows_reused(self) -> int:
        """Merge steps answered by the interval-window memo across all
        appends — clean sibling subtrees inside dirty components whose
        recorded outcome replayed instead of re-merging (see
        :class:`~repro.core.mapper.WindowMemo`)."""
        windows = self._state.map_cache.windows
        return windows.n_reused if windows is not None else 0

    @property
    def n_windows_merged(self) -> int:
        """Merge steps that actually recomputed across all appends (the
        dirty-subtree work the interval index could not skip)."""
        windows = self._state.map_cache.windows
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
        ``session.interface.expresses(...)`` from cold.

        Raises:
            LogError: when nothing has been appended yet.
        """
        if self._last is None:
            raise LogError("cannot test expressibility before the first append")
        if isinstance(query, str):
            query = parse_sql(query)
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
        page (with a database, executing only SQL the previous page did
        not already hold).  The compiler survives appends; call this
        after each append for the incremental saving.

        Raises:
            LogError: when nothing has been appended yet.
            CompileError: when the interface has no widgets.
        """
        compiler = self._compiler_for(title, database, limit, columns)
        return compiler.compile(self._last.interface).html()

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
        return compiler.compile_patch(self._last.interface)

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
            in_build_order(self._graph),
            self._state.build_stats,
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
        mapping pass (Map and Merge) rebuilds the current interface, so
        ``session.result`` is immediately available and later appends
        continue incrementally.

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
        session._n_appends = int(session_meta.get("n_appends", 1))
        restored = session._state
        restored.graph = graph
        restored.build_stats = stats
        if restored.cache_store is not None:
            # a graph read back from JSON always fingerprints
            restored.fingerprinter = LogFingerprinter().update(graph.queries)
        if graph.queries:
            remap = Pipeline([MapStage(), MergeStage()], session.options)
            state, _reports, run = remap.run(
                restored.next_run(source=f"session#{session._n_appends}"),
                observers=session._observers,
            )
            session._finish(state, run, resumed=True)
        return session

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def append_sql(self, statements: Iterable[str]) -> GenerationResult:
        """Parse raw SQL statements and append them.

        Byte-identical statements within the batch are parsed once and
        share their (immutable) AST — the pipeline's
        :class:`~repro.api.stages.ParseStage` de-duplication.

        Raises:
            LogError: for an empty batch.
            SQLSyntaxError: if any statement fails to parse.
        """
        statements = list(statements)
        if not statements:
            raise LogError("cannot append an empty batch of queries")
        return self._append(statements=statements)

    def append(self, queries: Iterable[Node]) -> GenerationResult:
        """Append parsed queries, mine only the new pairs, and remap.

        Returns the refreshed :class:`GenerationResult`; its run's
        ``n_pairs_compared`` counts only the alignments this append
        performed (the incremental saving the ROADMAP asks for).
        """
        queries = list(queries)
        if not queries:
            raise LogError("cannot append an empty batch of queries")
        return self._append(queries=queries)

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
        if isinstance(batch, (str, Node)):
            batch = [batch]
        items = list(batch)
        if all(isinstance(item, Node) for item in items):
            return self.append(items)
        # ParseStage parses the statements and passes any AST through
        return self._append(statements=items)

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
    def flush_to_store(self) -> None:
        """Publish the accumulated graph and widget set to the store
        (:func:`~repro.api.stages.publish` over the latest append's state).

        Keyed by the *accumulated* log's fingerprint, so both a one-shot
        ``generate()`` over the concatenated log and a future session fed
        the same batches will hit — and, with the widget set alongside,
        full-hit (Mine, Map, and Merge all skipped).  Records the store
        itself supplied to that append are not written back.

        Explicit rather than automatic: serialising the whole graph costs
        O(accumulated log), so the caller decides when that is worth
        paying (typically once, after the last append of a batch window).
        A no-op when no ``cache_dir`` is configured, or when the log could
        not be fingerprinted.

        Raises:
            LogError: when nothing has been appended yet.
            CacheError, OSError: when a record cannot be written.
        """
        if self._state.cache_store is None:
            return
        if self._last is None:
            raise LogError("cannot flush a session before the first append")
        publish(self._state)

    # ------------------------------------------------------------------
    # the run path
    # ------------------------------------------------------------------
    def _append(self, **batch: Any) -> GenerationResult:
        """Run the default pipeline over one batch and the session's
        long-lived members."""
        state = self._state.next_run(
            source=f"session#{self._n_appends + 1}", **batch
        )
        state, _reports, run = self._pipeline.run(state, observers=self._observers)
        self._n_appends += 1
        return self._finish(state, run)

    def _finish(
        self, state: PipelineState, run: PipelineRun, **provenance: Any
    ) -> GenerationResult:
        """Keep ``state`` for the next append and assemble its result."""
        self._state = state
        self._last = _assemble_result(
            state,
            run,
            provenance_extra={
                "incremental": True,
                "n_appends": self._n_appends,
                "n_pairs_compared_total": state.build_stats.n_pairs_compared,
                **provenance,
            },
        )
        return self._last
