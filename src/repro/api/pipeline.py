"""The staged pipeline and the public generation entry points.

A :class:`Pipeline` is an ordered list of :class:`~repro.api.stages.Stage`
objects with the uniform ``run(state) -> state`` contract.  The pipeline
wraps every stage with wall-clock timing, notifies registered
:class:`PipelineObserver` hooks, and assembles the stage records into the
frozen :class:`~repro.api.result.PipelineRun`.

Entry points::

    from repro.api import generate, generate_many, generate_segmented

    result = generate(["SELECT a FROM t WHERE x = 1",
                       "SELECT a FROM t WHERE x = 2"])
    result.interface.describe()
    result.run.stage("mine").stats["n_pairs_compared"]

``generate`` accepts raw SQL strings, parsed ASTs, or a
:class:`~repro.logs.model.QueryLog`; ``generate_many`` maps it over a batch
of logs (the multi-client workloads); ``generate_segmented`` first runs the
:class:`~repro.api.stages.SegmentStage` to split a mixed log into analyses
and mines one interface per analysis.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterable, Sequence

from repro.api.result import GenerationResult, PipelineRun, StageReport
from repro.api.stages import (
    CacheStage,
    MapStage,
    MergeStage,
    MineStage,
    ParseStage,
    PipelineState,
    SegmentStage,
    Stage,
    publish,
)
from repro.core.interface import Interface
from repro.core.options import PipelineOptions
from repro.errors import CacheError, LogError
from repro.sqlparser.astnodes import Node

__all__ = [
    "PipelineObserver",
    "Pipeline",
    "generate",
    "generate_many",
    "generate_segmented",
]


class PipelineObserver:
    """Instrumentation hooks; subclass and override what you need.

    Observers see the live state (metrics exporters, progress bars, stage
    tracers).  Hook exceptions propagate — an observer is part of the run.
    """

    def on_pipeline_start(self, pipeline: "Pipeline", state: PipelineState) -> None:
        """Called once before the first stage."""

    def on_stage_start(self, stage: Stage, state: PipelineState) -> None:
        """Called immediately before ``stage.run``."""

    def on_stage_end(
        self, stage: Stage, state: PipelineState, report: StageReport
    ) -> None:
        """Called after ``stage.run`` with the stage's frozen report."""

    def on_pipeline_end(
        self, pipeline: "Pipeline", state: PipelineState, run: PipelineRun
    ) -> None:
        """Called once after the last stage with the aggregated run."""


class Pipeline:
    """An ordered, observable composition of stages.

    Args:
        stages: the stage sequence; composition order is execution order.
        options: pipeline configuration shared by all runs (defaults to the
            paper's recommended configuration).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        options: PipelineOptions | None = None,
    ) -> None:
        if not stages:
            # a composition mistake, not a log problem — keep it out of
            # the LogError/ReproError family the CLI reports as log errors
            raise ValueError("a pipeline needs at least one stage")
        self.stages: tuple[Stage, ...] = tuple(stages)
        self.options = options or PipelineOptions()

    @classmethod
    def default(cls, options: PipelineOptions | None = None) -> "Pipeline":
        """The paper's Figure 2a pipeline: parse → mine → map → merge —
        what :func:`generate` and every
        :class:`~repro.api.session.InterfaceSession` append run.

        When ``options.cache_dir`` is set, a
        :class:`~repro.api.stages.CacheStage` is inserted before the Mine
        stage: a second run over the same log restores the interaction
        graph from disk and the Mine stage reports ``skipped=True``; when
        the store also holds the key's widget set (a *full* hit), Map and
        Merge report ``skipped=True`` too and the warm run does no
        pairwise diffing or widget solving at all.
        """
        options = options or PipelineOptions()
        stages: list[Stage] = [ParseStage()]
        if options.cache_dir is not None:
            stages.append(CacheStage())
        stages.extend([MineStage(), MapStage(), MergeStage()])
        return cls(stages, options)

    @property
    def stage_names(self) -> tuple[str, ...]:
        """The composed stages' names, in execution order."""
        return tuple(stage.name for stage in self.stages)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        state: PipelineState,
        observers: Iterable[PipelineObserver] = (),
    ) -> tuple[PipelineState, tuple[StageReport, ...], PipelineRun]:
        """Run every stage in order, timing each one.

        Args:
            state: the run's state (mutated and returned).
            observers: instrumentation hooks.

        Returns the advanced state, the per-stage reports, and the
        aggregated :class:`PipelineRun` (the same object observers see).
        """
        observers = tuple(observers)
        for observer in observers:
            observer.on_pipeline_start(self, state)
        reports: list[StageReport] = []
        for stage in self.stages:
            for observer in observers:
                observer.on_stage_start(stage, state)
            started = time.perf_counter()
            state = stage.run(state)
            elapsed = time.perf_counter() - started
            report = StageReport(
                name=stage.name,
                seconds=elapsed,
                stats=state.records.get(stage.name, {}),
            )
            reports.append(report)
            for observer in observers:
                observer.on_stage_end(stage, state, report)
        run = _run_from(state, tuple(reports))
        for observer in observers:
            observer.on_pipeline_end(self, state, run)
        return state, tuple(reports), run

    def generate(
        self,
        log: Any,
        observers: Iterable[PipelineObserver] = (),
        source: str | None = None,
    ) -> GenerationResult:
        """Run the pipeline over one log and assemble a result.

        With a store configured, what the run computed and the store did
        not supply is then published (:func:`~repro.api.stages.publish`);
        a failed write does not fail the run — its message is the
        result's ``provenance["cache_save_error"]``.

        Args:
            log: a :class:`~repro.logs.model.QueryLog`, a list of raw SQL
                strings, or a list of parsed ASTs (log order preserved).
            observers: instrumentation hooks.
            source: provenance label override.

        Raises:
            LogError: for an empty log.
            SQLSyntaxError: if any raw statement fails to parse.
        """
        state = _state_for(log, self.options, source=source)
        state, _reports, run = self.run(state, observers=observers)
        extra: dict[str, Any] = {}
        try:
            publish(state)
        except (CacheError, OSError) as exc:
            extra["cache_save_error"] = str(exc)
        return _assemble_result(state, run, provenance_extra=extra)


# ----------------------------------------------------------------------
# state construction / result assembly (shared with InterfaceSession)
# ----------------------------------------------------------------------
def _state_for(
    log: Any, options: PipelineOptions, source: str | None = None
) -> PipelineState:
    """Build the initial state for a log given as QueryLog, SQL, or ASTs."""
    if hasattr(log, "statements") and hasattr(log, "asts"):  # QueryLog duck-type
        return PipelineState(
            options=options,
            statements=list(log.statements()),
            source=source or getattr(log, "name", "log"),
        )
    if isinstance(log, str):
        raise LogError(
            "pass a list of SQL statements (or a QueryLog), not a single "
            "string — a bare string would be iterated character by character"
        )
    items = list(log)
    if not items:
        raise LogError("cannot generate an interface from an empty log")
    if isinstance(items[0], str):
        return PipelineState(options=options, statements=items, source=source or "sql")
    return PipelineState(options=options, queries=items, source=source or "log")


def _run_from(
    state: PipelineState, reports: tuple[StageReport, ...]
) -> PipelineRun:
    """Aggregate stage reports into the frozen run record."""
    by_name = {report.name: report for report in reports}
    mine = by_name.get(MineStage.name)
    mining_seconds = mine.seconds if mine else 0.0
    mapping_seconds = sum(
        report.seconds
        for name in (MapStage.name, MergeStage.name)
        if (report := by_name.get(name)) is not None
    )
    widgets = state.widgets or []
    graph = state.graph
    return PipelineRun(
        n_queries=len(graph.queries if graph else state.queries or []),
        n_edges=graph.n_edges if graph else 0,
        n_diffs=graph.n_diffs if graph else 0,
        n_pairs_compared=int(mine.stats.get("n_pairs_compared", 0)) if mine else 0,
        mining_seconds=mining_seconds,
        mapping_seconds=mapping_seconds,
        n_widgets=len(widgets),
        interface_cost=sum(w.cost for w in widgets),
        stages=reports,
    )


def _assemble_result(
    state: PipelineState,
    run: PipelineRun,
    provenance_extra: dict[str, Any] | None = None,
) -> GenerationResult:
    """Wrap the final state and its run record into an immutable
    GenerationResult; the interface covers the whole graph's log."""
    graph = state.graph
    if graph is None or not graph.queries or state.widgets is None:
        raise LogError("pipeline did not produce an interface (missing stages?)")
    options = state.options
    interface = Interface(
        widgets=state.widgets,
        initial_query=graph.queries[0],
        annotations=options.annotations,
        metadata={
            "n_queries": len(graph.queries),
            "n_edges": graph.n_edges,
            "n_diffs": graph.n_diffs,
            "window": options.window,
            "lca_pruning": options.lca_pruning,
        },
    )
    provenance: dict[str, Any] = {
        "source": state.source,
        "n_queries": len(graph.queries),
        "window": options.window,
        "lca_pruning": options.lca_pruning,
        "merge": options.merge,
        "stages": [report.name for report in run.stages],
    }
    provenance.update(provenance_extra or {})
    return GenerationResult(interface=interface, run=run, provenance=provenance)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def generate(
    log: Any,
    options: PipelineOptions | None = None,
    observers: Iterable[PipelineObserver] = (),
    source: str | None = None,
) -> GenerationResult:
    """Mine one precision interface from one log.

    See :meth:`Pipeline.generate`; this runs the default staged pipeline.
    """
    return Pipeline.default(options).generate(log, observers=observers, source=source)


def _generate_in_worker(payload: tuple[Any, PipelineOptions, str | None]) -> GenerationResult:
    """Process-pool entry point: mine one log in a worker process.

    Must stay a module-level function so it pickles by reference under
    every multiprocessing start method (spawn included).
    """
    log, options, source = payload
    return Pipeline.default(options).generate(log, source=source)


def _validate_sharding(
    workers: int | None, observers: Iterable[PipelineObserver]
) -> int:
    """Validate the sharding arguments shared by the batch entry points.

    Returns the requested worker count (``1`` for ``None``).  Raises
    ``ValueError`` for a non-positive count, or for observers combined
    with a parallel request — observers hold process-local state and
    cannot follow a run into another process.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    requested = workers or 1
    if requested > 1 and tuple(observers):
        raise ValueError(
            "observers hold process-local state and are not supported with "
            "workers > 1; drop the observers or run with workers=1"
        )
    return requested


def _shard(
    payloads: list[tuple[Any, PipelineOptions, str | None]], workers: int
) -> list[GenerationResult]:
    """Run the payloads through worker processes, preserving input order."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_generate_in_worker, payloads))


def generate_many(
    logs: Iterable[Any],
    options: PipelineOptions | None = None,
    observers: Iterable[PipelineObserver] = (),
    workers: int | None = None,
) -> list[GenerationResult]:
    """Mine one interface per log, in input order (batch/multi-client).

    Per-client logs are independent until any cross-client analysis, so
    with ``workers > 1`` the batch is sharded across a
    :class:`concurrent.futures.ProcessPoolExecutor` — one log per task,
    results in input order.  Logs, options, and results cross process
    boundaries by pickling; a shared ``options.cache_dir`` is safe (the
    store's writes are atomic).  Observers hold live local state and
    cannot follow a run into another process, so they are only supported
    serially.

    The serial path is unchanged: the stage objects are stateless, so one
    pipeline serves the whole batch; each log still gets its own state,
    reports, and result.  An empty batch yields an empty list (unlike an
    empty *log*, which raises).

    Args:
        logs: the batch; each element is anything :func:`generate` accepts.
        options: shared pipeline configuration.
        observers: instrumentation hooks (``workers`` must be left serial).
        workers: process count; ``None`` or ``1`` runs in-process.

    Raises:
        ValueError: for ``workers < 1``, or observers combined with
            ``workers > 1`` (raised up front, even for batches too small
            to actually shard).
    """
    logs = list(logs)
    n_workers = min(_validate_sharding(workers, observers), len(logs))
    if n_workers <= 1:
        pipeline = Pipeline.default(options)
        return [pipeline.generate(log, observers=observers) for log in logs]
    resolved = options or PipelineOptions()
    return _shard([(log, resolved, None) for log in logs], n_workers)


def generate_segmented(
    log: Any,
    options: PipelineOptions | None = None,
    observers: Iterable[PipelineObserver] = (),
    jump_threshold: float = 0.3,
    cluster_threshold: float = 0.3,
    workers: int | None = None,
) -> list[GenerationResult]:
    """Segment a mixed log into analyses, then mine one interface each.

    Runs parse → segment once, then the default pipeline per segment.  Each
    result's provenance carries its ``segment`` index and a derived
    ``source`` label (``<log>/analysis-<i>``).  Segments are independent
    logs, so ``workers > 1`` shards the per-segment mining across a
    process pool exactly like :func:`generate_many` (same validation,
    same observer restriction, raised before any work happens).
    """
    n_requested = _validate_sharding(workers, observers)
    resolved = options or PipelineOptions()
    state = _state_for(log, resolved)
    front = Pipeline(
        [ParseStage(), SegmentStage(jump_threshold, cluster_threshold)], resolved
    )
    state, _reports, _run = front.run(state, observers=observers)
    segments = state.segments or []
    n_workers = min(n_requested, len(segments))
    results: list[GenerationResult] = []
    if n_workers > 1:
        payloads = [
            (segment, resolved, f"{state.source}/analysis-{index}")
            for index, segment in enumerate(segments)
        ]
        mined = _shard(payloads, n_workers)
    else:
        pipeline = Pipeline.default(resolved)
        mined = [
            pipeline.generate(
                segment,
                observers=observers,
                source=f"{state.source}/analysis-{index}",
            )
            for index, segment in enumerate(segments)
        ]
    for index, result in enumerate(mined):
        results.append(
            GenerationResult(
                interface=result.interface,
                run=result.run,
                provenance={**result.provenance, "segment": index},
            )
        )
    return results
