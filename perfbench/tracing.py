"""Span tracing for the traced run, recorded from the benchmark's own code.

Nothing here changes the program: a :class:`StageObserver` (the public
``PipelineObserver`` hooks) times the stages of every ``generate`` and of
every session append's map/merge pipeline, and :func:`install` wraps the
entry points sessions call (``parse_deduplicated`` and ``parse_sql``,
``extend_interaction_graph``, ``IncrementalCompiler.compile``, the
session's ``compile`` and ``compile_patch``, the ``GraphStore`` load/save
methods, ``append_batch`` and ``flush_to_store``) for the length of one
phase.

A span records its name, start, end, parent span and the operation (the
request id) it belongs to.  Spans stay in memory; :func:`layer_metrics`
turns them into per-layer self times after the phase ends, and
:func:`write_spans` writes them out when the run ends.  Operations
alternate between traced and untraced so that the tracing overhead is
measured inside the same run: traced median minus untraced median.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from measure import median, percentile

import repro.api.session as session_module
from repro.api.pipeline import PipelineObserver
from repro.api.session import InterfaceSession
from repro.cache.store import GraphStore
from repro.compiler.incremental import IncrementalCompiler

_STORE_LOADS = (
    "load",
    "load_widget_set",
    "load_diff_memo_pairs",
    "load_proof_triples",
    "load_compiled_page",
)
_STORE_SAVES = (
    "save",
    "save_widget_set",
    "save_diff_memo",
    "save_closure_proofs",
    "save_compiled_page",
)

#: span name -> the layer its self time is charged to
_LAYER_OF = {
    "stage.parse": "sqlparser",
    "sqlparser.parse": "sqlparser",
    "stage.mine": "graph",
    "graph.mine": "graph",
    "stage.map": "core.map",
    "stage.merge": "core.merge",
    "compiler.compile": "compiler",
    "stage.cache": "cache.load",
    "cache.load": "cache.load",
    "cache.save": "cache.save",
    "api.append": "api.append",
    "api.flush": "api.flush",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "work")

    def __init__(self, name: str, start: float, parent: int | None, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.work = True


class Tracer:
    """In-memory span recorder for one phase.

    Every operation gets an id and a counter dict; spans are recorded only
    while the current operation is traced, counters always (they come
    from the program's own reports, which exist whether or not spans are
    taken).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.in_store = False
        self._stack: list[int] = []
        self.op_kinds: list[str] = []
        self.op_traced: list[bool] = []
        self.op_seconds: list[float] = []
        #: host-speed probe mark of each operation (see ``HostSpeed``)
        self.op_marks: list[Any] = []
        #: per-operation host-speed factors, set by :meth:`rescale`
        self.factors: list[float] = []
        self.counts: list[dict[str, float]] = []
        #: the page the last ``IncrementalCompiler.compile`` returned
        self.last_page: Any = None

    @contextlib.contextmanager
    def op(self, kind: str, traced: bool) -> Iterator[None]:
        """One operation (a generate, an append or a drain)."""
        self.op_kinds.append(kind)
        self.op_traced.append(traced)
        self.op_marks.append(None)
        self.counts.append(defaultdict(float))
        self.enabled = traced
        started = perf_counter()
        root = self.open(f"op.{kind}") if traced else None
        try:
            yield
        finally:
            if root is not None:
                self.close(root)
            self.enabled = False
            self.op_seconds.append(perf_counter() - started)

    def mark(self, mark: Any) -> None:
        """Record the probe mark of the operation just timed."""
        self.op_marks[-1] = mark

    def rescale(self, speed: Any) -> None:
        """Scale every operation's times to the nominal host speed, as the
        end-to-end metrics are."""
        self.factors = [1.0 if mark is None else speed.factor(mark) for mark in self.op_marks]

    def _factor(self, op: int) -> float:
        return self.factors[op] if self.factors else 1.0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, len(self.op_kinds) - 1))
        self._stack.append(index)
        return index

    def close(self, index: int, work: bool = True) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.work = work
        self._stack.remove(index)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name) if self.enabled else None
        try:
            yield
        finally:
            if index is not None:
                self.close(index)

    def count(self, key: str, amount: float = 1) -> None:
        if self.counts:
            self.counts[-1][key] += amount


class StageObserver(PipelineObserver):
    """Times pipeline stages and records their counters."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._open: dict[str, int] = {}

    def on_stage_start(self, stage: Any, state: Any) -> None:
        if self.tracer.enabled:
            self._open[stage.name] = self.tracer.open(f"stage.{stage.name}")

    def on_stage_end(self, stage: Any, state: Any, report: Any) -> None:
        stats = report.stats
        skipped = bool(stats.get("skipped", False))
        index = self._open.pop(stage.name, None)
        if index is not None:
            self.tracer.close(index, work=not skipped)
        if skipped:
            return
        count = self.tracer.count
        if stage.name == "parse":
            count("statements", stats.get("n_parsed", 0))
            count("parse_hits", stats.get("n_parse_hits", 0))
        elif stage.name == "mine":
            count("pairs_compared", stats.get("n_pairs_compared", 0))
            count("diffs", stats.get("n_diffs", 0))
            count("alignments_full", stats.get("n_alignments_full", 0))
            count("alignments_memoised", stats.get("n_alignments_memoised", 0))
        elif stage.name == "map":
            if "n_partitions_rebuilt" in stats:
                count("partitions_rebuilt", stats["n_partitions_rebuilt"])
                count("partitions_reused", stats["n_partitions_reused"])
            else:  # one-shot Initialize builds every partition
                count("partitions_rebuilt", stats.get("n_partitions", 0))
        elif stage.name == "merge":
            for key in (
                "components_merged",
                "components_reused",
                "windows_merged",
                "windows_reused",
            ):
                count(key, stats.get(f"n_{key}", 0))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the session entry points; returns the function that undoes it."""
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, name)
        undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def parse(original: Any) -> Any:
        def parse_deduplicated(statements: list[str]) -> Any:
            with tracer.span("sqlparser.parse"):
                queries, hits = original(statements)
            tracer.count("statements", len(queries))
            tracer.count("parse_hits", hits)
            return queries, hits

        return parse_deduplicated

    def parse_one(original: Any) -> Any:
        def parse_sql(sql: str, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("sqlparser.parse"):
                ast = original(sql, *args, **kwargs)
            tracer.count("statements")
            return ast

        return parse_sql

    def extend(original: Any) -> Any:
        def extend_interaction_graph(graph: Any, queries: Any, *args: Any, **kwargs: Any) -> Any:
            before = graph.n_diffs
            with tracer.span("graph.mine"):
                out = original(graph, queries, *args, **kwargs)
            stats = kwargs.get("stats")
            if stats is not None:
                tracer.count("pairs_compared", stats.n_pairs_compared)
                tracer.count("alignments_full", stats.n_alignments_full)
                tracer.count("alignments_memoised", stats.n_alignments_memoised)
            tracer.count("diffs", graph.n_diffs - before)
            return out

        return extend_interaction_graph

    def timed(span_name: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def method(self: Any, *args: Any, **kwargs: Any) -> Any:
                with tracer.span(span_name):
                    return original(self, *args, **kwargs)

            return method

        return make

    def store(kind: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def method(self: Any, *args: Any, **kwargs: Any) -> Any:
                if tracer.in_store:
                    return original(self, *args, **kwargs)
                tracer.in_store = True
                try:
                    with tracer.span(f"cache.{kind}"):
                        out = original(self, *args, **kwargs)
                finally:
                    tracer.in_store = False
                if kind == "load" and out:
                    tracer.count("records_read")
                elif kind == "save" and out is not None and out is not False:
                    tracer.count("records_written")
                return out

            return method

        return make

    patch(session_module, "parse_deduplicated", parse)
    patch(session_module, "parse_sql", parse_one)
    patch(session_module, "extend_interaction_graph", extend)
    def compile_page(original: Any) -> Any:
        def compile(self: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("compiler.compile"):
                page = original(self, *args, **kwargs)
            tracer.last_page = page
            return page

        return compile

    patch(IncrementalCompiler, "compile", compile_page)
    # the session entry points also cover making the patch or rendering
    # the page's HTML around the compiler's own work
    patch(InterfaceSession, "compile", timed("compiler.compile"))
    patch(InterfaceSession, "compile_patch", timed("compiler.compile"))
    patch(InterfaceSession, "append_batch", timed("api.append"))
    patch(InterfaceSession, "flush_to_store", timed("api.flush"))
    for name in _STORE_LOADS:
        patch(GraphStore, name, store("load"))
    for name in _STORE_SAVES:
        patch(GraphStore, name, store("save"))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def write_spans(path: Path, tracers: dict[str, Tracer]) -> int:
    """Write every recorded span as one JSON line; returns the count."""
    written = 0
    with open(path, "w", encoding="utf-8") as out:
        for phase, tracer in tracers.items():
            for index, span in enumerate(tracer.spans):
                record = {
                    "phase": phase,
                    "span": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "op_kind": tracer.op_kinds[span.op],
                    "work": span.work,
                }
                out.write(json.dumps(record) + "\n")
                written += 1
    return written


def _per_op_layer_times(tracer: Tracer) -> list[dict[str, float]]:
    """Self time per layer for every operation, in seconds.  A layer
    appears in an operation's dict only when it did work there (a stage
    that skipped does not count as work)."""
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    per_op: list[dict[str, float]] = [dict() for _ in tracer.op_kinds]
    for index, span in enumerate(tracer.spans):
        layer = _LAYER_OF.get(span.name)
        if layer is None or not span.work:
            continue
        self_time = (span.end - span.start - child_time[index]) * tracer._factor(span.op)
        per_op[span.op][layer] = per_op[span.op].get(layer, 0.0) + self_time
    return per_op


def layer_shares(tracer: Tracer, kind: str) -> dict[str, float]:
    """Each layer's share of the traced ``kind`` operations' wall time:
    its self time summed over them, over their summed duration."""
    per_op = _per_op_layer_times(tracer)
    chosen = [
        index
        for index, (k, t) in enumerate(zip(tracer.op_kinds, tracer.op_traced))
        if k == kind and t
    ]
    wall = sum(tracer.op_seconds[index] * tracer._factor(index) for index in chosen)
    totals: dict[str, float] = defaultdict(float)
    for index in chosen:
        for layer, seconds in per_op[index].items():
            totals[layer] += seconds
    return {layer: seconds / wall for layer, seconds in sorted(totals.items())} if wall else {}


def _inclusive_ms(tracer: Tracer, name: str) -> float:
    durations = [(s.end - s.start) * tracer._factor(s.op) for s in tracer.spans if s.name == name]
    return median(durations) * 1000.0 if durations else 0.0


def layer_metrics(tracer: Tracer, prefix: str, kind: str) -> dict[str, float]:
    """Per-layer metrics of one phase.

    Times are medians over the traced operations in which the layer did
    work (self time, ms, scaled to the nominal host speed); counts are
    means per operation over every operation of the phase, traced or not.  ``kind`` names the phase's
    timed operation, whose traced-minus-untraced median is the tracing
    overhead.
    """
    per_op = _per_op_layer_times(tracer)

    def layer_ms(layer: str, p: float = 50.0) -> float:
        values = [times[layer] for times in per_op if layer in times]
        return percentile(values, p) * 1000.0 if values else 0.0

    n_ops = len(tracer.counts)
    totals: dict[str, float] = defaultdict(float)
    for counts in tracer.counts:
        for key, value in counts.items():
            totals[key] += value

    def per_op_mean(key: str) -> float:
        return totals[key] / n_ops if n_ops else 0.0

    aligned = totals["alignments_full"] + totals["alignments_memoised"]
    out = {
        "sqlparser.parse_ms": layer_ms("sqlparser"),
        "sqlparser.statements": per_op_mean("statements"),
        "sqlparser.parse_hits": per_op_mean("parse_hits"),
        "graph.mine_ms": layer_ms("graph"),
        "graph.pairs_compared": per_op_mean("pairs_compared"),
        "graph.diffs": per_op_mean("diffs"),
        "treediff.alignments_full": per_op_mean("alignments_full"),
        "treediff.alignments_memoised": per_op_mean("alignments_memoised"),
        "treediff.memo_hit_ratio": (
            totals["alignments_memoised"] / aligned if aligned else 0.0
        ),
        "core.map_ms": layer_ms("core.map"),
        "core.merge_ms": layer_ms("core.merge"),
        "core.partitions_rebuilt": per_op_mean("partitions_rebuilt"),
        "core.partitions_reused": per_op_mean("partitions_reused"),
        "core.components_merged": per_op_mean("components_merged"),
        "core.components_reused": per_op_mean("components_reused"),
        "core.windows_merged": per_op_mean("windows_merged"),
        "core.windows_reused": per_op_mean("windows_reused"),
        "compiler.compile_ms_p50": layer_ms("compiler"),
        "compiler.compile_ms_p99": layer_ms("compiler", 99.0),
        "compiler.blocks": per_op_mean("blocks"),
        "compiler.closure_set": per_op_mean("closure_set"),
        "compiler.closure_del": per_op_mean("closure_del"),
        "compiler.patch_bytes": per_op_mean("patch_bytes"),
        "cache.load_ms": layer_ms("cache.load"),
        "cache.save_ms": layer_ms("cache.save"),
        "cache.records_read": per_op_mean("records_read"),
        "cache.records_written": per_op_mean("records_written"),
        "api.append_ms": _inclusive_ms(tracer, "api.append"),
        "api.flush_ms": _inclusive_ms(tracer, "api.flush"),
    }
    seconds = [s * tracer._factor(op) for op, s in enumerate(tracer.op_seconds)]
    traced = [s for s, k, t in zip(seconds, tracer.op_kinds, tracer.op_traced) if k == kind and t]
    untraced = [s for s, k, t in zip(seconds, tracer.op_kinds, tracer.op_traced) if k == kind and not t]
    if traced and untraced:
        out["trace.overhead_ms"] = (median(traced) - median(untraced)) * 1000.0
    return {f"{prefix}.{name}": value for name, value in out.items()}
