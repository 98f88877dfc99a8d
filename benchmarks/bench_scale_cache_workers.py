"""Scale layer: sharded ``generate_many``, the persistent cache, and the
incremental append path.

Not a paper figure — this benchmarks the scale features on synthetic
workloads:

* ``generate_many(logs, workers=2)`` must beat ``workers=1`` wall-clock —
  per-client mining is embarrassingly parallel;
* a warm ``cache_dir`` run must *full-hit* (graph + widget set) and skip
  Mine, Map, and Merge;
* steady-state ``InterfaceSession.append()`` must beat re-generating the
  interface from the accumulated log from scratch by at least 3x on a
  200+-query log (in practice it is orders of magnitude), and the
  incremental map+merge phase alone must beat a full remap.

The append section also writes ``results/BENCH_incremental.json`` — the
machine-readable perf-trajectory record CI's regression gate compares
against ``benchmarks/baselines/bench_incremental_baseline.json``.  The
gate compares *dimensionless speedups*, not absolute seconds, so it holds
across hardware.

Set ``REPRO_BENCH_BUDGET=tiny`` to shrink the workload (CI smoke); the
absolute 3x assertion is skipped there because a tiny log has no steady
state, but the JSON is still produced for the ratio gate.
"""

import gc
import os
import statistics
import tempfile
import time

from repro.api import InterfaceSession, generate, generate_many
from repro.core.closure import expresses
from repro.core.mapper import MapCache, WindowMemo, initialize, merge_widgets
from repro.core.options import PipelineOptions
from repro.graph.build import build_interaction_graph, extend_interaction_graph
from repro.logs import AdhocLogGenerator, SDSSLogGenerator
from repro.service import SessionPool
from repro.sqlparser import parse_sql
from tests import oracle

from helpers import emit, emit_json, run_once

TINY = os.environ.get("REPRO_BENCH_BUDGET") == "tiny"

N_CLIENTS = 2 if TINY else 8
N_QUERIES = 40 if TINY else 200
#: widen the window beyond the paper's default 2 so mining dominates and
#: the sharding/caching effect is measured against real work
WINDOW = 8 if TINY else 16

#: append-path workload: warm up a session with most of the log, then
#: measure steady-state appends of small batches
APPEND_TOTAL = 60 if TINY else 240
APPEND_WARMUP = 40 if TINY else 200
APPEND_BATCH = 4

#: skewed one-hot workload: K clean function subtrees warmed up with a
#: few literal/structural variations each, then every append varies one
#: literal — a single hot component whose clean sub-windows the interval
#: index must skip.  The ablation compares the windowed merge against
#: the component-granularity re-merge (a step table that keeps nothing).
SKEW_SUBTREES = 24 if TINY else 140
SKEW_LITERALS = 4 if TINY else 6
SKEW_STRUCTURAL = 2 if TINY else 3
SKEW_HOT = 24 if TINY else 80
SKEW_WARM_EXTRA = 8
SKEW_BATCH = 4

#: pool-throughput workload: per-client session logs served through a
#: SessionPool, batches interleaved round-robin across clients
POOL_CLIENTS = 2 if TINY else 8
POOL_QUERIES = 24 if TINY else 120
POOL_BATCH = 6
POOL_WORKERS = max(2, min(4, os.cpu_count() or 1))
POOL_QUEUE_DEPTH = 8


def test_workers_and_cache(benchmark):
    generator = SDSSLogGenerator(seed=0)
    logs = [
        log.asts()
        for log in generator.clients(N_CLIENTS, n_queries=N_QUERIES).values()
    ]
    options = PipelineOptions(window=WINDOW)

    def run():
        t0 = time.perf_counter()
        serial = generate_many(logs, options=options, workers=1)
        t1 = time.perf_counter()
        sharded = generate_many(logs, options=options, workers=2)
        t2 = time.perf_counter()

        with tempfile.TemporaryDirectory() as cache_dir:
            cached_options = PipelineOptions(window=WINDOW, cache_dir=cache_dir)
            t3 = time.perf_counter()
            cold = generate(logs[0], options=cached_options)
            t4 = time.perf_counter()
            warm = generate(logs[0], options=cached_options)
            t5 = time.perf_counter()
        return {
            "serial_seconds": t1 - t0,
            "sharded_seconds": t2 - t1,
            "results": (serial, sharded),
            "cold_seconds": t4 - t3,
            "warm_seconds": t5 - t4,
            "cold": cold,
            "warm": warm,
        }

    out = run_once(benchmark, run)
    serial, sharded = out["results"]
    speedup = out["serial_seconds"] / max(out["sharded_seconds"], 1e-9)
    cache_speedup = out["cold_seconds"] / max(out["warm_seconds"], 1e-9)

    emit(
        "scale_cache_workers",
        "\n".join(
            [
                f"generate_many over {N_CLIENTS} SDSS client logs x "
                f"{N_QUERIES} queries (window={WINDOW})",
                f"  workers=1: {out['serial_seconds']:.2f}s",
                f"  workers=2: {out['sharded_seconds']:.2f}s  "
                f"(speedup x{speedup:.2f})",
                "",
                f"generate with cache_dir, {N_QUERIES}-query log",
                f"  cold (mine + persist): {out['cold_seconds'] * 1000:.0f} ms",
                f"  warm (full cache hit): {out['warm_seconds'] * 1000:.0f} ms  "
                f"(speedup x{cache_speedup:.2f})",
                f"  warm skips: mine={out['warm'].run.stage('mine').stats['skipped']} "
                f"map={out['warm'].run.stage('map').stats.get('skipped', False)} "
                f"merge={out['warm'].run.stage('merge').stats.get('skipped', False)}",
            ]
        ),
    )

    # sharding must not change the mined interfaces; the wall-clock win
    # is only asserted where a second core exists to provide it
    assert [r.interface.widget_summary() for r in sharded] == [
        r.interface.widget_summary() for r in serial
    ]
    if (os.cpu_count() or 1) > 1 and not TINY:
        assert out["sharded_seconds"] < out["serial_seconds"]
    # the warm run is a full hit: no mining, no mapping, no merging
    assert out["warm"].run.stage("cache").stats["hit"] is True
    assert out["warm"].run.stage("cache").stats["widgets_hit"] is True
    assert out["warm"].run.stage("mine").stats["skipped"] is True
    assert out["warm"].run.stage("map").stats["skipped"] is True
    assert out["warm"].run.stage("merge").stats["skipped"] is True
    assert out["warm"].run.n_pairs_compared == 0
    assert out["warm_seconds"] < out["cold_seconds"]
    assert (
        out["warm"].interface.widget_summary()
        == out["cold"].interface.widget_summary()
    )


def test_pool_throughput(benchmark):
    """Sessions/sec of a SessionPool at 1 worker vs POOL_WORKERS workers.

    The same interleaved multi-client arrival stream is served by a
    single-worker pool (every session queues behind every other — the
    serialised-appends world this layer replaces) and by a sharded pool.
    Independent sessions are embarrassingly parallel, so on a multi-core
    host the sharded pool must finish the same work in less wall-clock —
    the >1x ``speedup_pool_workers`` that ``BENCH_pool.json`` records and
    CI's regression gate watches.
    """
    generator = SDSSLogGenerator(seed=7)
    logs = {
        f"client-{index}": log.asts()
        for index, log in enumerate(
            generator.clients(POOL_CLIENTS, n_queries=POOL_QUERIES).values()
        )
    }
    options = PipelineOptions(window=WINDOW)
    arrivals = []
    pending = {client: list(asts) for client, asts in logs.items()}
    while pending:
        for client in list(pending):
            batch = pending[client][:POOL_BATCH]
            pending[client] = pending[client][POOL_BATCH:]
            arrivals.append((client, batch))
            if not pending[client]:
                del pending[client]

    def run():
        timings = {}
        results_by_size = {}
        for pool_size in (1, POOL_WORKERS):
            with SessionPool(
                options=options,
                pool_size=pool_size,
                queue_depth=POOL_QUEUE_DEPTH,
            ) as pool:
                t0 = time.perf_counter()
                for client, batch in arrivals:
                    pool.submit(client, batch)
                results = pool.drain()
                timings[pool_size] = time.perf_counter() - t0
                results_by_size[pool_size] = results
        return {"timings": timings, "results": results_by_size}

    out = run_once(benchmark, run)
    seconds_1 = out["timings"][1]
    seconds_n = out["timings"][POOL_WORKERS]
    throughput_1 = POOL_CLIENTS / max(seconds_1, 1e-9)
    throughput_n = POOL_CLIENTS / max(seconds_n, 1e-9)
    speedup = throughput_n / max(throughput_1, 1e-9)

    payload = {
        "workload": {
            "family": "sdss",
            "n_clients": POOL_CLIENTS,
            "n_queries_per_client": POOL_QUERIES,
            "batch": POOL_BATCH,
            "window": WINDOW,
            "pool_workers": POOL_WORKERS,
            "queue_depth": POOL_QUEUE_DEPTH,
            "n_cores": os.cpu_count(),
            "tiny_budget": TINY,
        },
        "pool_1_seconds": seconds_1,
        "pool_n_seconds": seconds_n,
        "sessions_per_second_1_worker": throughput_1,
        "sessions_per_second_n_workers": throughput_n,
        "speedup_pool_workers": speedup,
    }
    emit_json("BENCH_pool", payload)
    emit(
        "pool_throughput",
        "\n".join(
            [
                f"SessionPool over {POOL_CLIENTS} SDSS clients x "
                f"{POOL_QUERIES} queries (batch {POOL_BATCH}, "
                f"window={WINDOW}, queue_depth={POOL_QUEUE_DEPTH})",
                f"  1 worker:  {seconds_1:6.2f}s  "
                f"({throughput_1:.2f} sessions/s)",
                f"  {POOL_WORKERS} workers: {seconds_n:6.2f}s  "
                f"({throughput_n:.2f} sessions/s)  (speedup x{speedup:.2f})",
            ]
        ),
    )

    # sharding is plumbing, not approximation: per-client parity with
    # one-shot generation at every pool size
    for client, asts in logs.items():
        expected = generate(asts, options=options).interface.widget_summary()
        for pool_size, results in out["results"].items():
            assert results[client].interface.widget_summary() == expected, (
                client,
                pool_size,
            )
    # the wall-clock win needs real cores to exist
    if (os.cpu_count() or 1) > 1 and not TINY:
        assert speedup > 1.0, payload


def _skewed_statements():
    """The adversarial one-hot log: warm-up plants one big component
    (a divergent query creates a root-path widget) holding K function
    subtrees, then the hot phase varies a single literal."""
    k = SKEW_SUBTREES

    def conj(x_value, literals):
        parts = [f"x = {x_value}"] + [
            f"f{i}(y, {literals[i]}) = 5" for i in range(k)
        ]
        return " AND ".join(parts)

    base = [2] * k
    statements = ["SELECT g, SUM(m) FROM t GROUP BY g"]
    for i in range(k):
        for j in range(SKEW_LITERALS):
            literals = list(base)
            literals[i] = j + 3
            statements.append(f"SELECT a, b FROM t WHERE {conj(0, literals)}")
        for s in range(SKEW_STRUCTURAL):
            parts = ["x = 0"] + [
                f"f{m}(y, {base[m]}) = 5" if m != i else f"z{s} = 5"
                for m in range(k)
            ]
            statements.append(
                "SELECT a, b FROM t WHERE " + " AND ".join(parts)
            )
            statements.append(f"SELECT a, b FROM t WHERE {conj(0, base)}")
    warm = len(statements)
    statements += [
        f"SELECT a, b FROM t WHERE {conj(value, base)}"
        for value in range(SKEW_HOT)
    ]
    return statements, warm


class _KeepNothing(dict):
    """A merge-step table that records no outcome, so every step of a
    dirty component recomputes: the component-granularity re-merge the
    window memo is ablated against."""

    def __setitem__(self, key, value):
        pass


def _drive_skewed(asts, warm, options, replay_steps, probes):
    """Per-append merge timings for one ablation arm, plus the widget
    summaries and closure verdicts the parity assertions compare."""
    # the timed appends are short (single-digit ms); collect garbage from
    # earlier sections up front so neither arm pays for it mid-loop
    gc.collect()
    cache = MapCache()
    if not replay_steps:
        cache.windows = WindowMemo(cache.index)
        cache.windows.steps = _KeepNothing()
    graph = build_interaction_graph(asts[: warm + SKEW_WARM_EXTRA], window=2)
    widgets, _, _ = initialize(
        cache, graph.diffs, options.library, options.annotations
    )
    merge_widgets(widgets, cache, options.library, options.annotations)
    seconds, summaries, verdicts = [], [], []
    for start in range(warm + SKEW_WARM_EXTRA, len(asts), SKEW_BATCH):
        extend_interaction_graph(
            graph, asts[start : start + SKEW_BATCH], window=2
        )
        cache.index.update(graph.diffs)
        t0 = time.perf_counter()
        widgets, _, _ = initialize(
            cache, graph.diffs, options.library, options.annotations
        )
        merged, _ = merge_widgets(
            widgets, cache, options.library, options.annotations
        )
        seconds.append(time.perf_counter() - t0)
        summaries.append(
            [(w.widget_type.name, str(w.path), w.domain.size) for w in merged]
        )
        verdicts.append(
            [expresses(merged, asts[0], probe) for probe in probes]
        )
    return seconds, summaries, verdicts


def test_incremental_append(benchmark):
    """Steady-state append cost vs the two non-incremental alternatives:
    re-generating from scratch (what a system without sessions pays per
    arrival) and a full remap of the accumulated graph (what the PR-2
    session paid for its merge phase).  A second, skewed section ablates
    the interval-index window memo against component-granularity
    re-merging on a one-hot workload."""
    asts = AdhocLogGenerator(seed=2).student_log("S1", APPEND_TOTAL).asts()
    options = PipelineOptions(window=WINDOW)

    def run():
        session = InterfaceSession(options=options)
        session.append(asts[:APPEND_WARMUP])

        append_seconds = []
        remap_seconds = []
        merge_component_reuse = []
        for start in range(APPEND_WARMUP, APPEND_TOTAL, APPEND_BATCH):
            t0 = time.perf_counter()
            result = session.append(asts[start:start + APPEND_BATCH])
            append_seconds.append(time.perf_counter() - t0)
            run_stages = result.run
            merge_component_reuse.append(
                run_stages.stage("merge").stats.get("n_components_reused", 0)
            )
            # full remap of the same accumulated graph, from cold
            diffs = sorted(
                (d for d in session._graph.diffs), key=lambda d: (d.q1, d.q2)
            )
            t1 = time.perf_counter()
            oracle.merge(
                oracle.initialize(diffs, options.library, options.annotations),
                diffs,
                options.library,
                options.annotations,
            )
            remap_seconds.append(time.perf_counter() - t1)

        # one re-generation from scratch over the final accumulated log —
        # the per-arrival cost of a system with no incremental path
        t2 = time.perf_counter()
        full = generate(asts, options=options)
        regenerate_seconds = time.perf_counter() - t2
        return {
            "session": session,
            "full": full,
            "append_seconds": append_seconds,
            "remap_seconds": remap_seconds,
            "regenerate_seconds": regenerate_seconds,
            "merge_component_reuse": merge_component_reuse,
        }

    out = run_once(benchmark, run)
    steady_append = statistics.median(out["append_seconds"])
    full_remap = statistics.median(out["remap_seconds"])
    regenerate = out["regenerate_seconds"]
    speedup_vs_regenerate = regenerate / max(steady_append, 1e-9)
    speedup_vs_remap = full_remap / max(steady_append, 1e-9)

    # skewed one-hot ablation: the same appends driven through the
    # mapper twice — once with the interval-index window memo, once at
    # component granularity (a step table that keeps nothing)
    skew_statements, skew_warm = _skewed_statements()
    skew_asts = [parse_sql(statement) for statement in skew_statements]
    probes = skew_asts[:3] + skew_asts[-2:]
    skew_options = PipelineOptions(window=2)
    windowed = _drive_skewed(skew_asts, skew_warm, skew_options, True, probes)
    baseline = _drive_skewed(skew_asts, skew_warm, skew_options, False, probes)
    # the memo is an optimisation, not an approximation: byte-identical
    # widget sets and closure answers at every append
    assert windowed[1] == baseline[1]
    assert windowed[2] == baseline[2]
    skew_windowed = statistics.median(windowed[0])
    skew_baseline = statistics.median(baseline[0])
    speedup_skewed_windows = skew_baseline / max(skew_windowed, 1e-9)

    payload = {
        "workload": {
            "family": "adhoc",
            "n_queries": APPEND_TOTAL,
            "warmup": APPEND_WARMUP,
            "batch": APPEND_BATCH,
            "window": WINDOW,
            "tiny_budget": TINY,
        },
        "steady_append_seconds": steady_append,
        "full_remap_seconds": full_remap,
        "full_regenerate_seconds": regenerate,
        "speedup_vs_regenerate": speedup_vs_regenerate,
        "speedup_vs_remap": speedup_vs_remap,
        "append_seconds": out["append_seconds"],
        "skewed_workload": {
            "n_subtrees": SKEW_SUBTREES,
            "n_literals": SKEW_LITERALS,
            "n_structural": SKEW_STRUCTURAL,
            "n_hot": SKEW_HOT,
            "warmup": skew_warm + SKEW_WARM_EXTRA,
            "batch": SKEW_BATCH,
        },
        "skewed_windowed_seconds": skew_windowed,
        "skewed_component_seconds": skew_baseline,
        "speedup_skewed_windows": speedup_skewed_windows,
    }
    emit_json("BENCH_incremental", payload)
    emit(
        "incremental_append",
        "\n".join(
            [
                f"session over {APPEND_TOTAL} adhoc queries "
                f"(warmup {APPEND_WARMUP}, batch {APPEND_BATCH}, "
                f"window={WINDOW})",
                f"  steady-state append:     {steady_append * 1000:8.1f} ms",
                f"  full remap (map+merge):  {full_remap * 1000:8.1f} ms  "
                f"(x{speedup_vs_remap:.1f})",
                f"  full regenerate:         {regenerate * 1000:8.1f} ms  "
                f"(x{speedup_vs_regenerate:.1f})",
                f"  merge components reused per append: "
                f"{out['merge_component_reuse']}",
                "",
                f"skewed one-hot ablation ({SKEW_SUBTREES} subtrees, "
                f"{SKEW_HOT} hot appends, batch {SKEW_BATCH})",
                f"  windowed merge (interval memo): "
                f"{skew_windowed * 1000:8.1f} ms",
                f"  component re-merge (ablated):   "
                f"{skew_baseline * 1000:8.1f} ms  "
                f"(x{speedup_skewed_windows:.1f})",
            ]
        ),
    )

    # the session must stay result-equivalent to one-shot generation
    assert (
        out["session"].interface.widget_summary()
        == out["full"].interface.widget_summary()
    )
    # incrementality must actually pay: appends beat the full pipeline by
    # 3x or better on a 200+-query log (tiny smoke logs have no steady
    # state, so the ratio is only gated on the full workload)
    if not TINY:
        assert speedup_vs_regenerate >= 3.0, payload
        assert speedup_vs_remap > 1.0, payload
        # the window memo must pay for itself on the skewed workload it
        # was built for: 3x over component-granularity re-merging
        assert speedup_skewed_windows >= 3.0, payload
