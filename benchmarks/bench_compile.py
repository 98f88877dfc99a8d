"""Incremental interface compilation: steady-state re-render cost.

Not a paper figure — this benchmarks the compiled-page layer on the same
adversarial skewed one-hot workload the merge ablation uses: K clean
function subtrees warmed up once, then every append varies a single
literal.  A page ships each widget's domain and composes queries in the
browser, so a compile renders widgets, never combinations.  Merge-layer
dirtiness pins the change to one widget, so the incremental compiler
re-renders that widget (its option labels and composer data) and reuses
every other artifact byte-for-byte, while the one-shot ``compile_html``
renders every widget on every arrival.

Each hot append times both arms and — the acceptance bar — folds the
emitted patch onto the running client state and asserts the result is
byte-identical to the full recompile.  The section writes
``results/BENCH_compile.json`` with the dimensionless
``speedup_compile_incremental`` CI's regression gate compares against
``benchmarks/baselines/bench_compile_baseline.json``.

Set ``REPRO_BENCH_BUDGET=tiny`` to shrink the workload (CI smoke); the
absolute 3x assertion is skipped there because a tiny page has too few
clean widgets to amortise, but the JSON is still produced for the gate.
"""

import gc
import json
import os
import statistics
import time

from repro.api import InterfaceSession
from repro.compiler import compile_html
from repro.compiler.incremental import apply_patch, page_html
from repro.core.options import PipelineOptions
from repro.sqlparser import parse_sql

from bench_scale_cache_workers import SKEW_WARM_EXTRA, _skewed_statements
from helpers import emit, emit_json, run_once

TINY = os.environ.get("REPRO_BENCH_BUDGET") == "tiny"

COMPILE_BATCH = 4


def test_compile_incremental(benchmark):
    """Per-append ``compile_patch`` vs one-shot ``compile_html`` on the
    skewed one-hot log, with byte parity asserted at every step."""
    statements, warm = _skewed_statements()
    asts = [parse_sql(statement) for statement in statements]
    options = PipelineOptions(window=2)
    warmup = warm + SKEW_WARM_EXTRA

    def run():
        session = InterfaceSession(options=options)
        session.append(asts[:warmup])
        # the first compile builds every artifact from scratch — that is
        # the cold page, not the steady state being measured
        state = apply_patch(None, session.compile_patch())
        gc.collect()

        incremental_seconds = []
        oneshot_seconds = []
        patch_bytes = []
        page_bytes = []
        for start in range(warmup, len(asts), COMPILE_BATCH):
            result = session.append(asts[start : start + COMPILE_BATCH])
            t0 = time.perf_counter()
            patch = session.compile_patch()
            incremental_seconds.append(time.perf_counter() - t0)
            state = apply_patch(state, patch)
            t1 = time.perf_counter()
            full = compile_html(result.interface)
            oneshot_seconds.append(time.perf_counter() - t1)
            # the optimisation is not an approximation: folding the patch
            # stream reproduces the full recompile byte-for-byte
            assert page_html(state) == full
            patch_bytes.append(len(json.dumps(patch)))
            page_bytes.append(len(full.encode("utf-8")))
        return {
            "session": session,
            "incremental_seconds": incremental_seconds,
            "oneshot_seconds": oneshot_seconds,
            "patch_bytes": patch_bytes,
            "page_bytes": page_bytes,
        }

    out = run_once(benchmark, run)
    incremental = statistics.median(out["incremental_seconds"])
    oneshot = statistics.median(out["oneshot_seconds"])
    speedup = oneshot / max(incremental, 1e-9)
    median_patch = statistics.median(out["patch_bytes"])
    median_page = statistics.median(out["page_bytes"])
    stats = out["session"]._compiler.stats

    payload = {
        "workload": {
            "family": "onehot-skewed",
            "n_queries": len(asts),
            "warmup": warm + SKEW_WARM_EXTRA,
            "batch": COMPILE_BATCH,
            "window": 2,
            "n_cores": os.cpu_count(),
            "tiny_budget": TINY,
        },
        "incremental_compile_seconds": incremental,
        "oneshot_compile_seconds": oneshot,
        "speedup_compile_incremental": speedup,
        "median_patch_bytes": median_patch,
        "median_page_bytes": median_page,
        "widgets_rendered": stats.widgets_rendered,
        "widgets_reused": stats.widgets_reused,
        "per_append_incremental_seconds": out["incremental_seconds"],
        "per_append_oneshot_seconds": out["oneshot_seconds"],
    }
    emit_json("BENCH_compile", payload)
    emit(
        "compile_incremental",
        "\n".join(
            [
                f"compile over the skewed one-hot log "
                f"(batch {COMPILE_BATCH}, "
                f"{len(out['incremental_seconds'])} hot appends)",
                f"  incremental patch:  {incremental * 1000:8.2f} ms",
                f"  one-shot compile:   {oneshot * 1000:8.2f} ms  "
                f"(speedup x{speedup:.1f})",
                f"  median patch {median_patch / 1024:.1f} KiB vs "
                f"page {median_page / 1024:.1f} KiB",
                f"  widgets rendered/reused: {stats.widgets_rendered}/"
                f"{stats.widgets_reused}",
            ]
        ),
    )

    # the hot appends must reuse the clean artifacts, not re-render them
    assert stats.widgets_reused > stats.widgets_rendered
    # incrementality must pay: 3x or better over the one-shot compiler at
    # the full budget (tiny pages have too few clean widgets to amortise)
    if not TINY:
        assert speedup >= 3.0, payload
