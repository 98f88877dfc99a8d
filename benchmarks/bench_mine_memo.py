"""Skeleton-diff memoisation: warm-memo vs cold mining cost.

Not a paper figure — this benchmarks the :class:`~repro.treediff.memo.
DiffMemo` layer on the four bundled log families:

* a **cold** mine runs every pair through the full child-alignment DP
  (``build_interaction_graph`` without a memo);
* a **warm-memo** mine runs the same log through a memo that has already
  seen every shape pair (what a steady-state session append, a pool
  worker with an adopted ``.diffmemo.json``, or a re-mine after a code
  change pays) — all alignments replay their recorded plan.

The SDSS template workload must come out >= 3x faster warm than cold
(the tentpole's acceptance bar); the other families are reported and
gated through the committed baseline but not floor-asserted — their
shape diversity differs by design.

Result-equivalence is asserted the hard way, at every append: for each
family the log is fed in batches to two parallel builds — one extending
through the memo, one re-built cold — and after every batch the diffs
table, edge list, merged widget set, and closure answers must be
byte-identical.

Writes ``results/BENCH_mine.json`` (the perf-trajectory record CI's
regression gate compares against
``benchmarks/baselines/bench_mine_baseline.json``; dimensionless
speedups only, so the gate holds across hardware).  Set
``REPRO_BENCH_BUDGET=tiny`` for the CI smoke variant.
"""

import json
import os
import time

from repro.cache.serialize import diff_to_dict
from repro.core.interface import Interface
from repro.core.options import PipelineOptions
from repro.graph.build import (
    BuildStats,
    build_interaction_graph,
    extend_interaction_graph,
)
from repro.logs import AdhocLogGenerator, OLAPLogGenerator, SDSSLogGenerator
from repro.logs.sessions import segment_asts
from repro.treediff.memo import DiffMemo
from tests import oracle

from helpers import emit, emit_json, run_once

TINY = os.environ.get("REPRO_BENCH_BUDGET") == "tiny"

N_QUERIES = 40 if TINY else 200
WINDOW = 8 if TINY else 16
#: per-family append batch size for the parity-at-every-append assertion
PARITY_QUERIES = 24 if TINY else 48
PARITY_BATCH = 8

FAMILIES = ("sdss", "olap", "adhoc", "sessions")


def _family_log(family: str, n: int) -> list:
    if family == "sdss":
        return SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", n).asts()
    if family == "olap":
        return OLAPLogGenerator(seed=1).generate(n).asts()
    if family == "adhoc":
        return AdhocLogGenerator(seed=2).student_log("S1", n).asts()
    if family == "sessions":
        # the interleaved multi-analysis log the sessions module segments;
        # mining the longest recovered analysis exercises segment traffic
        mixed = SDSSLogGenerator(seed=3).interleaved(3, max(n // 2, 10)).asts()
        return max(segment_asts(mixed, 0.3, 0.3), key=len)
    raise AssertionError(family)


def _graph_payload(graph) -> tuple:
    """A byte-comparable projection of everything mining produced."""
    return (
        [diff_to_dict(d) for d in graph.diffs],
        [
            (e.q1, e.q2, [diff_to_dict(d) for d in e.interaction])
            for e in graph.edges
        ],
    )


def test_mine_memo_speedup(benchmark):
    """Warm-memo mining beats cold mining, byte-identically."""
    logs = {family: _family_log(family, N_QUERIES) for family in FAMILIES}

    def run():
        out = {}
        for family, asts in logs.items():
            t0 = time.perf_counter()
            cold_stats = BuildStats()
            cold = build_interaction_graph(
                asts, window=WINDOW, stats=cold_stats
            )
            cold_seconds = time.perf_counter() - t0

            memo = DiffMemo()
            build_interaction_graph(asts, window=WINDOW, memo=memo)  # warm it
            t1 = time.perf_counter()
            warm_stats = BuildStats()
            warm = build_interaction_graph(
                asts, window=WINDOW, stats=warm_stats, memo=memo
            )
            warm_seconds = time.perf_counter() - t1
            out[family] = {
                "cold": cold,
                "warm": warm,
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "cold_stats": cold_stats,
                "warm_stats": warm_stats,
                "n_shapes": memo.n_shapes,
                "n_plans": memo.n_plans,
            }
        return out

    out = run_once(benchmark, run)

    payload = {
        "workload": {
            "families": list(FAMILIES),
            "n_queries": N_QUERIES,
            "window": WINDOW,
            "tiny_budget": TINY,
        }
    }
    lines = [
        f"cold vs warm-memo mine, {N_QUERIES} queries/family (window={WINDOW})"
    ]
    for family, result in out.items():
        # byte-identical mining output is the hard requirement
        assert _graph_payload(result["cold"]) == _graph_payload(result["warm"]), family
        # the warm pass must have replayed every alignment it performed
        assert result["warm_stats"].n_alignments_full == 0, (
            family,
            result["warm_stats"],
        )
        speedup = result["cold_seconds"] / max(result["warm_seconds"], 1e-9)
        payload[f"speedup_mine_memo_{family}"] = speedup
        payload[f"n_plans_{family}"] = result["n_plans"]
        lines.append(
            f"  {family:9s} cold {result['cold_seconds'] * 1000:7.1f} ms  "
            f"warm {result['warm_seconds'] * 1000:7.1f} ms  "
            f"(x{speedup:.2f}, {result['n_plans']} plans / "
            f"{result['cold_stats'].n_pairs_compared} pairs)"
        )
    emit_json("BENCH_mine", payload)
    emit("mine_memo", "\n".join(lines))

    # the acceptance bar: >= 3x on the SDSS template workload (tiny smoke
    # logs are too small for a stable ratio, so only the full budget gates)
    if not TINY:
        assert payload["speedup_mine_memo_sdss"] >= 3.0, payload


def test_memo_parity_at_every_append(benchmark):
    """Memoised incremental mining == cold full build, at every append.

    The diffs table, edges, merged widget set, and closure answers must
    all be byte-identical on every prefix of every family — this is the
    acceptance criterion's parity clause, asserted directly.
    """
    options = PipelineOptions(window=WINDOW)

    def interface_from(diffs, queries):
        widgets = oracle.initialize(diffs, options.library, options.annotations)
        widgets, _ = oracle.merge(
            widgets, diffs, options.library, options.annotations
        )
        return Interface(
            widgets=widgets,
            initial_query=queries[0],
            annotations=options.annotations,
        )

    def run():
        checked = {}
        for family in FAMILIES:
            asts = _family_log(family, PARITY_QUERIES)
            memo = DiffMemo()
            graph = None
            n_checked = 0
            for start in range(0, len(asts), PARITY_BATCH):
                batch = asts[start:start + PARITY_BATCH]
                if not batch:
                    break
                if graph is None:
                    graph = build_interaction_graph(
                        batch, window=WINDOW, memo=memo
                    )
                else:
                    extend_interaction_graph(
                        graph, batch, window=WINDOW, memo=memo
                    )
                prefix = asts[: start + len(batch)]
                cold = build_interaction_graph(prefix, window=WINDOW)
                # extend appends in arrival order; normalise like the
                # session does before comparing against the full build
                memoised_diffs = sorted(
                    graph.diffs, key=lambda d: (d.q1, d.q2)
                )
                assert [diff_to_dict(d) for d in memoised_diffs] == [
                    diff_to_dict(d) for d in cold.diffs
                ], (family, start)
                assert sorted(
                    (e.q1, e.q2) for e in graph.edges
                ) == [(e.q1, e.q2) for e in cold.edges], (family, start)
                # widget-set + closure parity: map both graphs and compare
                memoised_iface = interface_from(memoised_diffs, prefix)
                cold_iface = interface_from(cold.diffs, prefix)
                assert (
                    memoised_iface.widget_summary()
                    == cold_iface.widget_summary()
                ), (family, start)
                for probe in prefix[-3:]:
                    assert memoised_iface.expresses(
                        probe
                    ) == cold_iface.expresses(probe), (family, start)
                n_checked += 1
            checked[family] = n_checked
        return checked

    checked = run_once(benchmark, run)
    emit(
        "mine_memo_parity",
        "\n".join(
            f"{family}: parity held at {n} appends"
            for family, n in checked.items()
        ),
    )
    assert all(n >= 2 for n in checked.values()), checked
