"""The benchmark: two SDSS workloads measured end to end, and a separate
traced run that times each layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sdss_mix --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --smoke      # both workloads at toy size, plus planted faults

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  The exit code is 0 only when every check passed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import phases  # noqa: E402
    from measure import HostSpeed, Ledger, digest, median, peak_rss_mb, percentile, pin_to_one_cpu, samples_beyond  # noqa: E402
    from phases import BatchSize, ServeSize, StoreSize  # noqa: E402
    from tracing import Tracer, layer_metrics, layer_shares, write_spans  # noqa: E402
except ImportError as exc:
    print(f"perfbench: cannot import the program under {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

IMPORT_S = time.perf_counter() - _STARTED

WORKDIR = ROOT / ".perfbench-work"
PINS = HERE / "pins.json"
SPANS = ROOT / ".perfbench-spans.jsonl"
SETUP_REPS = 2

#: Phase sizes.  Every workload runs all three phases at these sizes; the
#: smoke mode runs them at toy size.
FULL = {
    "batch": BatchSize(queries=10000, min_runs=2),
    "serve": ServeSize(clients=16, queries=90, batch=1),
    "store": StoreSize(logs=100, queries=40),
}
SMOKE = {
    "batch": BatchSize(queries=120, min_runs=2),
    "serve": ServeSize(clients=3, queries=12, batch=2, drain_every=6),
    "store": StoreSize(logs=3, queries=16),
}
#: workload -> what the serve phase's acks carry (``compile=`` mode)
WORKLOADS = {"sdss_mix": "patch", "sdss_mix_page": "page"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "generate_s": "s",
    "queries_per_s": "1/s",
    "append_ms_p50": "ms",
    "append_ms_p99": "ms",
    "drain_ms_p50": "ms",
    "cold_ms_p50": "ms",
    "cold_ms_p90": "ms",
    "warm_ms_p50": "ms",
    "warm_ms_p95": "ms",
    "store_bytes_per_query": "bytes",
}

_PARSE_MINE_MAP = [
    "sqlparser.parse_ms",
    "sqlparser.statements",
    "sqlparser.parse_hits",
    "graph.mine_ms",
    "graph.pairs_compared",
    "graph.diffs",
    "treediff.alignments_full",
    "treediff.alignments_memoised",
    "treediff.memo_hit_ratio",
    "core.map_ms",
    "core.merge_ms",
    "core.partitions_rebuilt",
]
_CACHE = ["cache.load_ms", "cache.save_ms", "cache.records_read", "cache.records_written"]
#: Per-layer metrics, by the phase they are measured in (each name is
#: reported with its phase as a prefix).  A layer is listed only for the
#: phases in which it does work.
PER_LAYER = {
    "batch": [*_PARSE_MINE_MAP, "trace.overhead_ms"],
    "store": [
        *_PARSE_MINE_MAP,
        *_CACHE,
        "cache.bytes.graphs",
        "cache.bytes.widget_sets",
        "cache.bytes.diff_memos",
        "trace.overhead_ms",
    ],
    "serve": [
        *_PARSE_MINE_MAP,
        "core.partitions_reused",
        "core.components_merged",
        "core.components_reused",
        "core.windows_merged",
        "core.windows_reused",
        "compiler.compile_ms_p50",
        "compiler.compile_ms_p99",
        "compiler.blocks",
        "compiler.closure_set",
        "compiler.closure_del",
        "compiler.patch_bytes",
        *_CACHE,
        "cache.bytes.graphs",
        "cache.bytes.widget_sets",
        "cache.bytes.proof_sets",
        "cache.bytes.diff_memos",
        "cache.bytes.compiled",
        "service.ipc_ms_p50",
        "service.ipc_ms_p99",
        "service.worker_ms_p50",
        "service.ack_bytes",
        "service.rpc_requests",
        "service.rpc_bytes",
        "api.append_ms",
        "api.flush_ms",
        "trace.overhead_ms",
    ],
}


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_p50", "_ms_p99")):
        return "ms"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    return [f"{phase}.{name}" for phase in ("batch", "store", "serve") for name in PER_LAYER[phase]]


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: dict[str, Any] | None = None,
    plants: frozenset[str] = frozenset(),
) -> tuple[dict[str, Any], list[str]]:
    """One benchmark run; returns the result object and the report lines.

    ``sizes`` replaces the phase sizes (the smoke mode's toy sizes): one
    set-up instead of several, and tails reported even when they rest on
    fewer than 10 samples.
    """
    toy = sizes is not None
    chosen = sizes or FULL
    pins = json.loads(PINS.read_text())
    ledger = Ledger()
    cpu = pin_to_one_cpu()
    speed = HostSpeed()
    batch = phases.BatchPhase(
        chosen["batch"], seed, pins["answers"].get(chosen["batch"].key, {}), plants
    )
    store = phases.StorePhase(chosen["store"], plants)
    serve = phases.ServePhase(chosen["serve"], WORKLOADS[workload], plants)

    with phases.workdir_at(WORKDIR) as workdir:
        try:
            # set-up, several times: inputs synthesised, daemon answering,
            # pool serving; only the last one is kept
            setups = []
            for _ in range(1 if toy else SETUP_REPS):
                serve.stop()
                mark = speed.probe()
                t0 = perf_counter()
                batch.statements = batch.synth(seed)
                store.logs = store.synth(seed)
                serve.set_inputs(serve.synth(seed))
                serve.start(workdir)
                setups.append((perf_counter() - t0, mark))
            speed.probe()

            # the inputs come from the program under test: pin them
            inputs = {}
            for phase, current in ((batch, batch.statements), (store, store.logs), (serve, serve.logs)):
                key = phase.size.key
                pinned = pins["inputs"].get(key)
                observed = digest(phase.synth(phases.DEFAULT_SEED))
                ledger.check(
                    observed == pinned,
                    f"inputs: {key} at the default seed digest to {observed}, pinned {pinned}",
                )
                inputs[key] = digest(current)

            # The phases run one after another.  The set-up's heap (the
            # inputs, the pool's bookkeeping) is frozen out of the
            # collector's view while batch and store run, so that their
            # full collections scan what they allocate, as they would in a
            # process of their own.  Serve goes last, unfrozen: the acks
            # its pool keeps grow this process's heap for good, and its
            # collections pay for scanning them.
            tracers = {name: Tracer() for name in FULL} if trace else {}
            clock = [perf_counter()]
            gc.collect()
            gc.freeze()
            try:
                batch.run(seconds, speed, ledger, tracers.get("batch"))
                clock.append(perf_counter())
                store.run(workdir, speed, ledger, tracers.get("store"))
                clock.append(perf_counter())
            finally:
                gc.unfreeze()
            serve.run(speed, ledger)
            clock.append(perf_counter())
            batch.check(ledger)
            serve.check(ledger)
            layers: dict[str, float] = {}
            shares: dict[str, dict[str, float]] = {}
            if trace:
                replayed = serve.replay(workdir, speed, tracers["serve"])
                clock.append(perf_counter())
                for tracer in tracers.values():
                    tracer.rescale(speed)
                layers.update(layer_metrics(tracers["batch"], "batch", "generate"))
                layers.update(layer_metrics(tracers["store"], "store", "cold"))
                for client, result in replayed.items():
                    ledger.check(
                        result is not None
                        and result.interface.widget_summary()
                        == serve.drained[client].interface.widget_summary(),
                        f"serve: in-process replay of {client} differs from the pool",
                    )
                layers.update(layer_metrics(tracers["serve"], "serve", "append"))
                layers.update({f"serve.{k}": v for k, v in serve.service_metrics().items()})
                for table, size in store.bytes_by_table.items():
                    layers[f"store.cache.bytes.{table}"] = float(size)
                for table, size in serve.bytes_by_table.items():
                    layers[f"serve.cache.bytes.{table}"] = float(size)
                shares = {
                    "batch generate": layer_shares(tracers["batch"], "generate"),
                    "store cold": layer_shares(tracers["store"], "cold"),
                    "store warm": layer_shares(tracers["store"], "warm"),
                    "serve append (replay)": layer_shares(tracers["serve"], "append"),
                    "serve drain (replay)": layer_shares(tracers["serve"], "drain"),
                }
                n_spans = write_spans(SPANS, tracers)
        finally:
            serve.stop(ledger)

    def timings(times: Callable[[list[tuple[float, Any]]], list[float]]) -> dict[str, float]:
        """The end-to-end timings, from ``(seconds, probe mark)`` samples."""
        latency, cold, warm = times(serve.latencies), times(store.cold), times(store.warm)
        return {
            "setup_s": times([(IMPORT_S, setups[0][1])])[0] + median(times(setups)),
            "generate_s": median(times(batch.samples)),
            "queries_per_s": serve.queries_persisted / (sum(times(serve.calls)) + sum(times(serve.drains))),
            "append_ms_p50": median(latency) * 1000.0,
            "append_ms_p99": percentile(latency, 99.0) * 1000.0,
            "drain_ms_p50": median(times(serve.drains)) * 1000.0,
            "cold_ms_p50": median(cold) * 1000.0,
            "cold_ms_p90": percentile(cold, 90.0) * 1000.0,
            "warm_ms_p50": median(warm) * 1000.0,
            "warm_ms_p95": percentile(warm, 95.0) * 1000.0,
        }

    if trace:
        metrics = {name: (layers.get(name, 0.0), layer_unit(name)) for name in per_layer_names()}
    else:
        tails = (("append", serve.latencies, 99.0), ("cold", store.cold, 90.0), ("warm", store.warm, 95.0))
        for label, samples, p in tails:
            if not toy and samples_beyond(len(samples), p) < 10:
                raise RuntimeError(f"{label}: p{p:g} of {len(samples)} samples has <10 beyond it")
        values = timings(speed.scaled)
        values["peak_rss_mb"] = peak_rss_mb() + serve.rss_mb
        values["store_bytes_per_query"] = (serve.total_bytes + store.total_bytes) / (
            serve.queries_persisted + store.queries_persisted
        )
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = [f"inputs {key} seed={seed} digest={value}" for key, value in inputs.items()]
    if trace:
        info.append(f"spans {n_spans} written to {SPANS.name}")
        for label, layer_share in shares.items():
            parts = " ".join(f"{layer}={share:.1%}" for layer, share in layer_share.items())
            info.append(f"share {label}: {parts} (rest {1 - sum(layer_share.values()):.1%})")
    raw = timings(lambda samples: [seconds for seconds, _mark in samples])
    durations = " ".join(
        f"{name}={end - start:.1f}" for name, start, end in zip(("batch", "store", "serve", "replay"), clock, clock[1:])
    )
    info += [
        f"measured_s={clock[3] - clock[0]:.1f} ({durations}) cpu={cpu} "
        f"host speed factor: median {median(map(speed.factor, range(len(speed.probes)))):.3f}",
        "unscaled " + " ".join(f"{name}={value:.4g}" for name, value in raw.items()),
        f"samples generate={len(batch.samples)} append={len(serve.latencies)} "
        f"drain={len(serve.drains)} cold={len(store.cold)} warm={len(store.warm)}",
    ]
    return result, info + [f"FAILED {message}" for message in ledger.failures]


def report(result: dict[str, Any], info: list[str]) -> None:
    for line in info:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))


PLANTS = {
    "drop_patch": "not fold",
    "corrupt_warm": "was not a full hit",
    "drop_widget": "differs from known answer",
}


def smoke() -> int:
    """Both workloads at toy size (one end to end, one traced, so every
    metric is printed), then one run with every planted fault, each of
    which the checks must catch.  Returns the exit code."""
    ok = True
    for workload, trace in (("sdss_mix", True), ("sdss_mix_page", False)):
        print(f"== smoke {workload} trace={int(trace)}")
        result, info = run(workload, phases.DEFAULT_SEED, 1.0, trace, SMOKE)
        report(result, info)
        ok &= result["correct"]
    result, info = run("sdss_mix", phases.DEFAULT_SEED, 1.0, False, SMOKE, frozenset(PLANTS))
    for plant, symptom in PLANTS.items():
        caught = any(symptom in line for line in info)
        print(f"== planted {plant}: {'caught' if caught else 'MISSED'}")
        ok &= caught
    ok &= not result["correct"]
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=phases.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size run of both workloads plus planted faults")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, info)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
