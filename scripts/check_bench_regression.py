#!/usr/bin/env python
"""Gate the incremental-append benchmark against its committed baseline.

Compares the *dimensionless* ``speedup_*`` metrics of a fresh
``benchmarks/results/BENCH_incremental.json`` run against
``benchmarks/baselines/bench_incremental_baseline.json`` and exits
non-zero when any metric regressed by more than the tolerance factor
(default 2x, per the perf-trajectory policy).  Absolute seconds are
reported but never gated — they differ across hardware; speedup ratios
do not.

A baseline may also list deterministic work counters under ``counters``
(``{"n_plans_sdss": 3, ...}``).  Those are gated exactly: the run fails
when a listed counter is missing from the current results or differs
from its baseline value, because a ratio gate misses a change that hits
both arms alike.

Usage:
    python scripts/check_bench_regression.py \
        [current.json] [baseline.json] [--tolerance 2.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "benchmarks" / "results" / "BENCH_incremental.json"
DEFAULT_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "bench_incremental_baseline.json"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="?", default=str(DEFAULT_CURRENT))
    parser.add_argument("baseline", nargs="?", default=str(DEFAULT_BASELINE))
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when current speedup < baseline / tolerance (default 2)",
    )
    args = parser.parse_args(argv)

    try:
        current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read current results {args.current}: {exc}")
        return 1
    try:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read baseline {args.baseline}: {exc}")
        return 1

    gated = sorted(
        key
        for key in baseline
        if key.startswith("speedup_") and key in current
    )
    if not gated:
        print("no shared speedup_* metrics between baseline and current run")
        return 1

    failures = 0
    for key, expected in sorted(baseline.get("counters", {}).items()):
        now = current.get(key)
        verdict = "OK  " if now == expected else "FAIL"
        if now != expected:
            failures += 1
        print(f"  {verdict} {key}: current {now!r} vs baseline {expected!r} (exact)")
    for key in gated:
        base = float(baseline[key])
        now = float(current[key])
        floor = base / args.tolerance
        verdict = "OK  " if now >= floor else "FAIL"
        if now < floor:
            failures += 1
        print(
            f"  {verdict} {key}: current x{now:.2f} vs baseline x{base:.2f} "
            f"(floor x{floor:.2f})"
        )
    for key in ("steady_append_seconds", "full_regenerate_seconds"):
        if key in current:
            print(f"  info {key}: {float(current[key]) * 1000:.1f} ms (not gated)")
    if failures:
        print(f"\n{failures} metric(s) regressed by more than "
              f"{args.tolerance}x or moved off their exact counter "
              "vs the committed baseline")
        return 1
    print("\nbenchmark within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
