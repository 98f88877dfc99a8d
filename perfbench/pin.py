"""Record the benchmark's pins: the digest of every phase's inputs at the
default seed, and the known widget-summary answer of every batch size for
seeds ``0..N``.

Re-pinning is a deliberate act: run it only when a change to the log
generators or to the mining result is intended, and say so in the change.

    python3 perfbench/pin.py --seeds 64
"""

from __future__ import annotations

import argparse
import json

import run  # noqa: F401  (puts the program on sys.path)
from measure import digest, widget_digest
from phases import DEFAULT_SEED, BatchPhase, ServePhase, StorePhase

from repro import generate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=64, help="answers for seeds 0..N-1")
    args = parser.parse_args()
    inputs: dict[str, str] = {}
    answers: dict[str, dict[str, str]] = {}
    for table in (run.FULL, run.SMOKE):
        batch = BatchPhase(table["batch"], DEFAULT_SEED, {})
        store = StorePhase(table["store"])
        serve = ServePhase(table["serve"], "patch")
        for phase in (batch, store, serve):
            inputs[phase.size.key] = digest(phase.synth(DEFAULT_SEED))
        answers[batch.size.key] = {
            str(seed): widget_digest(generate(batch.synth(seed))) for seed in range(args.seeds)
        }
        print(f"pinned {batch.size.key}", flush=True)
    run.PINS.write_text(json.dumps({"inputs": inputs, "answers": answers}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
