"""Pin the metrics/fronts digests that the benchmark checks outputs against.

Run from the repository root, only when output bytes change on purpose
(that is, with a new ``rng.SCHEME``):

    PYTHONPATH=src python3 benchmarks/pin_digests.py 0-31

Adds one digest per (workload, seed) under the current scheme to
``benchmarks/digests.json``, computed by the same pipeline as a benchmark
repetition; digests of other schemes are kept.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from evopareto import parse_config, rng

from worker import pipeline
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = HERE / "digests.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    scheme_pins = pins.setdefault(rng.SCHEME, {})
    out = HERE.parent / ".bench_out" / "pin"
    try:
        for name, workload in WORKLOADS.items():
            for seed in parse_seeds(argv[0]):
                timing, _ = pipeline(parse_config(workload.config_text(seed)), out)
                scheme_pins.setdefault(name, {})[str(seed)] = timing["digest"]
                print(f"{name} seed {seed} {timing['digest']}", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for name in scheme_pins:
        scheme_pins[name] = dict(sorted(scheme_pins[name].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
