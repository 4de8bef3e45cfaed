"""evopareto benchmark: one workload, end-to-end or per-layer figures.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload walker_rollout --seed 0 --seconds 25 --trace 0

The workload runs in a fresh worker interpreter (``worker.py``) with the
checkout's ``src`` on PYTHONPATH and BLAS/OpenMP limited to one thread;
set-up time is measured in further fresh interpreters.  ``--trace 0``
reports the end-to-end metrics of untraced repetitions, ``--trace 1`` the
per-layer metrics of a separate traced repetition plus microbenchmarks.
Every figure is printed by name with its unit; the last stdout line is one
JSON object holding the metrics BENCHMARK.json declares for that mode.
Output checks that fail are printed to stderr, make ``correct`` false and
the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SCIPY_SAMPLES = 3
WORKER_TIMEOUT_S = 140
PROBE_TIMEOUT_S = 30

# A fresh interpreter importing evopareto and parsing the workload config.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import evopareto
imported = time.perf_counter()
evopareto.parse_config(sys.argv[1])
print(imported - start, time.perf_counter() - start)
"""

# scipy.stats alone, after numpy: what importing evopareto.stats adds.
SCIPY_PROBE = """\
import time
import numpy
start = time.perf_counter()
import scipy.stats
print(time.perf_counter() - start)
"""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def python(args: list[str], env: dict, timeout: float) -> str:
    """Stdout of a child interpreter; raises if it fails or overruns."""
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{args[0]} exited with code {done.returncode}")
    return done.stdout


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def end_to_end(workload, reps: list[dict], worker: dict, setup: list[list[float]],
               checks_ok: float) -> dict[str, tuple[float, str]]:
    def median(key):
        return statistics.median(r[key] for r in reps)

    return {
        "setup_s": (statistics.median(s[1] for s in setup), "s"),
        "run_s": (median("run_s"), "s"),
        "analyze_s": (median("analyze_s"), "s"),
        "total_s": (median("total_s"), "s"),
        "evals_per_s": (statistics.median(workload.evaluations / r["run_experiment_s"]
                                          for r in reps), "1/s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "records_mb": (median("records_bytes") / 1e6, "MB"),
        "checks_ok_share": (checks_ok, "share"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evopareto" / "__init__.py").is_file():
        print(f"error: no evopareto sources under {ROOT / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = worker_env()
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    try:
        worker = json.loads(python(
            [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)],
            env, WORKER_TIMEOUT_S).splitlines()[-1])
        config_text = workload.config_text(args.seed)
        setup = [[float(x) for x in python(["-c", SETUP_PROBE, config_text], env,
                                           PROBE_TIMEOUT_S).split()]
                 for _ in range(SETUP_SAMPLES)]
        scipy_import = ([float(python(["-c", SCIPY_PROBE], env, PROBE_TIMEOUT_S))
                         for _ in range(SCIPY_SAMPLES)] if args.trace else [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = worker["reps"]
    attempted = worker["checks_attempted"]
    failures = list(worker["failures"])
    scheme = worker["host"]["rng_scheme"]
    digest = reps[0]["digest"]
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    pinned = pins.get(scheme, {}).get(args.workload, {}).get(str(args.seed))
    if pinned is None:
        pin_note = f"unpinned for ({args.workload}, seed {args.seed}, {scheme})"
    else:
        attempted += 1
        pin_note = "matches pin" if digest == pinned else "DIFFERS FROM PIN"
        if digest != pinned:
            failures.append(f"digest {digest} differs from the pinned {pinned}")

    if args.trace:
        figures = {name: tuple(value) for name, value in worker["layers"].items()}
        figures["setup.import_s"] = (statistics.median(s[0] for s in setup), "s")
        figures["setup.scipy_stats_import_s"] = (statistics.median(scipy_import), "s")
    else:
        figures = end_to_end(workload, reps, worker, setup, 1.0 - len(failures) / attempted)
    figures["failed_share"] = (len(failures) / attempted, "share")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  setup samples {len(setup)}")
    print("host " + json.dumps(worker["host"]))
    print(f"digest {digest}  {pin_note}")
    for name, (value, unit) in figures.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(f"checks: {attempted} attempted, {len(failures)} failed")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    metrics = {}
    for declared in declared_metrics(args.trace):
        value, unit = figures[declared["name"]]
        if unit != declared["unit"]:
            raise RuntimeError(f"{declared['name']} is measured in {unit}, "
                               f"BENCHMARK.json says {declared['unit']}")
        metrics[declared["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
