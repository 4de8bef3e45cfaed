"""Benchmark worker: runs one workload in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS/OpenMP
limited to one thread.  Each repetition does what ``evopareto run``,
``evopareto metrics`` and ``evopareto stats --metric hv`` do, through the
library calls, single-process with ``jobs=1``, into a fresh results
directory.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

from evopareto import harness, parse_config, rng, serialize_config
from evopareto.algorithms import ALGORITHM_NAMES
from evopareto.stats import friedman_nemenyi

from workloads import JOBS_CHECK, WORKLOADS

#: Repetitions made even when they overrun the measuring time.
MIN_REPS = 3


class Checks:
    """Output checks; each one attempted counts, each failure is reported."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def digest(directory: Path) -> str:
    """SHA-256 of metrics.csv followed by fronts.csv."""
    h = hashlib.sha256()
    for name in ("metrics.csv", "fronts.csv"):
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def records_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in (directory / "records").iterdir())


def genome_bytes(directory: Path) -> int:
    """Bytes of the records spent on the per-generation ``genomes`` fields."""
    total = 0
    for path in (directory / "records").iterdir():
        with open(path, encoding="utf-8") as handle:
            handle.readline()
            for line in handle:
                payload = json.loads(line)
                del payload["genomes"]
                total += len(line.rstrip("\n")) - len(json.dumps(payload))
    return total


def pipeline(config, out: Path, tracer=None) -> tuple[dict, list]:
    """run -> metrics -> stats --metric hv into ``out``; timings and loaded records."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    if out.exists():
        shutil.rmtree(out)
    start = time.perf_counter()
    with span("harness.run_experiment"):
        records = harness.run_experiment(config, jobs=1)
    ran = time.perf_counter()
    out.mkdir(parents=True)
    (out / "config.txt").write_text(serialize_config(config), encoding="utf-8")
    with span("harness.save_records"):
        harness.save_records(records, out)
    saved = time.perf_counter()
    with span("harness.load_records"):
        loaded = harness.load_records(out)
    with span("harness.compute_metrics"):
        rows, reference, fronts = harness.compute_metrics(loaded)
    with span("harness.write_csvs"):
        harness.write_metrics_csv(rows, out / "metrics.csv")
        harness.write_fronts_csv(reference, fronts, out / "fronts.csv")
    with span("harness.read_metrics_csv"):
        metric_rows = harness.read_metrics_csv(out / "metrics.csv")
    with span("harness.build_score_table"):
        table = harness.build_score_table(metric_rows, "hv")
    with span("stats.friedman_nemenyi"):
        result = friedman_nemenyi(table)
    with span("harness.write_cd_csv"):
        harness.write_cd_csv({"hv": result}, out / "cd.csv")
    done = time.perf_counter()
    timing = {
        "run_experiment_s": ran - start,
        "run_s": saved - start,
        "analyze_s": done - saved,
        "total_s": done - start,
        "digest": digest(out),
        "records_bytes": records_bytes(out),
    }
    return timing, loaded


def check_outputs(checks: Checks, config, loaded, out: Path, label: str) -> None:
    """Budget parity, no aborted run, and well-formed metrics and cd tables."""
    budget = config.pop_size * config.generations
    expected = {(a, r) for a in config.algorithms for r in range(config.n_runs)}
    checks.expect({(r.algorithm, r.run_index) for r in loaded} == expected,
                  f"{label}: records do not cover every (algorithm, run)")
    for record in loaded:
        name = f"{label}: {record.algorithm} run {record.run_index}"
        checks.expect(record.status == "ok", f"{name} aborted")
        checks.expect(record.eval_count == budget,
                      f"{name} used {record.eval_count} evaluations, budget is {budget}")
    rows = harness.read_metrics_csv(out / "metrics.csv")
    checks.expect(len(rows) == len(expected) * config.generations,
                  f"{label}: metrics.csv has {len(rows)} rows")
    checks.expect(all(0.0 <= row.hv <= 1.0 for row in rows),
                  f"{label}: hypervolume outside [0, 1]")
    checks.expect(all(math.isfinite(row.gd) and math.isfinite(row.igd) for row in rows),
                  f"{label}: non-finite GD or IGD")
    cd_lines = (out / "cd.csv").read_text(encoding="utf-8").splitlines()
    checks.expect(len(cd_lines) == 1 + len(config.algorithms),
                  f"{label}: cd.csv has {len(cd_lines) - 1} algorithm rows")


def jobs_digests(seed: int, work: Path) -> tuple[str, str]:
    """Digests of one tiny bandit experiment run with jobs=1 and with jobs=2."""
    config = parse_config(JOBS_CHECK.config_text(seed))
    found = []
    for jobs in (1, 2):
        out = work / f"jobs{jobs}"
        out.mkdir(parents=True, exist_ok=True)
        rows, reference, fronts = harness.compute_metrics(harness.run_experiment(config, jobs=jobs))
        harness.write_metrics_csv(rows, out / "metrics.csv")
        harness.write_fronts_csv(reference, fronts, out / "fronts.csv")
        found.append(digest(out))
    return found[0], found[1]


def host_facts() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd": sorted(name for name, on in __cpu_features__.items() if on),
        "rng_scheme": rng.SCHEME,
    }


def layer_metrics(tracer, traced: dict, untraced_total: float, out: Path) -> dict:
    """Per-layer figures of the traced repetition."""
    counts, busy, self_time = tracer.counts, tracer.busy, tracer.self_time
    m: dict[str, tuple[float, str]] = {}
    for name in ("rng.draws", "policy.forward.calls", "environments.step.calls",
                 "evaluation.rollout.calls", "algorithms.sbx_crossover.calls",
                 "algorithms.polynomial_mutation.calls", "indicators.gd.calls",
                 "evaluation.evaluate.calls", "pareto.fast_nondominated_sort.calls",
                 "pareto.nondominated_filter.calls", "indicators.hypervolume_exact.calls",
                 "indicators.hypervolume_contributions.calls"):
        m[name] = (counts[name], "count")
    for name in ("evaluation.evaluate", "pareto.fast_nondominated_sort",
                 "pareto.nondominated_filter", "indicators.hypervolume_exact",
                 "indicators.hypervolume_contributions", "indicators.indicator_series",
                 "harness.run_experiment", "harness.save_records", "harness.load_records",
                 "harness.compute_metrics", "stats.friedman_nemenyi"):
        m[name + ".busy_s"] = (busy[name], "s")
    m["evaluation.evaluate.self_s"] = (self_time["evaluation.evaluate"], "s")
    m["evaluation.evaluate.share"] = (busy["evaluation.evaluate"] / traced["run_s"], "share")
    for algorithm in ALGORITHM_NAMES:
        for method in ("ask", "tell"):
            name = f"algorithms.{algorithm}.{method}"
            m[name + ".busy_s"] = (busy[name], "s")
    m["harness.records_bytes"] = (traced["records_bytes"], "B")
    m["harness.records.unread_share"] = (genome_bytes(out) / traced["records_bytes"], "share")
    m["trace.overhead_share"] = (traced["total_s"] / untraced_total - 1.0, "share")
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    config = parse_config(workload.config_text(args.seed))
    checks = Checks()
    out = args.work / "results"
    # The traced run splits its time between untraced and traced repetitions.
    measure = args.seconds / 2 if args.trace else args.seconds

    reps = []
    started = time.perf_counter()
    # Stop before a repetition that would overrun the measuring time.
    while len(reps) < MIN_REPS or (time.perf_counter() - started + reps[-1]["total_s"]
                                   <= measure):
        timing, loaded = pipeline(config, out)
        label = f"repetition {len(reps)}"
        check_outputs(checks, config, loaded, out, label)
        if reps:
            checks.expect(timing["digest"] == reps[0]["digest"],
                          f"{label}: metrics/fronts digest differs from repetition 0")
        reps.append(timing)
        del loaded  # so peak RSS holds one repetition's records, not two
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    layers = {}
    if args.trace:
        from micro import run_micro
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, loaded = pipeline(config, out, tracer)
        finally:
            tracer.uninstall()
        check_outputs(checks, config, loaded, out, "traced repetition")
        checks.expect(traced["digest"] == reps[0]["digest"],
                      "traced repetition: digest differs from the untraced repetitions")
        del loaded
        untraced_total = statistics.median(r["total_s"] for r in reps)
        layers = layer_metrics(tracer, traced, untraced_total, out)
        layers.update(run_micro(args.seed))
        tracer.write_spans(args.work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")

    serial, pooled = jobs_digests(args.seed, args.work / "jobs")
    checks.expect(serial == pooled, "jobs=1 and jobs=2 give different metrics/fronts digests")

    print(json.dumps({
        "host": host_facts(),
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "checks_attempted": checks.attempted,
        "failures": checks.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
