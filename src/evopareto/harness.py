"""Experiment orchestration: seeded runs, persistence, metrics, CSV export.

Seeds flow strictly downward: the run seed derives from
``(master_seed, algorithm, run)``, each generation's evaluation streams from
``(run_seed, "eval", generation, individual)``, and the optimizer's own
variation stream from ``(run_seed, "optimizer")``.  Nothing depends on
wall-clock or scheduling, so a config and seed determine every output byte
whether (algorithm, run) jobs execute sequentially or in a process pool.

Every algorithm consumes exactly ``pop_size * generations`` evaluations; the
counter is recorded per run so budget parity is auditable after the fact.

A run record keeps what the analysis reads: every generation's returns and
scalars, and the genomes of the final generation only.  Earlier generations
keep zero-width ``(n, 0)`` genome rows, in memory, across the process pool
and on disk alike.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import indicators, rng
from .algorithms import make_optimizer
from .config import ExperimentConfig, parse_config, serialize_config
from .environments import make_env
# One call evaluates a whole generation; benchmarks/tracer.py times it
# through this module-level name.
from .evaluation import Population, evaluate_population as evaluate
from .policy import PolicySpec, genome_length
from .rng import RandomStream, derive_seed

if TYPE_CHECKING:
    from . import stats

METRICS_HEADER = "algorithm,run,generation,hv,gd,igd,scalarized_best"


@dataclass(frozen=True)
class RunRecord:
    algorithm: str
    run_index: int
    seed: int
    status: str  # "ok" or "aborted"
    eval_count: int
    wall_time: float
    rng_scheme: str
    config: ExperimentConfig
    # The optimizer's population after each tell; only the last one keeps
    # its genomes, earlier ones have (n, 0) genome rows.
    generations: list[Population]


@dataclass(frozen=True)
class MetricRow:
    algorithm: str
    run: int
    generation: int
    hv: float
    gd: float
    igd: float
    scalarized_best: float


def execute_run(config: ExperimentConfig, algorithm: str, run_index: int) -> RunRecord:
    """One seeded (algorithm, run) job producing a per-generation record."""
    env = make_env(config.environment, config.sigma)
    spec = PolicySpec(obs_dim=env.spec.obs_dim, hidden=config.hidden_widths(),
                      action_dim=env.spec.action_dim)
    n_genes = genome_length(spec)
    run_seed = derive_seed(config.master_seed, algorithm, run_index)
    optimizer = make_optimizer(config.algorithm_config(algorithm, env.spec.k),
                               n_genes, RandomStream(derive_seed(run_seed, "optimizer")))
    generations: list[Population] = []
    eval_count = 0
    status = "ok"
    started = time.perf_counter()
    for generation in range(config.generations):
        genomes = optimizer.ask()
        evaluated = evaluate(env, spec, genomes, config.n_episodes,
                             [derive_seed(run_seed, "eval", generation, i)
                              for i in range(len(genomes))])
        eval_count += len(evaluated)
        if not np.all(np.isfinite(evaluated.returns)):
            status = "aborted"
            break
        optimizer.tell(evaluated)
        generations.append(optimizer.population)
    generations[:-1] = [Population(np.empty((len(p), 0)), p.returns, p.scalars)
                        for p in generations[:-1]]
    return RunRecord(
        algorithm=algorithm,
        run_index=run_index,
        seed=run_seed,
        status=status,
        eval_count=eval_count,
        wall_time=time.perf_counter() - started,
        rng_scheme=rng.SCHEME,
        config=config,
        generations=generations,
    )


def _job(args) -> RunRecord:
    return execute_run(*args)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """All (algorithm, run) jobs of an experiment, in deterministic order.

    A run whose evaluation produces non-finite values is marked aborted and
    the remaining jobs continue.
    """
    tasks = [(config, algorithm, run)
             for algorithm in config.algorithms
             for run in range(config.n_runs)]
    if jobs <= 1:
        return [_job(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_job, tasks))


# -- persistence --------------------------------------------------------------

def record_path(directory: Path, algorithm: str, run_index: int) -> Path:
    return Path(directory) / "records" / f"{algorithm}_run{run_index:03d}.jsonl"


def save_records(records: list[RunRecord], directory) -> list[Path]:
    """Write each record to a temporary name, then rename it into place, so a
    failed write leaves no partial ``.jsonl`` and keeps any earlier record."""
    directory = Path(directory)
    (directory / "records").mkdir(parents=True, exist_ok=True)
    paths = []
    for record in records:
        path = record_path(directory, record.algorithm, record.run_index)
        partial = path.with_name(path.name + ".partial")
        try:
            with open(partial, "w", encoding="utf-8") as handle:
                header = {
                    "algorithm": record.algorithm,
                    "run": record.run_index,
                    "seed": record.seed,
                    "status": record.status,
                    "eval_count": record.eval_count,
                    "wall_time": record.wall_time,
                    "rng": record.rng_scheme,
                    "config": serialize_config(record.config),
                }
                handle.write(json.dumps(header) + "\n")
                for g, population in enumerate(record.generations):
                    line = {
                        "generation": g,
                        "genomes": population.genomes.tolist(),
                        "returns": population.returns.tolist(),
                        "scalars": population.scalars.tolist(),
                    }
                    handle.write(json.dumps(line) + "\n")
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        paths.append(path)
    return paths


def load_records(directory) -> list[RunRecord]:
    """All run records under ``directory``; they must share one config and
    cover every (algorithm, run) of it."""
    directory = Path(directory)
    paths = sorted((directory / "records").glob("*.jsonl"))
    if not paths:
        raise FileNotFoundError(f"no run records under {directory}/records")
    records = []
    for path in paths:
        record = _read_record(path)
        if records and record.config != records[0].config:
            raise ValueError(
                f"run records under {directory}/records come from different configs: "
                f"{paths[0].name} and {path.name} (clear stale records or use a fresh --out)")
        records.append(record)
    config = records[0].config
    found = {(r.algorithm, r.run_index) for r in records}
    for algorithm in config.algorithms:
        for run in range(config.n_runs):
            if (algorithm, run) not in found:
                raise ValueError(
                    f"run records under {directory}/records are incomplete: "
                    f"{record_path(directory, algorithm, run).name} is missing")
    order = config.algorithms
    records.sort(key=lambda r: (order.index(r.algorithm), r.run_index))
    return records


def _read_record(path: Path) -> RunRecord:
    """One record file; ``ValueError`` names the file and the line that does not parse."""
    lineno = 1
    with open(path, encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
            record = RunRecord(
                algorithm=header["algorithm"],
                run_index=header["run"],
                seed=header["seed"],
                status=header["status"],
                eval_count=header["eval_count"],
                wall_time=header["wall_time"],
                rng_scheme=header["rng"],
                config=parse_config(header["config"]),
                generations=[],
            )
            for lineno, line in enumerate(handle, start=2):
                payload = json.loads(line)
                record.generations.append(Population(np.array(payload["genomes"]),
                                                     np.array(payload["returns"]),
                                                     np.array(payload["scalars"])))
        except KeyError as exc:
            raise ValueError(f"{path} line {lineno}: run record lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} line {lineno}: unreadable run record: {exc}") from None
    return record


# -- metrics -----------------------------------------------------------------

def compute_metrics(records: list[RunRecord]):
    """Reference front, per-algorithm union fronts, and per-generation rows.

    The reference front is the deduplicated nondominated union of all
    non-aborted runs' final populations; per-algorithm fronts aggregate each
    algorithm's own runs the same way.
    """
    usable = [r for r in records if r.status == "ok" and r.generations]
    if not usable:
        raise ValueError("no completed runs to compute metrics from")
    reference = indicators.build_reference_front(
        [r.generations[-1].returns for r in usable])
    algorithm_order = list(dict.fromkeys(r.algorithm for r in usable))
    algorithm_fronts = {
        algorithm: indicators.build_reference_front(
            [r.generations[-1].returns for r in usable if r.algorithm == algorithm])
        for algorithm in algorithm_order
    }
    rows: list[MetricRow] = []
    for record in usable:
        hv, gd, igd = indicators.indicator_series(
            [population.returns for population in record.generations], reference)
        for generation, population in enumerate(record.generations):
            rows.append(MetricRow(
                algorithm=record.algorithm,
                run=record.run_index,
                generation=generation,
                hv=float(hv[generation]),
                gd=float(gd[generation]),
                igd=float(igd[generation]),
                scalarized_best=float(population.scalars.max()),
            ))
    return rows, reference, algorithm_fronts


def write_metrics_csv(rows: list[MetricRow], path) -> None:
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(f"{r.algorithm},{r.run},{r.generation},"
                     f"{r.hv!r},{r.gd!r},{r.igd!r},{r.scalarized_best!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_fronts_csv(reference: np.ndarray, algorithm_fronts: dict, path) -> None:
    k = reference.shape[1]
    header = "scope,algorithm," + ",".join(f"f{j + 1}" for j in range(k))
    lines = [header]
    for point in reference:
        lines.append("reference,," + ",".join(repr(float(x)) for x in point))
    for algorithm, front in algorithm_fronts.items():
        for point in front:
            lines.append(f"algorithm,{algorithm}," + ",".join(repr(float(x)) for x in point))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path) -> list[MetricRow]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path} does not look like a metrics CSV")
    rows = []
    for line in lines[1:]:
        algorithm, run, generation, hv, gd_, igd_, best = line.split(",")
        rows.append(MetricRow(algorithm, int(run), int(generation),
                              float(hv), float(gd_), float(igd_), float(best)))
    return rows


# -- statistics bridge ---------------------------------------------------------

_METRIC_DIRECTION = {"hv": "higher", "gd": "lower", "igd": "lower",
                     "scalarized_best": "higher"}


def build_score_table(rows, metric: str, mode: str = "per-run") -> stats.ScoreTable:
    """Final-generation scores arranged for the Friedman test.

    ``rows`` is either one experiment's metric rows or a mapping from problem
    name to rows, pooling several experiments with a shared algorithm roster.
    ``per-run`` makes every (problem, run) cell a dataset; ``problem-mean``
    collapses each problem's runs into one averaged dataset (which needs at
    least two problems to satisfy the n >= 2 floor of the test).
    """
    # Imported here so that importing the package does not load scipy.stats.
    from . import stats

    if metric not in _METRIC_DIRECTION:
        raise ValueError(f"unknown metric {metric!r}")
    if mode not in ("per-run", "problem-mean"):
        raise ValueError("mode must be 'per-run' or 'problem-mean'")
    by_problem = rows if isinstance(rows, dict) else {"problem": rows}
    algorithms = None
    datasets: list[str] = []
    score_rows: list[list[float]] = []
    for problem, problem_rows in by_problem.items():
        names = list(dict.fromkeys(row.algorithm for row in problem_rows))
        if algorithms is None:
            algorithms = names
        elif set(names) != set(algorithms):
            raise ValueError("all problems must share the same algorithm roster")
        last_gen = {}
        for row in problem_rows:
            key = (row.algorithm, row.run)
            if key not in last_gen or row.generation > last_gen[key].generation:
                last_gen[key] = row
        runs = sorted({run for (_, run) in last_gen})
        missing = [f"{algorithm} run {run}" for run in runs for algorithm in algorithms
                   if (algorithm, run) not in last_gen]
        if missing:
            where = f" of problem {problem!r}" if isinstance(rows, dict) else ""
            raise ValueError(f"no metric rows{where} for {', '.join(missing)} "
                             "(missing or aborted runs)")
        block = np.array([[getattr(last_gen[(algorithm, run)], metric)
                           for algorithm in algorithms] for run in runs])
        if mode == "problem-mean":
            score_rows.append(block.mean(axis=0).tolist())
            datasets.append(problem)
        else:
            score_rows.extend(block.tolist())
            datasets.extend(f"{problem}/run{run}" for run in runs)
    return stats.ScoreTable(algorithms=tuple(algorithms), datasets=tuple(datasets),
                            scores=np.array(score_rows), better=_METRIC_DIRECTION[metric])


def write_cd_csv(cd_results: dict[str, stats.CDResult], path) -> None:
    lines = ["metric,algorithm,mean_rank,group_ids"]
    for metric, result in cd_results.items():
        memberships = {name: [] for name in result.algorithms}
        for gid, group in enumerate(result.groups):
            for name in group:
                memberships[name].append(str(gid))
        for name, rank in zip(result.algorithms, result.mean_ranks):
            lines.append(f"{metric},{name},{float(rank)!r},{';'.join(memberships[name])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curves_csv(rows: list[MetricRow], path) -> None:
    """Plot-ready per-generation mean/std curves for every metric."""
    lines = ["metric,algorithm,generation,mean,std"]
    algorithms = list(dict.fromkeys(row.algorithm for row in rows))
    generations = sorted({row.generation for row in rows})
    for metric in ("hv", "gd", "igd", "scalarized_best"):
        for algorithm in algorithms:
            for generation in generations:
                values = np.array([getattr(r, metric) for r in rows
                                   if r.algorithm == algorithm and r.generation == generation])
                if values.size == 0:
                    continue
                lines.append(f"{metric},{algorithm},{generation},"
                             f"{float(values.mean())!r},{float(values.std())!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def audit_budget(records: list[RunRecord]) -> dict[str, list[int]]:
    """Evaluation counters per algorithm, for budget-parity checks."""
    counters: dict[str, list[int]] = {}
    for record in records:
        counters.setdefault(record.algorithm, []).append(record.eval_count)
    return counters
