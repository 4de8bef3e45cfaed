"""Experiment orchestration: seeded runs, persistence, metrics, CSV export.

Seeds flow strictly downward: the run seed derives from
``(master_seed, algorithm, run)``, each generation's evaluation streams from
``(run_seed, "eval", generation, individual)``, and the optimizer's own
variation stream from ``(run_seed, "optimizer")``.

The (algorithm, run) jobs of an experiment step in lockstep: per generation,
batched :func:`evaluate` calls of at most ``EVAL_CHUNK_ROWS`` episode rows
hold the offspring of every live run, and each run is told its own rows.
``--jobs N`` deals the jobs round-robin into N such groups in a process pool.
An episode's draws come from its own stream and a batch computes each row as
it would alone, so nothing depends on wall-clock, grouping, chunking or
``--jobs``: a config and seed determine every output byte.

Every algorithm consumes exactly ``pop_size * generations`` evaluations; the
counter is recorded per run so budget parity is auditable after the fact.

A run record keeps what the analysis reads: every generation's returns
and the genomes of the final generation.  Scalarized values are derived from
the returns where they are read, and never stored.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import indicators, rng, stats
from .algorithms import make_optimizer
from .config import ExperimentConfig, parse_config, serialize_config
from .environments import make_env
# Each call evaluates a chunk of a generation of every run in a lockstep group;
# benchmarks/tracer.py times it through this module-level name.
from .evaluation import Population, evaluate_population as evaluate, scalarize
from .policy import PolicySpec, genome_length
from .rng import RandomStream, derive_seed, derive_seeds

METRICS_HEADER = "algorithm,run,generation,hv,gd,igd,scalarized_best"

# Most episode rows per evaluate call: a lockstep group's generation is
# evaluated in chunks of whole genomes, so memory stays bounded however many
# runs step together.  Rows are independent, so chunking changes no byte.
EVAL_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class RunRecord:
    algorithm: str
    run_index: int
    seed: int
    status: str  # "ok" or "aborted"
    eval_count: int
    wall_time: float  # elapsed time of the lockstep group the run stepped in
    rng_scheme: str
    config: ExperimentConfig
    # The returns of the optimizer's population after each tell, and its
    # genomes after the last one (None if the run aborted in generation 0).
    returns: list[np.ndarray]
    genomes: np.ndarray | None


@dataclass(frozen=True)
class MetricRow:
    algorithm: str
    run: int
    generation: int
    hv: float
    gd: float
    igd: float
    scalarized_best: float


def execute_runs(config: ExperimentConfig, tasks) -> list[RunRecord]:
    """One record per seeded (algorithm, run) task, the runs stepped in lockstep.

    Each generation, every live run asks, all their genomes go through
    :func:`evaluate` in chunks of at most ``EVAL_CHUNK_ROWS`` episode rows,
    and each run is told its own rows.  A run whose rows hold non-finite
    returns is marked aborted and leaves later batches.
    """
    env = make_env(config.environment, config.sigma)
    spec = PolicySpec(obs_dim=env.spec.obs_dim, hidden=config.hidden_widths(),
                      action_dim=env.spec.action_dim)
    n_genes = genome_length(spec)
    seeds = [derive_seed(config.master_seed, algorithm, run) for algorithm, run in tasks]
    optimizers = [make_optimizer(config.algorithm_config(algorithm, env.spec.k), n_genes,
                                 RandomStream(derive_seed(seed, "optimizer")))
                  for (algorithm, _), seed in zip(tasks, seeds)]
    histories: list[list[np.ndarray]] = [[] for _ in tasks]
    eval_counts = [0] * len(tasks)
    statuses = ["ok"] * len(tasks)
    live = list(range(len(tasks)))
    chunk = max(1, EVAL_CHUNK_ROWS // config.n_episodes)  # whole genomes per call
    started = time.perf_counter()
    for generation in range(config.generations):
        if not live:
            break
        batches = [optimizers[j].ask() for j in live]
        genomes = np.concatenate(batches)
        seed_bases = derive_seeds([seeds[j] for j in live], "eval", generation,
                                  count=config.pop_size).ravel()
        returns = np.concatenate([
            evaluate(env, spec, genomes[i:i + chunk], config.n_episodes, seed_bases[i:i + chunk])
            for i in range(0, len(genomes), chunk)])
        for j, batch, own in zip(live, batches, np.split(returns, len(live))):
            eval_counts[j] += len(own)
            if not np.all(np.isfinite(own)):
                statuses[j] = "aborted"
                continue
            optimizers[j].tell(Population(batch, own))
            histories[j].append(optimizers[j].population.returns)
        live = [j for j in live if statuses[j] == "ok"]
    wall_time = time.perf_counter() - started
    return [RunRecord(algorithm=algorithm, run_index=run, seed=seed, status=status,
                      eval_count=eval_count, wall_time=wall_time, rng_scheme=rng.SCHEME,
                      config=config, returns=history,
                      genomes=optimizer.population.genomes if history else None)
            for (algorithm, run), seed, status, eval_count, history, optimizer
            in zip(tasks, seeds, statuses, eval_counts, histories, optimizers)]


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """All (algorithm, run) jobs of an experiment, in deterministic order.

    With ``jobs > 1`` the jobs are dealt round-robin into ``jobs`` lockstep
    groups that run in a process pool.  A run whose evaluation produces
    non-finite values is marked aborted and the remaining jobs continue.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(algorithm, run) for algorithm in config.algorithms
             for run in range(config.n_runs)]
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return execute_runs(config, tasks)
    records: list[RunRecord] = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        groups = pool.map(partial(execute_runs, config), [tasks[i::jobs] for i in range(jobs)])
        for i, group in enumerate(groups):
            records[i::jobs] = group
    return records


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
                last = len(record.returns) - 1
                for g, returns in enumerate(record.returns):
                    line = {
                        "generation": g,
                        "genomes": record.genomes.tolist() if g == last else [],
                        "returns": returns.tolist(),
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
    cover every (algorithm, run) of it, each completed run within budget."""
    directory = Path(directory)
    paths = sorted((directory / "records").glob("*.jsonl"))
    if not paths:
        raise FileNotFoundError(f"no run records under {directory}/records")
    records = []
    for path in paths:
        record = _read_record(path)
        budget = (record.config.pop_size * record.config.generations, record.config.generations)
        if record.status == "ok" and (record.eval_count, len(record.returns)) != budget:
            raise ValueError(f"{path}: completed run holds {record.eval_count} evaluations in "
                             f"{len(record.returns)} generations, not {budget[0]} in {budget[1]}")
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
    """One record file; ``ValueError`` names the file and the line that does not parse.
    Older records' ``scalars`` and empty genome rows are not read."""
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
                returns=[],
                genomes=None,
            )
            for lineno, line in enumerate(handle, start=2):
                payload = json.loads(line)
                record.returns.append(np.array(payload["returns"]))
                genomes = payload["genomes"]
            if record.returns:
                record = replace(record, genomes=np.array(genomes))
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
    usable = [r for r in records if r.status == "ok"]
    if not usable:
        raise ValueError("no completed runs to compute metrics from")
    reference = indicators.build_reference_front([r.returns[-1] for r in usable])
    algorithm_order = list(dict.fromkeys(r.algorithm for r in usable))
    algorithm_fronts = {
        algorithm: indicators.build_reference_front(
            [r.returns[-1] for r in usable if r.algorithm == algorithm])
        for algorithm in algorithm_order
    }
    rows: list[MetricRow] = []
    for record in usable:
        hv, gd, igd = indicators.indicator_series(record.returns, reference)
        for generation, returns in enumerate(record.returns):
            rows.append(MetricRow(
                algorithm=record.algorithm,
                run=record.run_index,
                generation=generation,
                hv=float(hv[generation]),
                gd=float(gd[generation]),
                igd=float(igd[generation]),
                scalarized_best=float(scalarize(returns).max()),
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


def build_score_table(rows: list[MetricRow], metric: str) -> stats.ScoreTable:
    """One experiment's final-generation scores arranged for the Friedman test.

    Each run is a dataset: its row holds every algorithm's ``metric`` at that
    run's last generation, in the order the algorithms first appear in ``rows``.
    """
    if metric not in _METRIC_DIRECTION:
        raise ValueError(f"unknown metric {metric!r}")
    algorithms = list(dict.fromkeys(row.algorithm for row in rows))
    last_gen = {}
    for row in rows:
        key = (row.algorithm, row.run)
        if key not in last_gen or row.generation > last_gen[key].generation:
            last_gen[key] = row
    runs = sorted({run for (_, run) in last_gen})
    missing = [f"{algorithm} run {run}" for run in runs for algorithm in algorithms
               if (algorithm, run) not in last_gen]
    if missing:
        raise ValueError(f"no metric rows for {', '.join(missing)} (missing or aborted runs)")
    scores = [[getattr(last_gen[(algorithm, run)], metric) for algorithm in algorithms]
              for run in runs]
    return stats.ScoreTable(algorithms=tuple(algorithms),
                            datasets=tuple(f"run{run}" for run in runs),
                            scores=np.array(scores), better=_METRIC_DIRECTION[metric])


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

