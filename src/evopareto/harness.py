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

A results directory holds ``config.txt`` and, under ``records/``, the record of
each (algorithm, run) of that config; only this module reads and writes it.  A
record keeps each generation's returns and the final genomes, never scalars.
Its first line is a JSON header; each further line is one generation,
``{"generation", "genomes", "returns"}``, whose arrays are ASCII strings: the
base64 of their little-endian float64 bytes, ``(pop_size, k)`` for returns
and ``(pop_size, n_genes)`` for the genomes, which only the last line holds
(``""`` before it).  One line of numpy decodes either::

    np.frombuffer(base64.b64decode(line["returns"]), "<f8").reshape(pop_size, k)

Records written before that hold nested JSON lists instead, and still load.
"""

from __future__ import annotations

import base64
import json
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import indicators, rng, stats
from .algorithms import make_optimizer
from .config import ExperimentConfig, parse_config, serialize_config
from .environments import Environment, make_env
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


def _environment_and_policy(config: ExperimentConfig) -> tuple[Environment, PolicySpec]:
    """The config's environment and the policy whose weights a genome holds."""
    env = make_env(config.environment, config.sigma)
    return env, PolicySpec(obs_dim=env.spec.obs_dim, hidden=config.hidden_widths(),
                           action_dim=env.spec.action_dim)


def execute_runs(config: ExperimentConfig, tasks) -> list[RunRecord]:
    """One record per seeded (algorithm, run) task, the runs stepped in lockstep.

    Each generation, every live run asks, all their genomes go through
    :func:`evaluate` in chunks of at most ``EVAL_CHUNK_ROWS`` episode rows,
    and each run is told its own rows.  A run whose rows hold non-finite
    returns is marked aborted and leaves later batches.
    """
    env, spec = _environment_and_policy(config)
    n_genes = genome_length(spec)
    seeds = [derive_seed(config.master_seed, algorithm, run) for algorithm, run in tasks]
    optimizers = [make_optimizer(config.algorithm_config(algorithm), n_genes,
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


class PoolError(RuntimeError):
    """The process pool of a ``jobs > 1`` experiment could not start or lost a worker."""


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """All (algorithm, run) jobs of an experiment, in deterministic order.

    With ``jobs > 1`` the jobs are dealt round-robin into ``jobs`` lockstep
    groups that run in a process pool; :class:`PoolError` says that the pool
    failed (``jobs=1`` needs none).  A run whose evaluation produces
    non-finite values is marked aborted and the remaining jobs continue.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = list(product(config.algorithms, range(config.n_runs)))
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return execute_runs(config, tasks)
    # Imported here: the pool's modules cost import time that jobs=1 never uses.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    records: list[RunRecord] = [None] * len(tasks)
    try:
        # A host without working semaphores fails in the constructor, one that
        # cannot start processes when map submits, a killed worker when read.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            groups = pool.map(partial(execute_runs, config), [tasks[i::jobs] for i in range(jobs)])
            for i, group in enumerate(groups):
                records[i::jobs] = group
    except (ImportError, NotImplementedError, OSError, BrokenProcessPool) as exc:
        raise PoolError(f"the pool of {jobs} worker processes failed "
                        f"({type(exc).__name__}: {exc})") from exc
    return records


# -- persistence --------------------------------------------------------------

def record_path(directory: Path, algorithm: str, run_index: int) -> Path:
    return Path(directory) / "records" / f"{algorithm}_run{run_index:03d}.jsonl"


def check_out_dir(out_dir: Path, config: ExperimentConfig) -> None:
    """Refuse a results directory that cannot be made or that holds another
    config's results; the same config may run into it again."""
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"cannot write results to {out_dir}: {existing} is not a directory")
    echoed = out_dir / "config.txt"
    records = out_dir / "records"
    if echoed.exists():
        if echoed.read_text(encoding="utf-8") != serialize_config(config):
            raise ValueError(f"{out_dir} holds the results of a different config "
                             f"(see {echoed}); use a fresh --out")
    elif records.is_dir() and any(records.iterdir()):
        raise ValueError(f"{records} holds run records but {out_dir} has no config.txt; "
                         f"use a fresh --out")


def save_records(records: list[RunRecord], directory) -> list[Path]:
    """Write ``config.txt``, then each record to a temporary name renamed into
    place, so a failed write leaves no partial ``.jsonl`` and keeps any earlier record."""
    config = records[0].config
    if any(record.config != config for record in records):
        raise ValueError("records of different configs cannot share a results directory")
    text = serialize_config(config)
    directory = Path(directory)
    (directory / "records").mkdir(parents=True, exist_ok=True)
    (directory / "config.txt").write_text(text, encoding="utf-8")
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
                    "config": text,
                }
                handle.write(json.dumps(header) + "\n")
                last = len(record.returns) - 1
                for g, returns in enumerate(record.returns):
                    line = {
                        "generation": g,
                        "genomes": _encode(record.genomes) if g == last else "",
                        "returns": _encode(returns),
                    }
                    handle.write(json.dumps(line) + "\n")
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        paths.append(path)
    return paths


def _encode(array) -> str:
    """The base64 of ``array``'s little-endian float64 bytes."""
    return base64.b64encode(np.asarray(array).astype("<f8").tobytes()).decode("ascii")


def _decode(payload: dict, key: str, shape) -> np.ndarray:
    """The array of ``shape`` a record line holds under ``key``; records written
    before arrays were strings hold a nested list."""
    value = payload[key]
    if isinstance(value, list):
        array = np.array(value)
    else:
        array = np.frombuffer(base64.b64decode(value, validate=True), "<f8").reshape(shape)
    if array.shape != shape:
        raise ValueError(f"{key} of shape {array.shape}, not {shape}")
    return array


def load_records(directory) -> list[RunRecord]:
    """The record of each (algorithm, run) of ``directory/config.txt``, in config
    order, each completed run within budget; other files under ``records/`` are not read."""
    directory = Path(directory)
    config_path = directory / "config.txt"
    text = config_path.read_text(encoding="utf-8")
    try:
        config = parse_config(text)
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    env, spec = _environment_and_policy(config)
    shapes = {"returns": (config.pop_size, env.spec.k),
              "genomes": (config.pop_size, genome_length(spec))}
    budget = (config.pop_size * config.generations, config.generations)
    records = []
    for algorithm, run in product(config.algorithms, range(config.n_runs)):
        path = record_path(directory, algorithm, run)
        if not path.is_file():
            raise ValueError(f"run records under {directory}/records are incomplete: "
                             f"{path.name} is missing")
        record = _read_record(path, config, text, shapes)
        if (record.algorithm, record.run_index) != (algorithm, run):
            raise ValueError(f"{path} holds {record.algorithm} run {record.run_index}")
        if record.status == "ok" and (record.eval_count, len(record.returns)) != budget:
            raise ValueError(f"{path}: completed run holds {record.eval_count} evaluations in "
                             f"{len(record.returns)} generations, not {budget[0]} in {budget[1]}")
        records.append(record)
    return records


def _read_record(path: Path, config: ExperimentConfig, text: str, shapes) -> RunRecord:
    """One record file of the config ``text``, its arrays of ``shapes[key]``; ``ValueError``
    names the file and the line that does not parse.  Older records' ``scalars`` and empty
    genome rows are not read, nor is any line's ``generation``, which its position gives."""
    lineno = 1
    with open(path, encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
            own_config = header["config"] == text
            record = RunRecord(
                algorithm=header["algorithm"],
                run_index=header["run"],
                seed=header["seed"],
                status=header["status"],
                eval_count=header["eval_count"],
                wall_time=header["wall_time"],
                rng_scheme=header["rng"],
                config=config,
                returns=[],
                genomes=None,
            )
            for lineno, line in enumerate(handle if own_config else (), start=2):
                payload = json.loads(line)
                record.returns.append(_decode(payload, "returns", shapes["returns"]))
            if record.returns:
                record = replace(record, genomes=_decode(payload, "genomes", shapes["genomes"]))
        except KeyError as exc:
            raise ValueError(f"{path} line {lineno}: run record lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} line {lineno}: unreadable run record: {exc}") from None
    if not own_config:
        raise ValueError(f"{path} was run with another config than {path.parents[1]}/config.txt "
                         f"(clear stale records or use a fresh --out)")
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
        best = scalarize(np.stack(record.returns)).max(axis=1)
        for generation in range(len(record.returns)):
            rows.append(MetricRow(
                algorithm=record.algorithm,
                run=record.run_index,
                generation=generation,
                hv=float(hv[generation]),
                gd=float(gd[generation]),
                igd=float(igd[generation]),
                scalarized_best=float(best[generation]),
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
    # Python floats from ``tolist``: their repr is that of the float64 values.
    for point in reference.tolist():
        lines.append("reference,," + ",".join(map(repr, point)))
    for algorithm, front in algorithm_fronts.items():
        for point in front.tolist():
            lines.append(f"algorithm,{algorithm}," + ",".join(map(repr, point)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path) -> list[MetricRow]:
    """The rows of a metrics CSV.  ``ValueError`` names the file and the first
    line that does not parse; a file whose last line has no newline is refused
    as truncated, since :func:`write_metrics_csv` ends every line with one."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path} does not look like a metrics CSV")
    if not text.endswith("\n"):
        raise ValueError(f"{path} line {len(lines)}: truncated metrics CSV "
                         f"(its last line has no newline)")
    rows = []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            algorithm, run, generation, hv, gd_, igd_, best = line.split(",")
            rows.append(MetricRow(algorithm, int(run), int(generation),
                                  float(hv), float(gd_), float(igd_), float(best)))
    except ValueError as exc:
        raise ValueError(f"{path} line {lineno}: unreadable metrics row: {exc}") from None
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
    return stats.ScoreTable(algorithms=tuple(algorithms), scores=np.array(scores),
                            better=_METRIC_DIRECTION[metric])


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
    groups: dict[tuple[str, int], list[MetricRow]] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.generation), []).append(row)
    algorithms = list(dict.fromkeys(row.algorithm for row in rows))
    keys = sorted(groups, key=lambda key: (algorithms.index(key[0]), key[1]))
    lines = ["metric,algorithm,generation,mean,std"]
    for metric in ("hv", "gd", "igd", "scalarized_best"):
        for algorithm, generation in keys:
            values = np.array([getattr(r, metric) for r in groups[algorithm, generation]])
            lines.append(f"{metric},{algorithm},{generation},"
                         f"{float(values.mean())!r},{float(values.std())!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

