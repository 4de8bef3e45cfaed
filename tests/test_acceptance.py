"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any assertion failure marks the criterion red.
"""

import time

import numpy as np

from evopareto import harness, indicators, pareto, stats
from evopareto.config import ExperimentConfig
from evopareto.environments import make_env
from evopareto.rng import RandomStream


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


# Loop-based oracles, deliberately separate from the library implementations.

def oracle_dominates(u, v):
    return all(a >= b for a, b in zip(u, v)) and any(a > b for a, b in zip(u, v))


def oracle_filter_mask(points):
    return [not any(oracle_dominates(q, p) for q in points) for p in points]


def oracle_peel_ranks(points):
    ranks = [-1] * len(points)
    remaining = set(range(len(points)))
    rank = 0
    while remaining:
        front = [i for i in remaining
                 if not any(oracle_dominates(points[j], points[i]) for j in remaining)]
        for i in front:
            ranks[i] = rank
        remaining -= set(front)
        rank += 1
    return ranks


def test_criterion_1_oracle_equivalence_and_runtime():
    stream = RandomStream(1001)
    cases = []
    for _ in range(200):
        n = 2 + stream.below(49)  # 2..50
        k = 2 + stream.below(2)   # 2 or 3
        cases.append(stream.uniform_vector(n * k).reshape(n, k))

    elapsed = 0.0
    for points in cases:
        start = time.perf_counter()
        mask = pareto.nondominated_mask(points)
        ranks = pareto.fast_nondominated_sort(points)
        elapsed += time.perf_counter() - start
        rows = points.tolist()
        assert mask.tolist() == oracle_filter_mask(rows)
        assert ranks.tolist() == oracle_peel_ranks(rows)
    assert elapsed < 1.0
    report(1, f"200 point sets match both oracles exactly in {elapsed:.3f}s")


def test_criterion_2_hypervolume_cross_validation():
    worked = indicators.hypervolume_exact([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0))
    assert abs(worked - 0.75) <= 1e-12

    stream = RandomStream(2002)
    worst_gap = 0.0
    for trial in range(20):
        k = 2 + trial % 2
        n = 2 + stream.below(7)  # up to 8 points
        points = stream.uniform_vector(n * k).reshape(n, k)
        ref = np.full(k, 1.0)
        exact = indicators.hypervolume_exact(points, ref)
        mc = indicators.hypervolume_mc(points, ref, 100_000, seed=5000 + trial)
        worst_gap = max(worst_gap, abs(exact - mc))
    assert worst_gap < 0.01
    report(2, f"worked example exact to 1e-12; max |exact - MC| = {worst_gap:.5f} over 20 fronts")


def test_criterion_3_analytic_front_quantities():
    front = make_env("TradeoffBandit").analytic_front(1001)
    hv = indicators.normalized_hypervolume(front, front.max(axis=0), front.min(axis=0))
    assert abs(hv - 0.5) < 1e-3
    assert indicators.gd(front, front) <= 1e-12
    assert indicators.igd(front, front) <= 1e-12
    report(3, f"analytic front HV = {hv:.6f} (within 1e-3 of 0.5), self GD/IGD = 0")


def test_criterion_4_end_to_end_solve():
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("NSGA2",),
                              pop_size=50, generations=25, n_episodes=1,
                              n_runs=10, master_seed=7)
    records = harness.run_experiment(config, jobs=4)
    front = make_env("TradeoffBandit").analytic_front(1001)
    ideal, nadir = front.max(axis=0), front.min(axis=0)
    successes = 0
    for record in records:
        assert record.wall_time < 60.0
        final = record.returns[-1]
        igd = indicators.igd(final, front)
        hv = indicators.normalized_hypervolume(final, ideal, nadir)
        if igd < 0.05 and hv >= 0.45:
            successes += 1
    assert successes >= 9
    report(4, f"{successes}/10 seeds reach IGD < 0.05 and HV >= 0.45 within time budget")


def test_criterion_5_moea_beats_scalarized_soea():
    config = ExperimentConfig(environment="NoisyPointWalker",
                              algorithms=("NSGA2", "SPEA2", "GA", "DE"),
                              pop_size=50, generations=25, n_episodes=5,
                              n_runs=10, master_seed=20240501)
    records = harness.run_experiment(config, jobs=4)
    rows, _, _ = harness.compute_metrics(records)
    final_hv = {}
    for row in rows:
        if row.generation == config.generations - 1:
            final_hv.setdefault(row.algorithm, []).append(row.hv)
    medians = {name: float(np.median(values)) for name, values in final_hv.items()}
    for moea in ("NSGA2", "SPEA2"):
        for soea in ("GA", "DE"):
            assert medians[moea] > medians[soea]
    report(5, "median final HV " + ", ".join(
        f"{name}={medians[name]:.3f}" for name in ("NSGA2", "SPEA2", "GA", "DE")))


def test_criterion_6_scalarized_monotonicity():
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("GA", "PSO"),
                              pop_size=50, generations=25, n_episodes=1,
                              n_runs=10, master_seed=8)
    rows, _, _ = harness.compute_metrics(harness.run_experiment(config, jobs=4))
    series = {}
    for row in rows:
        series.setdefault((row.algorithm, row.run), []).append(
            (row.generation, row.scalarized_best))
    for (algorithm, run), points in series.items():
        values = [v for _, v in sorted(points)]
        assert all(b >= a for a, b in zip(values, values[1:])), \
            f"{algorithm} run {run} decreased"
    report(6, f"best scalarized value non-decreasing in all {len(series)} runs")


def test_criterion_7_statistics():
    table = stats.ScoreTable(
        algorithms=("A", "B", "C"),
        datasets=("d0", "d1", "d2"),
        scores=np.array([[3.0, 2.0, 1.0], [30.0, 20.0, 10.0], [0.3, 0.2, 0.1]]),
        better="higher",
    )
    statistic, _ = stats.friedman(table)
    assert statistic == 6.0
    cd = stats.nemenyi_cd(8, 10, 0.05)
    assert abs(cd - 3.320) <= 1e-3
    report(7, f"consensus fixture chi-square = {statistic}, CD(8, 10) = {cd:.4f}")


def test_criterion_8_jobs_determinism(tmp_path):
    from evopareto import cli

    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "environment = TradeoffBandit\n"
        "algorithms = NSGA2, GA\n"
        "pop_size = 8\n"
        "generations = 4\n"
        "n_episodes = 1\n"
        "n_runs = 2\n"
        "master_seed = 99\n"
    )
    outputs = {}
    for jobs in (1, 8):
        out_dir = tmp_path / f"jobs{jobs}"
        assert cli.main(["run", str(config_path), "--out", str(out_dir),
                         "--jobs", str(jobs)]) == 0
        assert cli.main(["metrics", str(out_dir)]) == 0
        outputs[jobs] = (
            (out_dir / "metrics.csv").read_bytes(),
            (out_dir / "fronts.csv").read_bytes(),
        )
    assert outputs[1] == outputs[8]
    report(8, "metrics.csv and fronts.csv byte-identical for --jobs 1 and --jobs 8")


def test_criterion_9_budget_parity():
    config = ExperimentConfig(
        environment="TradeoffBandit",
        algorithms=("GA", "DE", "PSO", "NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2"),
        pop_size=8, generations=3, n_episodes=1, n_runs=1, master_seed=13)
    records = harness.run_experiment(config)
    expected = config.pop_size * config.generations
    for record in records:
        assert record.eval_count == expected, record.algorithm
    report(9, f"all 8 algorithms consumed exactly {expected} evaluations")
