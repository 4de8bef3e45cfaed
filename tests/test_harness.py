import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from evopareto import cli, harness
from evopareto.algorithms import ALGORITHM_NAMES, make_optimizer
from evopareto.config import ExperimentConfig, parse_config
from evopareto.environments import make_env
from evopareto.evaluation import Population, evaluate_population
from evopareto.policy import PolicySpec, genome_length
from evopareto.rng import RandomStream, derive_seed, derive_seeds

SMALL = ExperimentConfig(
    environment="TradeoffBandit",
    algorithms=("NSGA2", "GA"),
    pop_size=8,
    generations=4,
    n_episodes=1,
    n_runs=2,
    master_seed=5,
)

# configs/bandit_smoke.cfg through run, metrics and stats: the analysis bytes.
BANDIT_SMOKE_DIGESTS = {
    "metrics.csv": "79b52f7292a3a1fd1a5d7ff1786cc479aa14c7fff1021a81448a9e8f20740b3a",
    "fronts.csv": "a52ccbbbddf663cd62b0f930eba820a12fe3a4059325d2d92297e9ceaeacdffe",
    "cd.csv": "4da6dfeb6133d229618dbe2705b39e3fb2c88c9f8318cde9266a99d8cb5d77f0",
}


def fabricate_record(algorithm, run, returns_per_gen, config=SMALL):
    returns = [np.asarray(r, dtype=np.float64) for r in returns_per_gen]
    return harness.RunRecord(
        algorithm=algorithm, run_index=run, seed=1, status="ok", eval_count=0,
        wall_time=0.0, rng_scheme="test", config=config, returns=returns,
        genomes=np.zeros((len(returns[-1]), 3)),
    )


def test_expected_record_count_and_budget():
    records = harness.run_experiment(SMALL)
    assert len(records) == 4  # two algorithms x two runs
    for record in records:
        assert record.status == "ok"
        assert record.eval_count == SMALL.pop_size * SMALL.generations
        assert len(record.returns) == SMALL.generations
        for returns in record.returns:
            assert returns.shape == (SMALL.pop_size, 2)
        assert record.genomes.shape[0] == SMALL.pop_size


def test_runs_are_reproducible_and_seed_sensitive():
    first = harness.run_experiment(SMALL)
    second = harness.run_experiment(SMALL)
    for a, b in zip(first, second):
        assert_records_identical(a, b)
    shifted = harness.run_experiment(SMALL.with_seed(6))
    assert any(not np.array_equal(a.genomes, b.genomes) for a, b in zip(first, shifted))


def test_parallel_jobs_match_sequential(tmp_path):
    sequential = harness.run_experiment(SMALL, jobs=1)
    parallel = harness.run_experiment(SMALL, jobs=4)
    for a, b in zip(sequential, parallel):
        assert a.genomes.shape[0] == SMALL.pop_size and a.genomes.shape[1] > 0
        assert_records_identical(a, b)


def test_records_round_trip_through_disk(tmp_path):
    records = harness.run_experiment(SMALL)
    harness.save_records(records, tmp_path)
    loaded = harness.load_records(tmp_path)
    assert [r.algorithm for r in loaded] == [r.algorithm for r in records]
    for a, b in zip(records, loaded):
        assert a.config == b.config
        assert len(b.returns) == SMALL.generations == 4
        assert_records_identical(a, b)


def test_record_lines_hold_returns_and_only_the_last_holds_genomes(tmp_path):
    record = harness.run_experiment(SMALL)[0]
    path, = harness.save_records([record], tmp_path)
    header, *lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["status"] == "ok"
    assert [sorted(line) for line in lines] == [["generation", "genomes", "returns"]] * 4
    assert [line["genomes"] for line in lines[:-1]] == [[]] * 3
    assert lines[-1]["genomes"] == record.genomes.tolist()
    assert [line["returns"] for line in lines] == [r.tolist() for r in record.returns]


def test_failed_record_write_keeps_the_earlier_record(tmp_path):
    good = fabricate_record("GA", 0, [[(0.2, 0.8)], [(0.3, 0.7)]])
    path, = harness.save_records([good], tmp_path)
    earlier = path.read_bytes()
    # The second generation does not serialize: the write fails after the
    # header and the first generation line.
    unwritable = np.array([[{0.5}, 0.5]], dtype=object)
    bad = harness.RunRecord(algorithm="GA", run_index=0, seed=2, status="ok",
                            eval_count=2, wall_time=0.0, rng_scheme="test", config=SMALL,
                            returns=[good.returns[0], unwritable], genomes=good.genomes)
    with pytest.raises(TypeError):
        harness.save_records([bad], tmp_path)
    assert path.read_bytes() == earlier
    assert [p.name for p in (tmp_path / "records").iterdir()] == [path.name]


def poison_rows(monkeypatch, call, rows):
    """Make the ``call``-th evaluate call (from 1) return NaN returns at ``rows``."""
    real_evaluate = harness.evaluate
    calls = {"n": 0}

    def sometimes_nan(env, spec, genomes, n_episodes, seed_bases):
        returns = real_evaluate(env, spec, genomes, n_episodes, seed_bases)
        calls["n"] += 1
        if calls["n"] == call:
            returns[rows] = np.nan
        return returns

    monkeypatch.setattr(harness, "evaluate", sometimes_nan)


def test_non_finite_evaluation_aborts_run_but_not_experiment(monkeypatch):
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("GA", "DE"),
                              pop_size=4, generations=3, n_episodes=1, n_runs=1)
    # Both runs share each generation's call; poison only the first run's
    # rows of the first generation.
    poison_rows(monkeypatch, call=1, rows=slice(0, config.pop_size))
    records = harness.run_experiment(config)
    assert [r.status for r in records] == ["aborted", "ok"]
    assert records[0].returns == [] and records[0].genomes is None
    assert records[1].eval_count == 12


def test_run_aborting_mid_experiment_leaves_its_batch_mates_unchanged(monkeypatch):
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("GA", "NSGA2", "DE"),
                              pop_size=4, generations=4, n_episodes=1, n_runs=1)
    clean = harness.run_experiment(config)
    # Generation 2 of the NSGA2 run, the middle rows of the third call; later
    # calls hold only the GA and DE rows.
    poison_rows(monkeypatch, call=3, rows=slice(config.pop_size, 2 * config.pop_size))
    records = harness.run_experiment(config)
    assert [r.status for r in records] == ["ok", "aborted", "ok"]
    aborted = records[1]
    assert aborted.eval_count == 3 * config.pop_size
    assert len(aborted.returns) == 2 and aborted.genomes.shape[0] == config.pop_size
    for a, b in zip(aborted.returns, clean[1].returns):
        assert np.array_equal(a, b)
    for a, b in zip(records[::2], clean[::2]):
        assert len(a.returns) == config.generations
        assert_records_identical(a, b)


def one_job_at_a_time(config, algorithm, run_index):
    """Oracle: one (algorithm, run) job alone, one evaluate call per generation.

    Returns the run seed, evaluation count, status and the population after
    each tell.
    """
    env = make_env(config.environment, config.sigma)
    spec = PolicySpec(obs_dim=env.spec.obs_dim, hidden=config.hidden_widths(),
                      action_dim=env.spec.action_dim)
    run_seed = derive_seed(config.master_seed, algorithm, run_index)
    optimizer = make_optimizer(config.algorithm_config(algorithm, env.spec.k),
                               genome_length(spec),
                               RandomStream(derive_seed(run_seed, "optimizer")))
    generations = []
    eval_count = 0
    status = "ok"
    for generation in range(config.generations):
        genomes = optimizer.ask()
        returns = evaluate_population(env, spec, genomes, config.n_episodes,
                                      derive_seeds(run_seed, "eval", generation,
                                                   count=len(genomes)))
        eval_count += len(returns)
        if not np.all(np.isfinite(returns)):
            status = "aborted"
            break
        optimizer.tell(Population(genomes, returns))
        generations.append(optimizer.population)
    return run_seed, eval_count, status, generations


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_records_identical(a, b):
    assert (a.algorithm, a.run_index, a.seed, a.status, a.eval_count) == \
        (b.algorithm, b.run_index, b.seed, b.status, b.eval_count)
    assert len(a.returns) == len(b.returns)
    for ra, rb in zip(a.returns, b.returns):
        assert same_bits(ra, rb)
    assert (a.genomes is None and b.genomes is None) or same_bits(a.genomes, b.genomes)


LOCKSTEP_CASES = {
    "bandit_all": ExperimentConfig(environment="TradeoffBandit", algorithms=ALGORITHM_NAMES,
                                   pop_size=8, generations=3, n_episodes=1, n_runs=2,
                                   master_seed=11),
    "walker_3_episodes": ExperimentConfig(environment="NoisyPointWalker",
                                          algorithms=("NSGA2", "GA", "DE"), pop_size=8,
                                          generations=3, n_episodes=3, n_runs=2,
                                          master_seed=12),
    "hop_moeas": ExperimentConfig(environment="HopLander",
                                  algorithms=("NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2"),
                                  pop_size=8, generations=3, n_episodes=1, n_runs=2,
                                  master_seed=13),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_experiment_matches_one_job_at_a_time(case):
    config = LOCKSTEP_CASES[case]
    records = harness.run_experiment(config)
    assert [(r.algorithm, r.run_index) for r in records] == \
        [(a, run) for a in config.algorithms for run in range(config.n_runs)]
    for record in records:
        seed, eval_count, status, generations = one_job_at_a_time(
            config, record.algorithm, record.run_index)
        assert (record.seed, record.eval_count, record.status) == (seed, eval_count, status)
        assert status == "ok" and len(record.returns) == len(generations)
        for got, expected in zip(record.returns, generations):
            assert same_bits(got, expected.returns)
        assert same_bits(record.genomes, generations[-1].genomes)


def test_chunked_evaluation_matches_one_unsplit_call(monkeypatch):
    config = LOCKSTEP_CASES["walker_3_episodes"]  # 6 runs x 8 genomes x 3 episodes
    unsplit = harness.run_experiment(config)
    calls = []

    def counted(env, spec, genomes, n_episodes, seed_bases):
        calls.append(len(genomes) * n_episodes)
        return evaluate_population(env, spec, genomes, n_episodes, seed_bases)

    monkeypatch.setattr(harness, "evaluate", counted)
    monkeypatch.setattr(harness, "EVAL_CHUNK_ROWS", 7)  # two whole genomes per call
    chunked = harness.run_experiment(config)
    assert max(calls) == 6 and len(calls) == 24 * config.generations
    for a, b in zip(chunked, unsplit):
        assert_records_identical(a, b)


def test_uneven_lockstep_groups_match_one_group():
    config = ExperimentConfig(environment="NoisyPointWalker",
                              algorithms=("GA", "DE", "PSO", "NSGA2", "SPEA2"),
                              pop_size=6, generations=3, n_episodes=2, n_runs=1,
                              master_seed=14)
    one_group = harness.run_experiment(config, jobs=1)
    three_groups = harness.run_experiment(config, jobs=3)  # groups of 2, 2 and 1 runs
    assert len(one_group) == len(three_groups) == 5
    for a, b in zip(one_group, three_groups):
        assert_records_identical(a, b)


def test_compute_metrics_counts_and_reference_membership():
    records = harness.run_experiment(SMALL)
    rows, reference, fronts = harness.compute_metrics(records)
    assert len(rows) == 4 * SMALL.generations
    # Bandit rewards live on y1 + y2 = 1, so the reference front cannot
    # exceed that simplex.
    assert np.all(reference.sum(axis=1) <= 1.0 + 1e-9)
    assert set(fronts) == {"NSGA2", "GA"}
    for row in rows:
        assert 0.0 <= row.hv <= 1.0 + 1e-12


def test_per_algorithm_front_is_filtered_union_of_final_populations():
    from evopareto import pareto

    records = harness.run_experiment(SMALL)
    _, _, fronts = harness.compute_metrics(records)
    for algorithm in SMALL.algorithms:
        union = np.vstack([r.returns[-1] for r in records
                           if r.algorithm == algorithm])
        survivors = union[pareto.nondominated_mask(union)]
        expected = sorted(set(map(tuple, survivors)))
        assert sorted(map(tuple, fronts[algorithm])) == expected


def test_compute_metrics_single_point_reference_warns():
    point = [(0.5, 0.5), (0.5, 0.5)]
    record = fabricate_record("GA", 0, [point, point])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, reference, _ = harness.compute_metrics([record])
    assert reference.shape == (1, 2)
    assert any("degenerate" in str(w.message) for w in caught)
    assert np.isnan(rows[-1].hv)
    assert rows[-1].igd == 0.0


def test_compute_metrics_skips_aborted_runs():
    good = fabricate_record("GA", 0, [[(0.2, 0.8), (0.8, 0.2)]])
    bad = harness.RunRecord(algorithm="DE", run_index=0, seed=2, status="aborted",
                            eval_count=4, wall_time=0.0, rng_scheme="test",
                            config=SMALL, returns=[], genomes=None)
    rows, reference, fronts = harness.compute_metrics([good, bad])
    assert {row.algorithm for row in rows} == {"GA"}
    assert set(fronts) == {"GA"}
    with pytest.raises(ValueError):
        harness.compute_metrics([bad])


def test_metrics_csv_schema_and_round_trip(tmp_path):
    records = harness.run_experiment(SMALL)
    rows, reference, fronts = harness.compute_metrics(records)
    path = tmp_path / "metrics.csv"
    harness.write_metrics_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "algorithm,run,generation,hv,gd,igd,scalarized_best"
    assert len(text) == 1 + len(rows)
    loaded = harness.read_metrics_csv(path)
    assert loaded == rows


def test_fronts_csv_schema(tmp_path):
    records = harness.run_experiment(SMALL)
    _, reference, fronts = harness.compute_metrics(records)
    path = tmp_path / "fronts.csv"
    harness.write_fronts_csv(reference, fronts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scope,algorithm,f1,f2"
    scopes = {line.split(",")[0] for line in lines[1:]}
    assert scopes == {"reference", "algorithm"}
    reference_rows = [l for l in lines[1:] if l.startswith("reference,")]
    assert len(reference_rows) == reference.shape[0]


def test_export_is_byte_stable(tmp_path):
    records = harness.run_experiment(SMALL)
    rows, reference, fronts = harness.compute_metrics(records)
    first = tmp_path / "a"
    second = tmp_path / "b"
    for directory in (first, second):
        directory.mkdir()
        harness.write_metrics_csv(rows, directory / "metrics.csv")
        harness.write_fronts_csv(reference, fronts, directory / "fronts.csv")
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
    assert (first / "fronts.csv").read_bytes() == (second / "fronts.csv").read_bytes()


def test_build_score_table_pools_final_generations_per_run():
    rows = []
    for algorithm, base in (("GA", 0.1), ("NSGA2", 0.5), ("SPEA2", 0.3)):
        for run in range(4):
            rows.append(harness.MetricRow(algorithm, run, 0, 0.0, 0.0, 0.0, 0.0))
            rows.append(harness.MetricRow(algorithm, run, 1, base + 0.01 * run,
                                          1.0 - base, 1.0 - base, base))

    table = harness.build_score_table(rows, "hv")
    assert table.scores.shape == (4, 3)
    assert table.better == "higher"
    assert table.algorithms == ("GA", "NSGA2", "SPEA2")
    # Only the final generation feeds the table.
    assert table.scores[0].tolist() == [0.1, 0.5, 0.3]
    assert harness.build_score_table(rows, "igd").better == "lower"
    with pytest.raises(ValueError):
        harness.build_score_table(rows, "speed")


def test_cd_and_curves_csv(tmp_path):
    from evopareto.stats import friedman_nemenyi

    rows = []
    for j, algorithm in enumerate(("GA", "NSGA2", "SPEA2")):
        for run in range(5):
            rows.append(harness.MetricRow(algorithm, run, 0,
                                          0.1 * j + 0.001 * run, 1.0, 1.0, 0.0))
    table = harness.build_score_table(rows, "hv")
    result = friedman_nemenyi(table)
    cd_path = tmp_path / "cd.csv"
    harness.write_cd_csv({"hv": result}, cd_path)
    lines = cd_path.read_text().splitlines()
    assert lines[0] == "metric,algorithm,mean_rank,group_ids"
    assert len(lines) == 4
    curves_path = tmp_path / "curves.csv"
    harness.write_curves_csv(rows, curves_path)
    assert curves_path.read_text().splitlines()[0] == "metric,algorithm,generation,mean,std"


def test_cli_end_to_end(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "environment = TradeoffBandit\n"
        "algorithms = NSGA2, GA\n"
        "pop_size = 8\n"
        "generations = 3\n"
        "n_episodes = 1\n"
        "n_runs = 2\n"
    )
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config_path), "--out", str(out_dir), "--seed", "3"]) == 0
    assert (out_dir / "config.txt").exists()
    assert len(list((out_dir / "records").glob("*.jsonl"))) == 4
    assert cli.main(["metrics", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "fronts.csv").exists()
    assert cli.main(["stats", str(out_dir), "--metric", "hv"]) == 2  # m < 3 rejected
    config3 = tmp_path / "exp3.cfg"
    config3.write_text(
        "environment = TradeoffBandit\n"
        "algorithms = NSGA2, GA, PSO\n"
        "pop_size = 8\n"
        "generations = 3\n"
        "n_episodes = 1\n"
        "n_runs = 3\n"
    )
    out3 = tmp_path / "out3"
    assert cli.main(["run", str(config3), "--out", str(out3)]) == 0
    assert cli.main(["metrics", str(out3)]) == 0
    assert cli.main(["stats", str(out3), "--metric", "igd"]) == 0
    assert (out3 / "cd.csv").exists()
    assert cli.main(["export-plots", str(out3)]) == 0
    assert (out3 / "curves.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_run_rejects_jobs_below_one(tmp_path, capsys, jobs):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("environment = TradeoffBandit\nalgorithms = NSGA2\n")
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config_path), "--out", str(out_dir), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "jobs" in captured.err
    assert not out_dir.exists()
    with pytest.raises(ValueError):
        harness.run_experiment(SMALL, jobs=int(jobs))


def test_cli_stats_names_missing_runs(tmp_path, capsys):
    # An aborted or missing run leaves (algorithm, run) cells without rows.
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("NSGA2", "GA", "PSO"),
                              pop_size=4, generations=2, n_episodes=1, n_runs=3)
    rows, _, _ = harness.compute_metrics(harness.run_experiment(config))
    kept = [row for row in rows if (row.algorithm, row.run) != ("GA", 2)]
    harness.write_metrics_csv(kept, tmp_path / "metrics.csv")
    capsys.readouterr()
    assert cli.main(["stats", str(tmp_path), "--metric", "hv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: no metric rows for GA run 2 (missing or aborted runs)"]
    assert not (tmp_path / "cd.csv").exists()


def test_cli_metrics_rejects_records_of_two_configs(tmp_path, capsys):
    # A record copied in from another config's results sits beside the
    # first config's records (run itself refuses such an --out).
    body = "environment = TradeoffBandit\npop_size = 4\ngenerations = 2\nn_episodes = 1\nn_runs = 1\n"
    config_a = tmp_path / "a.cfg"
    config_a.write_text("algorithms = GA, DE\n" + body)
    config_b = tmp_path / "b.cfg"
    config_b.write_text("algorithms = GA\n" + body)
    out_dir = tmp_path / "out"
    other = tmp_path / "other"
    assert cli.main(["run", str(config_a), "--out", str(out_dir), "--seed", "1"]) == 0
    assert cli.main(["run", str(config_b), "--out", str(other), "--seed", "5"]) == 0
    shutil.copyfile(other / "records" / "GA_run000.jsonl",
                    out_dir / "records" / "GA_run000.jsonl")
    capsys.readouterr()
    assert cli.main(["metrics", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "DE_run000.jsonl" in err[0] and "GA_run000.jsonl" in err[0]
    assert not (out_dir / "metrics.csv").exists()


def test_cli_run_refuses_another_configs_results(tmp_path, capsys):
    body = "environment = TradeoffBandit\nalgorithms = GA, NSGA2\npop_size = 4\n" \
           "generations = 2\nn_episodes = 1\n"
    three = tmp_path / "three.cfg"
    three.write_text(body + "n_runs = 3\n")
    two = tmp_path / "two.cfg"
    two.write_text(body + "n_runs = 2\n")
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(three), "--out", str(out_dir)]) == 0
    assert cli.main(["metrics", str(out_dir)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    for argv in (["run", str(two), "--out", str(out_dir)],
                 ["run", str(three), "--out", str(out_dir), "--seed", "9"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "config.txt" in err[0]
    assert {p.name: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before
    # The same config may run again: it gives the same results.
    assert cli.main(["run", str(three), "--out", str(out_dir)]) == 0
    assert cli.main(["metrics", str(out_dir)]) == 0
    for name in ("config.txt", "metrics.csv", "fronts.csv"):
        assert (out_dir / name).read_bytes() == before[name]
    # Records without a config.txt belong to an unknown config.
    (out_dir / "config.txt").unlink()
    capsys.readouterr()
    assert cli.main(["run", str(three), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "no config.txt" in err[0]


def test_cli_metrics_rejects_a_partial_records_directory(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "environment = TradeoffBandit\nalgorithms = GA, NSGA2\n"
        "pop_size = 4\ngenerations = 2\nn_episodes = 1\nn_runs = 2\n"
    )
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config_path), "--out", str(out_dir)]) == 0
    (out_dir / "records" / "NSGA2_run000.jsonl").unlink()
    (out_dir / "records" / "GA_run001.jsonl").unlink()
    capsys.readouterr()
    assert cli.main(["metrics", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "GA_run001.jsonl is missing" in err[0]  # the first in config order
    assert not (out_dir / "metrics.csv").exists()


def test_cli_stats_has_no_mode_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stats", str(tmp_path), "--metric", "hv", "--mode", "per-run"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def _truncate_last_line(text):
    # An interrupted write: the last line loses its second half and newline.
    lines = text.splitlines()
    return text[: len(text) - 1 - len(lines[-1]) // 2], len(lines)


def _empty(text):
    return "", 1


def _drop_config_key(text):
    header, *rest = text.splitlines(keepends=True)
    fields = json.loads(header)
    del fields["config"]
    return "".join([json.dumps(fields) + "\n"] + rest), 1


@pytest.mark.parametrize("damage", [_truncate_last_line, _empty, _drop_config_key])
def test_cli_metrics_names_unreadable_record(tmp_path, capsys, damage):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "environment = TradeoffBandit\nalgorithms = GA, NSGA2\n"
        "pop_size = 4\ngenerations = 2\nn_episodes = 1\nn_runs = 1\n"
    )
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config_path), "--out", str(out_dir)]) == 0
    path = out_dir / "records" / "NSGA2_run000.jsonl"
    text, bad_line = damage(path.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["metrics", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{path} line {bad_line}:" in err[0]
    assert not (out_dir / "metrics.csv").exists()



def _edit_eval_count(lines):
    header = json.loads(lines[0])
    header["eval_count"] += 1
    return [json.dumps(header) + "\n"] + lines[1:]


def _drop_middle_generation(lines):
    return lines[:2] + lines[3:]


def _drop_every_generation(lines):
    return lines[:1]


@pytest.mark.parametrize("damage", [_edit_eval_count, _drop_middle_generation,
                                    _drop_every_generation])
def test_cli_metrics_rejects_a_record_off_its_budget(tmp_path, capsys, damage):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "environment = TradeoffBandit\nalgorithms = GA, NSGA2\n"
        "pop_size = 4\ngenerations = 3\nn_episodes = 1\nn_runs = 1\n"
    )
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config_path), "--out", str(out_dir)]) == 0
    path = out_dir / "records" / "NSGA2_run000.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(damage(lines)), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["metrics", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    assert "12 in 3" in err[0]
    assert not (out_dir / "metrics.csv").exists()


def test_aborted_records_load_and_are_left_out_of_metrics(tmp_path, monkeypatch):
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("GA", "DE"),
                              pop_size=4, generations=3, n_episodes=1, n_runs=1)
    # The GA run aborts in its second generation, short of its budget.
    poison_rows(monkeypatch, call=2, rows=slice(0, config.pop_size))
    records = harness.run_experiment(config)
    harness.save_records(records, tmp_path)
    loaded = harness.load_records(tmp_path)
    assert [(r.status, r.eval_count, len(r.returns)) for r in loaded] == \
        [("aborted", 8, 1), ("ok", 12, 3)]
    for a, b in zip(records, loaded):
        assert_records_identical(a, b)
    rows, _, _ = harness.compute_metrics(loaded)
    assert {row.algorithm for row in rows} == {"DE"}

def test_cli_bandit_smoke_config_end_to_end(tmp_path, capsys):
    config_path = Path(__file__).resolve().parent.parent / "configs" / "bandit_smoke.cfg"
    out_dir = tmp_path / "smoke"
    assert cli.main(["run", str(config_path), "--out", str(out_dir)]) == 0
    assert cli.main(["metrics", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["stats", str(out_dir), "--metric", "hv"]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out.splitlines()[0] == "Friedman chi-square = 6.0000, p = 0.04979, CD = 1.9131"
    assert cli.main(["export-plots", str(out_dir)]) == 0
    config = parse_config(config_path.read_text(encoding="utf-8"))
    rows = harness.read_metrics_csv(out_dir / "metrics.csv")
    assert len(rows) == len(config.algorithms) * config.n_runs * config.generations
    cd_lines = (out_dir / "cd.csv").read_text(encoding="utf-8").splitlines()
    assert len(cd_lines) == 1 + len(config.algorithms)
    assert (out_dir / "curves.csv").exists()
    assert capsys.readouterr().err == ""
    for name, digest in BANDIT_SMOKE_DIGESTS.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name


# The README sequence with scipy unimportable: the runtime needs numpy only.
WITHOUT_SCIPY = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "from evopareto import cli\n"
    "config, out = sys.argv[1:]\n"
    "for argv in (['run', config, '--out', out], ['metrics', out],\n"
    "             ['stats', out, '--metric', 'hv'], ['export-plots', out]):\n"
    "    if cli.main(argv) != 0:\n"
    "        sys.exit(1)\n"
)


def test_cli_bandit_smoke_runs_without_scipy(tmp_path):
    root = Path(__file__).resolve().parent.parent
    out_dir = tmp_path / "smoke"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY,
                            str(root / "configs" / "bandit_smoke.cfg"), str(out_dir)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert "Friedman chi-square = 6.0000, p = 0.04979, CD = 1.9131" in child.stdout
    digest = hashlib.sha256((out_dir / "cd.csv").read_bytes()).hexdigest()
    assert digest == BANDIT_SMOKE_DIGESTS["cd.csv"]


# Records written before the record format dropped scalars and zero-width
# genome rows (tests/data/legacy_records: TradeoffBandit, GA and NSGA2, pop 4,
# 3 generations, 2 runs); they must keep giving the same analysis bytes.
LEGACY_RECORDS_DIGESTS = {
    "metrics.csv": "86dc57afac3d3bc207e35727aa80d4b5c250c0f1d478bc883b2520d1e4d961ef",
    "fronts.csv": "1628eb87d677f48f26594989ed4ca6599df6df221f43e5e737502542acb19d41",
}


def test_cli_metrics_reads_legacy_records(tmp_path, capsys):
    out_dir = tmp_path / "legacy"
    shutil.copytree(Path(__file__).resolve().parent / "data" / "legacy_records", out_dir)
    assert cli.main(["metrics", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    for name, digest in LEGACY_RECORDS_DIGESTS.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name


def test_cli_seed_override_recorded(tmp_path):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "environment = TradeoffBandit\nalgorithms = GA\n"
        "pop_size = 4\ngenerations = 2\nn_episodes = 1\nn_runs = 1\n"
    )
    out_dir = tmp_path / "seeded"
    cli.main(["run", str(config_path), "--out", str(out_dir), "--seed", "123"])
    echoed = parse_config((out_dir / "config.txt").read_text())
    assert echoed.master_seed == 123
