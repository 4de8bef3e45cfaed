import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from evopareto import cli, harness
from evopareto.config import ExperimentConfig, parse_config
from evopareto.evaluation import Population

SMALL = ExperimentConfig(
    environment="TradeoffBandit",
    algorithms=("NSGA2", "GA"),
    pop_size=8,
    generations=4,
    n_episodes=1,
    n_runs=2,
    master_seed=5,
)


def fabricate_record(algorithm, run, returns_per_gen, config=SMALL):
    gens = []
    for returns in returns_per_gen:
        returns = np.asarray(returns, dtype=np.float64)
        n = returns.shape[0]
        gens.append(Population(np.zeros((n, 3)), returns, returns.mean(axis=1)))
    return harness.RunRecord(
        algorithm=algorithm, run_index=run, seed=1, status="ok", eval_count=0,
        wall_time=0.0, rng_scheme="test", config=config, generations=gens,
    )


def test_expected_record_count_and_budget():
    records = harness.run_experiment(SMALL)
    assert len(records) == 4  # two algorithms x two runs
    for record in records:
        assert record.status == "ok"
        assert record.eval_count == SMALL.pop_size * SMALL.generations
        assert len(record.generations) == SMALL.generations
        for snapshot in record.generations:
            assert snapshot.genomes.shape[0] == SMALL.pop_size
    audit = harness.audit_budget(records)
    assert audit == {"NSGA2": [32, 32], "GA": [32, 32]}


def test_runs_are_reproducible_and_seed_sensitive():
    first = harness.run_experiment(SMALL)
    second = harness.run_experiment(SMALL)
    for a, b in zip(first, second):
        for ga, gb in zip(a.generations, b.generations):
            assert np.array_equal(ga.genomes, gb.genomes)
            assert np.array_equal(ga.returns, gb.returns)
    shifted = harness.run_experiment(SMALL.with_seed(6))
    assert any(
        not np.array_equal(a.generations[-1].genomes, b.generations[-1].genomes)
        for a, b in zip(first, shifted)
    )


def test_parallel_jobs_match_sequential(tmp_path):
    sequential = harness.run_experiment(SMALL, jobs=1)
    parallel = harness.run_experiment(SMALL, jobs=4)
    for a, b in zip(sequential, parallel):
        assert a.algorithm == b.algorithm and a.run_index == b.run_index
        final = a.generations[-1].genomes
        assert final.shape[0] == SMALL.pop_size and final.shape[1] > 0
        assert np.array_equal(final, b.generations[-1].genomes)
        for ga, gb in zip(a.generations, b.generations):
            assert np.array_equal(ga.genomes, gb.genomes)
            assert np.array_equal(ga.returns, gb.returns)
            assert np.array_equal(ga.scalars, gb.scalars)


def test_records_round_trip_through_disk(tmp_path):
    records = harness.run_experiment(SMALL)
    harness.save_records(records, tmp_path)
    loaded = harness.load_records(tmp_path)
    assert [r.algorithm for r in loaded] == [r.algorithm for r in records]
    for a, b in zip(records, loaded):
        assert a.seed == b.seed and a.eval_count == b.eval_count
        assert a.config == b.config
        # Only the final generation keeps its genomes.
        assert len(a.generations) == len(b.generations) == SMALL.generations == 4
        final = b.generations[-1].genomes
        assert final.shape[0] == SMALL.pop_size and final.shape[1] > 0
        for ga, gb in zip(a.generations[:-1], b.generations[:-1]):
            assert ga.genomes.shape == gb.genomes.shape == (SMALL.pop_size, 0)
        for ga, gb in zip(a.generations, b.generations):
            assert np.array_equal(ga.genomes, gb.genomes)
            assert np.array_equal(ga.returns, gb.returns)
            assert np.array_equal(ga.scalars, gb.scalars)


def test_failed_record_write_keeps_the_earlier_record(tmp_path):
    good = fabricate_record("GA", 0, [[(0.2, 0.8)], [(0.3, 0.7)]])
    path, = harness.save_records([good], tmp_path)
    earlier = path.read_bytes()
    # The second generation does not serialize: the write fails after the
    # header and the first generation line.
    unwritable = Population(np.zeros((1, 3)), np.array([[0.5, 0.5]]),
                            np.array([{0.5}], dtype=object))
    bad = harness.RunRecord(algorithm="GA", run_index=0, seed=2, status="ok",
                            eval_count=2, wall_time=0.0, rng_scheme="test", config=SMALL,
                            generations=[good.generations[0], unwritable])
    with pytest.raises(TypeError):
        harness.save_records([bad], tmp_path)
    assert path.read_bytes() == earlier
    assert [p.name for p in (tmp_path / "records").iterdir()] == [path.name]


def test_non_finite_evaluation_aborts_run_but_not_experiment(monkeypatch):
    real_evaluate = harness.evaluate
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("GA", "DE"),
                              pop_size=4, generations=3, n_episodes=1, n_runs=1)
    calls = {"n": 0}

    def sometimes_nan(env, spec, genomes, n_episodes, seed_bases):
        out = real_evaluate(env, spec, genomes, n_episodes, seed_bases)
        calls["n"] += 1
        if calls["n"] == 1:  # poison only the first generation of the first run
            return Population(out.genomes, np.full_like(out.returns, np.nan), out.scalars)
        return out

    monkeypatch.setattr(harness, "evaluate", sometimes_nan)
    records = harness.run_experiment(config)
    assert [r.status for r in records] == ["aborted", "ok"]
    assert records[0].generations == []
    assert records[1].eval_count == 12


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
        union = np.vstack([r.generations[-1].returns for r in records
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
                            config=SMALL, generations=[])
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


def test_build_score_table_modes():
    def problem_rows(offset):
        rows = []
        for algorithm, base in (("GA", 0.1), ("NSGA2", 0.5), ("SPEA2", 0.3)):
            for run in range(4):
                rows.append(harness.MetricRow(algorithm, run, 0, 0.0, 0.0, 0.0, 0.0))
                rows.append(harness.MetricRow(algorithm, run, 1,
                                              base + offset + 0.01 * run,
                                              1.0 - base, 1.0 - base, base))
        return rows

    table = harness.build_score_table(problem_rows(0.0), "hv")
    assert table.scores.shape == (4, 3)
    assert table.better == "higher"
    assert table.algorithms == ("GA", "NSGA2", "SPEA2")
    # Only the final generation feeds the table.
    assert table.scores[0].tolist() == [0.1, 0.5, 0.3]
    pooled = harness.build_score_table(
        {"walker": problem_rows(0.0), "lander": problem_rows(0.2)}, "igd",
        mode="problem-mean")
    assert pooled.scores.shape == (2, 3)
    assert pooled.better == "lower"
    with pytest.raises(ValueError):
        # One problem collapses to a single dataset, below the n >= 2 floor.
        harness.build_score_table(problem_rows(0.0), "hv", mode="problem-mean")
    with pytest.raises(ValueError):
        harness.build_score_table(problem_rows(0.0), "speed")


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


def test_cli_bandit_smoke_config_end_to_end(tmp_path, capsys):
    config_path = Path(__file__).resolve().parent.parent / "configs" / "bandit_smoke.cfg"
    out_dir = tmp_path / "smoke"
    assert cli.main(["run", str(config_path), "--out", str(out_dir)]) == 0
    assert cli.main(["metrics", str(out_dir)]) == 0
    assert cli.main(["stats", str(out_dir), "--metric", "hv"]) == 0
    assert cli.main(["export-plots", str(out_dir)]) == 0
    config = parse_config(config_path.read_text(encoding="utf-8"))
    rows = harness.read_metrics_csv(out_dir / "metrics.csv")
    assert len(rows) == len(config.algorithms) * config.n_runs * config.generations
    cd_lines = (out_dir / "cd.csv").read_text(encoding="utf-8").splitlines()
    assert len(cd_lines) == 1 + len(config.algorithms)
    assert (out_dir / "curves.csv").exists()
    assert capsys.readouterr().err == ""


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
