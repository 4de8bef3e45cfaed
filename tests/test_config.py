from dataclasses import fields
from pathlib import Path

import pytest

from evopareto import cli, harness
from evopareto.algorithms import AlgorithmConfig
from evopareto.config import ConfigError, ExperimentConfig, parse_config, serialize_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

MINIMAL = """
environment = TradeoffBandit
algorithms = NSGA2
"""


def test_minimal_config_gets_baseline_defaults():
    config = parse_config(MINIMAL)
    assert config.pop_size == 50
    assert config.generations == 25
    assert config.n_episodes == 5
    assert config.n_runs == 10
    assert config.hidden_widths() == (4, 4, 4)
    assert config.bounds == (-5.0, 5.0)


def test_wider_second_layer_accepted_zero_rejected():
    assert parse_config(MINIMAL + "n_layer2 = 10\n").n_layer2 == 10
    with pytest.raises(ConfigError, match="n_layer2"):
        parse_config(MINIMAL + "n_layer2 = 0\n")


def test_round_trip_identity():
    text = MINIMAL + "sigma = 0.0\nalgorithms_extra_not_here = x\n"
    with pytest.raises(ConfigError):
        parse_config(text)
    config = parse_config(MINIMAL + "sigma = 0.0\nmaster_seed = 77\n")
    again = parse_config(serialize_config(config))
    assert again == config
    assert serialize_config(again) == serialize_config(config)


def test_unknown_key_reports_line_number():
    text = "environment = TradeoffBandit\nalgorithms = GA\nmystery = 3\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)


def test_type_errors_report_line_number():
    text = "environment = TradeoffBandit\npop_size = fifty\nalgorithms = GA\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(text)


def test_duplicate_key_rejected():
    text = MINIMAL + "pop_size = 10\npop_size = 12\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="environment"):
        parse_config("algorithms = GA\n")
    with pytest.raises(ConfigError, match="algorithms"):
        parse_config("environment = TradeoffBandit\n")


def test_unknown_names_rejected():
    with pytest.raises(ConfigError, match="environment"):
        parse_config("environment = mo-hopper-v4\nalgorithms = GA\n")
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config("environment = TradeoffBandit\nalgorithms = CMAES\n")


def test_structural_validation():
    with pytest.raises(ConfigError, match="even"):
        parse_config(MINIMAL + "pop_size = 7\n")
    with pytest.raises(ConfigError, match="bounds"):
        parse_config(MINIMAL + "bounds = 5, -5\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config(MINIMAL + "generations = 0\n")
    with pytest.raises(ConfigError, match="twice"):
        parse_config("environment = TradeoffBandit\nalgorithms = GA, GA\n")


def test_comments_and_blank_lines_ignored():
    text = "# experiment\n\nenvironment = TradeoffBandit\n# roster\nalgorithms = GA, NSGA2\n"
    config = parse_config(text)
    assert config.algorithms == ("GA", "NSGA2")


def test_algorithm_config_carries_operator_parameters():
    config = parse_config(MINIMAL + "eta_c = 12.5\nde_f = 0.7\n")
    algo = config.algorithm_config("NSGA2", k=2)
    assert algo.eta_c == 12.5
    assert algo.de_f == 0.7
    assert algo.pop_size == 50


def test_algorithm_and_experiment_configs_share_defaults():
    experiment = {f.name: f.default for f in fields(ExperimentConfig)}
    algorithm = {f.name: f.default for f in fields(AlgorithmConfig) if f.name != "name"}
    assert set(algorithm) <= set(experiment)
    for key, default in algorithm.items():
        assert experiment[key] == default, key
    assert parse_config(MINIMAL).algorithm_config("GA", k=2) == AlgorithmConfig(name="GA")


def test_rnsga2_reference_points_grouped_by_k():
    config = parse_config(MINIMAL + "rnsga2_reference_points = 1, 0, 0, 1\n")
    algo = config.algorithm_config("RNSGA2", k=2)
    assert algo.rnsga2_reference_points == ((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ConfigError, match="multiple"):
        config.algorithm_config("RNSGA2", k=3)


def test_noise_on_a_noiseless_environment_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="TradeoffBandit has no noise"):
        parse_config(MINIMAL + "sigma = 0.5\n")
    assert parse_config(MINIMAL + "sigma = 0\n").sigma == 0.0
    walker = "environment = NoisyPointWalker\nalgorithms = GA\nsigma = 0.5\n"
    assert parse_config(walker).sigma == 0.5


def test_reference_points_checked_against_environment_k_at_parse_time():
    lander = "environment = HopLander\nalgorithms = GA, RNSGA2\n"
    with pytest.raises(ConfigError, match="not a multiple of k = 3"):
        parse_config(lander + "rnsga2_reference_points = 1, 0, 0, 1\n")
    config = parse_config(lander + "rnsga2_reference_points = 1, 0, 0, 0, 1, 0\n")
    assert config.algorithm_config("RNSGA2", 3).rnsga2_reference_points == (
        (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_with_seed_returns_updated_copy():
    config = parse_config(MINIMAL)
    assert config.with_seed(99).master_seed == 99
    assert config.master_seed == 0


def test_shipped_configs_parse_and_round_trip():
    assert CONFIGS
    for path in CONFIGS:
        config = parse_config(path.read_text(encoding="utf-8"))
        text = serialize_config(config)
        assert parse_config(text) == config, path.name
        assert serialize_config(parse_config(text)) == text, path.name


@pytest.mark.parametrize("algorithms, setting, key", [
    ("PSO, GA", "eta_m = -1", "eta_m"),
    ("PSO, GA", "eta_c = 0", "eta_c"),
    ("GA, DE", "pop_size = 2", "DE"),
], ids=["eta_m", "eta_c", "DE-pop_size"])
def test_cli_run_rejects_operator_settings_before_any_run(
        tmp_path, capsys, monkeypatch, algorithms, setting, key):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the config was rejected")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        f"environment = TradeoffBandit\nalgorithms = {algorithms}\n{setting}\n"
        "generations = 2\nn_episodes = 1\nn_runs = 1\n")
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not (tmp_path / "out").exists()


def test_operator_settings_validated():
    with pytest.raises(ConfigError, match="eta_c"):
        parse_config(MINIMAL + "eta_c = -1.5\n")
    with pytest.raises(ConfigError, match="eta_m"):
        parse_config(MINIMAL + "eta_m = -0.5\n")
    assert parse_config(MINIMAL + "eta_m = 0\n").eta_m == 0.0
    assert parse_config("environment = TradeoffBandit\nalgorithms = DE\npop_size = 4\n").pop_size == 4
    assert parse_config(MINIMAL + "pop_size = 2\n").pop_size == 2  # only DE needs four
