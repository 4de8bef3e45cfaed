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


# Invalid settings, each as ExperimentConfig keyword arguments over a valid
# bandit GA experiment, with the ConfigError text that both paths must give.
INVALID = {
    "pop_size-odd": ({"pop_size": 7},
                     "pop_size must be a positive even number (pairwise crossover)"),
    "DE-pop_size": ({"algorithms": ("GA", "DE"), "pop_size": 2},
                    "DE rand/1 needs pop_size >= 4 for distinct donors"),
    "generations-zero": ({"generations": 0}, "generations must be positive"),
    "eta_c-zero": ({"eta_c": 0.0}, "eta_c must be positive"),
    "eta_c-negative": ({"eta_c": -1.0}, "eta_c must be positive"),
    "eta_m-negative": ({"eta_m": -0.5}, "eta_m must be nonnegative"),
    "p_m-above-one": ({"p_m": 1.5}, "p_m must lie in [0, 1]"),
    "p_crossover-above-one": ({"p_crossover": 7.0}, "p_crossover must lie in [0, 1]"),
    "de_cr-negative": ({"algorithms": ("DE",), "de_cr": -3.0}, "de_cr must lie in [0, 1]"),
    "de_f-negative": ({"algorithms": ("DE",), "de_f": -0.5}, "de_f must be nonnegative"),
    "rnsga2_epsilon-zero": ({"algorithms": ("RNSGA2",), "rnsga2_epsilon": 0.0},
                            "rnsga2_epsilon must be positive"),
    "bounds-reversed": ({"bounds": (5.0, -5.0)}, "bounds must be two values, low < high"),
    "bounds-three": ({"bounds": (-5.0, 0.0, 5.0)}, "bounds must be two values, low < high"),
    "bounds-nan": ({"bounds": (float("nan"), 1.0)}, "bounds must be finite, got (nan, 1.0)"),
    "bounds-narrow": ({"bounds": (0.0, 0.5)},
                      "bounds must contain the initial range [-1, 1], got (0.0, 0.5)"),
    "bounds-high-end-inside": ({"bounds": (-5.0, 0.999)},
                               "bounds must contain the initial range [-1, 1], got (-5.0, 0.999)"),
    "environment-unknown": ({"environment": "mo-hopper-v4"},
                            "unknown environment 'mo-hopper-v4'; choose from "
                            "['HopLander', 'NoisyPointWalker', 'TradeoffBandit']"),
    "algorithm-unknown": ({"algorithms": ("GA", "CMAES")},
                          "unknown algorithm 'CMAES'; choose from ['GA', 'DE', 'PSO', "
                          "'NSGA2', 'SPEA2', 'SMSEMOA', 'NSGA3', 'RNSGA2']"),
    "algorithm-repeated": ({"algorithms": ("GA", "GA")}, "algorithms lists a name twice"),
    "n_runs-zero": ({"n_runs": 0}, "n_runs must be positive"),
    "sigma-negative": ({"environment": "NoisyPointWalker", "sigma": -0.1},
                       "sigma must be finite and nonnegative, got -0.1"),
    "sigma-on-bandit": ({"sigma": 0.5}, "TradeoffBandit has no noise to scale"),
    "rnsga2_reference_points-empty": ({"algorithms": ("RNSGA2",), "rnsga2_reference_points": ()},
                                      "rnsga2_reference_points must hold at least one point"),
}


@pytest.mark.parametrize("settings, message", list(INVALID.values()), ids=list(INVALID))
def test_invalid_settings_fail_alike_parsed_or_built(settings, message):
    values = {"environment": "TradeoffBandit", "algorithms": ("GA",), **settings}
    # An empty list is written as a lone comma, which parses to no values.
    text = "".join(f"{key} = {(', '.join(map(str, v)) or ',') if isinstance(v, tuple) else v}\n"
                   for key, v in values.items())
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    with pytest.raises(ConfigError) as built:
        ExperimentConfig(**values)
    assert str(parsed.value) == str(built.value) == message


def test_comments_and_blank_lines_ignored():
    text = "# experiment\n\nenvironment = TradeoffBandit\n# roster\nalgorithms = GA, NSGA2\n"
    config = parse_config(text)
    assert config.algorithms == ("GA", "NSGA2")


def test_algorithm_config_carries_operator_parameters():
    config = parse_config(MINIMAL + "eta_c = 12.5\nde_f = 0.7\n")
    algo = config.algorithm_config("NSGA2")
    assert algo.eta_c == 12.5
    assert algo.de_f == 0.7
    assert algo.pop_size == 50


def test_algorithm_and_experiment_configs_share_defaults():
    experiment = {f.name: f.default for f in fields(ExperimentConfig)}
    algorithm = {f.name: f.default for f in fields(AlgorithmConfig) if f.name != "name"}
    assert set(algorithm) <= set(experiment)
    for key, default in algorithm.items():
        assert experiment[key] == default, key
    assert parse_config(MINIMAL).algorithm_config("GA") == AlgorithmConfig(name="GA")


def test_rnsga2_reference_points_grouped_by_k():
    config = parse_config(MINIMAL + "rnsga2_reference_points = 1, 0, 0, 1\n")
    algo = config.algorithm_config("RNSGA2")
    assert algo.rnsga2_reference_points == ((1.0, 0.0), (0.0, 1.0))


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
    assert config.algorithm_config("RNSGA2").rnsga2_reference_points == (
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
    ("RNSGA2", "rnsga2_reference_points = ,", "at least one point"),
], ids=["eta_m", "eta_c", "DE-pop_size", "rnsga2_reference_points-empty"])
def test_cli_run_rejects_operator_settings_before_any_run(
        tmp_path, capsys, monkeypatch, algorithms, setting, key):
    text = f"environment = TradeoffBandit\nalgorithms = {algorithms}\n{setting}\n"
    err = rejected_run(tmp_path, capsys, monkeypatch, text)
    assert key in err
    assert not (tmp_path / "out").exists()


def rejected_run(tmp_path, capsys, monkeypatch, text, out=None) -> str:
    """The one error line of ``run`` on a small config with ``text`` on top,
    which must exit 2 without starting a run."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the config was rejected")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text + "generations = 2\nn_episodes = 1\nn_runs = 1\n")
    out = tmp_path / "out" if out is None else out
    assert cli.main(["run", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


@pytest.mark.parametrize("setting", [
    "eta_c = nan", "rnsga2_epsilon = nan", "bounds = nan, 1", "de_f = nan",
    "pso_w = inf", "eta_m = inf", "p_m = nan", "p_crossover = -inf",
    "rnsga2_reference_points = 0, nan", "sigma = nan", "sigma = inf",
], ids=lambda setting: setting.replace(" ", ""))
def test_cli_run_rejects_non_finite_settings_before_any_run(
        tmp_path, capsys, monkeypatch, setting):
    key = setting.partition(" = ")[0]
    err = rejected_run(tmp_path, capsys, monkeypatch,
                       f"environment = NoisyPointWalker\nalgorithms = GA, RNSGA2\n{setting}\n")
    assert err.startswith(f"error: {key} must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bounds", ["0.0, 0.5", "-0.5, 5.0"], ids=["narrow", "low-end-inside"])
def test_cli_run_rejects_bounds_without_the_initial_range(tmp_path, capsys, monkeypatch, bounds):
    # The initial genes are drawn from U(-1, 1) and reach mutation
    # unclamped, so narrower bounds would make NaN genes and abort every run.
    err = rejected_run(tmp_path, capsys, monkeypatch,
                       f"environment = TradeoffBandit\nalgorithms = GA, SMSEMOA\nbounds = {bounds}\n")
    assert err == f"error: bounds must contain the initial range [-1, 1], got ({bounds})"
    assert not (tmp_path / "out").exists()


def test_bounds_at_the_initial_range_are_accepted():
    assert ExperimentConfig(environment="TradeoffBandit", algorithms=("GA",),
                            bounds=(-1.0, 1.0)).bounds == (-1.0, 1.0)
    # Operator settings alone take narrow bounds (the operator tests use them).
    assert AlgorithmConfig(name="GA", bounds=(0.0, 0.5)).bounds == (0.0, 0.5)


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_cli_run_rejects_an_out_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a results directory\n")
    out = blocker / "results" if under else blocker
    err = rejected_run(tmp_path, capsys, monkeypatch,
                       "environment = TradeoffBandit\nalgorithms = GA\n", out=out)
    assert err == f"error: cannot write results to {out}: {blocker} is not a directory"
    assert blocker.read_text() == "not a results directory\n"


def test_operator_settings_validated():
    with pytest.raises(ConfigError, match="eta_c"):
        parse_config(MINIMAL + "eta_c = -1.5\n")
    with pytest.raises(ConfigError, match="eta_m"):
        parse_config(MINIMAL + "eta_m = -0.5\n")
    assert parse_config(MINIMAL + "eta_m = 0\n").eta_m == 0.0
    assert parse_config("environment = TradeoffBandit\nalgorithms = DE\npop_size = 4\n").pop_size == 4
    assert parse_config(MINIMAL + "pop_size = 2\n").pop_size == 2  # only DE needs four
