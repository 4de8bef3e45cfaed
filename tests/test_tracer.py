"""The benchmark tracer (benchmarks/tracer.py) still finds every entry point
it wraps, so renaming one fails here and not only in the benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from evopareto import harness
from evopareto.algorithms import base
from evopareto.config import ExperimentConfig

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry_points():
    return harness.evaluate, vars(base.Optimizer)["ask"], vars(base.Optimizer)["tell"]


def test_tracer_spans_ask_tell_and_evaluate_of_a_run():
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=("GA", "NSGA2"),
                              pop_size=4, generations=3, n_episodes=1, n_runs=1)
    untraced = harness.run_experiment(config)
    originals = entry_points()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        traced = harness.run_experiment(config)
    finally:
        tracer.uninstall()
    assert entry_points() == originals
    for name in config.algorithms:
        assert tracer.counts[f"algorithms.{name}.ask.calls"] == 3
        assert tracer.counts[f"algorithms.{name}.tell.calls"] == 3
        assert tracer.busy[f"algorithms.{name}.tell"] > 0.0
    # Both runs step in lockstep: one evaluate call per generation.
    assert tracer.counts["evaluation.evaluate.calls"] == 3
    assert tracer.busy["evaluation.evaluate"] > 0.0
    assert tracer.counts["rng.draws"] > 0
    for a, b in zip(untraced, traced):
        assert np.array_equal(a.generations[-1].returns, b.generations[-1].returns)
