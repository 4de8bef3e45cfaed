"""The benchmark tracer (benchmarks/tracer.py) and layer microbenchmarks
(benchmarks/micro.py) still find every name of the package they use, so
renaming or removing one fails here and not only in the benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from evopareto import harness, policy
from evopareto.algorithms import base
from evopareto.config import ExperimentConfig
from evopareto.environments import Environment
from evopareto.rng import RandomStream

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_benchmark("tracer")


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
        assert np.array_equal(a.returns[-1], b.returns[-1])


def test_micro_imports_and_reads_names_that_exist():
    # Loading runs micro's imports, which fail on a lost name.  The
    # attributes below it reads only when run_micro runs (about 2 s).
    assert callable(load_benchmark("micro").run_micro)
    for owner, attr in ((Environment, "reset"), (Environment, "step"),
                        (RandomStream, "normal"), (RandomStream, "uniform_vector"),
                        (RandomStream, "next_u64"), (policy, "unflatten"), (policy, "forward")):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
