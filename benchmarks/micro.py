"""Layer microbenchmarks on fixed inputs drawn from the benchmark seed.

Each figure is the median over a few timed batches of the time per call
(or per value, where the name says so).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from evopareto import evaluate, make_env, policy
from evopareto.algorithms import polynomial_mutation, sbx_crossover
from evopareto.environments import environment_names
from evopareto.indicators import hypervolume_contributions
from evopareto.policy import PolicySpec, genome_length, init_genome
from evopareto.rng import RandomStream, derive_seed

BATCHES = 5
BOUNDS = (-5.0, 5.0)


def per_call(fn, number: int) -> float:
    """Median seconds per call over BATCHES batches of ``number`` calls."""
    fn()
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


def policy_spec(env_name: str) -> PolicySpec:
    env = make_env(env_name)
    return PolicySpec(obs_dim=env.spec.obs_dim, action_dim=env.spec.action_dim)


def nondominated_front(stream: RandomStream, n: int, k: int) -> np.ndarray:
    """n points on the positive unit sphere: mutually nondominated."""
    points = np.abs(stream.uniform_vector(n * k, 0.05, 1.0).reshape(n, k))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def run_micro(seed: int) -> dict[str, tuple[float, str]]:
    def stream(name: str) -> RandomStream:
        return RandomStream(derive_seed(seed, "bench", name))

    out: dict[str, tuple[float, str]] = {}

    s = stream("rng")
    out["rng.normal_ns"] = (per_call(s.normal, 20000) * 1e9, "ns")
    out["rng.uniform_vector_ns"] = (per_call(lambda: s.uniform_vector(57), 2000) / 57 * 1e9, "ns")

    walker = policy_spec("NoisyPointWalker")
    s = stream("policy")
    layers = policy.unflatten(walker, init_genome(walker, s))
    observation = s.uniform_vector(walker.obs_dim, -1.0, 1.0)
    out["policy.forward_ns"] = (per_call(lambda: policy.forward(layers, observation), 5000) * 1e9, "ns")

    for name in ("NoisyPointWalker", "HopLander"):
        env = make_env(name)
        s = stream("step-" + name)
        state = env.reset(s)
        action = s.uniform_vector(env.spec.action_dim, -1.0, 1.0)
        out[f"environments.step_ns.{name}"] = (
            per_call(lambda: env.step(state, action, s), 5000) * 1e9, "ns")

    for name in environment_names():
        env = make_env(name)
        spec = policy_spec(name)
        s = stream("evaluate-" + name)
        genome = init_genome(spec, s)
        base_seed = s.next_u64()
        number = 200 if env.spec.horizon == 1 else 20
        out[f"evaluation.evaluate_us.{name}"] = (
            per_call(lambda: evaluate(env, spec, genome, 5, base_seed), number) * 1e6, "us")

    s = stream("variation")
    n_genes = genome_length(walker)
    parent_a = s.uniform_vector(n_genes, -1.0, 1.0)
    parent_b = s.uniform_vector(n_genes, -1.0, 1.0)
    out["algorithms.sbx_crossover_us"] = (
        per_call(lambda: sbx_crossover(parent_a, parent_b, 15.0, s, BOUNDS), 500) * 1e6, "us")
    out["algorithms.polynomial_mutation_us"] = (
        per_call(lambda: polynomial_mutation(parent_a, 20.0, 1.0 / n_genes, s, BOUNDS), 1000) * 1e6,
        "us")

    for k, number in ((2, 20), (3, 1)):
        front = nondominated_front(stream(f"front-k{k}"), 50, k)
        ref = np.full(k, 1.1)
        out[f"indicators.hv_contributions_us.k{k}"] = (
            per_call(lambda: hypervolume_contributions(front, ref), number) * 1e6, "us")
    return out
