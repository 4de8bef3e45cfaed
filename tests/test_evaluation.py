import math
from dataclasses import replace

import numpy as np
import pytest

from evopareto import evaluation, policy
from evopareto.environments import EnvState, make_env
from evopareto.policy import PolicySpec
from evopareto.rng import RandomStream, derive_seed
from reference import observation


def walker(horizon=None, sigma=0.0):
    env = make_env("NoisyPointWalker", sigma=sigma)
    if horizon is not None:
        env.spec = replace(env.spec, horizon=horizon)
    return env


def test_scalarize_examples():
    assert evaluation.scalarize((4, 2)) == 3.0
    assert evaluation.scalarize((3, 3, 3)) == 3.0
    assert evaluation.scalarize((0, 0)) == 0.0
    with pytest.raises(ValueError):
        evaluation.scalarize((1.0,))


def test_scalarize_commutes_with_convex_mixing():
    stream = RandomStream(3)
    for _ in range(50):
        u = stream.uniform_vector(3)
        v = stream.uniform_vector(3)
        alpha = stream.uniform()
        mixed = evaluation.scalarize(alpha * u + (1 - alpha) * v)
        split = alpha * evaluation.scalarize(u) + (1 - alpha) * evaluation.scalarize(v)
        assert mixed == pytest.approx(split, abs=1e-12)


def test_scalarize_rows_match_one_vector_at_a_time():
    stream = RandomStream(29)
    for k in (2, 3):
        rows = stream.uniform_vector(2000 * k, -50.0, 50.0).reshape(2000, k)
        expected = [float(np.sum(row) / k) for row in rows]
        assert evaluation.scalarize(rows).tolist() == expected


def test_population_take_join_and_read_only_rows():
    genomes = np.arange(6.0).reshape(3, 2)
    returns = np.array([(1.0, 3.0), (2.0, 2.0), (0.0, 1.0)])
    pop = evaluation.Population(genomes, returns)
    assert len(pop) == 3
    assert pop.scalars.tolist() == [2.0, 2.0, 0.5]
    assert pop.scalars is pop.scalars  # derived once, when first read
    picked = pop.take([2, 0])
    assert picked.genomes.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert picked.scalars.tolist() == [0.5, 2.0]
    joined = pop.join(picked)
    assert len(joined) == 5
    assert joined.returns.tolist() == returns.tolist() + [[0.0, 1.0], [1.0, 3.0]]
    for population in (pop, picked, joined):
        for rows in (population.genomes, population.returns, population.scalars):
            with pytest.raises(ValueError):
                rows[0] = 9.0


def test_bandit_zero_genome_rollout():
    env = make_env("TradeoffBandit")
    spec = PolicySpec(1, (4, 4, 4), 1)
    out = evaluation.rollout(env, spec, np.zeros(policy.genome_length(spec)), RandomStream(1))
    assert out.tolist() == [0.5, 0.5]


def test_walker_zero_policy_two_steps():
    env = walker(horizon=2)
    spec = PolicySpec(2, (4, 4, 4), 1)
    out = evaluation.rollout(env, spec, np.zeros(policy.genome_length(spec)), RandomStream(1))
    assert out.tolist() == [0.0, 0.0]


def test_constant_action_discounting_by_hand():
    # Hand-iterate the sigma=0 dynamics from (x=0, v=0) with action 1:
    # v1 = 0.1, v2 = v1 + 0.1 - 0.05*v1 = 0.195, so the discounted return is
    # (v1 + 0.99*v2, -1 - 0.99).
    env = walker(horizon=2)
    state = EnvState(values=(0.0, 0.0))
    rng = RandomStream(0)
    total = np.zeros(2)
    discount = 1.0
    for _ in range(2):
        result = env.step(state, [1.0], rng)
        total += discount * result.reward
        discount *= env.spec.gamma
        state = result.next_state
    assert total[0] == pytest.approx(0.1 + 0.99 * 0.195, abs=1e-12)
    assert total[1] == pytest.approx(-1.99, abs=1e-12)


def test_rollout_matches_manual_replay():
    # Replaying the same stream step by step must reproduce rollout exactly.
    env = walker(sigma=0.01)
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(9))
    got = evaluation.rollout(env, spec, genome, RandomStream(55))

    rng = RandomStream(55)
    layers = policy.unflatten(spec, genome)
    state = env.reset(rng)
    expected = np.zeros(2)
    discount = 1.0
    for _ in range(env.spec.horizon):
        action = policy.forward(layers, observation(env, state))
        result = env.step(state, action, rng)
        expected += discount * result.reward
        discount *= env.spec.gamma
        state = result.next_state
    assert np.array_equal(got, expected)


def test_rollout_rejects_mismatched_policy():
    env = make_env("TradeoffBandit")
    spec = PolicySpec(2, (4, 4, 4), 1)
    with pytest.raises(ValueError):
        evaluation.rollout(env, spec, np.zeros(policy.genome_length(spec)), RandomStream(1))


def test_evaluate_on_deterministic_env_ignores_episode_count():
    env = walker()
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(2))
    one = evaluation.evaluate(env, spec, genome, 1, seed_base=17)
    many = evaluation.evaluate(env, spec, genome, 7, seed_base=17)
    assert np.allclose(one, many, atol=1e-12)


def test_evaluate_single_episode_equals_rollout_stream_zero():
    env = walker(sigma=0.01)
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(4))
    got = evaluation.evaluate(env, spec, genome, 1, seed_base=123)
    expected = evaluation.rollout(env, spec, genome, RandomStream(derive_seed(123, 0)))
    assert np.array_equal(got, expected)


def test_evaluate_equals_hand_averaged_replays():
    env = walker(sigma=0.01)
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(6))
    got = evaluation.evaluate(env, spec, genome, 5, seed_base=99)
    replayed = np.zeros(2)
    for episode in range(5):
        replayed = replayed + evaluation.rollout(
            env, spec, genome, RandomStream(derive_seed(99, episode)))
    assert np.array_equal(got, replayed / 5)


def test_evaluate_rejects_nonpositive_episodes():
    env = walker()
    spec = PolicySpec(2, (4, 4, 4), 1)
    with pytest.raises(ValueError):
        evaluation.evaluate(env, spec, np.zeros(policy.genome_length(spec)), 0, seed_base=1)


def test_batched_mean_matches_single_pass():
    env = walker(sigma=0.01)
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(8))
    single = evaluation.evaluate(env, spec, genome, 6, seed_base=5)
    episodes = [evaluation.rollout(env, spec, genome, RandomStream(derive_seed(5, e)))
                for e in range(6)]
    batched = (sum(episodes[:3]) / 3 + sum(episodes[3:]) / 3) / 2
    assert np.allclose(single, batched, rtol=1e-14, atol=1e-14)


def test_variance_shrinks_with_more_episodes():
    env = walker(sigma=0.05)
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(10))
    speed_1 = [evaluation.evaluate(env, spec, genome, 1, seed_base=s)[0]
               for s in range(40)]
    speed_10 = [evaluation.evaluate(env, spec, genome, 10, seed_base=1000 + s)[0]
                for s in range(40)]
    assert np.var(speed_10) < np.var(speed_1)


def test_scalar_value_is_mean_of_components():
    env = make_env("HopLander", sigma=0.0)
    spec = PolicySpec(3, (4, 4, 4), 2)
    genome = policy.init_genome(spec, RandomStream(11))
    out = evaluation.evaluate(env, spec, genome, 2, seed_base=3)
    scalars = evaluation.Population(genome[None, :], out[None, :]).scalars
    assert scalars[0] == pytest.approx(out.mean(), abs=1e-15)
    assert math.isfinite(scalars[0])


# -- lockstep population evaluation ---------------------------------------------

ENV_NAMES = ("TradeoffBandit", "NoisyPointWalker", "HopLander")


def policy_for(env):
    return PolicySpec(env.spec.obs_dim, (4, 4, 4), env.spec.action_dim)


def probe_genomes(spec, n_random=12):
    """Random genomes in the search bounds plus genomes at and near +-5."""
    n = policy.genome_length(spec)
    stream = RandomStream(derive_seed(21, n))
    random = [stream.uniform_vector(n, -5.0, 5.0) for _ in range(n_random)]
    near_bounds = [np.full(n, 5.0), np.full(n, -5.0), np.full(n, 5.0 - 1e-9),
                   np.where(np.arange(n) % 2 == 0, 5.0, -5.0),
                   np.sign(stream.uniform_vector(n, -1.0, 1.0)) * 5.0]
    return random + near_bounds


@pytest.mark.parametrize("name", ENV_NAMES)
@pytest.mark.parametrize("n_episodes", (1, 5))
@pytest.mark.parametrize("noisy", (False, True))
def test_population_equals_per_genome_evaluate(name, n_episodes, noisy):
    env = make_env(name, sigma=None if noisy else 0.0)
    spec = policy_for(env)
    genomes = probe_genomes(spec)
    bases = [derive_seed(7, "eval", i) for i in range(len(genomes))]
    batched = evaluation.evaluate_population(env, spec, genomes, n_episodes, bases)
    assert batched.shape == (len(genomes), env.spec.k)
    for i, (genome, base) in enumerate(zip(genomes, bases)):
        alone = evaluation.evaluate(env, spec, genome, n_episodes, base)
        assert np.array_equal(batched[i], alone)


def replay(env, spec, genome, rng):
    """Discounted return and every state of one episode, stepped one at a time."""
    layers = policy.unflatten(spec, genome)
    state = env.reset(rng)
    states = [state.values]
    total = np.zeros(env.spec.k)
    discount = 1.0
    for _ in range(env.spec.horizon):
        result = env.step(state, policy.forward(layers, observation(env, state)), rng)
        total += discount * result.reward
        discount *= env.spec.gamma
        state = result.next_state
        states.append(state.values)
    return total, np.array(states)


@pytest.mark.parametrize("name", ENV_NAMES)
def test_population_equals_stepwise_replays(name):
    env = make_env(name)
    spec = policy_for(env)
    genomes = probe_genomes(spec, n_random=4)
    bases = [derive_seed(8, i) for i in range(len(genomes))]
    batched = evaluation.evaluate_population(env, spec, genomes, 3, bases)
    for genome, base, got in zip(genomes, bases, batched):
        total = np.zeros(env.spec.k)
        for episode in range(3):
            total = total + replay(env, spec, genome, RandomStream(derive_seed(base, episode)))[0]
        assert np.array_equal(got, total / 3)


def test_near_bound_genomes_reach_clamp_and_grounding():
    walker_env = make_env("NoisyPointWalker")
    spec = policy_for(walker_env)
    speeds = [replay(walker_env, spec, g, RandomStream(3))[1][:, 1]
              for g in probe_genomes(spec)]
    assert any(np.any(np.abs(v) == 1.0) for v in speeds)
    lander = make_env("HopLander")
    spec = policy_for(lander)
    heights = [replay(lander, spec, g, RandomStream(3))[1][:, 0] for g in probe_genomes(spec)]
    assert any(np.any(h == 0.0) for h in heights)
    assert any(np.all(h[1:] > 0.0) for h in heights)


@pytest.mark.parametrize("horizon", (1, 4, 5, 20))
def test_rollout_draws_one_uniform_and_horizon_normals(horizon):
    for name, draws in (("NoisyPointWalker", 1 + 2 * math.ceil(horizon / 2)),
                        ("HopLander", 1 + 2 * math.ceil(horizon / 2)),
                        ("TradeoffBandit", 0)):
        env = make_env(name)
        env.spec = replace(env.spec, horizon=horizon)
        spec = policy_for(env)
        genome = policy.init_genome(spec, RandomStream(12))
        stream = RandomStream(40)
        evaluation.rollout(env, spec, genome, stream)
        fresh = RandomStream(40)
        for _ in range(draws):
            fresh.next_u64()
        assert stream.next_u64() == fresh.next_u64(), name


@pytest.mark.parametrize("name", ENV_NAMES)
def test_population_accepts_any_int_seed_bases_and_uint64_arrays(name):
    # Negative and >= 2**63 bases are masked to 64 bits, as derive_seed masks them.
    env = make_env(name)
    spec = policy_for(env)
    genomes = probe_genomes(spec, n_random=2)
    bases = [-3, 2**63 + 5, 2**64 - 1, 0, 7, -(2**63), 2**64 + 9]
    as_array = np.array([base & (2**64 - 1) for base in bases], dtype=np.uint64)
    from_ints = evaluation.evaluate_population(env, spec, genomes, 3, bases)
    from_array = evaluation.evaluate_population(env, spec, genomes, 3, as_array)
    assert np.array_equal(from_ints, from_array)
    for genome, base, got in zip(genomes, bases, from_ints):
        total = np.zeros(env.spec.k)
        for episode in range(3):
            total = total + evaluation.rollout(env, spec, genome,
                                               RandomStream(derive_seed(base, episode)))
        assert np.array_equal(got, total / 3)


def test_population_rejects_bad_arguments():
    env = walker()
    spec = PolicySpec(2, (4, 4, 4), 1)
    genomes = [np.zeros(policy.genome_length(spec))] * 2
    with pytest.raises(ValueError):
        evaluation.evaluate_population(env, spec, genomes, 0, [1, 2])
    with pytest.raises(ValueError):
        evaluation.evaluate_population(env, spec, genomes, 1, [1])
    with pytest.raises(ValueError):
        evaluation.evaluate_population(env, PolicySpec(3, (4, 4, 4), 1), genomes, 1, [1, 2])
