import numpy as np
import pytest

from evopareto import pareto
from evopareto.environments import EnvState, make_env
from evopareto.rng import RandomStream
from reference import analytic_front, observation

# Frozen initial-state draws for stream seed 7 (golden values).
WALKER_V0_SEED7 = -0.01101702516087285
LANDER_H0_SEED7 = 0.9889829748391271


def test_catalog_and_unknown_name():
    for name in ("TradeoffBandit", "NoisyPointWalker", "HopLander"):
        env = make_env(name)
        assert env.spec.name == name
        assert env.spec.gamma == 0.99
    with pytest.raises(ValueError):
        make_env("mo-hopper-v4")


def test_bandit_reset_and_constant_observation():
    env = make_env("TradeoffBandit")
    state = env.reset(RandomStream(0))
    assert state.step_index == 0
    assert observation(env, state).tolist() == [1.0]


def test_bandit_step_example():
    env = make_env("TradeoffBandit")
    result = env.step(env.reset(RandomStream(1)), [0.0], RandomStream(1))
    assert result.reward.tolist() == [0.5, 0.5]
    assert result.done


def test_bandit_rewards_in_unit_square():
    env = make_env("TradeoffBandit")
    stream = RandomStream(3)
    for _ in range(50):
        a = stream.uniform(-1.0, 1.0)
        reward = env.step(env.reset(stream), [a], stream).reward
        assert np.all((0.0 <= reward) & (reward <= 1.0))
        assert reward.sum() == pytest.approx(1.0)


def test_bandit_analytic_front():
    assert analytic_front(2).tolist() == [[0, 1], [1, 0]]
    assert analytic_front(3).tolist() == [[0, 1], [0.5, 0.5], [1, 0]]
    front = analytic_front(101)
    assert np.array_equal(pareto.nondominated_filter(front), front)
    with pytest.raises(ValueError):
        analytic_front(1)


def test_walker_reset_golden():
    env = make_env("NoisyPointWalker")
    state = env.reset(RandomStream(7))
    x, v = state.values
    assert x == 0.0
    assert v == WALKER_V0_SEED7
    assert -0.05 <= v <= 0.05


def test_walker_step_deterministic_example():
    env = make_env("NoisyPointWalker", sigma=0.0)
    result = env.step(EnvState(values=(0.0, 0.0)), [1.0], RandomStream(9))
    x, v = result.next_state.values
    assert v == pytest.approx(0.1, abs=1e-15)
    assert x == pytest.approx(0.01, abs=1e-15)
    assert result.reward.tolist() == pytest.approx([0.1, -1.0], abs=1e-15)


def test_walker_sigma_zero_is_deterministic():
    env = make_env("NoisyPointWalker", sigma=0.0)
    actions = [0.3, -0.8, 1.0, 0.0, 0.5]

    def trajectory(seed):
        state = env.reset(RandomStream(seed))
        rng = RandomStream(seed + 1)
        rewards = []
        for a in actions:
            result = env.step(state, [a], rng)
            state = result.next_state
            rewards.append(result.reward.tolist())
        return rewards

    assert trajectory(5) == trajectory(5)


def test_lander_reset_golden():
    env = make_env("HopLander")
    h, w, v = env.reset(RandomStream(7)).values
    assert h == LANDER_H0_SEED7
    assert (w, v) == (0.0, 0.0)


def test_lander_step_example():
    env = make_env("HopLander", sigma=0.0)
    result = env.step(EnvState(values=(1.0, 0.0, 0.0)), [1.0, 1.0], RandomStream(2))
    h, w, v = result.next_state.values
    assert w == pytest.approx(0.08, abs=1e-15)
    assert h == pytest.approx(1.008, abs=1e-15)
    assert v == pytest.approx(0.1, abs=1e-15)
    assert result.reward.tolist() == pytest.approx([0.1, 1.008, -2.0], abs=1e-15)


def test_lander_grounding_zeroes_vertical_rate():
    env = make_env("HopLander", sigma=0.0)
    result = env.step(EnvState(values=(0.0, -0.5, 0.0)), [-1.0, 0.0], RandomStream(2))
    h, w, _ = result.next_state.values
    assert h == 0.0
    assert w == 0.0


def test_fixed_seed_trajectories_bit_identical():
    env = make_env("NoisyPointWalker")  # default sigma, noise active

    def run(seed):
        state = env.reset(RandomStream(seed))
        rng = RandomStream(seed ^ 0xABCDEF)
        out = []
        for i in range(env.spec.horizon):
            result = env.step(state, [np.cos(i)], rng)
            state = result.next_state
            out.append((state.values, tuple(result.reward.tolist())))
        return out

    assert run(31) == run(31)
    assert run(31) != run(32)


def test_episode_length_is_exactly_horizon():
    for name in ("TradeoffBandit", "NoisyPointWalker", "HopLander"):
        env = make_env(name)
        state = env.reset(RandomStream(1))
        rng = RandomStream(2)
        done = False
        steps = 0
        while not done:
            result = env.step(state, [0.1] * env.spec.action_dim, rng)
            state = result.next_state
            done = result.done
            steps += 1
        assert steps == env.spec.horizon
        with pytest.raises(ValueError):
            env.step(state, [0.0] * env.spec.action_dim, rng)


def test_out_of_range_actions_are_clamped():
    env = make_env("NoisyPointWalker", sigma=0.0)
    state = EnvState(values=(0.0, 0.0))
    wild = env.step(state, [25.0], RandomStream(4))
    tame = env.step(state, [1.0], RandomStream(4))
    assert wild.reward.tolist() == tame.reward.tolist()


def test_rewards_always_finite():
    stream = RandomStream(17)
    for name in ("TradeoffBandit", "NoisyPointWalker", "HopLander"):
        env = make_env(name)
        state = env.reset(stream)
        for _ in range(env.spec.horizon):
            action = stream.uniform_vector(env.spec.action_dim, -1.0, 1.0)
            result = env.step(state, action, stream)
            assert np.all(np.isfinite(result.reward))
            state = result.next_state


def test_sigma_zero_freezes_reset_noise():
    walker = make_env("NoisyPointWalker", sigma=0.0)
    assert walker.reset(RandomStream(7)).values == (0.0, 0.0)
    lander = make_env("HopLander", sigma=0.0)
    assert lander.reset(RandomStream(7)).values == (1.0, 0.0, 0.0)


def test_sigma_override_rules():
    assert make_env("NoisyPointWalker", sigma=0.5).spec.sigma == 0.5
    assert make_env("TradeoffBandit", sigma=0.0).spec.sigma == 0.0
    with pytest.raises(ValueError):
        make_env("TradeoffBandit", sigma=0.1)


@pytest.mark.parametrize("name", ("TradeoffBandit", "NoisyPointWalker", "HopLander"))
def test_batched_transition_rows_equal_single_rows(name):
    env = make_env(name)
    stream = RandomStream(23)
    b, d, a = 64, len(env.reset(stream).values), env.spec.action_dim
    values = stream.uniform_vector(b * d, -2.0, 2.0).reshape(b, d)
    actions = stream.uniform_vector(b * a, -1.5, 1.5).reshape(b, a)
    noise = np.array([stream.normal() for _ in range(b)])
    batch_values, batch_rewards = env.transition(values, actions, noise)
    assert batch_rewards.shape == (b, env.spec.k)
    for i in range(b):
        row_values, row_rewards = env.transition(values[i:i + 1], actions[i:i + 1], noise[i:i + 1])
        assert np.array_equal(batch_values[i:i + 1], row_values)
        assert np.array_equal(batch_rewards[i:i + 1], row_rewards)


def test_lander_grounding_follows_python_max():
    # max(0.0, nan) is 0.0, where np.maximum would give NaN; grounding then zeroes w.
    env = make_env("HopLander", sigma=0.0)
    out, _ = env.transition(np.array([[np.nan, 0.0, 0.0]]), np.zeros((1, 2)), np.zeros(1))
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0
