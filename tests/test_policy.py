import math

import numpy as np
import pytest

from evopareto import policy
from evopareto.policy import PolicySpec
from evopareto.rng import RandomStream
from reference import act

# Frozen from init_genome(PolicySpec(1, (1, 1, 1), 1), RandomStream(123)).
GOLDEN_INIT = [
    0.4129824435274134, 0.953193296650054, 0.7193244778672023,
    0.3735966740943617, 0.3721703088232211, 0.3341811313224574,
    0.9998792272714978, -0.035286125585899386,
]


def test_genome_length_examples():
    assert policy.genome_length(PolicySpec(2, (4, 4, 4), 1)) == 57
    assert policy.genome_length(PolicySpec(2, (4, 10, 4), 1)) == 111
    assert policy.genome_length(PolicySpec(1, (4, 4, 4), 1)) == 53


def test_spec_rejects_zero_widths():
    with pytest.raises(ValueError):
        PolicySpec(2, (4, 0, 4), 1)


def test_zero_genome_gives_zero_action():
    spec = PolicySpec(3, (4, 4, 4), 2)
    action = act(spec, np.zeros(policy.genome_length(spec)), [0.3, -0.7, 1.1])
    assert np.array_equal(action, np.zeros(2))


def tiny_chain_genome():
    # 1-1-1-1 widths, unit weights, zero biases; layout is [w, b] per layer.
    spec = PolicySpec(1, (1, 1, 1), 1)
    genome = np.zeros(policy.genome_length(spec))
    genome[[0, 2, 4, 6]] = 1.0
    return spec, genome


def test_tiny_chain_fixed_point_at_zero():
    spec, genome = tiny_chain_genome()
    assert act(spec, genome, [0.0])[0] == 0.0


def test_tiny_chain_fourfold_tanh():
    spec, genome = tiny_chain_genome()
    expected = math.tanh(math.tanh(math.tanh(math.tanh(1.0))))
    assert act(spec, genome, [1.0])[0] == pytest.approx(expected, abs=1e-15)


def test_init_genome_support_and_determinism():
    spec = PolicySpec(2, (4, 10, 4), 1)
    a = policy.init_genome(spec, RandomStream(5))
    b = policy.init_genome(spec, RandomStream(5))
    c = policy.init_genome(spec, RandomStream(6))
    assert np.all((-1.0 <= a) & (a <= 1.0))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_genome_golden_vector():
    got = policy.init_genome(PolicySpec(1, (1, 1, 1), 1), RandomStream(123))
    assert np.array_equal(got, np.array(GOLDEN_INIT))


def test_act_is_pure_and_bounded():
    spec = PolicySpec(2, (4, 4, 4), 2)
    genome = policy.init_genome(spec, RandomStream(21))
    obs = np.array([0.4, -1.2])
    first = act(spec, genome, obs)
    second = act(spec, genome, obs)
    assert np.array_equal(first, second)
    assert np.all(np.abs(first) < 1.0)


def test_unflatten_flatten_round_trip():
    spec = PolicySpec(3, (4, 10, 4), 2)
    genome = policy.init_genome(spec, RandomStream(77))
    layers = policy.unflatten(spec, genome)
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])
    assert np.array_equal(flat, genome)


def test_positional_encoding_matters():
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(3))
    permuted = genome[::-1].copy()
    obs = [0.5, 0.5]
    assert act(spec, genome, obs)[0] != act(spec, permuted, obs)[0]


def test_rejects_mismatched_inputs():
    spec = PolicySpec(2, (4, 4, 4), 1)
    genome = policy.init_genome(spec, RandomStream(4))
    with pytest.raises(ValueError):
        act(spec, genome, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        act(spec, genome[:-1], [1.0, 2.0])


@pytest.mark.parametrize("obs_dim,action_dim", ((1, 1), (2, 1), (3, 2)))
def test_stacked_forward_is_bit_identical_to_per_network_loop(obs_dim, action_dim):
    spec = PolicySpec(obs_dim, (4, 4, 4), action_dim)
    stream = RandomStream(obs_dim * 10 + action_dim)
    n = policy.genome_length(spec)
    genomes = np.array([stream.uniform_vector(n, -5.0, 5.0) for _ in range(300)])
    observations = np.array([stream.uniform_vector(obs_dim, -2.0, 2.0) for _ in range(300)])
    batched = policy.forward(policy.unflatten(spec, genomes), observations)
    assert batched.shape == (300, action_dim)
    for genome, obs, got in zip(genomes, observations, batched):
        x = obs
        for w, b in policy.unflatten(spec, genome):
            x = np.tanh(w @ x + b)  # the reference: one network, one observation
        assert np.array_equal(got, x)
        assert np.array_equal(policy.forward(policy.unflatten(spec, genome), obs), x)


def test_unflatten_rejects_bad_stacks():
    spec = PolicySpec(2, (4, 4, 4), 1)
    with pytest.raises(ValueError):
        policy.unflatten(spec, np.zeros((2, 56)))
    with pytest.raises(ValueError):
        policy.unflatten(spec, np.zeros((2, 2, 57)))
