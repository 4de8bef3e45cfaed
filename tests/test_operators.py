import copy
import math

import numpy as np
import pytest

from evopareto.algorithms import AlgorithmConfig, make_optimizer, polynomial_mutation, sbx_crossover
from evopareto.algorithms.base import _pow
from evopareto.evaluation import Population
from evopareto import rng
from evopareto.rng import RandomStream
from reference import ScriptedStream, per_pair_offspring, pm_oracle, sbx_oracle

BOUNDS = (-5.0, 5.0)


def test_sbx_identical_parents_identical_children():
    parent = np.array([0.5, -2.0, 4.9])
    a, b = sbx_crossover(parent, parent.copy(), 15.0, RandomStream(3), BOUNDS)
    assert np.array_equal(a, parent)
    assert np.array_equal(b, parent)


def test_sbx_midpoint_draw_reproduces_parents():
    # Application draw 0.4 applies the gene; spread draw 0.5 gives beta = 1.
    parents = (np.array([0.0]), np.array([1.0]))
    a, b = sbx_crossover(*parents, 15.0, ScriptedStream([0.4, 0.5]), BOUNDS)
    assert a[0] == pytest.approx(0.0, abs=1e-15)
    assert b[0] == pytest.approx(1.0, abs=1e-15)


def test_sbx_matches_formula_oracle():
    # u = 0.8 > 0.5: beta = (1 / (2 (1 - u)))^(1 / (eta + 1)).
    eta = 15.0
    u = 0.8
    beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
    expected_a = 0.5 * ((1.0 + beta) * 0.0 + (1.0 - beta) * 1.0)
    expected_b = 0.5 * ((1.0 - beta) * 0.0 + (1.0 + beta) * 1.0)
    a, b = sbx_crossover(np.array([0.0]), np.array([1.0]), eta,
                         ScriptedStream([0.0, u]), BOUNDS)
    assert a[0] == pytest.approx(expected_a, abs=1e-14)
    assert b[0] == pytest.approx(expected_b, abs=1e-14)


def test_sbx_gene_skipped_when_application_draw_high():
    # 0.5 itself applies nothing: the comparison is strict.
    for draw in (0.9, 0.5):
        a, b = sbx_crossover(np.array([-1.0]), np.array([2.0]), 15.0,
                             ScriptedStream([draw]), BOUNDS)
        assert a[0] == -1.0 and b[0] == 2.0


def test_pm_gene_skipped_when_application_draw_equals_the_rate():
    out = polynomial_mutation(np.array([2.0]), 20.0, 0.25, ScriptedStream([0.25]), BOUNDS)
    assert out[0] == 2.0


def test_sbx_children_respect_bounds():
    rng = RandomStream(99)
    parents = (np.array([-4.9, 4.9]), np.array([4.9, -4.9]))
    for _ in range(200):
        a, b = sbx_crossover(*parents, 2.0, rng, BOUNDS)
        for child in (a, b):
            assert np.all((BOUNDS[0] <= child) & (child <= BOUNDS[1]))


def test_sbx_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sbx_crossover(np.zeros(2), np.zeros(3), 15.0, RandomStream(1), BOUNDS)
    with pytest.raises(ValueError):
        sbx_crossover(np.zeros(2), np.zeros(2), 0.0, RandomStream(1), BOUNDS)


def test_pm_rejects_negative_eta():
    for eta_m in (-1.0, -0.5):
        with pytest.raises(ValueError, match="eta_m"):
            polynomial_mutation(np.zeros(2), eta_m, 1.0, RandomStream(1), BOUNDS)


def test_pm_zero_rate_is_identity():
    genome = np.array([1.0, -3.0, 0.25])
    out = polynomial_mutation(genome, 20.0, 0.0, RandomStream(5), BOUNDS)
    assert np.array_equal(out, genome)


def test_pm_half_draw_is_zero_perturbation():
    # Mutation fires (draw 0.0) but u = 0.5 gives delta = 0.
    out = polynomial_mutation(np.array([2.0]), 20.0, 1.0,
                              ScriptedStream([0.0, 0.5]), BOUNDS)
    assert out[0] == pytest.approx(2.0, abs=1e-15)


def test_pm_matches_formula_oracle():
    # u = 0.9 > 0.5 branch on gene 0 within [-5, 5].
    eta = 20.0
    u = 0.9
    x = 0.0
    span = BOUNDS[1] - BOUNDS[0]
    d = (BOUNDS[1] - x) / span
    delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d) ** (eta + 1.0)) ** (1.0 / (eta + 1.0))
    expected = x + delta * span
    out = polynomial_mutation(np.array([x]), eta, 1.0, ScriptedStream([0.0, u]), BOUNDS)
    assert out[0] == pytest.approx(expected, abs=1e-14)


def test_pm_low_branch_formula_oracle():
    eta = 20.0
    u = 0.2
    x = 1.0
    span = BOUNDS[1] - BOUNDS[0]
    d = (x - BOUNDS[0]) / span
    delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d) ** (eta + 1.0)) ** (1.0 / (eta + 1.0)) - 1.0
    expected = x + delta * span
    out = polynomial_mutation(np.array([x]), eta, 1.0, ScriptedStream([0.0, u]), BOUNDS)
    assert out[0] == pytest.approx(expected, abs=1e-14)


def test_pm_respects_bounds_and_rate_validation():
    rng = RandomStream(13)
    genome = np.array([4.999, -4.999, 0.0])
    for _ in range(200):
        out = polynomial_mutation(genome, 5.0, 1.0, rng, BOUNDS)
        assert np.all((BOUNDS[0] <= out) & (out <= BOUNDS[1]))
    with pytest.raises(ValueError):
        polynomial_mutation(genome, 20.0, 1.5, rng, BOUNDS)


@pytest.mark.parametrize("n", [13, 57, 70])
@pytest.mark.parametrize("bounds", [BOUNDS, (0.0, 1.0), (-1.0, -0.0), (-0.0, 0.0)])
def test_operators_clamp_to_the_bits_of_np_clip(bounds, n):
    lo, hi = bounds
    # Where a clamp could differ from np.clip: signed zeros, the bounds and the
    # next doubles past them, NaN of either sign, infinities, subnormals.
    parent_a = np.resize([-0.0, 0.0, lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                          np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.2345678901234567], n)
    parent_b = parent_a[::-1].copy()
    # Draws of 0.9 apply no gene, so each output is its input clamped.
    child_a, child_b = sbx_crossover(parent_a, parent_b, 15.0, ScriptedStream([0.9] * n), bounds)
    mutant = polynomial_mutation(parent_a, 20.0, 0.5, ScriptedStream([0.9] * n), bounds)
    assert child_a.tobytes() == np.clip(parent_a, lo, hi).tobytes()
    assert child_b.tobytes() == np.clip(parent_b, lo, hi).tobytes()
    assert mutant.tobytes() == np.clip(parent_a, lo, hi).tobytes()


def parent_pairs(g, stream):
    """Parents inside, at and beyond the bounds, and equal parents."""
    inside = (stream.uniform_vector(g, -5.0, 5.0), stream.uniform_vector(g, -5.0, 5.0))
    edge = np.array([-5.0, 5.0, -5.0, 5.0])
    at_bounds = (np.resize(edge, g), np.resize(edge[::-1], g))
    beyond = (stream.uniform_vector(g, -7.0, 7.0), stream.uniform_vector(g, -7.0, 7.0))
    same = stream.uniform_vector(g, -5.0, 5.0)
    return [inside, at_bounds, beyond, (same, same.copy())]


@pytest.mark.parametrize("g", [1, 2, 53, 66])
@pytest.mark.parametrize("eta_c", [0.5, 15.0])
def test_sbx_matches_per_gene_oracle(g, eta_c):
    for seed, (a, b) in enumerate(parent_pairs(g, RandomStream(g))):
        fast, slow = RandomStream(seed), RandomStream(seed)
        for _ in range(60):
            got = sbx_crossover(a, b, eta_c, fast, BOUNDS)
            want = sbx_oracle(a, b, eta_c, slow, BOUNDS)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert fast._counter == slow._counter


@pytest.mark.parametrize("g", [1, 2, 53, 66])
@pytest.mark.parametrize("eta_m", [0.0, 20.0])
def test_pm_matches_per_gene_oracle(g, eta_m):
    for p_m in (0.0, 1.0 / g, 0.5, 1.0):
        for seed, (a, _) in enumerate(parent_pairs(g, RandomStream(g))):
            fast, slow = RandomStream(seed), RandomStream(seed)
            for _ in range(60):
                with np.errstate(invalid="ignore"):
                    got = polynomial_mutation(a, eta_m, p_m, fast, BOUNDS)
                    want = pm_oracle(a, eta_m, p_m, slow, BOUNDS)
                assert np.array_equal(got, want, equal_nan=True)
                assert fast._counter == slow._counter


# -- the pow rule ----------------------------------------------------------------

POW_BASES = [0.0, 5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0),
             2.2250738585072014e-308, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
             3.0, 2.0 ** 40]


@pytest.mark.parametrize("exponent", [1.0 / 16.0, 1.0 / 21.0, 1.0, 16.0, 21.0])
def test_math_pow_is_scalar_power_at_the_edges(exponent):
    # Variation computes its powers with math.pow; the per-gene oracles use **
    # on Python floats and on numpy float64 scalars.
    for base in map(float, POW_BASES):
        want = np.float64(base ** exponent).tobytes()
        assert np.float64(math.pow(base, exponent)).tobytes() == want
        assert (np.float64(base) ** exponent).tobytes() == want
    got = _pow(np.array(POW_BASES), exponent)
    assert got.tobytes() == np.array([float(b) ** exponent for b in POW_BASES]).tobytes()


def test_pow_is_numpy_scalar_power_outside_the_bounds():
    # Bases of genes outside the bounds: NaNs of either sign, a negative base
    # with a fractional exponent, and an overflow.  math.pow would keep the
    # NaN's sign or raise.
    bases = np.array([0.25, np.nan, -np.nan, -2.0, 1e300])
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.array([np.float64(b) ** 20.5 for b in bases])
        got = _pow(bases, 20.5)
    assert np.isnan(want[1:4]).all() and np.isinf(want[4])
    assert got.tobytes() == want.tobytes()


# -- one generation of ask() against the per-gene loops, pair by pair -------------

def bits_up_to_nan_sign(genomes):
    """The bytes of ``genomes`` with every NaN made one NaN.

    Mutating a gene outside narrow bounds can give NaN.  Where two NaNs meet
    (a NaN parent), numpy's scalar and array arithmetic keep different NaN
    signs.  A run never varies a NaN parent: a NaN gene makes the evaluation
    non-finite, which aborts the run.  And a NaN's sign reaches no finite
    value.
    """
    return np.where(np.isnan(genomes), np.nan, genomes).tobytes()


@pytest.mark.parametrize("pop_size, genes, bounds, short", [
    pytest.param(8, 5, BOUNDS, False, id="bounds0"),
    pytest.param(8, 5, (0.0, 1.0), False, id="bounds1"),
    pytest.param(8, 5, (-1.0, -0.0), False, id="bounds2"),
    pytest.param(4, 1, BOUNDS, True, id="pop4-g1-short"),
    pytest.param(4, 7, BOUNDS, True, id="pop4-g7-short")])
@pytest.mark.parametrize("p_crossover, p_m", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                              (0.9, None)])
@pytest.mark.parametrize("name", ["GA", "NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2"])
def test_ask_matches_per_pair_operators(monkeypatch, name, p_crossover, p_m, pop_size, genes, bounds, short):
    # Initial genomes are U(-1, 1), so narrow bounds leave parents outside
    # them: the per-pair path mutates those unclamped unless SBX clamped them,
    # and a zero bound meets signed zeros in the clamps.  At pop 4
    # _random_pair redraws a repeated slot one time in four, and p_m = 1.0
    # gives every mutation walk its worst case, 2g draws.  A short window is
    # cut to a random length from one pair's worst case, 6g draws, up to the
    # length asked for, so pairs read new windows at varied distances from
    # a window's end.
    lengths = RandomStream(7)
    peek = RandomStream.peek

    def short_peek(stream, n):
        return peek(stream, 6 * genes + lengths.below(n - 6 * genes + 1))

    for seed in range(3):
        config = AlgorithmConfig(name=name, pop_size=pop_size, bounds=bounds,
                                 p_crossover=p_crossover, p_m=p_m)
        optimizer = make_optimizer(config, genes, RandomStream(seed))
        returns = RandomStream(100 + seed)
        genomes = optimizer.ask()
        for _ in range(3):
            # Returns independent of the genomes, rounded: ties and dominated members.
            k = 3 if name == "NSGA3" else 2
            rounded = np.round(returns.uniform_vector(pop_size * k), 1).reshape(pop_size, k)
            optimizer.tell(Population(genomes, rounded))
            oracle = copy.deepcopy(optimizer)
            with np.errstate(invalid="ignore", over="ignore"), monkeypatch.context() as patch:
                if short:
                    patch.setattr(RandomStream, "peek", short_peek)
                genomes = optimizer.ask()
            with np.errstate(invalid="ignore", over="ignore"):
                want = per_pair_offspring(oracle)
            assert bits_up_to_nan_sign(genomes) == bits_up_to_nan_sign(want)
            assert optimizer.rng._counter == oracle.rng._counter


@pytest.mark.parametrize("name", ["NSGA2", "SMSEMOA", "NSGA3"])
def test_ask_keeps_at_most_one_block_and_the_same_draws(monkeypatch, name):
    # 60 genes make every variation window longer than one block.  The twin
    # keeps each window until its next refill, as before trimming.
    config = AlgorithmConfig(name=name, pop_size=40)
    trimmed = make_optimizer(config, 60, RandomStream(3))
    kept = make_optimizer(config, 60, RandomStream(3))
    returns = RandomStream(4)
    longest = 0
    for _ in range(4):
        genomes = trimmed.ask()
        assert len(trimmed.rng._raw) <= rng._BLOCK
        with monkeypatch.context() as patch:
            patch.setattr(RandomStream, "trim", lambda stream: None)
            want = kept.ask()
        longest = max(longest, len(kept.rng._raw))
        assert genomes.tobytes() == want.tobytes()
        assert trimmed.rng.position == kept.rng.position
        # Rounded returns: ties, several fronts and a niche fill for NSGA-III.
        evaluated = np.round(returns.uniform_vector(40 * 3), 1).reshape(40, 3)
        trimmed.tell(Population(genomes, evaluated))
        kept.tell(Population(want, evaluated))
        assert trimmed.rng.position == kept.rng.position
    assert longest > rng._BLOCK


@pytest.mark.parametrize("name", ["GA", "SMSEMOA"])
def test_vary_reads_a_window_per_pair_when_each_holds_one_worst_case(monkeypatch, name):
    # Past the first pair, every pair of a generation could overrun a
    # window of 6g draws, so it reads its own.
    windows = []
    peek = RandomStream.peek

    def worst_case_peek(stream, n):
        windows.append(n)
        return peek(stream, min(n, 6 * 7))

    config = AlgorithmConfig(name=name, pop_size=4, p_crossover=0.5, p_m=1.0)
    optimizer = make_optimizer(config, 7, RandomStream(0))
    optimizer.tell(Population(optimizer.ask(), np.zeros((4, 2))))
    monkeypatch.setattr(RandomStream, "peek", worst_case_peek)
    optimizer.ask()
    assert len(windows) == (4 if name == "SMSEMOA" else 2)
