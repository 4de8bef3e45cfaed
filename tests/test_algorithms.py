import copy
import functools

import numpy as np
import pytest

from evopareto import harness, pareto
from evopareto.algorithms import (
    AlgorithmConfig,
    DE,
    GA,
    NSGA2,
    NSGA3,
    PSO,
    RNSGA2,
    SMSEMOA,
    SPEA2,
    generate_reference_directions,
    make_optimizer,
    minimum_partitions,
    niche_fill,
    perpendicular_distances,
    reference_point_ranks,
)
from evopareto.algorithms import moea
from evopareto.algorithms.moea import (
    _crowding,
    _fill_by_fronts,
    _raise_ranks,
    _removal_index,
    _truncate_by_fronts,
)
from evopareto.config import parse_config
from evopareto.evaluation import Population
from evopareto.indicators import (
    euclidean_distances,
    hypervolume_contributions,
    hypervolume_exact,
)
from evopareto.rng import RandomStream
from reference import ScriptedStream, smsemoa_removal_index

ALL_NAMES = ("GA", "DE", "PSO", "NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2")


def evaluated(genome, returns):
    """One individual as a one-row population."""
    return Population(np.asarray(genome, dtype=np.float64)[None, :],
                      np.asarray(returns, dtype=np.float64)[None, :])


def stack(individuals):
    """One population of the given individuals, in order."""
    return functools.reduce(Population.join, individuals)


def evaluate_batch(genomes, objective):
    return stack([evaluated(g, objective(np.asarray(g))) for g in genomes])


def drive(optimizer, objective, generations):
    snapshots = []
    for _ in range(generations):
        genomes = optimizer.ask()
        assert len(genomes) == optimizer.config.pop_size
        optimizer.tell(evaluate_batch(genomes, objective))
        snapshots.append(optimizer.population)
    return snapshots


def line2(g):
    return (g[0], -g[0])


def tri3(g):
    return (g[0], g[1], -g[0] - g[1])


def scalar_ramp(g):
    return (g[0], g[0])


def test_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig(name="CMAES")
    with pytest.raises(ValueError):
        AlgorithmConfig(name="GA", pop_size=7)
    with pytest.raises(ValueError):
        AlgorithmConfig(name="GA", bounds=(2.0, -2.0))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_population_size_and_bounds_preserved(name):
    config = AlgorithmConfig(name=name, pop_size=8)
    optimizer = make_optimizer(config, 2, RandomStream(5))
    objective = tri3 if name == "NSGA3" else line2
    for population in drive(optimizer, objective, 4):
        assert len(population) == 8
        genomes = population.genomes
        assert genomes.shape == (8, 2)
        assert np.all((config.bounds[0] <= genomes) & (genomes <= config.bounds[1]))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fixed_seed_reproduces_populations(name):
    objective = tri3 if name == "NSGA3" else line2

    def genome_history(seed):
        config = AlgorithmConfig(name=name, pop_size=8)
        optimizer = make_optimizer(config, 3, RandomStream(seed))
        return [pop.genomes for pop in drive(optimizer, objective, 3)]

    first = genome_history(42)
    second = genome_history(42)
    other = genome_history(43)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert any(not np.array_equal(a, b) for a, b in zip(first, other))


# -- GA ------------------------------------------------------------------------

def test_ga_identical_population_closed_under_variation():
    config = AlgorithmConfig(name="GA", pop_size=4, p_m=0.0)
    ga = GA(config, 3, RandomStream(7))
    ga.ask()
    genome = np.array([0.5, -1.0, 2.0])
    ga.tell(stack([evaluated(genome, (1.0, 1.0))] * 4))
    for child in ga.ask():
        assert np.array_equal(child, genome)


def test_ga_best_scalar_monotone():
    config = AlgorithmConfig(name="GA", pop_size=8)
    ga = GA(config, 1, RandomStream(3))
    bests = []
    for _ in range(10):
        ga.tell(evaluate_batch(ga.ask(), scalar_ramp))
        bests.append(ga.population.scalars.max())
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


def test_ga_offspring_match_hand_trace():
    # pop 2, one gene.  Scripted draws: init (2 ignored), then
    # tournaments (0 vs 1 -> A wins; 1 vs 1 -> B), pair draw 0.5 < 0.9 so SBX
    # fires, gene applied (0.3 < 0.5) with spread u = 0.8, and both PM draws
    # miss (0.99 >= p_m is impossible at p_m=0, draws still consumed).
    config = AlgorithmConfig(name="GA", pop_size=2, p_m=0.0)
    stream = ScriptedStream(
        uniforms=[0.5, 0.5] + [0.5, 0.3, 0.8, 0.99, 0.99],
        ints=[0, 1, 1, 1],
    )
    ga = GA(config, 1, stream)
    ga.ask()
    ga.tell(stack([evaluated([0.0], (1.0, 1.0)), evaluated([1.0], (0.0, 0.0))]))
    offspring = ga.ask()
    beta = (1.0 / (2.0 * (1.0 - 0.8))) ** (1.0 / 16.0)
    assert offspring[0][0] == pytest.approx(0.5 * (1.0 - beta), abs=1e-14)
    assert offspring[1][0] == pytest.approx(0.5 * (1.0 + beta), abs=1e-14)


def test_ga_elite_survives():
    config = AlgorithmConfig(name="GA", pop_size=2)
    ga = GA(config, 1, RandomStream(1))
    ga.ask()
    elite = evaluated([2.0], (9.0, 9.0))
    ga.tell(stack([elite, evaluated([0.0], (0.0, 0.0))]))
    ga.ask()
    ga.tell(stack([evaluated([0.1], (1.0, 1.0)), evaluated([0.2], (2.0, 2.0))]))
    scalars = ga.population.scalars.tolist()
    assert 9.0 in scalars


# -- DE ------------------------------------------------------------------------

def test_de_requires_four_individuals():
    with pytest.raises(ValueError):
        DE(AlgorithmConfig(name="DE", pop_size=2), 2, RandomStream(1))


def test_de_trials_match_rand1bin_formula():
    config = AlgorithmConfig(name="DE", pop_size=4, de_f=0.5, de_cr=0.9)
    ints = []
    for i in range(4):
        ints += [(i + 1) % 4, (i + 2) % 4, (i + 3) % 4, 0]  # donors + j_rand
    stream = ScriptedStream(uniforms=[0.5] * 4 + [0.5] * 4, ints=ints)
    de = DE(config, 1, stream)
    de.ask()
    genomes = [np.array([float(i)]) for i in range(4)]
    de.tell(stack([evaluated(g, (0.0, 0.0)) for g in genomes]))
    trials = de.ask()
    for i in range(4):
        r1, r2, r3 = (i + 1) % 4, (i + 2) % 4, (i + 3) % 4
        expected = genomes[r1][0] + 0.5 * (genomes[r2][0] - genomes[r3][0])
        assert trials[i][0] == pytest.approx(expected, abs=1e-14)


def test_de_zero_f_copies_first_donor():
    config = AlgorithmConfig(name="DE", pop_size=4, de_f=0.0, de_cr=0.9)
    ints = []
    for i in range(4):
        ints += [(i + 1) % 4, (i + 2) % 4, (i + 3) % 4, 0]
    stream = ScriptedStream(uniforms=[0.5] * 4 + [0.1] * 4, ints=ints)
    de = DE(config, 1, stream)
    de.ask()
    genomes = [np.array([float(i)]) for i in range(4)]
    de.tell(stack([evaluated(g, (0.0, 0.0)) for g in genomes]))
    trials = de.ask()
    for i in range(4):
        assert trials[i][0] == genomes[(i + 1) % 4][0]


def de_trials_per_slot(de):
    """Oracle: DE's rand/1/bin trials built one slot at a time."""
    lo, hi = de.config.bounds
    x = de.population.genomes
    trials = np.empty_like(x)
    for i in range(de.config.pop_size):
        r1, r2, r3 = de._distinct_donors(i)
        mutant = x[r1] + de.config.de_f * (x[r2] - x[r3])
        j_rand = de.rng.below(de.n_genes)
        crossed = de.rng.uniform_vector(de.n_genes) < de.config.de_cr
        crossed[j_rand] = True
        trials[i] = np.clip(np.where(crossed, mutant, x[i]), lo, hi)
    return trials


@pytest.mark.parametrize("bounds", [(-5.0, 5.0), (0.0, 1.0), (-1.0, -0.0)])
@pytest.mark.parametrize("de_cr", [0.0, 0.5, 1.0])
def test_de_trials_match_per_slot_oracle(bounds, de_cr):
    for seed in range(3):
        de = DE(AlgorithmConfig(name="DE", pop_size=6, bounds=bounds, de_cr=de_cr), 5,
                RandomStream(seed))
        returns = RandomStream(50 + seed)
        genomes = de.ask()
        for _ in range(3):
            de.tell(Population(genomes, returns.uniform_vector(12).reshape(6, 2)))
            oracle = copy.deepcopy(de)
            genomes = de.ask()
            assert genomes.tobytes() == de_trials_per_slot(oracle).tobytes()
            assert de.rng._counter == oracle.rng._counter


def test_de_greedy_selection():
    config = AlgorithmConfig(name="DE", pop_size=4)
    de = DE(config, 1, RandomStream(9))
    de.ask()
    de.tell(stack([evaluated([float(i)], (float(i), float(i))) for i in range(4)]))
    de.generation += 1  # worse trials everywhere: population unchanged
    de._absorb(stack([evaluated([9.0], (-1.0, -1.0))] * 4))
    assert de.population.scalars.tolist() == [0.0, 1.0, 2.0, 3.0]
    de._absorb(stack([evaluated([7.0], (5.0, 5.0))] * 4))  # better everywhere
    assert de.population.scalars.tolist() == [5.0] * 4


def test_de_best_scalar_monotone():
    config = AlgorithmConfig(name="DE", pop_size=8)
    de = DE(config, 1, RandomStream(30))
    bests = []
    for _ in range(10):
        de.tell(evaluate_batch(de.ask(), scalar_ramp))
        bests.append(de.population.scalars.max())
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


# -- PSO -----------------------------------------------------------------------

def test_pso_stationary_when_at_both_bests():
    config = AlgorithmConfig(name="PSO", pop_size=2)
    pso = PSO(config, 2, RandomStream(4))
    pso.ask()
    genome = np.array([0.3, -0.6])
    pso.tell(stack([evaluated(genome, (1.0, 1.0))] * 2))
    for proposal in pso.ask():
        assert np.array_equal(proposal, genome)


def test_pso_one_step_matches_hand_computation():
    config = AlgorithmConfig(name="PSO", pop_size=2)
    u1 = np.array([0.5, 0.5])
    u2 = np.array([0.25, 0.75])
    stream = ScriptedStream(uniforms=[0.0] * 4 + list(u1) + list(u2) + [0.0] * 4)
    pso = PSO(config, 2, stream)
    pso.ask()
    x0 = np.array([0.0, 0.0])
    x1 = np.array([1.0, 1.0])
    pso.tell(stack([evaluated(x0, (0.0, 0.0)), evaluated(x1, (2.0, 2.0))]))
    proposals = pso.ask()
    velocity = config.pso_c2 * u2 * (x1 - x0)  # inertia and pbest terms vanish
    assert np.allclose(proposals[0], x0 + velocity, atol=1e-14)
    assert np.array_equal(proposals[1], x1)  # at pbest == gbest, v stays zero


def test_pso_population_is_personal_best_memory():
    config = AlgorithmConfig(name="PSO", pop_size=2)
    pso = PSO(config, 1, RandomStream(8))
    pso.ask()
    pso.tell(stack([evaluated([0.0], (5.0, 5.0)), evaluated([1.0], (1.0, 1.0))]))
    pso.ask()
    pso.tell(stack([evaluated([0.2], (3.0, 3.0)), evaluated([1.2], (2.0, 2.0))]))
    scalars = sorted(pso.population.scalars.tolist())
    assert scalars == [2.0, 5.0]  # slot 0 keeps 5, slot 1 improves to 2
    assert pso.population.scalars.max() == 5.0


def test_pso_gbest_monotone():
    config = AlgorithmConfig(name="PSO", pop_size=8)
    pso = PSO(config, 1, RandomStream(12))
    bests = []
    for _ in range(10):
        pso.tell(evaluate_batch(pso.ask(), scalar_ramp))
        bests.append(pso.population.scalars.max())
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


# -- scalar survival against per-slot oracles -----------------------------------

def slots(population):
    return [population.take([i]) for i in range(len(population))]


def ga_elitism_by_slots(population, offspring):
    """Oracle: the offspring replace the population, and a strictly better
    elite takes the first worst offspring's slot."""
    elite = max(slots(population), key=lambda ind: ind.scalars[0])
    new = slots(offspring)
    if elite.scalars[0] > max(ind.scalars[0] for ind in new):
        worst = min(range(len(new)), key=lambda i: new[i].scalars[0])
        new[worst] = elite
    return stack(new)


def replace_by_slots(population, challengers, better):
    """Oracle: slot i takes challenger i where ``better(challenger, held)``."""
    held = slots(population)
    for i, challenger in enumerate(slots(challengers)):
        if better(challenger.scalars[0], held[i].scalars[0]):
            held[i] = challenger
    return stack(held)


def survival_cases():
    """Seeded (population, offspring) pairs whose scalars tie often."""
    stream = RandomStream(31)
    cases = []
    for trial in range(150):
        n = 2 * (2 + stream.below(5))
        decimals = trial % 3  # 0 decimals: almost every scalar ties
        pair = []
        for _ in range(2):
            genomes = stream.uniform_vector(2 * n, -5.0, 5.0).reshape(n, 2)
            pair.append(stack([evaluated(g, np.round(stream.uniform_vector(2), decimals))
                               for g in genomes]))
        cases.append(tuple(pair))
    return cases + [all_tied_case()]


def all_tied_case():
    """Population and offspring of 4 whose scalars all equal 1.0."""
    return (stack([evaluated([float(i)], (1.0, 1.0)) for i in range(4)]),
            stack([evaluated([10.0 + i], (1.0, 1.0)) for i in range(4)]))


def assert_same_population(got, expected):
    assert np.array_equal(got.genomes, expected.genomes)
    assert np.array_equal(got.returns, expected.returns)
    assert np.array_equal(got.scalars, expected.scalars)


@pytest.mark.parametrize("name", ["GA", "DE", "PSO"])
def test_scalar_survival_matches_per_slot_oracle(name):
    oracles = {
        "GA": ga_elitism_by_slots,
        "DE": lambda pop, new: replace_by_slots(pop, new, lambda c, h: c >= h),
        "PSO": lambda pop, new: replace_by_slots(pop, new, lambda c, h: c > h),
    }
    for population, offspring in survival_cases():
        n = len(population)
        optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=n),
                                   population.genomes.shape[1], RandomStream(1))
        optimizer.ask()
        optimizer.tell(population)
        optimizer.ask()
        optimizer.tell(offspring)
        assert_same_population(optimizer.population, oracles[name](population, offspring))


def test_scalar_survival_tie_rules():
    population, offspring = all_tied_case()
    for name, expected in (("GA", offspring), ("DE", offspring), ("PSO", population)):
        optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=4), 1, RandomStream(1))
        optimizer.ask()
        optimizer.tell(population)
        optimizer.ask()
        optimizer.tell(offspring)
        assert_same_population(optimizer.population, expected)
    # GA: an elite better than every child replaces the first of tied worst children.
    ga = make_optimizer(AlgorithmConfig(name="GA", pop_size=4), 1, RandomStream(1))
    ga.ask()
    ga.tell(stack([evaluated([9.0], (5.0, 5.0))] * 4))
    ga.ask()
    ga.tell(stack([evaluated([float(i)], r) for i, r in
                   enumerate([(1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (2.0, 2.0)])]))
    assert ga.population.genomes[:, 0].tolist() == [0.0, 9.0, 2.0, 3.0]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_recorded_populations_are_never_mutated(name):
    optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=8), 2, RandomStream(19))
    objective = tri3 if name == "NSGA3" else line2
    recorded = []
    for _ in range(6):
        optimizer.tell(evaluate_batch(optimizer.ask(), objective))
        recorded.append((optimizer.population, copy.deepcopy(optimizer.population)))
    for population, at_record_time in recorded:
        assert_same_population(population, at_record_time)


# -- NSGA-II -------------------------------------------------------------------

def test_nsga2_keeps_exactly_full_first_front():
    config = AlgorithmConfig(name="NSGA2", pop_size=2)
    nsga = NSGA2(config, 1, RandomStream(2))
    nsga.ask()
    nsga.tell(stack([evaluated([0.0], (1.0, 2.0)), evaluated([1.0], (2.0, 1.0))]))
    nsga.generation += 1
    nsga._absorb(stack([evaluated([2.0], (0.0, 0.0)), evaluated([3.0], (0.5, 0.5))]))
    survivors = {tuple(r) for r in nsga.population.returns}
    assert survivors == {(1.0, 2.0), (2.0, 1.0)}


def test_nsga2_fills_last_front_by_crowding():
    config = AlgorithmConfig(name="NSGA2", pop_size=4)
    nsga = NSGA2(config, 1, RandomStream(2))
    nsga.ask()
    front0 = [(10.0, 10.0), (11.0, 9.0)]
    nsga.tell(stack([evaluated([0.0], front0[0]), evaluated([1.0], front0[1]),
               evaluated([2.0], (0.0, 3.0)), evaluated([3.0], (3.0, 0.0))]))
    nsga.generation += 1
    nsga._absorb(stack([evaluated([4.0], (1.0, 2.0)), evaluated([5.0], (2.0, 1.0)),
                  evaluated([6.0], (0.5, 0.5)), evaluated([7.0], (0.2, 0.2))]))
    survivors = {tuple(r) for r in nsga.population.returns}
    # Whole first front plus the two boundary points of the second front.
    assert survivors == {(10.0, 10.0), (11.0, 9.0), (0.0, 3.0), (3.0, 0.0)}


def test_nsga2_crowding_tie_breaks_by_input_order():
    config = AlgorithmConfig(name="NSGA2", pop_size=2)
    nsga = NSGA2(config, 1, RandomStream(2))
    nsga.ask()
    nsga.tell(stack([evaluated([0.0], (0.0, 3.0)), evaluated([1.0], (1.0, 2.0))]))
    nsga.generation += 1
    # Pool front: four points, boundaries tie at +inf; interior points tie at
    # equal crowding, so the earlier pool index must win the last slot.
    nsga._absorb(stack([evaluated([2.0], (2.0, 1.0)), evaluated([3.0], (3.0, 0.0))]))
    kept = [tuple(r) for r in nsga.population.returns]
    assert kept == [(0.0, 3.0), (3.0, 0.0)]


def test_nsga2_no_survivor_dominated_by_discarded():
    config = AlgorithmConfig(name="NSGA2", pop_size=8)
    nsga = NSGA2(config, 2, RandomStream(6))
    stream = RandomStream(77)
    pool_history = []
    for _ in range(5):
        genomes = nsga.ask()
        evaluated_batch = evaluate_batch(
            genomes, lambda g: (g[0] + stream.uniform(), g[1] + stream.uniform()))
        pool_history.append(evaluated_batch)
        nsga.tell(evaluated_batch)
    survivors = nsga.population.returns
    discarded = [r for batch in pool_history for r in batch.returns
                 if not any(np.array_equal(r, s) for s in survivors)]
    last_pool_discarded = discarded[-8:]
    ranks = pareto.fast_nondominated_sort(np.vstack([survivors, last_pool_discarded]))
    # No discarded point may sit at a strictly better rank than any survivor
    # of the pool it lost to (fill rule keeps whole best fronts).
    assert ranks[: len(survivors)].max() <= ranks.max()


# -- SPEA2 ---------------------------------------------------------------------

def test_spea2_strength_and_raw_fitness_example():
    config = AlgorithmConfig(name="SPEA2", pop_size=2)
    spea = SPEA2(config, 1, RandomStream(2))
    points = np.array([(3.0, 3.0), (2.0, 2.0), (1.0, 1.0)])
    fitness = spea._fitness(points, SPEA2._distances(points))
    assert np.floor(fitness).tolist() == [0.0, 2.0, 3.0]
    assert fitness[0] < 1.0


def test_spea2_truncation_removes_middle_of_collinear_triple():
    points = np.array([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
    alive = SPEA2._truncate(SPEA2._distances(points), [0, 1, 2], 2)
    assert alive == [0, 2]


def truncate_by_sorted_neighbours(points, candidates, keep):
    """Oracle: drop the first member whose sorted neighbour distances are
    lexicographically least, one Python ``min`` per removal."""
    alive = list(candidates)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2)).tolist()
    while len(alive) > keep:
        victim = min(alive, key=lambda i: sorted(dist[i][j] for j in alive if j != i))
        alive.remove(victim)
    return alive


def test_spea2_truncation_matches_oracle():
    stream = RandomStream(17)
    for trial in range(120):
        n = 3 + stream.below(28)
        points = stream.uniform_vector(2 * n).reshape(n, 2)
        if trial % 2:
            points = np.round(points, 1)  # tied distances: first in order must win
        candidates = [int(i) for i in np.flatnonzero(stream.uniform_vector(n) < 0.8)]
        if trial % 3 == 0:
            candidates.reverse()
        keep = 1 + stream.below(max(len(candidates), 1))
        expected = truncate_by_sorted_neighbours(points, candidates, keep)
        assert SPEA2._truncate(SPEA2._distances(points), candidates, keep) == expected, \
            f"trial {trial}"
    # Pools the size of a pop-50 generation: up to 100 candidates, keep 50,
    # in 3-D as well, with rounded coordinates and duplicated rows.
    for trial in range(8):
        k = 2 + trial % 2
        half = stream.uniform_vector(50 * k).reshape(50, k)
        if trial % 4 >= 2:
            half = np.round(half, 1)
        points = np.vstack([half, half[: 50 - 5 * trial]])  # duplicated rows
        candidates = list(range(len(points)))
        if trial % 3 == 0:
            candidates.reverse()
        expected = truncate_by_sorted_neighbours(points, candidates, 50)
        assert SPEA2._truncate(SPEA2._distances(points), candidates, 50) == expected, \
            f"pool trial {trial}"


def test_spea2_truncation_breaks_ties_by_candidate_order():
    # Four corners of a square: every member has the same neighbour row.
    points = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    dist = SPEA2._distances(points)
    assert SPEA2._truncate(dist, [2, 0, 3, 1], 3) == [0, 3, 1]
    assert SPEA2._truncate(dist, [0, 1, 2, 3], 3) == [1, 2, 3]


def truncate_by_sorted_rows(dist, candidates, keep):
    """Oracle: :func:`truncate_by_sorted_neighbours` on a given distance matrix."""
    alive = list(candidates)
    rows = dist.tolist()
    while len(alive) > keep:
        victim = min(alive, key=lambda i: sorted(rows[i][j] for j in alive if j != i))
        alive.remove(victim)
    return alive


def test_spea2_truncation_orders_rows_by_value_over_the_whole_double_range():
    # Distances from 0.0 through subnormals to the largest double and inf,
    # few distinct values, so rows tie over many columns.
    values = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0,
                       np.nextafter(1.0, 2.0), 1e300, np.finfo(float).max, np.inf])
    stream = RandomStream(41)
    for trial in range(150):
        n = 3 + stream.below(10)
        picks = [stream.below(4 if trial % 2 else len(values)) for _ in range(n * n)]
        upper = np.triu(values[picks].reshape(n, n), 1)
        dist = upper + upper.T
        np.fill_diagonal(dist, np.inf)
        candidates = list(range(n))[::(-1) ** trial]
        keep = 1 + stream.below(n - 1)
        assert SPEA2._truncate(dist, candidates, keep) == \
            truncate_by_sorted_rows(dist, candidates, keep), f"trial {trial}"


def truncate_by_row_deletion(dist, candidates, keep):
    """Oracle: the sorted rows of every candidate, kept in step by deleting
    the victim's row and one copy of its distance from every other row; the
    victim is the least row by its big-endian bytes."""
    alive = np.asarray(candidates, dtype=np.int64)
    rows = np.sort(dist[np.ix_(alive, alive)], axis=1)
    while len(alive) > keep:
        m = len(alive)
        victim = int(np.argmin(rows.astype(">f8").view(f"S{8 * m}").ravel()))
        gone = dist[alive, alive[victim]]
        kept = np.ones((m, m), dtype=bool)
        kept[np.arange(m), np.argmax(rows >= gone[:, None], axis=1)] = False
        kept[victim] = False
        rows = rows[kept].reshape(m - 1, m - 1)
        alive = np.delete(alive, victim)
    return alive.tolist()


def tie_heavy_fronts(stream):
    """Point sets whose distances tie often: integer grids, lines of equal
    steps, rounded fronts with duplicated rows, and regular polygons."""
    for trial in range(300):
        kind = trial % 4
        n = 4 + stream.below(60)
        if kind == 0:
            points = np.floor(stream.uniform_vector(2 * n).reshape(n, 2) * 5.0)
        elif kind == 1:
            steps = np.arange(n, dtype=np.float64)
            points = np.column_stack([steps, -steps])
        elif kind == 2:
            half = np.round(stream.uniform_vector(3 * n).reshape(n, 3), 1)
            points = np.vstack([half, half[: stream.below(n)]])
        else:
            angles = 2.0 * np.pi * np.arange(n) / n
            points = np.column_stack([np.cos(angles), np.sin(angles)])
        yield trial, points


def test_spea2_truncation_matches_row_deletion_on_ties():
    stream = RandomStream(43)
    for trial, points in tie_heavy_fronts(stream):
        dist = SPEA2._distances(points)
        candidates = [int(i) for i in np.flatnonzero(stream.uniform_vector(len(points)) < 0.9)]
        if trial % 3 == 0:
            candidates.reverse()
        keep = 1 + stream.below(max(len(candidates), 1))
        assert SPEA2._truncate(dist, candidates, keep) == \
            truncate_by_row_deletion(dist, candidates, keep), f"trial {trial}"


def archive_rows_by_lists(fitness, dist, keep):
    """Oracle: nondominated members in index order, truncated when too many,
    else topped up with dominated members sorted by (fitness, index)."""
    nondominated = [i for i in range(len(fitness)) if fitness[i] < 1.0]
    if len(nondominated) > keep:
        return SPEA2._truncate(dist, nondominated, keep)
    dominated = sorted((i for i in range(len(fitness)) if fitness[i] >= 1.0),
                       key=lambda i: (fitness[i], i))
    return nondominated + dominated[: keep - len(nondominated)]


def test_spea2_archive_matches_list_oracle():
    stream = RandomStream(23)
    for trial in range(120):
        n = 4 + stream.below(20)
        keep = 2 * (1 + stream.below(n // 2))
        returns = np.round(stream.uniform_vector(2 * n).reshape(n, 2), trial % 3)
        spea = SPEA2(AlgorithmConfig(name="SPEA2", pop_size=keep), 1, RandomStream(1))
        spea._select_archive(stack([evaluated([float(i)], r) for i, r in enumerate(returns)]))
        dist = SPEA2._distances(returns)
        rows = archive_rows_by_lists(spea._fitness(returns, dist), dist, keep)
        assert spea.population.genomes[:, 0].tolist() == [float(i) for i in rows], f"trial {trial}"


def test_spea2_fills_archive_with_best_dominated():
    config = AlgorithmConfig(name="SPEA2", pop_size=4)
    spea = SPEA2(config, 1, RandomStream(3))
    spea.ask()
    spea.tell(stack([evaluated([0.0], (5.0, 5.0)), evaluated([1.0], (4.0, 4.0)),
               evaluated([2.0], (3.0, 3.0)), evaluated([3.0], (1.0, 1.0))]))
    returns = sorted(tuple(r) for r in spea.population.returns)
    assert returns == [(1.0, 1.0), (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)]
    assert len(spea.population) == 4


def test_spea2_truncates_surplus_nondominated_archive():
    config = AlgorithmConfig(name="SPEA2", pop_size=2)
    spea = SPEA2(config, 1, RandomStream(3))
    spea.ask()
    spea.tell(stack([evaluated([0.0], (1.0, 2.0)), evaluated([1.0], (2.0, 1.0))]))
    spea.generation += 1
    # Union has three nondominated points; (1.5, 1.5) has the closest
    # neighbours lexicographically, so truncation drops it.
    spea._absorb(stack([evaluated([2.0], (0.0, 0.0)), evaluated([3.0], (1.5, 1.5))]))
    survivors = {tuple(r) for r in spea.population.returns}
    assert survivors == {(1.0, 2.0), (2.0, 1.0)}


# -- SMS-EMOA ------------------------------------------------------------------

def test_smsemoa_removes_dominated_point_first():
    points = np.array([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.0, 0.0)])
    assert smsemoa_removal_index(points) in (0, 3)
    # Worst rank is {(0,0)} alone after peeling: index 3.
    assert smsemoa_removal_index(points) == 3


def test_smsemoa_removes_duplicate_with_zero_contribution():
    points = np.array([(1.0, 0.1), (0.5, 0.5), (0.5, 0.5), (0.1, 1.0)])
    assert smsemoa_removal_index(points) == 1  # first zero-contribution twin


def test_smsemoa_removes_least_contributing_edge():
    # In minimization form these are {(−1,−0.1),(−0.5,−0.5),(−0.1,−1)} with
    # ref = nadir + 10% range = (−0.01,−0.01): edge boxes 0.045, middle 0.16,
    # so an edge point (never the middle) must go.
    points = np.array([(1.0, 0.1), (0.5, 0.5), (0.1, 1.0)])
    assert smsemoa_removal_index(points) in (0, 2)


def test_smsemoa_rejects_many_objectives():
    config = AlgorithmConfig(name="SMSEMOA", pop_size=2)
    sms = SMSEMOA(config, 1, RandomStream(5))
    sms.ask()
    with pytest.raises(ValueError):
        sms.tell(stack([evaluated([0.0], (1.0, 2.0, 3.0, 4.0))] * 2))


def test_smsemoa_step_never_loses_hypervolume():
    config = AlgorithmConfig(name="SMSEMOA", pop_size=8)
    sms = SMSEMOA(config, 1, RandomStream(21))
    sms.tell(evaluate_batch(sms.ask(), line2))
    stream = RandomStream(99)
    population = sms.population
    for _ in range(20):
        child = evaluated([stream.uniform(-5, 5)],
                          (stream.uniform(-5, 5), stream.uniform(-5, 5)))
        pool = population.join(child).returns
        minimized = -pool
        nadir = minimized.max(axis=0)
        span = nadir - minimized.min(axis=0)
        ref = nadir + np.where(span > 0.0, 0.1 * span, 1.0)
        before = hypervolume_exact(minimized[:-1], ref)
        drop = smsemoa_removal_index(pool)
        survivors = [p for i, p in enumerate(pool) if i != drop]
        after = hypervolume_exact(-np.array(survivors), ref)
        assert after >= before - 1e-12
        population = population.join(child).take([i for i in range(len(pool)) if i != drop])


def absorb_by_full_sorts(self, evaluated):
    """Oracle: SMS-EMOA survival with a full nondominated sort per insertion."""
    pool = self.population.join(evaluated)
    alive = np.arange(len(self.population))
    for child in range(len(self.population), len(pool)):
        alive = np.append(alive, child)
        alive = np.delete(alive, smsemoa_removal_index(pool.returns[alive]))
    self.population = pool.take(alive)


def smsemoa_generations(monkeypatch, environment, absorb):
    """Population after each generation of a seeded SMS-EMOA run that
    survives by ``absorb``, and the number of fronts of each joined pool."""
    populations, front_counts = [], []

    def recording(self, evaluated):
        pool = self.population.join(evaluated)
        front_counts.append(int(pareto.fast_nondominated_sort(pool.returns).max()) + 1)
        absorb(self, evaluated)
        populations.append(self.population)

    monkeypatch.setattr(SMSEMOA, "_absorb", recording)
    config = parse_config(f"environment = {environment}\nalgorithms = SMSEMOA\n"
                          "pop_size = 12\ngenerations = 6\nn_episodes = 1\n"
                          "n_runs = 1\nmaster_seed = 5\n")
    harness.execute_runs(config, [("SMSEMOA", 0)])
    return populations, front_counts


@pytest.mark.parametrize("environment", ["TradeoffBandit", "HopLander"])
def test_smsemoa_one_matrix_per_generation_matches_full_sorts(monkeypatch, environment):
    kernel = SMSEMOA._absorb
    got, fronts = smsemoa_generations(monkeypatch, environment, kernel)
    expected, _ = smsemoa_generations(monkeypatch, environment, absorb_by_full_sorts)
    if environment == "TradeoffBandit":
        assert max(fronts) == 1  # k = 2, one front
    else:
        assert got[0].returns.shape[1] == 3 and max(fronts) >= 4
    assert len(got) == len(expected) == 5
    for a, b in zip(got, expected):
        assert np.array_equal(a.genomes, b.genomes)
        assert np.array_equal(a.returns, b.returns)
        assert np.array_equal(a.scalars, b.scalars)


@pytest.mark.parametrize("k", [2, 3])
def test_smsemoa_absorb_with_duplicate_returns_matches_full_sorts(k):
    stream = RandomStream(33 + k)
    sms = SMSEMOA(AlgorithmConfig(name="SMSEMOA", pop_size=10), 2, RandomStream(4))
    returns = np.round(stream.uniform_vector(20 * k).reshape(20, k), 1)
    returns[5:10] = returns[0:5]    # duplicates inside the population
    returns[10:13] = returns[2:5]   # offspring equal to members
    returns[13:15] = returns[18]    # offspring equal to each other
    pool = stack([evaluated(stream.uniform_vector(2), r) for r in returns])
    sms.population = pool.take(np.arange(10))
    oracle = copy.deepcopy(sms)
    sms._absorb(pool.take(np.arange(10, 20)))
    absorb_by_full_sorts(oracle, pool.take(np.arange(10, 20)))
    assert pareto.fast_nondominated_sort(returns).max() >= 1
    assert np.array_equal(sms.population.genomes, oracle.population.genomes)
    assert np.array_equal(sms.population.returns, oracle.population.returns)
    assert np.array_equal(sms.population.scalars, oracle.population.scalars)


def count_exact_calls(monkeypatch) -> list:
    """Count SMS-EMOA's exact contribution sweeps: the returned list grows
    by one entry, the front's size, per call."""
    calls = []

    def contributions(front, ref):
        calls.append(len(front))
        return hypervolume_contributions(front, ref)

    monkeypatch.setattr(moea, "hypervolume_contributions", contributions)
    return calls


def absorb_by_slice_and_peel(self, evaluated):
    """Oracle: SMS-EMOA survival that re-slices the alive rows and peels their
    dominance sub-matrix at every insertion."""
    pool = self.population.join(evaluated)
    points = pareto.as_points(pool.returns)
    dom = pareto._dominance_matrix(points)
    alive = np.arange(len(self.population))
    for child in range(len(self.population), len(pool)):
        alive = np.append(alive, child)
        ranks = pareto._peel_ranks(dom[np.ix_(alive, alive)])
        alive = np.delete(alive, _removal_index(points[alive], np.flatnonzero(ranks == ranks.max())))
    self.population = pool.take(alive)


def smsemoa_pool(stream, k, kind):
    """20 returns for a population of 10 and 10 children, rounded to one
    decimal, with duplicates and signed zeros.  ``front`` pools lie on the
    plane where the coordinates sum to 1, so they are mutually nondominated
    but for the children pushed below it."""
    if kind == "front":
        head = np.round(stream.uniform_vector(20 * (k - 1)).reshape(20, k - 1), 1)
        returns = np.column_stack([head, 1.0 - head.sum(axis=1)])
        returns[12:20:3] -= 0.5
    else:
        returns = np.round(stream.uniform_vector(20 * k).reshape(20, k), 1)
    returns[4:6] = returns[0:2]     # duplicates inside the population
    returns[10:12] = returns[2:4]   # children equal to members
    returns[13] = returns[14]       # children equal to each other
    signs = stream.uniform_vector(returns.size).reshape(returns.shape) < 0.5
    return np.where((returns == 0.0) & signs, -0.0, returns)


@pytest.mark.parametrize("k", [2, 3])
def test_smsemoa_absorb_matches_slice_and_peel(monkeypatch, k):
    stream = RandomStream(70 + k)
    raised = []

    def raise_ranks(dom, alive, ranks, child):
        before = ranks.copy()
        _raise_ranks(dom, alive, ranks, child)
        grew = alive & (ranks > before)
        grew[child] = False
        raised.extend(np.flatnonzero(grew).tolist())

    monkeypatch.setattr(moea, "_raise_ranks", raise_ranks)
    exact = count_exact_calls(monkeypatch)
    insertions = 0
    for trial in range(30):
        returns = smsemoa_pool(stream, k, ("front", "random")[trial % 2])
        pool = stack([evaluated(stream.uniform_vector(2), r) for r in returns])
        sms = SMSEMOA(AlgorithmConfig(name="SMSEMOA", pop_size=10), 2, RandomStream(4))
        sms.population = pool.take(np.arange(10))
        oracle = copy.deepcopy(sms)
        sms._absorb(pool.take(np.arange(10, 20)))
        insertions += 10
        with monkeypatch.context() as m:
            m.setattr(moea, "hypervolume_contributions", hypervolume_contributions)
            absorb_by_slice_and_peel(oracle, pool.take(np.arange(10, 20)))
        assert np.array_equal(sms.population.genomes, oracle.population.genomes)
        assert sms.population.returns.tobytes() == oracle.population.returns.tobytes()
    # Insertions raised the ranks of rows below the child, and in 2-D the
    # screen decided some removals and left others to the exact sweep; in
    # 3-D every removal from a front of two or more is exact.
    assert raised
    if k == 2:
        assert 0 < len(exact) < insertions
    else:
        assert len(exact) > 0


@pytest.mark.parametrize("k", [2, 3])
def test_raised_ranks_equal_peeled_ranks(k):
    # Rounded returns: duplicates, ties in one coordinate and long chains.
    stream = RandomStream(90 + k)
    grown = 0
    for trial in range(40):
        returns = np.round(stream.uniform_vector(24 * k).reshape(24, k), 1)
        dom = pareto._dominance_matrix(returns)
        alive = np.zeros(24, dtype=bool)
        alive[:12] = True
        ranks = np.zeros(24, dtype=np.int64)
        ranks[:12] = pareto._peel_ranks(dom[:12, :12])
        for child in range(12, 24):
            alive[child] = True
            before = ranks.copy()
            _raise_ranks(dom, alive, ranks, child)
            members = np.flatnonzero(alive)
            assert np.array_equal(ranks[members], pareto._peel_ranks(dom[np.ix_(members, members)])), \
                f"trial {trial}, child {child}"
            grown += int(np.count_nonzero(ranks[members] > before[members])) - 1
            # Any worst-front member may go: it dominates no alive row.
            worst = members[ranks[members] == ranks[members].max()]
            alive[worst[stream.below(len(worst))]] = False
    assert grown > 0


def removal_by_contributions(points, worst_front):
    """Oracle: the worst-front row with the first least exact contribution.

    The points are first scaled by one power of two, which brings the
    largest magnitude into [0.5, 1).  That multiplies every contribution by
    one factor, exactly, and keeps the sweep clear of overflow and underflow
    at every scale the cases use."""
    minimized = -np.ldexp(points, -np.frexp(np.abs(points).max())[1])
    nadir = minimized.max(axis=0)
    span = nadir - minimized.min(axis=0)
    ref = nadir + np.where(span > 0.0, 0.1 * span, 1.0)
    return int(worst_front[np.argmin(hypervolume_contributions(minimized[worst_front], ref))])


def removal_cases(stream):
    """(kind, maximization points, worst front) cases for the 2-D screen.

    Each front is mutually nondominated but for its duplicates.  Its rows
    are shuffled among a shifted copy that dominates it, unless ``alone``,
    so the reference point comes from the whole pool (and stays symmetric
    for a symmetric front)."""
    def case(kind, front, alone=False):
        points = front if alone else np.vstack([front, front + np.abs(front).max()])
        order = np.argsort(stream.uniform_vector(len(points)))
        return kind, points[order], np.flatnonzero(order < len(front))

    def curve(m):
        t = np.sort(stream.uniform_vector(m))
        return np.column_stack([t, np.sqrt(1.0 - t * t)])

    for exponent in (-300, -200, -160, -130, -100, -10, 0, 10, 100, 150, 154, 200, 300):
        for _ in range(8):
            yield case(f"scale 1e{exponent}", curve(2 + stream.below(12)) * 10.0 ** exponent)
    for _ in range(30):
        front = curve(3 + stream.below(10))
        yield case("duplicates", np.vstack([front, front[stream.below(len(front)):][:2]]))
    for _ in range(60):
        # Mirror images have equal exact contributions; one coordinate moved
        # by one ulp leaves the least two within an ulp or two.
        half = curve(2 + stream.below(6))
        half = half[half[:, 0] < half[:, 1]]
        if len(half) == 0:
            continue
        front = np.vstack([half, half[:, ::-1]])
        row, col = stream.below(len(front)), stream.below(2)
        front[row, col] = np.nextafter(front[row, col], (-1.0) ** stream.below(2))
        yield case("near tie", front)
    for _ in range(10):
        # x near 1e16 with a span of at most 4, whose 10% rounds away at an
        # ulp of 2: the reference point's x is the nadir's, so the member
        # with the least x lies on it.
        m = 2 + stream.below(2)
        x = 1e16 - 2.0 * np.arange(m)
        yield case("on ref", np.column_stack([x, np.sort(stream.uniform_vector(m))]), alone=True)
    for _ in range(20):
        # One member moved below its right-hand neighbour's y: it is
        # dominated, so the closed form does not hold for this worst front.
        front = curve(3 + stream.below(8))
        row = stream.below(len(front) - 1)
        front[row, 1] = front[row + 1, 1] * (1.0 - stream.uniform())
        yield case("not a front", front)
    for _ in range(30):
        t = np.round(np.sort(stream.uniform_vector(2 + stream.below(8))), 1)
        front = np.unique(np.column_stack([t, 1.0 - t]), axis=0)
        signs = stream.uniform_vector(front.size).reshape(front.shape) < 0.5
        yield case("signed zeros", np.where((front == 0.0) & signs, -0.0, front))


def test_removal_screen_picks_the_exact_least_contribution(monkeypatch):
    exact = count_exact_calls(monkeypatch)
    screened, swept = {}, {}
    # Outside the screen's box range, from scale 1e154 up and 1e-160 down,
    # the exact sweep runs on each objective scaled by a power of two, so it
    # neither overflows to NaN nor underflows to all-zero contributions.
    for kind, points, worst in removal_cases(RandomStream(61)):
        calls = len(exact)
        assert _removal_index(points, worst) == removal_by_contributions(points, worst), kind
        ran = swept if len(exact) > calls else screened
        ran[kind] = ran.get(kind, 0) + 1
    # Boxes inside [2**-900, 2**1000] are screened unless ties or a member on
    # the reference point leave the decision to the exact sweep.
    assert set(screened) == {f"scale 1e{e}" for e in (-130, -100, -10, 0, 10, 100, 150)} | \
        {"signed zeros"}
    assert {"scale 1e-300", "scale 1e-200", "scale 1e-160", "scale 1e154", "scale 1e200",
            "scale 1e300", "duplicates", "near tie", "on ref", "not a front",
            "signed zeros"} == set(swept)
    assert sum(screened.values()) > 50


@pytest.mark.parametrize("k, mixed", [(2, [(600, -600), (-1000, 900)]),
                                      (3, [(600, 600, -300), (-600, -600, 400), (-520, -520, 300)])])
def test_removal_victim_does_not_depend_on_the_scale(k, mixed):
    # At 1e200 and 1e300 the box overflows a double, and at 1e-200 and
    # 1e-300 the sweep's products underflow; the victim stays scale 1's.
    # So it does with the objectives scaled apart by powers of two.  In 3-D
    # the area of the first two sides then overflows (2^600 each) or
    # underflows (2^-600 each), or turns subnormal (2^-520 each) while the
    # box, about 2^-740, is of a size a double holds.
    scales = (1e-300, 1e-200, 1e200, 1e300, *(np.ldexp(1.0, exponents) for exponents in mixed))
    stream = RandomStream(63)
    for trial in range(40):
        m = 3 + stream.below(10)
        if k == 2:
            t = np.sort(stream.uniform_vector(m))
            front = np.column_stack([t, np.sqrt(1.0 - t * t)])
        else:
            head = stream.uniform_vector(2 * m).reshape(m, 2)
            front = np.column_stack([head, 2.0 - head.sum(axis=1)])
        points = np.vstack([front + 1.0, front])
        worst = np.arange(m, 2 * m)
        victim = _removal_index(points, worst)
        assert victim == removal_by_contributions(points, worst)
        with np.errstate(all="raise"):
            for scale in scales:
                assert _removal_index(points * scale, worst) == victim, (trial, scale)


def test_removal_in_3d_is_always_exact(monkeypatch):
    exact = count_exact_calls(monkeypatch)
    stream = RandomStream(62)
    for trial in range(20):
        head = stream.uniform_vector(20).reshape(10, 2)
        points = np.column_stack([head, 2.0 - head.sum(axis=1)])
        worst = np.arange(10)
        assert _removal_index(points, worst) == removal_by_contributions(points, worst)
    assert len(exact) == 20


# -- NSGA-III ------------------------------------------------------------------

def test_reference_direction_counts_and_simplex():
    d34 = generate_reference_directions(3, 4)
    assert d34.shape == (15, 3)
    d249 = generate_reference_directions(2, 49)
    assert d249.shape == (50, 2)
    assert np.allclose(d34.sum(axis=1), 1.0)
    assert np.all(d34 >= 0.0)
    assert np.allclose(d249.sum(axis=1), 1.0)


def test_minimum_partitions():
    assert minimum_partitions(2, 50) == 49
    assert minimum_partitions(3, 50) == 9
    assert minimum_partitions(3, 15) == 4


def test_association_by_perpendicular_distance():
    directions = np.array([(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)])
    points = np.array([(0.0, 1.0), (1.0, 0.0)])
    dists = perpendicular_distances(points, directions)
    assert np.argmin(dists, axis=1).tolist() == [2, 0]
    assert dists[0, 2] == pytest.approx(0.0, abs=1e-15)


def test_niche_fill_single_direction_falls_back_to_distance_order():
    counts = np.zeros(2, dtype=np.int64)
    assoc = np.array([1, 1, 1])
    dist = np.array([0.3, 0.1, 0.2])
    picked = niche_fill(counts, assoc, dist, 2, RandomStream(1))
    assert picked == [1, 2]


def test_niche_fill_prefers_empty_niche():
    counts = np.array([5, 0], dtype=np.int64)
    assoc = np.array([0, 1])
    dist = np.array([0.0, 0.9])
    picked = niche_fill(counts, assoc, dist, 1, RandomStream(1))
    assert picked == [1]


def niche_fill_by_array_rounds(niche_count, candidate_assoc, candidate_dist, need, rng):
    """Oracle: niche fill with a few array calls per round."""
    counts = niche_count.copy()
    available = np.ones(counts.shape[0], dtype=bool)
    taken = np.zeros(candidate_assoc.shape[0], dtype=bool)
    picked = []
    while len(picked) < need:
        open_dirs = np.flatnonzero(available)
        least = open_dirs[counts[open_dirs] == counts[open_dirs].min()]
        direction = int(least[rng.below(len(least))])
        members = np.flatnonzero((candidate_assoc == direction) & ~taken)
        if members.size == 0:
            available[direction] = False
            continue
        choice = int(members[np.argmin(candidate_dist[members])])
        taken[choice] = True
        picked.append(choice)
        counts[direction] += 1
    return picked


def test_niche_fill_matches_array_round_oracle_and_stream_position():
    stream = RandomStream(91)
    closed = 0
    for trial in range(300):
        directions = 1 + stream.below(12)
        n = 1 + stream.below(20)
        counts = np.array([stream.below(4) for _ in range(directions)], dtype=np.int64)
        # Few directions per trial get candidates, so drawn directions close.
        used = 1 + stream.below(directions)
        assoc = np.array([stream.below(used) for _ in range(n)], dtype=np.int64)
        dist = np.round(stream.uniform_vector(n), 1)  # tied distances
        if trial % 4 == 0:
            dist[:] = 0.5
        need = n if trial % 3 == 0 else 1 + stream.below(n)
        seed = 1000 + trial
        got_rng, want_rng = RandomStream(seed), RandomStream(seed)
        got = niche_fill(counts, assoc, dist, need, got_rng)
        want = niche_fill_by_array_rounds(counts, assoc, dist, need, want_rng)
        assert got == want, f"trial {trial}"
        assert got_rng.position == want_rng.position, f"trial {trial}"
        closed += want_rng.position - need
    assert closed > 0  # some rounds drew a direction with no candidate left


def test_nsga3_selects_exactly_popsize_through_niching():
    config = AlgorithmConfig(name="NSGA3", pop_size=4)
    nsga = NSGA3(config, 1, RandomStream(3))
    nsga.ask()
    nsga.tell(stack([evaluated([0.0], (0.0, 8.0)), evaluated([1.0], (8.0, 0.0)),
               evaluated([2.0], (4.0, 4.0)), evaluated([3.0], (2.0, 6.0))]))
    nsga.generation += 1
    nsga._absorb(stack([evaluated([4.0], (6.0, 2.0)), evaluated([5.0], (1.0, 7.0)),
                  evaluated([6.0], (7.0, 1.0)), evaluated([7.0], (3.0, 5.0))]))
    assert len(nsga.population) == 4
    points = nsga.population.returns
    assert len(pareto.nondominated_filter(points)) == 4


# -- R-NSGA-II -----------------------------------------------------------------

def test_reference_ranks_single_solution():
    ranks = reference_point_ranks(np.array([(0.3, 0.7)]), np.eye(2), 0.01)
    assert ranks.tolist() == [1.0]


def test_reference_ranks_coincident_point_wins():
    points = np.array([(1.0, 1.0), (0.0, 0.0)])
    ranks = reference_point_ranks(points, np.array([(1.0, 1.0)]), 0.01)
    assert ranks[0] == 1.0
    assert ranks[1] == 2.0


def test_reference_ranks_follow_distance_sort():
    points = np.array([(0.9, 0.9), (0.5, 0.5), (0.1, 0.1)])
    ranks = reference_point_ranks(points, np.array([(1.0, 1.0)]), 0.001)
    assert ranks.tolist() == [1.0, 2.0, 3.0]


def test_reference_ranks_epsilon_clearing_demotes_near_twins():
    # Point 1 sits marginally closer to the corner, so it is kept and its
    # near-twin (within epsilon) is demoted behind every kept member.
    points = np.array([(0.9, 0.9), (0.9001, 0.9001), (0.1, 0.1)])
    ranks = reference_point_ranks(points, np.array([(1.0, 1.0)]), 0.01)
    assert ranks[1] == 1.0
    assert ranks[0] > 3.0
    assert ranks[2] == 3.0


def reference_ranks_by_member_loop(front_points, pool_min, pool_max, reference_points,
                                   epsilon):
    """Oracle: epsilon-clearing with one distance row per kept member and a
    Python loop over its neighbours."""
    span = pool_max - pool_min
    safe = np.where(span > 0.0, span, 1.0)
    normalized = np.where(span > 0.0, (front_points - pool_min) / safe, 0.0)
    m = front_points.shape[0]
    best_position = np.full(m, np.inf)
    for ref in reference_points:
        d = np.linalg.norm(normalized - ref, axis=1)
        order = np.argsort(d, kind="stable")
        position = np.empty(m)
        position[order] = np.arange(1, m + 1)
        best_position = np.minimum(best_position, position)
    adjusted = best_position.copy()
    processed = np.zeros(m, dtype=bool)
    for idx in sorted(range(m), key=lambda i: (best_position[i], i)):
        if processed[idx]:
            continue
        processed[idx] = True
        near = np.linalg.norm(normalized - normalized[idx], axis=1) < epsilon
        for other in np.flatnonzero(near):
            if not processed[other]:
                processed[other] = True
                adjusted[other] = best_position[other] + m
    return adjusted


def reference_ranks_by_mask_loop(normalized, reference_points, epsilon):
    """Oracle: epsilon-clearing by one boolean mask update per kept member."""
    m = normalized.shape[0]
    distances = euclidean_distances(normalized, reference_points)
    order = np.argsort(distances, axis=0, kind="stable")
    best_position = np.argsort(order, axis=0).min(axis=1) + 1.0
    near = euclidean_distances(normalized, normalized) < epsilon
    adjusted = best_position.copy()
    processed = np.zeros(m, dtype=bool)
    for idx in np.argsort(best_position, kind="stable"):
        if processed[idx]:
            continue
        processed[idx] = True
        demoted = near[idx] & ~processed
        processed |= demoted
        adjusted[demoted] += m
    return adjusted


@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.2])
def test_reference_ranks_match_member_loop_oracle(epsilon):
    stream = RandomStream(31)
    cleared = 0
    for trial in range(90):
        k = 2 + trial % 2
        m = 1 + stream.below(60)
        front = stream.uniform_vector(m * k).reshape(m, k)
        if trial % 3 == 1:
            front = np.round(front, 2)
        if trial % 3 == 2:
            front = np.vstack([front, front[: m // 2 + 1]])  # duplicated rows
        pool_min = front.min(axis=0) - 0.1 * stream.uniform_vector(k)
        pool_max = front.max(axis=0)
        if trial % 2:
            refs = np.round(stream.uniform_vector(2 * k).reshape(2, k) * 1.4 - 0.2, 2)
        else:
            refs = np.eye(k)
        span = pool_max - pool_min
        safe = np.where(span > 0.0, span, 1.0)
        normalized = np.where(span > 0.0, (front - pool_min) / safe, 0.0)
        got = reference_point_ranks(normalized, refs, epsilon)
        expected = reference_ranks_by_member_loop(front, pool_min, pool_max, refs, epsilon)
        assert np.array_equal(got, expected), f"trial {trial}"
        assert np.array_equal(got, reference_ranks_by_mask_loop(normalized, refs, epsilon)), \
            f"trial {trial}"
        cleared += int(np.sum(got > len(front)))
    assert cleared > 0
    # Exactly epsilon apart (sqrt(x * x) == x): not cleared, the test is strict.
    front = np.array([(0.0, 0.0), (epsilon, 0.0), (1.0, 1.0)])
    got = reference_point_ranks(front, np.eye(2), epsilon)
    assert np.array_equal(got, reference_ranks_by_member_loop(
        front, np.zeros(2), np.ones(2), np.eye(2), epsilon))
    assert got.max() <= len(front)


def test_rnsga2_single_survivor_survives():
    config = AlgorithmConfig(name="RNSGA2", pop_size=2)
    r = RNSGA2(config, 1, RandomStream(4))
    r.ask()
    r.tell(stack([evaluated([0.0], (1.0, 2.0)), evaluated([1.0], (2.0, 1.0))]))
    assert len(r.population) == 2


def test_rnsga2_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        config = AlgorithmConfig(name="RNSGA2", pop_size=2, rnsga2_epsilon=-1.0)
        r = RNSGA2(config, 1, RandomStream(4))
        r.ask()
        r.tell(stack([evaluated([0.0], (1.0, 2.0)), evaluated([1.0], (2.0, 1.0))]))


def test_rnsga2_prefers_points_near_custom_reference():
    refs = ((8.0, 0.0),)
    config = AlgorithmConfig(name="RNSGA2", pop_size=2,
                             rnsga2_reference_points=refs)
    r = RNSGA2(config, 1, RandomStream(4))
    r.ask()
    r.tell(stack([evaluated([0.0], (0.0, 8.0)), evaluated([1.0], (8.0, 0.0))]))
    r.generation += 1
    # Four mutually nondominated points; the two nearest the reference corner
    # (8, 0) must be kept.
    r._absorb(stack([evaluated([2.0], (7.0, 1.0)), evaluated([3.0], (1.0, 7.0))]))
    survivors = {tuple(row) for row in r.population.returns}
    assert survivors == {(8.0, 0.0), (7.0, 1.0)}


# -- shared skeleton -----------------------------------------------------------

def two_slot_optimizer(name):
    """Two mutually nondominated, equal-scalar slots: genomes [0.0] and [1.0]."""
    optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=2), 1, RandomStream(0))
    optimizer.ask()
    optimizer.tell(stack([evaluated([0.0], (1.0, 0.0)), evaluated([1.0], (0.0, 1.0))]))
    return optimizer


@pytest.mark.parametrize("name", ["GA", "NSGA2", "RNSGA2"])
def test_tournament_first_drawn_slot_wins_tied_key(name):
    optimizer = two_slot_optimizer(name)
    keys = optimizer._keys()
    assert keys[0] == keys[1]
    for first, second in ((0, 1), (1, 0)):
        optimizer.rng = ScriptedStream(ints=[first, second])
        assert optimizer._tournament(keys) == first


def test_spea2_tournament_breaks_fitness_ties_by_slot():
    spea = two_slot_optimizer("SPEA2")
    assert spea._fitness_values[0] == spea._fitness_values[1]
    for draws in ((0, 1), (1, 0)):
        spea.rng = ScriptedStream(ints=list(draws))
        assert spea._tournament(spea._keys()) == 0


@pytest.mark.parametrize("name", ["GA", "NSGA2", "SPEA2", "RNSGA2"])
def test_tournament_lower_key_wins_either_draw_order(name):
    optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=2), 1, RandomStream(0))
    optimizer.ask()
    optimizer.tell(stack([evaluated([0.0], (0.0, 0.0)), evaluated([1.0], (1.0, 1.0))]))
    keys = optimizer._keys()
    best = 0 if keys[0] < keys[1] else 1
    assert optimizer.population.genomes[best][0] == 1.0
    for draws in ((0, 1), (1, 0)):
        optimizer.rng = ScriptedStream(ints=list(draws))
        assert optimizer._tournament(keys) == best


def test_random_pair_redraws_a_repeated_slot():
    nsga3 = two_slot_optimizer("NSGA3")
    nsga3.rng = ScriptedStream(ints=[1, 1, 1, 0])
    first, second = nsga3._random_pair()
    assert first == 1
    assert second == 0


@pytest.mark.parametrize("name", ["SMSEMOA", "NSGA3"])
def test_random_pair_never_returns_one_slot_twice(name):
    optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=4), 1, RandomStream(9))
    optimizer.ask()
    optimizer.tell(stack([evaluated([float(i)], (float(i), -float(i))) for i in range(4)]))
    for _ in range(200):
        first, second = optimizer._random_pair()
        assert first != second


FRONT_POINTS = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 1.0], [2.0, 0.0], [1.0, 0.0]])


def test_fill_by_fronts_exact_fill_has_no_split_front():
    ranks = pareto.fast_nondominated_sort(FRONT_POINTS)
    assert _fill_by_fronts(ranks, 2) == ([1, 3], None)
    assert _fill_by_fronts(ranks, 4) == ([1, 3, 2, 4], None)
    assert _fill_by_fronts(ranks, 5) == ([1, 3, 2, 4, 0], None)


def test_fill_by_fronts_returns_the_overflowing_front():
    ranks = pareto.fast_nondominated_sort(FRONT_POINTS)
    selected, split = _fill_by_fronts(ranks, 3)
    assert selected == [1, 3]
    assert split.tolist() == [2, 4]
    selected, split = _fill_by_fronts(ranks, 1)
    assert selected == []
    assert split.tolist() == [1, 3]


def grid_pool(stream):
    """2..41 points with 2 or 3 objectives on a 5-level grid: duplicates and
    ties in every coordinate."""
    n = 2 + stream.below(40)
    k = 2 + stream.below(2)
    return np.floor(5.0 * stream.uniform_vector(n * k)).reshape(n, k)


def test_survivors_keep_their_pool_ranks():
    # R-NSGA-II holds ranks[survivors] rather than sorting the survivors again.
    stream = RandomStream(41)
    splits = duplicated = 0
    for _ in range(300):
        points = grid_pool(stream)
        n = points.shape[0]
        duplicated += len(np.unique(points, axis=0)) < n
        ranks = pareto.fast_nondominated_sort(points)
        size = 1 + stream.below(n)
        splits += _fill_by_fronts(ranks, size)[1] is not None
        key = np.floor(3.0 * stream.uniform_vector(n))  # tied keys too
        survivors = _truncate_by_fronts(ranks, size, key)
        assert len(survivors) == len(set(survivors)) == size
        assert np.array_equal(ranks[survivors],
                              pareto.fast_nondominated_sort(points[survivors]))
    assert splits > 100 and duplicated > 100
    # And in the optimizer itself, generation after generation.
    optimizer = RNSGA2(AlgorithmConfig(name="RNSGA2", pop_size=8), 2, RandomStream(42))
    for _ in range(6):
        drive(optimizer, lambda g: (round(g[0]), round(g[1] - g[0])), 1)
        assert np.array_equal(optimizer._ranks,
                              pareto.fast_nondominated_sort(optimizer.population.returns))


def test_nsga2_crowding_is_crowding_distance_per_front():
    stream = RandomStream(43)
    for _ in range(100):
        points = grid_pool(stream)
        ranks = pareto.fast_nondominated_sort(points)
        crowding = _crowding(points, ranks)
        assert crowding.shape == (points.shape[0],)
        for front in pareto.fronts(ranks):
            assert np.array_equal(crowding[front], pareto.crowding_distance(points[front]))
