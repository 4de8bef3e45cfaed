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
    smsemoa_removal_index,
)
from evopareto.algorithms.moea import _crowding, _fill_by_fronts, _truncate_by_fronts
from evopareto.config import parse_config
from evopareto.evaluation import Population
from evopareto.indicators import hypervolume_exact
from evopareto.rng import RandomStream

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


class ScriptedStream:
    def __init__(self, uniforms=(), ints=()):
        self._uniforms = list(uniforms)
        self._ints = list(ints)

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * self._uniforms.pop(0)

    def uniform_vector(self, n, low=0.0, high=1.0):
        return np.array([self.uniform(low, high) for _ in range(n)])

    def peek(self, n):
        # The script may end early: an operator must not read past the draws
        # it consumes.
        return np.array(self._uniforms[:n])

    def advance(self, n):
        assert n <= len(self._uniforms), "consumed more draws than scripted"
        del self._uniforms[:n]

    def below(self, n):
        return self._ints.pop(0) % n


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
        bests.append(ga.best_scalar)
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
        bests.append(de.best_scalar)
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
    assert pso.best_scalar == 5.0


def test_pso_gbest_monotone():
    config = AlgorithmConfig(name="PSO", pop_size=8)
    pso = PSO(config, 1, RandomStream(12))
    bests = []
    for _ in range(10):
        pso.tell(evaluate_batch(pso.ask(), scalar_ramp))
        bests.append(pso.best_scalar)
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
    ranks = reference_point_ranks(np.array([(0.3, 0.7)]), np.zeros(2), np.ones(2),
                                  np.eye(2), 0.01)
    assert ranks.tolist() == [1.0]


def test_reference_ranks_coincident_point_wins():
    points = np.array([(1.0, 1.0), (0.0, 0.0)])
    ranks = reference_point_ranks(points, np.zeros(2), np.ones(2),
                                  np.array([(1.0, 1.0)]), 0.01)
    assert ranks[0] == 1.0
    assert ranks[1] == 2.0


def test_reference_ranks_follow_distance_sort():
    points = np.array([(0.9, 0.9), (0.5, 0.5), (0.1, 0.1)])
    ranks = reference_point_ranks(points, np.zeros(2), np.ones(2),
                                  np.array([(1.0, 1.0)]), 0.001)
    assert ranks.tolist() == [1.0, 2.0, 3.0]


def test_reference_ranks_epsilon_clearing_demotes_near_twins():
    # Point 1 sits marginally closer to the corner, so it is kept and its
    # near-twin (within epsilon) is demoted behind every kept member.
    points = np.array([(0.9, 0.9), (0.9001, 0.9001), (0.1, 0.1)])
    ranks = reference_point_ranks(points, np.zeros(2), np.ones(2),
                                  np.array([(1.0, 1.0)]), 0.01)
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
        got = reference_point_ranks(front, pool_min, pool_max, refs, epsilon)
        expected = reference_ranks_by_member_loop(front, pool_min, pool_max, refs, epsilon)
        assert np.array_equal(got, expected), f"trial {trial}"
        cleared += int(np.sum(got > len(front)))
    assert cleared > 0
    # Exactly epsilon apart (sqrt(x * x) == x): not cleared, the test is strict.
    front = np.array([(0.0, 0.0), (epsilon, 0.0), (1.0, 1.0)])
    got = reference_point_ranks(front, np.zeros(2), np.ones(2), np.eye(2), epsilon)
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
    assert optimizer._key(0) == optimizer._key(1)
    for first, second in ((0, 1), (1, 0)):
        optimizer.rng = ScriptedStream(ints=[first, second])
        assert optimizer._tournament() == first


def test_spea2_tournament_breaks_fitness_ties_by_slot():
    spea = two_slot_optimizer("SPEA2")
    assert spea._fitness_values[0] == spea._fitness_values[1]
    for draws in ((0, 1), (1, 0)):
        spea.rng = ScriptedStream(ints=list(draws))
        assert spea._tournament() == 0


@pytest.mark.parametrize("name", ["GA", "NSGA2", "SPEA2", "RNSGA2"])
def test_tournament_lower_key_wins_either_draw_order(name):
    optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=2), 1, RandomStream(0))
    optimizer.ask()
    optimizer.tell(stack([evaluated([0.0], (0.0, 0.0)), evaluated([1.0], (1.0, 1.0))]))
    best = 0 if optimizer._key(0) < optimizer._key(1) else 1
    assert optimizer.population.genomes[best][0] == 1.0
    for draws in ((0, 1), (1, 0)):
        optimizer.rng = ScriptedStream(ints=list(draws))
        assert optimizer._tournament() == best


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


@pytest.mark.parametrize("name", ["GA", "DE", "PSO"])
def test_best_scalar_is_population_maximum(name):
    optimizer = make_optimizer(AlgorithmConfig(name=name, pop_size=6), 2, RandomStream(12))
    for _ in range(4):
        drive(optimizer, lambda g: (g[0] - g[1] ** 2, g[0]), 1)
        scalars = optimizer.population.scalars.tolist()
        assert optimizer.best_scalar == max(scalars)
