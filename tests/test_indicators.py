import tracemalloc
import warnings

import numpy as np
import pytest

import reference as oracle
from evopareto import indicators, pareto
from evopareto.rng import RandomStream


def random_min_front(stream, n, k):
    """Nondominated minimization points inside the unit box."""
    pts = stream.uniform_vector(n * k).reshape(n, k)
    keep = pareto.nondominated_mask(-pts)  # maximize negation = minimize
    return pts[keep]


def test_hv_exact_worked_examples():
    assert indicators.hypervolume_exact([(0.0, 0.0)], (1.0, 1.0)) == 1.0
    assert indicators.hypervolume_exact([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0)) == pytest.approx(0.75, abs=1e-12)
    assert indicators.hypervolume_exact([(0.0, 0.0, 0.0)], (1.0, 1.0, 1.0)) == 1.0


def test_hv_exact_drops_noncontributing_points():
    assert indicators.hypervolume_exact([(1.0, 0.0), (2.0, -1.0)], (1.0, 1.0)) == 0.0
    out = indicators.hypervolume_exact([(0.5, 0.5), (0.5, 2.0)], (1.0, 1.0))
    assert out == pytest.approx(0.25, abs=1e-12)


def test_hv_exact_rejects_bad_dimensions():
    with pytest.raises(ValueError, match=r"^exact hypervolume supports k in \{2, 3\}$"):
        indicators.hypervolume_exact([(0.0,) * 4], (1.0,) * 4)
    with pytest.raises(ValueError):
        indicators.hypervolume_exact([(0.0, 0.0)], (1.0, 1.0, 1.0))


def test_hv_exact_permutation_invariant():
    stream = RandomStream(5)
    front = random_min_front(stream, 12, 3)
    ref = np.full(3, 1.1)
    base = indicators.hypervolume_exact(front, ref)
    assert indicators.hypervolume_exact(front[::-1], ref) == base


def test_hv_exact_monotone_in_new_points():
    front = np.array([(0.4, 0.6), (0.6, 0.4)])
    ref = np.array([1.0, 1.0])
    base = indicators.hypervolume_exact(front, ref)
    grown = indicators.hypervolume_exact(np.vstack([front, [(0.1, 0.9)]]), ref)
    assert grown > base


def test_hv_mc_trivial_cases():
    assert oracle.hypervolume_mc([(1.0, 1.0)], (1.0, 1.0), 1000, seed=3) == 0.0
    assert oracle.hypervolume_mc([(0.0, 0.0)], (1.0, 1.0), 100_000, seed=3) == 1.0


def test_hv_mc_matches_exact_within_binomial_bound():
    stream = RandomStream(11)
    samples = 100_000
    for k in (2, 3):
        for trial in range(5):
            front = random_min_front(stream, 5, k)
            ref = np.full(k, 1.0)
            exact = indicators.hypervolume_exact(front, ref)
            mc = oracle.hypervolume_mc(front, ref, samples, seed=1000 + trial)
            box = np.prod(ref - front.min(axis=0))
            p = exact / box if box > 0 else 0.0
            sigma = box * np.sqrt(max(p * (1 - p), 1e-12) / samples)
            assert abs(mc - exact) < max(3 * sigma, 1e-3)


def test_hv_contributions_worked_example():
    contrib = indicators.hypervolume_contributions(
        [(0.0, 0.9), (0.5, 0.5), (0.9, 0.0)], (1.0, 1.0))
    assert contrib[1] == pytest.approx(0.16, abs=1e-12)
    assert contrib[0] == pytest.approx(0.05, abs=1e-12)
    assert contrib[2] == pytest.approx(0.05, abs=1e-12)


def test_hv_contributions_worked_example_3d():
    # ref (1, 1, 1).  P1 alone covers z in [0, 0.4): 0.32 x 0.4; above it P2
    # takes the overlap [0.6, 1]^2, leaving 0.16 x 0.4; P3 covers all of
    # z >= 0.8.  P2 holds the other 0.16 x 0.4 of that middle slab, and P3
    # keeps what P1 and P2 leave of the unit square: (1 - 0.48) x 0.2.
    front = [(0.2, 0.6, 0.0), (0.6, 0.2, 0.4), (0.0, 0.0, 0.8)]
    contrib = indicators.hypervolume_contributions(front, (1.0, 1.0, 1.0))
    assert contrib == pytest.approx([0.192, 0.064, 0.104], abs=1e-12)


def sweep_2d(points, ref):
    """Oracle: the scalar 2-D sweep, one point at a time in (x, y) order."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    area = 0.0
    min_y = ref[1]
    for x, y in points[order]:
        if y < min_y:
            area += (ref[0] - x) * (min_y - y)
            min_y = y
    return area


def slice_3d(points, ref):
    """Oracle: one 2-D sweep per distinct height, times the slab's width."""
    zs = np.unique(points[:, 2])
    bounds = np.append(zs, ref[2])
    volume = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        active = points[points[:, 2] <= lo]
        volume += sweep_2d(active[:, :2], ref[:2]) * (hi - lo)
    return volume


def hv_by_loops(front, ref):
    """Oracle for :func:`indicators.hypervolume_exact` from the scalar loops."""
    arr = np.asarray(front, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    arr = arr[np.all(arr < ref, axis=1)]
    if arr.shape[0] == 0:
        return 0.0
    return float(sweep_2d(arr, ref) if ref.shape[0] == 2 else slice_3d(arr, ref))


def contributions_by_removal(front, ref):
    """Oracle: one exact hypervolume per removed point, total minus rest."""
    arr = np.asarray(front, dtype=np.float64)
    total = indicators.hypervolume_exact(arr, ref)
    out = np.empty(arr.shape[0])
    for i in range(arr.shape[0]):
        rest = np.delete(arr, i, axis=0)
        out[i] = total if rest.shape[0] == 0 else total - indicators.hypervolume_exact(rest, ref)
    return out


def oracle_cases(k):
    """Seeded fronts with ties, duplicates, points on or beyond ref and -0.0."""
    stream = RandomStream(40 + k)
    ref = np.full(k, 1.0)
    for n in (1, 2, 25, 38, 51):
        raw = stream.uniform_vector(n * k).reshape(n, k)
        front = raw / raw.sum(axis=1, keepdims=True)  # nondominated simplex points
        yield f"n{n}-simplex", front, ref
        yield f"n{n}-random", raw, ref
        rounded = np.round(front, 1)
        yield f"n{n}-rounded", rounded, ref
        duplicated = front.copy()
        duplicated[n // 2:] = front[: n - n // 2]
        yield f"n{n}-duplicated", duplicated, ref
        beyond = front * 1.3
        beyond[0, 0] = 1.0
        beyond[-1, -1] = 1.5
        yield f"n{n}-beyond-ref", beyond, ref
        signed = rounded - 0.5  # 0.5 is common after rounding: many zeros
        zeros = np.flatnonzero(signed == 0.0)
        signed.flat[zeros[::2]] = -0.0
        yield f"n{n}-signed-zeros", signed, ref - 0.5


@pytest.mark.parametrize("k", [2, 3])
def test_hv_exact_matches_scalar_loops_bit_for_bit(k):
    for name, front, ref in oracle_cases(k):
        assert indicators.hypervolume_exact(front, ref) == hv_by_loops(front, ref), f"k={k} {name}"
        for n in range(len(front)):  # every prefix, down to a single point
            assert indicators.hypervolume_exact(front[:n], ref) == hv_by_loops(front[:n], ref), \
                f"k={k} {name}[:{n}]"


def test_hv_exact_matches_scalar_loops_on_small_skewed_fronts():
    stream = RandomStream(60)  # the fronts of the skewed contribution test
    for trial in range(300):
        k = 2 + trial % 2
        n = 3 + stream.below(10)
        front = stream.uniform_vector(n * k).reshape(n, k) ** 3
        ref = np.full(k, 1.0)
        assert indicators.hypervolume_exact(front, ref) == hv_by_loops(front, ref), f"trial {trial}"


@pytest.mark.parametrize("k", [2, 3])
def test_hv_contributions_match_removal_oracle_bit_for_bit(k):
    for name, front, ref in oracle_cases(k):
        got = indicators.hypervolume_contributions(front, ref)
        assert np.array_equal(got, contributions_by_removal(front, ref)), f"k={k} {name}"


def test_hv_contributions_match_removal_oracle_on_small_skewed_fronts():
    # Cubed coordinates crowd near 0, where a merged slab's width
    # hi - lo differs in the last bit from the sum of its two parts.
    stream = RandomStream(60)
    for trial in range(300):
        k = 2 + trial % 2
        n = 3 + stream.below(10)
        front = stream.uniform_vector(n * k).reshape(n, k) ** 3
        ref = np.full(k, 1.0)
        got = indicators.hypervolume_contributions(front, ref)
        assert np.array_equal(got, contributions_by_removal(front, ref)), f"trial {trial}"


def simplex_front(stream, n):
    """n points on the plane x + y + z = 1: all mutually nondominated."""
    pts = stream.uniform_vector(3 * n).reshape(n, 3)
    return pts / pts.sum(axis=1, keepdims=True)


def spy_pair_blocks(monkeypatch):
    """Record the number of pair rows in each block the kernel scores."""
    kernel = indicators._pair_areas
    rows = []

    def spy(dx, ys, slabs, removed):
        rows.append(len(slabs))
        return kernel(dx, ys, slabs, removed)

    monkeypatch.setattr(indicators, "_pair_areas", spy)
    return rows


def test_hv_contributions_3d_blocks_match_removal_oracle(monkeypatch):
    rows = spy_pair_blocks(monkeypatch)
    block = indicators._BLOCK_CELLS
    # About 40 pair rows per block instead of the 3000 that fit.
    monkeypatch.setattr(indicators, "_BLOCK_CELLS", 2**12)
    stream = RandomStream(70)
    ref = np.full(3, 1.0)
    for front in (simplex_front(stream, 70), np.round(simplex_front(stream, 90), 2)):
        rows.clear()
        got = indicators.hypervolume_contributions(front, ref)
        assert len(rows) > 2, "the front was scored in one block"
        assert max(rows) <= 2**12 // len(front)
        assert np.array_equal(got, contributions_by_removal(front, ref))
    # An SMS-EMOA pool of 32 points is scored in one block.
    monkeypatch.setattr(indicators, "_BLOCK_CELLS", block)
    rows.clear()
    indicators.hypervolume_contributions(simplex_front(stream, 32), ref)
    assert len(rows) == 1


def contributions_by_loops(front, ref):
    """Oracle from the scalar loops alone: hv(front) - hv(front minus point)."""
    arr = np.asarray(front, dtype=np.float64)
    total = hv_by_loops(arr, ref)
    return np.array([total - hv_by_loops(np.delete(arr, i, axis=0), ref) for i in range(len(arr))])


PAIR_ROW_CASES = {
    # Two points share z = 0.3 and both lower that slab's minimum: removing
    # either rescores the slab, which survives on the other.
    "tied-z-slab-survives": [(0.1, 0.6, 0.3), (0.6, 0.1, 0.3), (0.3, 0.3, 0.1), (0.2, 0.2, 0.7)],
    # Every point alone at its height: the lowest, a middle and the top
    # slab vanish with their point, and the slab below reaches up further.
    "sole-slabs": [(0.1, 0.7, 0.2), (0.4, 0.4, 0.5), (0.7, 0.1, 0.8)],
    # A point alone at its height that lowers no minimum above it.
    "sole-slab-covered-above": [(0.5, 0.5, 0.1), (0.2, 0.2, 0.4), (0.6, 0.1, 0.6)],
    "x-and-y-ties": [(0.2, 0.5, 0.4), (0.2, 0.3, 0.6), (0.5, 0.3, 0.2), (0.5, 0.1, 0.5),
                     (0.7, 0.1, 0.1), (0.7, 0.5, 0.1)],
    "duplicates": [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.1, 0.6, 0.3), (0.6, 0.1, 0.5), (0.6, 0.1, 0.5)],
    "on-ref": [(1.0, 0.2, 0.2), (0.2, 1.0, 0.3), (0.3, 0.3, 1.0), (0.5, 0.5, 0.5), (0.4, 0.6, 0.5)],
    "signed-zeros": [(-0.0, 0.5, 0.0), (0.0, 0.5, -0.0), (0.5, -0.0, 0.5), (0.5, 0.0, 0.25),
                     (0.25, 0.25, -0.0)],
    "m1": [(0.3, 0.4, 0.5)],
    "m2-tied-z": [(0.2, 0.6, 0.4), (0.6, 0.2, 0.4)],
    "m2": [(0.2, 0.6, 0.1), (0.6, 0.2, 0.5)],
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(PAIR_ROW_CASES))
def test_hv_contributions_pair_rows_match_oracles(monkeypatch, name, k):
    front = np.array(PAIR_ROW_CASES[name])[:, :k]
    ref = np.full(k, 1.0)
    want = contributions_by_loops(front, ref)
    assert np.array_equal(want, contributions_by_removal(front, ref))
    assert np.array_equal(indicators.hypervolume_contributions(front, ref), want)
    # One pair row per block: the blocks change no bit.
    rows = spy_pair_blocks(monkeypatch)
    monkeypatch.setattr(indicators, "_BLOCK_CELLS", 1)
    assert np.array_equal(indicators.hypervolume_contributions(front, ref), want)
    assert set(rows) <= {1}


def test_hv_contributions_3d_memory_is_bounded():
    front = simplex_front(RandomStream(200), 200)
    tracemalloc.start()
    try:
        indicators.hypervolume_contributions(front, np.full(3, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_hv_contributions_oracle_cases_hit_every_edge():
    for k in (2, 3):
        names = {name.split("-", 1)[1] for name, _, _ in oracle_cases(k)}
        assert names == {"simplex", "random", "rounded", "duplicated", "beyond-ref", "signed-zeros"}
        for name, front, ref in oracle_cases(k):
            if name.endswith("signed-zeros") and len(front) > 2:
                assert np.any(np.signbit(front) & (front == 0.0))
                assert np.any(~np.signbit(front) & (front == 0.0))
            if name.endswith("beyond-ref"):
                assert np.any(front == 1.0) and np.any(front > 1.0)
            if name.endswith("rounded") and len(front) > 2:
                assert all(len(np.unique(front[:, j])) < len(front) for j in range(k))


def test_gd_igd_examples():
    assert indicators.gd([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)]) == pytest.approx(1.0)
    assert indicators.gd([(1.0, 0.0), (0.0, 1.0)], [(0.0, 0.0)]) == pytest.approx(1.0)
    assert oracle.igd([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)]) == pytest.approx(1.0)
    front = [(0.3, 0.7), (0.7, 0.3)]
    assert indicators.gd(front, front) == 0.0
    assert oracle.igd(front, front) == 0.0


def test_gd_zero_iff_subset():
    reference = np.array([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
    assert indicators.gd(reference[:2], reference) < 1e-12
    assert indicators.gd([(0.25, 0.75)], reference) > 1e-6


def test_igd_never_increases_when_covering_reference_point():
    approx = np.array([(0.2, 0.8)])
    reference = np.array([(0.0, 1.0), (1.0, 0.0)])
    before = oracle.igd(approx, reference)
    after = oracle.igd(np.vstack([approx, reference[:1]]), reference)
    assert after <= before


def test_gd_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        indicators.gd(np.empty((0, 2)), [(0.0, 1.0)])
    with pytest.raises(ValueError):
        indicators.gd([(0.0, 1.0)], [(0.0, 1.0, 2.0)])


def squared_distances_by_tensor(a, b):
    """Oracle: the (n, m, k) difference tensor reduced by ``np.sum``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=2)


@pytest.mark.parametrize("k", [2, 3, 7])
def test_squared_distances_equal_tensor_sum_bit_for_bit(k):
    stream = RandomStream(70 + k)
    for n, m in ((1, 1), (7, 30), (50, 120)):
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            a = scale * (stream.uniform_vector(n * k).reshape(n, k) - 0.5)
            b = scale * (stream.uniform_vector(m * k).reshape(m, k) - 0.5)
            a[0, 0] = -0.0
            got = indicators._squared_distances(a, b)
            assert got.shape == (n, m)
            assert np.array_equal(got.view(np.uint64),
                                  squared_distances_by_tensor(a, b).view(np.uint64))
    # Per-coordinate magnitudes 1e-8 .. 1e8 within one point.
    magnitudes = 10.0 ** np.arange(-8, 9, 2)
    a = np.array([magnitudes[[i, -1 - i, i // 2, *range(k - 3)][:k]]
                  for i in range(len(magnitudes))])
    b = -0.7 * a[::-1]
    assert np.array_equal(indicators._squared_distances(a, b).view(np.uint64),
                          squared_distances_by_tensor(a, b).view(np.uint64))


def test_squared_distances_sum_coordinates_left_to_right():
    # Squares 1, 9 * 2**-56, 9 * 2**-56: (1 + s) + s rounds up twice, 1 + (s + s)
    # once, so a kernel that sums in another order gives other bytes.
    s = 3 * 2.0**-28
    a, b = np.array([[1.0, s, s]]), np.zeros((1, 3))
    left = (1.0 + s * s) + s * s
    assert left != 1.0 + (s * s + s * s)
    assert indicators._squared_distances(a, b)[0, 0] == left
    assert squared_distances_by_tensor(a, b)[0, 0] == left
    assert indicators._squared_distances(b, a)[0, 0] == left


def test_build_reference_front_single_and_union():
    single = indicators.build_reference_front([[(1.0, 2.0), (0.0, 0.0)]])
    assert single.tolist() == [[1.0, 2.0]]
    both = indicators.build_reference_front([[(1.0, 2.0)], [(2.0, 1.0)]])
    assert sorted(map(tuple, both)) == [(1.0, 2.0), (2.0, 1.0)]


def test_build_reference_front_deduplicates():
    front = indicators.build_reference_front([[(1.0, 2.0)], [(1.0, 2.0), (2.0, 1.0)]])
    assert sorted(map(tuple, front)) == [(1.0, 2.0), (2.0, 1.0)]


def test_build_reference_front_matches_bruteforce_union():
    stream = RandomStream(8)
    runs = [stream.uniform_vector(12).reshape(6, 2) for _ in range(5)]
    got = sorted(map(tuple, indicators.build_reference_front(runs)))
    combined = np.vstack(runs)
    survivors = [tuple(p) for p in combined
                 if not any(all(q >= p) and any(q > p) for q in combined)]
    expected = sorted(set(survivors))
    assert got == expected


def test_indicator_series_perfect_generation():
    reference = np.array([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
    hv, gd, igd = indicators.indicator_series([reference.copy()], reference)
    ideal, nadir = reference.max(axis=0), reference.min(axis=0)
    assert hv[0] == pytest.approx(
        oracle.normalized_hypervolume(reference, ideal, nadir), abs=1e-12)
    assert gd[0] == 0.0 and igd[0] == 0.0
    assert hv.shape == gd.shape == igd.shape == (1,)


def test_indicator_series_length_and_order():
    reference = np.array([(0.0, 1.0), (1.0, 0.0)])
    pops = [np.array([(0.1, 0.1)]), np.array([(0.2, 0.2)]), np.array([(0.3, 0.3)])]
    hv, gd, igd = indicators.indicator_series(pops, reference)
    assert hv.shape == gd.shape == igd.shape == (3,)
    ideal, nadir = reference.max(axis=0), reference.min(axis=0)
    for generation, population in enumerate(pops):
        assert hv[generation] == oracle.normalized_hypervolume(population, ideal, nadir)
        assert gd[generation] == indicators.gd(population, reference)
        assert igd[generation] == oracle.igd(population, reference)


@pytest.mark.parametrize("k", [2, 3])
def test_indicator_series_gd_igd_equal_separate_calls_bit_for_bit(k):
    # One squared-distance matrix per generation, read along rows (GD) and
    # columns (IGD), gives exactly the separate gd()/igd() values.
    cases = {name: front for name, front, _ in oracle_cases(k)}
    populations = list(cases.values())
    references = [indicators.build_reference_front(populations),
                  cases["n25-duplicated"], cases["n51-signed-zeros"],
                  cases["n38-rounded"], cases["n1-simplex"]]
    assert any(np.any(np.signbit(front) & (front == 0.0)) for front in populations)  # -0.0
    for reference in references:
        for population in populations:  # of different sizes: one per call
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the single-point reference is degenerate
                _, gd, igd = indicators.indicator_series(population[None], reference)
            front = pareto.nondominated_filter(population)
            assert gd[0] == indicators.gd(front, reference)
            assert igd[0] == oracle.igd(front, reference)


def series_by_generation(populations, reference):
    """Oracle: normalized HV, GD and IGD of each generation's filtered front."""
    ideal, nadir = reference.max(axis=0), reference.min(axis=0)
    degenerate = np.any(ideal == nadir)
    values = []
    for population in populations:
        front = pareto.nondominated_filter(population)
        hv = np.nan if degenerate else oracle.normalized_hypervolume(front, ideal, nadir)
        values.append((hv, indicators.gd(front, reference), oracle.igd(front, reference)))
    return tuple(np.array(column) for column in zip(*values))


def ragged_generations(k, seed):
    """Populations of 64 maximization points around a reference front, whose
    fronts differ in size: 1..40 drawn points, rounded (tied coordinates,
    duplicated heights), duplicated rows, -0.0, points on and beyond the
    nadir (HV's ref) and beyond the ideal, and filled up with dominated
    copies of them, lowered by 0.5 in every objective."""
    stream = RandomStream(seed)
    reference = indicators.build_reference_front(
        [stream.uniform_vector(30 * k).reshape(30, k) * 2.0 - 1.0])
    ideal, nadir = reference.max(axis=0), reference.min(axis=0)
    populations = []
    for generation in range(23):
        n = 1 + stream.below(40)
        pop = nadir - 0.2 + (ideal - nadir + 0.4) * stream.uniform_vector(n * k).reshape(n, k)
        if generation % 3 == 1:
            pop = np.round(pop, 1)
            pop[pop == 0.0] = -0.0
            pop[0, -1] = -0.0
        if generation % 4 == 2:
            pop = np.vstack([pop, pop[: n // 2 + 1]])
        if generation % 5 == 3:
            pop[0] = nadir  # on ref in every coordinate
            pop[-1, 0] = nadir[0]  # on ref in one coordinate
            pop[-1, 1] = ideal[1]  # normalized to -0.0
        filler = pop[np.arange(64 - len(pop)) % len(pop)] - 0.5
        populations.append(np.vstack([pop, filler]))
    return populations, reference


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("k", [2, 3])
def test_indicator_series_equals_per_generation_oracle_bit_for_bit(k):
    populations, reference = ragged_generations(k, 80 + k)
    assert len({len(pareto.nondominated_filter(p)) for p in populations}) > 5
    assert any(np.any(np.signbit(p) & (p == 0.0)) for p in populations)
    got = indicators.indicator_series(populations, reference)
    assert_same_bits(got, series_by_generation(populations, reference))
    assert np.all((got[0] >= 0.0) & (got[0] <= 1.0))
    # Populations from the cases of the HV oracle tests, read as maximization;
    # they differ in size, so each is scored on its own.
    cases = [front for _, front, _ in oracle_cases(k)]
    reference = indicators.build_reference_front(cases)
    for front in cases:
        assert_same_bits(indicators.indicator_series(front[None], reference),
                         series_by_generation([front], reference))


@pytest.mark.parametrize("k", [2, 3])
def test_indicator_series_blocks_change_no_bit(monkeypatch, k):
    populations, reference = ragged_generations(k, 90 + k)
    want = series_by_generation(populations, reference)
    blocks = []
    kernel = indicators._hypervolumes

    def spy(points, keep, ref):
        blocks.append(len(points))
        return kernel(points, keep, ref)

    monkeypatch.setattr(indicators, "_hypervolumes", spy)
    n = max(len(p) for p in populations)
    for cells in (1, 3 * n * n, 10 * n * n):
        blocks.clear()
        monkeypatch.setattr(indicators, "_BLOCK_CELLS", cells)
        assert_same_bits(indicators.indicator_series(populations, reference), want)
        assert sum(blocks) == len(populations)
        assert max(blocks) == max(1, cells // (n * n)) and len(blocks) > 1


def test_indicator_series_degenerate_reference_warns_and_nans_hv():
    reference = np.array([(0.5, 0.5)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hv, _, igd = indicators.indicator_series([np.array([(0.5, 0.5)])], reference)
    assert any("degenerate" in str(w.message) for w in caught)
    assert np.isnan(hv[0])
    assert igd[0] == 0.0
    # Many generations: HV is NaN in every one, GD and IGD are unchanged.
    populations, _ = ragged_generations(2, 95)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = indicators.indicator_series(populations, reference)
        assert np.all(np.isnan(got[0]))
        assert_same_bits(got, series_by_generation(populations, reference))


def test_indicator_series_refuses_ragged_or_non_finite_generations():
    reference = np.array([(0.0, 1.0), (1.0, 0.0)])
    population = np.array([(0.1, 0.1), (0.2, 0.2)])
    for populations in ([population, population[:1]],  # generations of different sizes
                        [population, np.array([(0.1, np.nan), (0.2, 0.2)])],
                        [[(0.1, np.inf)]], [[(-np.inf, 0.1)]],
                        population,  # one generation, not a stack of them
                        np.zeros((0, 2, 2)), np.zeros((2, 0, 2)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match=r"^populations must be one finite, nonempty "
                                             r"\(G, n, k\) array, k = 2$"):
            indicators.indicator_series(populations, reference)


def test_analytic_front_normalized_hv_near_half():
    front = oracle.analytic_front(1001)
    hv = oracle.normalized_hypervolume(front, front.max(axis=0), front.min(axis=0))
    assert abs(hv - 0.5) < 1e-3
    assert indicators.gd(front, front) <= 1e-12
    assert oracle.igd(front, front) <= 1e-12


def test_normalized_hv_clips_points_outside_unit_box():
    # One point dominates the normalization box entirely: clipped to the
    # ideal corner, the reported value saturates at 1 instead of exceeding it.
    ideal, nadir = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    hv = oracle.normalized_hypervolume([(2.0, 2.0)], ideal, nadir)
    assert hv == pytest.approx(1.0, abs=1e-12)
