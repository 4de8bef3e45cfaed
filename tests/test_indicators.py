import tracemalloc
import warnings

import numpy as np
import pytest

from evopareto import indicators, pareto
from evopareto.environments import make_env
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
    with pytest.raises(ValueError):
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
    assert indicators.hypervolume_mc([(1.0, 1.0)], (1.0, 1.0), 1000, seed=3) == 0.0
    assert indicators.hypervolume_mc([(0.0, 0.0)], (1.0, 1.0), 100_000, seed=3) == 1.0


def test_hv_mc_matches_exact_within_binomial_bound():
    stream = RandomStream(11)
    samples = 100_000
    for k in (2, 3):
        for trial in range(5):
            front = random_min_front(stream, 5, k)
            ref = np.full(k, 1.0)
            exact = indicators.hypervolume_exact(front, ref)
            mc = indicators.hypervolume_mc(front, ref, samples, seed=1000 + trial)
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


def test_hv_contributions_3d_blocks_match_removal_oracle(monkeypatch):
    kernel = indicators._masked_hv
    rows = []

    def spy(points, active, ref):
        if ref.shape[0] == 3:
            rows.append(len(active))
        return kernel(points, active, ref)

    monkeypatch.setattr(indicators, "_masked_hv", spy)
    stream = RandomStream(70)
    ref = np.full(3, 1.0)
    for front in (simplex_front(stream, 70), np.round(simplex_front(stream, 90), 2)):
        rows.clear()
        got = indicators.hypervolume_contributions(front, ref)
        assert len(rows) > 2, "the front was scored in one block"
        assert np.array_equal(got, contributions_by_removal(front, ref))
    # An SMS-EMOA pool of 32 points is scored in one block of 33 rows.
    rows.clear()
    indicators.hypervolume_contributions(simplex_front(stream, 32), ref)
    assert rows == [33]


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
    assert indicators.igd([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)]) == pytest.approx(1.0)
    front = [(0.3, 0.7), (0.7, 0.3)]
    assert indicators.gd(front, front) == 0.0
    assert indicators.igd(front, front) == 0.0


def test_gd_zero_iff_subset():
    reference = np.array([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
    assert indicators.gd(reference[:2], reference) < 1e-12
    assert indicators.gd([(0.25, 0.75)], reference) > 1e-6


def test_igd_never_increases_when_covering_reference_point():
    approx = np.array([(0.2, 0.8)])
    reference = np.array([(0.0, 1.0), (1.0, 0.0)])
    before = indicators.igd(approx, reference)
    after = indicators.igd(np.vstack([approx, reference[:1]]), reference)
    assert after <= before


def test_gd_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        indicators.gd(np.empty((0, 2)), [(0.0, 1.0)])
    with pytest.raises(ValueError):
        indicators.gd([(0.0, 1.0)], [(0.0, 1.0, 2.0)])


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
        indicators.normalized_hypervolume(reference, ideal, nadir), abs=1e-12)
    assert gd[0] == 0.0 and igd[0] == 0.0
    assert hv.shape == gd.shape == igd.shape == (1,)


def test_indicator_series_length_and_order():
    reference = np.array([(0.0, 1.0), (1.0, 0.0)])
    pops = [np.array([(0.1, 0.1)]), np.array([(0.2, 0.2)]), np.array([(0.3, 0.3)])]
    hv, gd, igd = indicators.indicator_series(pops, reference)
    assert hv.shape == gd.shape == igd.shape == (3,)
    ideal, nadir = reference.max(axis=0), reference.min(axis=0)
    for generation, population in enumerate(pops):
        assert hv[generation] == indicators.normalized_hypervolume(population, ideal, nadir)
        assert gd[generation] == indicators.gd(population, reference)
        assert igd[generation] == indicators.igd(population, reference)


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the single-point reference is degenerate
            _, gd, igd = indicators.indicator_series(populations, reference)
        for generation, population in enumerate(populations):
            front = pareto.nondominated_filter(population)
            assert gd[generation] == indicators.gd(front, reference)
            assert igd[generation] == indicators.igd(front, reference)


def test_indicator_series_degenerate_reference_warns_and_nans_hv():
    reference = np.array([(0.5, 0.5)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hv, _, igd = indicators.indicator_series([np.array([(0.5, 0.5)])], reference)
    assert any("degenerate" in str(w.message) for w in caught)
    assert np.isnan(hv[0])
    assert igd[0] == 0.0


def test_analytic_front_normalized_hv_near_half():
    front = make_env("TradeoffBandit").analytic_front(1001)
    hv = indicators.normalized_hypervolume(front, front.max(axis=0), front.min(axis=0))
    assert abs(hv - 0.5) < 1e-3
    assert indicators.gd(front, front) <= 1e-12
    assert indicators.igd(front, front) <= 1e-12


def test_normalized_hv_clips_points_outside_unit_box():
    # One point dominates the normalization box entirely: clipped to the
    # ideal corner, the reported value saturates at 1 instead of exceeding it.
    ideal, nadir = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    hv = indicators.normalized_hypervolume([(2.0, 2.0)], ideal, nadir)
    assert hv == pytest.approx(1.0, abs=1e-12)
