from itertools import permutations

import numpy as np
import pytest

import reference as oracle
from evopareto import indicators, pareto
from evopareto.rng import RandomStream


def random_points(stream, n, k, scale=1.0):
    return scale * stream.uniform_vector(n * k).reshape(n, k)


def test_dominates_examples():
    # [i, j]: point i dominates point j.
    assert pareto._dominance_matrix(np.array([(2.0, 3.0), (1.0, 3.0)])).tolist() == [
        [False, True], [False, False]]
    assert not pareto._dominance_matrix(np.array([(1.0, 2.0), (2.0, 1.0)])).any()
    assert not pareto._dominance_matrix(np.array([(1.0, 1.0), (1.0, 1.0)])).any()


def test_dominance_antisymmetry_and_transitivity():
    stream = RandomStream(100)
    for _ in range(200):
        dom = pareto._dominance_matrix(random_points(stream, 3, 3))
        assert not (dom & dom.T).any()
        for u, v, w in permutations(range(3)):
            if dom[u, v] and dom[v, w]:
                assert dom[u, w]


def test_filter_examples():
    out = pareto.nondominated_filter([(1, 2), (2, 1), (0, 0)])
    assert out.tolist() == [[1, 2], [2, 1]]
    dup = pareto.nondominated_filter([(1, 1), (1, 1)])
    assert dup.tolist() == [[1, 1], [1, 1]]


def test_filter_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        pareto.nondominated_filter(np.empty((0, 2)))
    with pytest.raises(ValueError):
        pareto.nondominated_filter([(1.0, np.inf)])


def test_filter_matches_bruteforce_oracle():
    stream = RandomStream(7)
    for _ in range(25):
        pts = random_points(stream, 20, 2)
        got = pareto.nondominated_filter(pts)
        expected = pts[oracle.nondominated_mask(pts.tolist())]
        assert np.array_equal(got, expected)


def test_filter_idempotent():
    stream = RandomStream(8)
    pts = random_points(stream, 30, 3)
    once = pareto.nondominated_filter(pts)
    assert np.array_equal(pareto.nondominated_filter(once), once)


def test_sort_examples():
    chain = pareto.fast_nondominated_sort([(3, 3), (2, 2), (1, 1)])
    assert chain.dtype == np.int64
    assert chain.tolist() == [0, 1, 2]
    pair = pareto.fast_nondominated_sort([(1, 2), (2, 1)])
    assert pair.tolist() == [0, 0]


def test_sort_matches_peeling_oracle():
    stream = RandomStream(9)
    for _ in range(10):
        pts = random_points(stream, 30, 3)
        ranks = pareto.fast_nondominated_sort(pts)
        assert ranks.tolist() == oracle.peel_ranks(pts.tolist())


def test_sort_rank_invariants():
    stream = RandomStream(10)
    pts = random_points(stream, 40, 2)
    ranks = pareto.fast_nondominated_sort(pts)
    # Rank 0 equals the nondominated filter output as multisets.
    front0 = sorted(map(tuple, pts[ranks == 0]))
    filtered = sorted(map(tuple, pareto.nondominated_filter(pts)))
    assert front0 == filtered
    # Every rank r > 0 point is dominated by at least one rank r-1 point.
    for i, r in enumerate(ranks):
        if r > 0:
            above = pts[ranks == r - 1]
            assert any(oracle.dominates(p, pts[i]) for p in above)


def test_sort_stable_within_rank():
    pts = [(1, 2), (0, 0), (2, 1), (0.5, 0.5)]
    fronts = pareto.fronts(pareto.fast_nondominated_sort(pts))
    assert fronts[0].tolist() == [0, 2]
    assert fronts[1].tolist() == [3]
    assert fronts[2].tolist() == [1]


def test_fronts_keep_input_order():
    ranks = np.array([2, 0, 1, 0, 2, 1, 0], dtype=np.int64)
    assert [f.tolist() for f in pareto.fronts(ranks)] == [[1, 3, 6], [2, 5], [0, 4]]
    stream = RandomStream(12)
    for _ in range(20):
        ranks = pareto.fast_nondominated_sort(random_points(stream, 30, 2))
        fronts = pareto.fronts(ranks)
        assert len(fronts) == ranks.max() + 1
        for r, front in enumerate(fronts):
            assert front.tolist() == [i for i in range(30) if ranks[i] == r]


def test_positive_scaling_leaves_outcomes_unchanged():
    stream = RandomStream(11)
    pts = random_points(stream, 25, 3)
    scaled = 37.5 * pts
    assert np.array_equal(pareto._dominance_matrix(pts), pareto._dominance_matrix(scaled))
    assert np.array_equal(
        pareto.fast_nondominated_sort(pts),
        pareto.fast_nondominated_sort(scaled),
    )
    assert np.array_equal(
        pareto.nondominated_mask(pts), pareto.nondominated_mask(scaled))


def test_crowding_single_point_and_pair():
    assert pareto.crowding_distance([(1, 2)]).tolist() == [np.inf]
    assert pareto.crowding_distance([(0, 1), (1, 0)]).tolist() == [np.inf, np.inf]


def test_crowding_worked_example():
    # Ranges are 2 and 2: middle point gets 2/2 + 2/2 = 2.
    dist = pareto.crowding_distance([(0, 2), (1, 1), (2, 0)])
    assert dist[0] == np.inf and dist[2] == np.inf
    assert dist[1] == pytest.approx(2.0)


def test_crowding_duplicates_get_zero():
    dist = pareto.crowding_distance([(0, 3), (1, 1), (1, 1), (3, 0)])
    assert dist.tolist() == [np.inf, 0.0, 0.0, np.inf]


def test_crowding_skips_zero_range_objective():
    dist = pareto.crowding_distance([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
    assert dist[0] == np.inf and dist[2] == np.inf
    assert dist[1] == pytest.approx(1.0)


def test_normalize_endpoints_and_example():
    ideal, nadir = (0.0, 0.0), (2.0, 4.0)
    assert pareto.normalize([(0, 0)], ideal, nadir).tolist() == [[0.0, 0.0]]
    assert pareto.normalize([(2, 4)], ideal, nadir).tolist() == [[1.0, 1.0]]
    assert pareto.normalize([(1, 1)], ideal, nadir).tolist() == [[0.5, 0.25]]


def test_normalize_rejects_degenerate_axis():
    with pytest.raises(ValueError):
        pareto.normalize([(1, 1)], (0, 3), (2, 3))


# -- column-wise dominance matrix against the broadcast oracle -----------------

def broadcast_dominance_matrix(points):
    """Oracle: ``all``/``any`` over the (n, n, k) comparison tensors."""
    ge = np.all(points[:, None, :] >= points[None, :, :], axis=2)
    gt = np.any(points[:, None, :] > points[None, :, :], axis=2)
    return ge & gt


def dominance_cases(k, seed):
    """Seeded k-D point sets: random, rounded, duplicated and signed zeros."""
    stream = RandomStream(seed)
    yield "single", np.full((1, k), -0.0)
    for n in (2, 9, 40, 120):
        raw = stream.uniform_vector(k * n).reshape(n, k) - 0.5
        yield f"n{n}-random", raw
        rounded = np.round(raw, 1)  # many tied coordinates and equal rows
        yield f"n{n}-rounded", rounded
        yield f"n{n}-duplicated", np.vstack([raw, raw[::-1], raw[: n // 2]])
        signed = rounded.copy()
        signed[::2][signed[::2] == 0.0] = -0.0
        yield f"n{n}-signed", np.vstack([signed, np.abs(signed)])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dominance_matrix_equals_broadcast_oracle(k):
    cases = dict(dominance_cases(k, 70 + k))
    signed = cases["n120-signed"]
    assert np.any(np.signbit(signed) & (signed == 0.0))
    assert np.any((signed == 0.0) & ~np.signbit(signed))
    for name, points in cases.items():
        dom = pareto._dominance_matrix(points)
        assert dom.dtype == bool and dom.shape == (len(points), len(points))
        assert np.array_equal(dom, broadcast_dominance_matrix(points)), f"k={k} {name}"


# -- 2-D sweep against the dominance-matrix oracle -----------------------------

def matrix_mask(points):
    """Oracle: the (n, n) dominance matrix, as k >= 3 still computes it."""
    return ~broadcast_dominance_matrix(np.asarray(points, dtype=np.float64)).any(axis=0)


def sweep_cases():
    """Seeded 2-D point sets with ties, duplicates, -0.0 and many ranks."""
    stream = RandomStream(61)
    yield "single", np.array([[0.3, -0.2]])
    yield "all-equal", np.full((7, 2), 0.25)
    yield "signed-zeros", np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0],
                                    [1.0, -0.0], [1.0, 0.0], [-0.0, -0.0]])
    for n in (2, 9, 40, 200):
        raw = stream.uniform_vector(2 * n).reshape(n, 2) - 0.5
        yield f"n{n}-random", raw
        simplex = raw + 0.5
        yield f"n{n}-front", simplex / simplex.sum(axis=1, keepdims=True)
        rounded = np.round(raw, 1)  # many equal x, equal y and equal rows
        yield f"n{n}-rounded", rounded
        yield f"n{n}-duplicated", np.vstack([raw, raw[::-1], raw[: n // 2]])
        signed = rounded.copy()
        signed[::3][signed[::3] == 0.0] = -0.0
        yield f"n{n}-signed", signed
        # Nested anti-diagonal fronts: about n / 4 ranks.
        ranks = np.repeat(np.arange(max(1, n // 4)), 4)[:n]
        t = stream.uniform_vector(len(ranks))
        yield f"n{n}-many-ranks", np.column_stack([t - ranks, 1.0 - t - ranks])


def test_sweep_cases_cover_ties_zeros_and_ranks():
    cases = dict(sweep_cases())
    assert np.any(np.signbit(cases["n40-signed"]) & (cases["n40-signed"] == 0.0))
    assert len(np.unique(cases["n200-rounded"], axis=0)) < 200
    assert pareto.fast_nondominated_sort(cases["n200-many-ranks"]).max() >= 40


def test_nondominated_mask_2d_equals_matrix_oracle():
    for name, points in sweep_cases():
        mask = pareto._nondominated_mask_2d(points)
        assert mask.dtype == bool
        assert np.array_equal(mask, matrix_mask(points)), name
        assert np.array_equal(pareto.nondominated_mask(points), mask), name


def test_nondominated_filter_and_reference_front_equal_matrix_versions():
    def filter_by_matrix(points):
        return points[matrix_mask(points)]

    def reference_front_by_matrix(fronts):
        front = filter_by_matrix(np.vstack(fronts))
        _, first = np.unique(front, axis=0, return_index=True)
        return front[np.sort(first)]

    cases = [points for _, points in sweep_cases()]
    for points in cases:
        got = pareto.nondominated_filter(points)
        assert np.array_equal(got.view(np.uint64), filter_by_matrix(points).view(np.uint64))
    for start in range(0, len(cases), 5):
        fronts = cases[start:start + 5]
        got = indicators.build_reference_front(fronts)
        expected = reference_front_by_matrix(fronts)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
