import numpy as np
import pytest
from scipy.stats import chi2, friedmanchisquare, rankdata

from evopareto import stats
from evopareto.rng import RandomStream


def make_table(scores, better="higher"):
    scores = np.asarray(scores, dtype=np.float64)
    n, m = scores.shape
    return stats.ScoreTable(
        algorithms=tuple(f"A{j}" for j in range(m)),
        datasets=tuple(f"d{i}" for i in range(n)),
        scores=scores,
        better=better,
    )


def oracle_ranks(row, better):
    """Average-tie ranks computed by sorting, independent of scipy."""
    keyed = sorted(range(len(row)), key=lambda j: -row[j] if better == "higher" else row[j])
    ranks = [0.0] * len(row)
    i = 0
    position = 1
    while i < len(keyed):
        j = i
        while j + 1 < len(keyed) and row[keyed[j + 1]] == row[keyed[i]]:
            j += 1
        avg = (position + position + (j - i)) / 2.0
        for t in range(i, j + 1):
            ranks[keyed[t]] = avg
        position += j - i + 1
        i = j + 1
    return ranks


def test_rank_rows_examples():
    table = make_table([[3, 2, 1], [1, 1, 2]])
    assert stats.rank_rows(table).tolist() == [[1, 2, 3], [2.5, 2.5, 1]]
    lower = make_table([[3, 2, 1], [1, 1, 2]], better="lower")
    assert stats.rank_rows(lower).tolist() == [[3, 2, 1], [1.5, 1.5, 3]]


def test_rank_rows_sum_identity_and_direction_flip():
    stream = RandomStream(17)
    scores = stream.uniform_vector(100 * 5).reshape(100, 5)
    high = stats.rank_rows(make_table(scores))
    low = stats.rank_rows(make_table(scores, better="lower"))
    m = 5
    assert np.allclose(high.sum(axis=1), m * (m + 1) / 2)
    assert np.allclose(high + low, m + 1)


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_rank_rows_match_both_oracles_on_tie_heavy_tables(better):
    stream = RandomStream(43)
    for n, m, levels in ((40, 3, 2), (40, 5, 3), (30, 8, 4), (20, 10, 2), (10, 10, 10)):
        scores = np.floor(stream.uniform_vector(n * m, 0.0, levels)).reshape(n, m)
        ranks = stats.rank_rows(make_table(scores, better))
        assert np.array_equal(ranks, [oracle_ranks(row, better) for row in scores.tolist()])
        oriented = -scores if better == "higher" else scores
        assert np.array_equal(ranks, rankdata(oriented, method="average", axis=1))


def test_chi2_tail_matches_scipy():
    x = np.concatenate([[0.0, 1e-9, 1e-3], np.linspace(0.0, 1400.0, 2801)])
    for df in range(2, 10):
        expected = chi2.sf(x, df)
        got = np.array([stats.chi2_sf(float(v), df) for v in x])
        assert got[0] == 1.0
        kept = expected >= 1e-300
        assert kept.sum() > 2700
        assert np.all(np.abs(got[kept] - expected[kept]) <= 1e-12 * expected[kept]), df


def test_score_table_validation():
    with pytest.raises(ValueError):
        make_table([[1.0, np.nan], [1.0, 2.0]])
    with pytest.raises(ValueError):
        make_table([[1.0, 2.0]])  # a single dataset is below the n >= 2 floor
    with pytest.raises(ValueError):
        stats.ScoreTable(("A",), ("d1", "d2"), np.ones((2, 1)))


def test_friedman_consensus_fixture_is_exactly_six():
    table = make_table([[3, 2, 1], [30, 20, 10], [0.3, 0.2, 0.1]])
    statistic, p = stats.friedman(table)
    assert statistic == 6.0
    assert 0.0 < p < 1.0


def test_friedman_all_tied_is_zero():
    table = make_table([[1, 1, 1], [2, 2, 2]])
    statistic, _ = stats.friedman(table)
    assert statistic == 0.0


def test_friedman_requires_three_algorithms():
    with pytest.raises(ValueError):
        stats.friedman(make_table([[1, 2], [2, 1]]))


def test_friedman_matches_direct_recomputation():
    stream = RandomStream(23)
    scores = stream.uniform_vector(10 * 8).reshape(10, 8)
    statistic, _ = stats.friedman(make_table(scores))
    ranks = np.array([oracle_ranks(row, "higher") for row in scores])
    mean = ranks.mean(axis=0)
    n, m = scores.shape
    expected = 12.0 * n / (m * (m + 1)) * (np.sum(mean ** 2) - m * (m + 1) ** 2 / 4.0)
    assert statistic == pytest.approx(expected, abs=1e-10)


def test_friedman_matches_scipy_on_tie_free_table():
    stream = RandomStream(29)
    scores = stream.uniform_vector(12 * 4).reshape(12, 4)
    statistic, p = stats.friedman(make_table(scores))
    expected = friedmanchisquare(*[scores[:, j] for j in range(4)])
    assert statistic == pytest.approx(expected.statistic, abs=1e-10)
    assert p == pytest.approx(expected.pvalue, abs=1e-10)


def test_friedman_invariant_under_monotone_transform():
    stream = RandomStream(31)
    scores = stream.uniform_vector(8 * 5).reshape(8, 5)
    base, _ = stats.friedman(make_table(scores))
    warped, _ = stats.friedman(make_table(np.exp(3.0 * scores)))
    assert warped == pytest.approx(base, abs=1e-12)


def test_nemenyi_closed_forms():
    # m = 2 collapses to 1.960 * sqrt(1/n).
    for n in (5, 10, 50):
        assert stats.nemenyi_cd(2, n) == pytest.approx(1.960 * np.sqrt(1.0 / n), abs=1e-12)
    # m = 8, n = 10: 3.031 * sqrt(8 * 9 / 60).
    assert stats.nemenyi_cd(8, 10) == pytest.approx(3.031 * np.sqrt(72.0 / 60.0), abs=1e-12)
    assert abs(stats.nemenyi_cd(8, 10) - 3.320) < 1e-3


def test_nemenyi_decreases_with_more_datasets():
    values = [stats.nemenyi_cd(5, n) for n in (2, 5, 10, 100)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_nemenyi_rejects_out_of_table():
    with pytest.raises(ValueError):
        stats.nemenyi_cd(11, 10)
    with pytest.raises(ValueError):
        stats.nemenyi_cd(1, 10)
    with pytest.raises(ValueError):
        stats.nemenyi_cd(5, 10, alpha=0.01)


def test_cd_groups_examples():
    assert stats.cd_groups([1.0, 1.2, 1.4], 1.0) == [(0, 1, 2)]
    assert stats.cd_groups([1.0, 5.0], 1.0) == [(0,), (1,)]
    # Ranks (1, 1.5, 3.0) with CD 1.6: windows {1, 1.5} and {1.5, 3.0}.
    assert stats.cd_groups([1.0, 1.5, 3.0], 1.6) == [(0, 1), (1, 2)]


def test_cd_groups_cover_and_maximality():
    stream = RandomStream(37)
    for _ in range(50):
        ranks = sorted(stream.uniform_vector(6, 1.0, 6.0).tolist())
        groups = stats.cd_groups(ranks, 1.3)
        covered = set().union(*[set(g) for g in groups])
        assert covered == set(range(6))
        for g in groups:
            assert not any(set(g) < set(h) for h in groups if h != g)



def subset_filter_groups(mean_ranks, critical_difference):
    """Oracle: every window in rank order, keeping each one that no other
    window strictly contains, once."""
    ranks = np.asarray(mean_ranks, dtype=np.float64)
    order = np.argsort(ranks, kind="stable")
    sorted_ranks = ranks[order]
    windows = []
    for start in range(len(order)):
        end = start
        while end + 1 < len(order) and sorted_ranks[end + 1] - sorted_ranks[start] <= critical_difference:
            end += 1
        windows.append(tuple(sorted(order[start : end + 1].tolist())))
    maximal = []
    for w in windows:
        if not any(set(w) < set(other) for other in windows) and w not in maximal:
            maximal.append(w)
    return maximal


def test_cd_groups_match_the_subset_filter_on_half_integer_ties():
    stream = RandomStream(47)
    for case in range(3000):
        m = 2 + stream.below(9)
        ranks = [1.0 + 0.5 * stream.below(2 * m - 1) for _ in range(m)]
        # Half the cases put the CD on the half-integer grid, so rank gaps
        # equal to it are common.
        cd = 0.5 * stream.below(2 * m) if case % 2 else stream.uniform(0.0, m)
        assert stats.cd_groups(ranks, cd) == subset_filter_groups(ranks, cd), (ranks, cd)

def test_friedman_nemenyi_pipeline():
    stream = RandomStream(41)
    scores = stream.uniform_vector(10 * 4).reshape(10, 4)
    scores[:, 0] += 2.0  # one clearly dominant algorithm
    table = make_table(scores)
    result = stats.friedman_nemenyi(table)
    m = 4
    assert result.mean_ranks.sum() == pytest.approx(m * (m + 1) / 2)
    assert result.critical_difference == pytest.approx(stats.nemenyi_cd(4, 10))
    names_in_groups = set().union(*[set(g) for g in result.groups])
    assert names_in_groups == set(table.algorithms)
    assert result.mean_ranks[0] == min(result.mean_ranks)
