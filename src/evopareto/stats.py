"""Friedman test with Nemenyi post-hoc and critical-difference grouping.

Scores arrive as an (n datasets x m algorithms) table plus a direction flag;
datasets are the runs of one experiment.  Ranking is 1 = best with average
ranks on ties, counted over the whole table at once.  The Friedman statistic
is the plain chi-square form (no Iman-Davenport correction) and its p-value
the closed-form chi-square tail at integer df; the Nemenyi critical
difference uses an embedded table of studentized-range-derived q values at
alpha = 0.05.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# q_0.05 for 2..10 compared algorithms (studentized range / sqrt(2)).
_Q_ALPHA_005 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
    7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
}


@dataclass(frozen=True)
class ScoreTable:
    algorithms: tuple[str, ...]
    datasets: tuple[str, ...]
    scores: np.ndarray  # (n datasets, m algorithms)
    better: str = "higher"

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        n, m = scores.shape
        if m != len(self.algorithms) or n != len(self.datasets):
            raise ValueError("score matrix shape does not match labels")
        if n < 2 or m < 2:
            raise ValueError("need at least 2 datasets and 2 algorithms")
        if self.better not in ("higher", "lower"):
            raise ValueError("better must be 'higher' or 'lower'")
        if not np.all(np.isfinite(scores)):
            raise ValueError("score table has missing or non-finite cells")


@dataclass(frozen=True)
class CDResult:
    algorithms: tuple[str, ...]
    mean_ranks: np.ndarray
    statistic: float
    p_value: float
    critical_difference: float
    groups: tuple[tuple[str, ...], ...]


def rank_rows(table: ScoreTable) -> np.ndarray:
    """Per-dataset ranks, 1 = best under the table's direction, ties averaged."""
    oriented = -table.scores if table.better == "higher" else table.scores
    # A score that b scores beat and e tie (itself included) would take the
    # sorted positions b + 1 .. b + e, whose mean is (b + (b + e) + 1) / 2.
    beaten = (oriented[:, None, :] < oriented[:, :, None]).sum(axis=2)
    at_most = (oriented[:, None, :] <= oriented[:, :, None]).sum(axis=2)
    return (beaten + at_most + 1) / 2.0


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) at an integer ``df >= 1``.

    With h = x / 2 it is exp(-h) * sum of h**a / Gamma(a + 1) over
    a = 0, 1, ..., df/2 - 1 for even df, and erfc(sqrt(h)) plus that sum over
    a = 1/2, 3/2, ..., df/2 - 1 for odd df.  Each term is exp of its logarithm,
    so exp(-h) does not underflow before the p-value does.
    """
    if x <= 0.0:
        return 1.0
    half = x / 2.0
    head = math.erfc(math.sqrt(half)) if df % 2 else 0.0
    return head + math.fsum(math.exp(a * math.log(half) - math.lgamma(a + 1.0) - half)
                            for a in (i + df % 2 / 2.0 for i in range(df // 2)))


def friedman(table: ScoreTable) -> tuple[float, float]:
    """Friedman chi-square statistic and p-value (m - 1 degrees of freedom)."""
    n, m = table.scores.shape
    if m < 3:
        raise ValueError("the chi-square approximation needs at least 3 algorithms")
    mean_ranks = rank_rows(table).mean(axis=0)
    statistic = 12.0 * n / (m * (m + 1)) * (np.sum(mean_ranks ** 2) - m * (m + 1) ** 2 / 4.0)
    return float(statistic), chi2_sf(float(statistic), m - 1)


def nemenyi_cd(m: int, n: int, alpha: float = 0.05) -> float:
    """Nemenyi critical difference: q_alpha(m) * sqrt(m(m+1) / 6n)."""
    if alpha != 0.05:
        raise ValueError("only alpha = 0.05 is supported (embedded q table)")
    if m not in _Q_ALPHA_005:
        raise ValueError(f"m = {m} outside the embedded table range 2..10")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _Q_ALPHA_005[m] * np.sqrt(m * (m + 1) / (6.0 * n))


def cd_groups(mean_ranks: Sequence[float], critical_difference: float) -> list[tuple[int, ...]]:
    """Maximal windows of algorithms whose extreme mean ranks differ by <= CD.

    Returns tuples of indices into ``mean_ranks``; every algorithm belongs to
    at least one group and no emitted group is a subset of another.
    """
    ranks = np.asarray(mean_ranks, dtype=np.float64)
    order = np.argsort(ranks, kind="stable")
    sorted_ranks = ranks[order]
    maximal: list[tuple[int, ...]] = []
    previous_end = -1  # ends never decrease, so a window is maximal iff it ends later
    for start in range(len(order)):
        end = start
        while end + 1 < len(order) and sorted_ranks[end + 1] - sorted_ranks[start] <= critical_difference:
            end += 1
        if end > previous_end:
            maximal.append(tuple(sorted(order[start : end + 1].tolist())))
        previous_end = end
    return maximal


def friedman_nemenyi(table: ScoreTable, alpha: float = 0.05) -> CDResult:
    """Full comparison pipeline: ranks, test, CD, and diagram groups."""
    statistic, p_value = friedman(table)
    mean_ranks = rank_rows(table).mean(axis=0)
    cd = nemenyi_cd(len(table.algorithms), len(table.datasets), alpha)
    groups = tuple(
        tuple(table.algorithms[i] for i in group)
        for group in cd_groups(mean_ranks, cd)
    )
    return CDResult(
        algorithms=table.algorithms,
        mean_ranks=mean_ranks,
        statistic=statistic,
        p_value=p_value,
        critical_difference=cd,
        groups=groups,
    )
