"""Dominance relations, nondominated filtering/sorting, crowding, normalization.

Objective vectors are maximized everywhere in this module; quality indicators
negate to minimization at their own boundary (see :mod:`evopareto.indicators`).
Points are plain float arrays: a population is an ``(n, k)`` array with
``k >= 2`` finite objectives per row.  Objective-space duplicates are legal
and are kept by every operation here; deduplication happens only when the
global reference front is assembled.

Sorting works on plain arrays: :func:`fast_nondominated_sort` returns one
``int64`` rank per point, :func:`fronts` splits ranks into index arrays, and
:func:`crowding_distance` scores one front at a time, computed only by the
one optimizer that reads it (NSGA-II).

Every kernel here only compares coordinates, so two kernels that find the
same sets give the same bytes.  :func:`nondominated_mask` for k = 2 is a
sort-and-sweep (Kung, Luccio & Preparata, 1975) in O(n log n); for k >= 3 it
reads the (n, n) dominance matrix, which stays the oracle the 2-D sweep is
tested against.  The matrix is accumulated from k column comparisons into two
(n, n) boolean arrays, never an (n, n, k) tensor; ``all``/``any`` over the
same booleans give the same matrix in either order.  Ranking peels that
matrix front by front; a point's rank is the length of the longest chain of
points dominating it.  SMS-EMOA builds one matrix per generation, peels it
once and keeps those chain lengths up to date as it inserts and removes.
"""

from __future__ import annotations

import numpy as np


def as_points(points) -> np.ndarray:
    """Validate and return an (n, k) float array of objective vectors."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty (n, k) array of objective vectors")
    if arr.shape[1] < 2:
        raise ValueError("objective vectors need at least two components")
    if not np.all(np.isfinite(arr)):
        raise ValueError("objective vectors must be finite")
    return arr


def _dominance_matrix(points: np.ndarray) -> np.ndarray:
    """Boolean (n, n) matrix with [i, j] True iff point i dominates point j.

    One column at a time: ``>=`` is and-ed and ``>`` or-ed over the k
    objectives into two (n, n) arrays, the same booleans as ``all``/``any``
    over an (n, n, k) comparison tensor without building it.  Leading axes
    are batch axes: a (G, n, k) stack gives G matrices, (G, n, n).
    """
    col = points[..., 0]
    ge = col[..., :, None] >= col[..., None, :]
    gt = col[..., :, None] > col[..., None, :]
    for j in range(1, points.shape[-1]):
        col = points[..., j]
        ge &= col[..., :, None] >= col[..., None, :]
        gt |= col[..., :, None] > col[..., None, :]
    return ge & gt


def nondominated_mask(points) -> np.ndarray:
    """Boolean mask of points not dominated by any other input point."""
    arr = as_points(points)
    if arr.shape[1] == 2:
        return _nondominated_mask_2d(arr)
    return ~_dominance_matrix(arr).any(axis=0)


def _nondominated_mask_2d(points: np.ndarray) -> np.ndarray:
    """:func:`nondominated_mask` of (n, 2) points by one sort and a sweep.

    In order of descending x (descending y within equal x), a point is
    dominated iff a point of strictly larger x has y at least its own, or a
    point of its own x has a larger y.  Equal vectors dominate neither way
    and -0.0 == 0.0, as in the matrix.
    """
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    x = points[order, 0]
    y = points[order, 1]
    starts = np.concatenate([[True], x[1:] != x[:-1]])
    group = np.cumsum(starts) - 1
    group_max = y[starts]
    # Largest y over the groups of strictly larger x, -inf for the first.
    larger_x_max = np.maximum.accumulate(np.concatenate([[-np.inf], group_max[:-1]]))
    dominated = (larger_x_max[group] >= y) | (group_max[group] > y)
    mask = np.empty(points.shape[0], dtype=bool)
    mask[order] = ~dominated
    return mask


def nondominated_filter(points) -> np.ndarray:
    """Exactly the input points dominated by nothing, in input order.

    Duplicates of surviving points are all retained: equal vectors do not
    dominate each other.
    """
    arr = as_points(points)
    return arr[nondominated_mask(arr)]


def fast_nondominated_sort(points) -> np.ndarray:
    """Deb's fast nondominated sort: the ``int64`` rank of every point.

    ``ranks[i] == 0`` marks the nondominated subset; every rank ``r > 0``
    point is dominated by at least one rank ``r - 1`` point.
    """
    return _peel_ranks(_dominance_matrix(as_points(points)))


def _peel_ranks(dom: np.ndarray) -> np.ndarray:
    """Ranks of the points whose :func:`_dominance_matrix` is ``dom``."""
    ranks = np.full(dom.shape[0], -1, dtype=np.int64)
    remaining = dom.sum(axis=0).astype(np.int64)
    current = np.flatnonzero(remaining == 0)
    rank = 0
    while current.size:
        ranks[current] = rank
        # Peel: members of the current front release the points they dominate.
        remaining = remaining - dom[current].sum(axis=0)
        remaining[current] = -1
        current = np.flatnonzero(remaining == 0)
        rank += 1
    return ranks


def fronts(ranks: np.ndarray) -> list[np.ndarray]:
    """Index arrays per rank, input order preserved within each rank."""
    return [np.flatnonzero(ranks == r) for r in range(int(ranks.max()) + 1)]


def crowding_distance(front) -> np.ndarray:
    """NSGA-II crowding distance for a mutually nondominated front.

    Points at a per-objective extreme value get ``+inf``; interior points sum
    ``(next - prev) / range`` per objective, where next/prev are the nearest
    neighbour values with ties collapsing to the point's own value, so exact
    duplicates contribute zero gaps.  Objectives with zero range are skipped
    (degenerate fronts occur early in runs).
    """
    arr = as_points(front)
    n, k = arr.shape
    dist = np.zeros(n, dtype=np.float64)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(k):
        order = np.argsort(arr[:, j], kind="stable")
        values = arr[order, j]
        span = values[-1] - values[0]
        if span == 0.0:
            continue
        tied = (values[1:-1] == values[:-2]) | (values[1:-1] == values[2:])
        gaps = np.where(tied, 0.0, (values[2:] - values[:-2]) / span)
        dist[order[1:-1]] += gaps
        dist[arr[:, j] == values[0]] = np.inf
        dist[arr[:, j] == values[-1]] = np.inf
    return dist


def normalize(points, ideal, nadir) -> np.ndarray:
    """Affine map sending ideal to 0 and nadir to 1 in every coordinate.

    This is the single maximization-to-minimization boundary: in the output
    space smaller is better.  Points outside the ideal-nadir box land outside
    [0, 1]; callers clip where their semantics require it.
    """
    arr = np.asarray(points, dtype=np.float64)
    ideal = np.asarray(ideal, dtype=np.float64)
    nadir = np.asarray(nadir, dtype=np.float64)
    if np.any(ideal == nadir):
        bad = np.flatnonzero(ideal == nadir).tolist()
        raise ValueError(f"ideal equals nadir in objective(s) {bad}; cannot normalize")
    return (arr - ideal) / (nadir - ideal)
