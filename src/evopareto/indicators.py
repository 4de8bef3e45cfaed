"""Front quality indicators: hypervolume, GD, IGD, reference fronts.

Hypervolume is computed on minimization points against a reference point
(2-D sweep, 3-D slicing).  Per the reporting convention, hypervolume is
measured in normalized space (reference-front ideal -> 0, nadir -> 1,
clipped below at 0, reference point (1, ..., 1)) so it lands in [0, 1],
while GD and IGD stay on the raw objective scale.  :func:`indicator_series` scores a run's generations and
returns ``hv``, ``gd`` and ``igd`` as three float arrays, one entry per
generation.

Exact hypervolume is one kernel: one sweep of the whole front per slab,
over the points inside ``ref``.  :func:`hypervolume_exact` adds up its slab
terms, and the exclusive contributions (SMS-EMOA's selection) are
``hv(front) - hv(front without i)``, where the front without point i keeps
every whole-front slab term but those a "pair row" rescores.  Its results
are the bytes of the scalar 2-D sweep and 3-D slicing loops (kept in the
tests as the oracle).  Four rules keep them:

* sort once: the points are sorted by a stable ``lexsort`` on (x, y), and a
  subset keeps that order, as a sweep over the subset alone would sort it;
* mask, don't delete: a pair row's removed point, and in 3-D every point
  above the slab, gets y = +inf, so it never lowers the sweep's running
  minimum and its term is exactly 0.0;
* ordered sums: sweep terms and slab volumes are added left to right
  (``cumsum``, never the pairwise ``np.sum``), and adding 0.0 is exact;
* one slab rule: the slabs are the distinct heights z of the points (a 2-D
  front is one slab, [0, 1)).  Slab t reaches up to the next height, or to
  ``ref[2]``; its width is that bound minus its height, one subtraction.
  A duplicated height may stand as a slab of its own: it reaches up to the
  same height, so its width is 0.0, its term 0.0, and the last copy keeps
  the distinct slab's width.

The same rules let G fronts of different sizes share one sweep
(:func:`indicator_series`, and :func:`hypervolume_exact` as G = 1).  The
fronts are stacked as a (G, n, k) array; a front's rows outside it (a
dominated point, a point not inside ``ref``, a padding row) are masked
with y = +inf and z = ``ref[2]``.  Each point's height is a slab, so a
front's slabs are its distinct heights plus zero-width copies, and the
masked rows' slabs sit at ``ref[2]`` with width 0.0.  Sorting a whole row
keeps the front's own points in their order, every sum runs left to
right within its row, and every term a masked point adds is 0.0, so each
front's volume is bitwise its own sweep's.

So, with point i removed, slab t's term is bitwise the whole front's
unless i sits at or below slab t and lowers the running minimum there.  A
masked point that lowers nothing changes no later minimum and no term, and
its own term is 0.0 either way; a slab below z_i never held it.  Only i's
own slab can vanish, when i is alone at that height: its term is then 0.0,
and the slab below reaches up to the next height instead.  Every other
(slab, point) pair where the point lowers the minimum gets a pair row: the
slab's 2-D sweep with that point masked, scored in blocks of at most
``_BLOCK_CELLS`` cells.  The ``(m + 1, slabs)`` terms of the whole front and
its m leave-one-out fronts are then added left to right, row by row.

SMS-EMOA drops the first minimal contribution in worst-front order
(``np.argmin``), so exact ties go to the earlier member.  In 2-D it calls
:func:`hypervolume_contributions` only when a closed-form screen cannot
name that member beyond rounding (``algorithms.moea._screened_least``).
The sweep overflows to NaN once the box or an area of two of its sides
exceeds the largest double, and its products underflow on tiny boxes, so
SMS-EMOA scales each objective of a front by a power of two first
(``algorithms.moea._unit_box``).
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from . import pareto

# Pair rows are scored in blocks of at most this many (row, point) cells,
# and :func:`indicator_series` stacks at most this many (generation, point,
# point) cells of dominance matrices and 3-D slab sweeps at once.
_BLOCK_CELLS = 2**18
# A 2-D front is one slab, from height 0 up to 1: its volume is its area.
_FLAT = (np.zeros(1), np.ones(1))


def hypervolume_exact(front, ref) -> float:
    """Lebesgue measure of the union of boxes [point, ref] (minimization).

    Points that do not strictly better the reference point in every
    coordinate enclose no volume and are dropped.  Exact algorithms are
    provided for k in {2, 3} only.  This is the one-front case of the
    masked sweep that :func:`indicator_series` runs over a stack of fronts.
    """
    arr, ref = _front_and_ref(front, ref)
    if arr.shape[0] == 0:
        return 0.0
    return float(_hypervolumes(arr[None], True, ref)[0])


def _front_and_ref(front, ref) -> tuple[np.ndarray, np.ndarray]:
    """The front as an (m, k) float array and ref as a (k,) one, k in {2, 3}."""
    arr = np.asarray(front, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    ref = np.asarray(ref, dtype=np.float64)
    k = ref.shape[0]
    if arr.shape[1] != k:
        raise ValueError("front and reference point dimensions differ")
    if k not in (2, 3):
        raise ValueError("exact hypervolume supports k in {2, 3}")
    return arr, ref


def _hypervolumes(points: np.ndarray, keep, ref: np.ndarray) -> np.ndarray:
    """Exact hypervolume of each front of a (G, n, k) stack.

    Front g is the points of ``points[g]`` where ``keep[g]`` holds (a
    (G, n) mask, or ``True``) that lie strictly inside ``ref``.  Every
    other point is masked: y = +inf, so it lowers no running minimum and
    its terms are 0.0, and z = ``ref[2]``, so its slab has width 0.0 (see
    the module notes).  Its ``ref[0] - x`` is taken as 1.0, so that a term
    never multiplies 0.0 by infinity.
    """
    inside = keep & (points < ref).all(axis=-1)
    order = np.lexsort((points[..., 1], points[..., 0]))
    points = np.take_along_axis(points, order[..., None], axis=-2)
    inside = np.take_along_axis(inside, order, axis=-1)
    dx = np.where(inside, ref[0] - points[..., 0], 1.0)
    y = np.where(inside, points[..., 1], np.inf)
    if ref.shape[0] == 2:  # one slab of width 1.0: area * 1.0 == area
        ys = np.full(y.shape[:-1] + (y.shape[-1] + 1,), ref[1])
        ys[..., 1:] = y
        return _sweep(dx, ys)[0]
    z = np.where(inside, points[..., 2], ref[2])
    heights = np.sort(z, axis=-1)
    upper = np.full(heights.shape, ref[2])
    upper[..., :-1] = heights[..., 1:]
    ys = np.full(heights.shape + (y.shape[-1] + 1,), ref[1])
    ys[..., 1:] = np.where(z[..., None, :] <= heights[..., :, None], y[..., None, :], np.inf)
    area = _sweep(dx[..., None, :], ys)[0]
    return np.cumsum(area * (upper - heights), axis=-1)[..., -1]


def _sweep_rows(front, ref) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The front and ref as float arrays, and the indices of the points
    strictly inside ref in sweep order (stable ``lexsort`` by x, then y)."""
    arr, ref = _front_and_ref(front, ref)
    rows = np.flatnonzero((arr < ref).all(axis=1))
    return arr, ref, rows[np.lexsort((arr[rows, 1], arr[rows, 0]))]


def _slabs(points: np.ndarray, ref: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The whole front's slabs: the y's each one sweeps (``ys[t]``, see
    :func:`_sweep`: point j's y if it sits at or below slab t, else +inf),
    the slab each point sits at, the slab heights ``zs`` and their upper
    bounds (the next height, or ``ref[2]`` for the last)."""
    if ref.shape[0] == 2:
        ys = np.concatenate((ref[1:], points[:, 1]))[None]
        return ys, np.zeros(len(points), dtype=np.intp), *_FLAT
    z = points[:, 2]
    zs = np.unique(z)
    ys = np.full((len(zs), len(points) + 1), ref[1])
    ys[:, 1:] = np.where(z <= zs[:, None], points[:, 1], np.inf)
    return ys, np.searchsorted(zs, z), zs, np.concatenate((zs[1:], ref[2:]))


def _sweep(dx: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2-D sweep of each row of ``ys`` (its last axis): column 0 holds
    ``ref[1]``, where every sweep starts, and column 1 + j the y of
    sweep-ordered point j, or +inf where it is masked; ``dx[..., j]`` is
    ``ref[0]`` minus its x.  Returns each row's area, and whether each point
    lowers the row's running minimum."""
    prev_min = np.minimum.accumulate(ys[..., :-1], axis=-1)
    y = ys[..., 1:]
    lowers = y < prev_min
    terms = np.where(lowers, dx * (prev_min - y), 0.0)
    return np.cumsum(terms, axis=-1)[..., -1], lowers


def _pair_areas(dx: np.ndarray, ys: np.ndarray, slabs: np.ndarray, removed: np.ndarray
                ) -> np.ndarray:
    """Area of slab ``slabs[p]`` without point ``removed[p]``, for each p:
    one block of pair rows."""
    rows = ys[slabs]
    rows[np.arange(len(rows)), removed + 1] = np.inf
    return _sweep(dx, rows)[0]


def hypervolume_contributions(front, ref) -> np.ndarray:
    """Exclusive hypervolume of each point: hv(front) - hv(front minus point).

    Points outside ``ref`` contribute 0.0.  Row 0 of an ``(m + 1, slabs)``
    array holds the whole front's slab terms, and row 1 + i those of the
    front without point i: the same terms, but for the slab that i takes
    with it when alone at its height and the slabs its pair rows rescore
    (see the module notes).  The whole-front sweep holds slabs x points
    cells; the pair rows are scored in blocks of at most ``_BLOCK_CELLS``
    cells, and each row alone, so the blocks do not change a bit.
    """
    arr, ref, rows = _sweep_rows(front, ref)
    contributions = np.zeros(arr.shape[0])
    if rows.size == 0:
        return contributions
    points = arr[rows]
    m = len(points)
    ys, slab, zs, upper = _slabs(points, ref)
    dx = ref[0] - points[:, 0]
    area, lowers = _sweep(dx, ys)
    width = upper - zs
    # Row 0: the whole front's slab terms; row 1 + i: the front's without point i.
    terms = np.repeat((area * width)[None], m + 1, axis=0)
    without = terms[1:]
    # A point alone at its height takes its slab with it: the slab needs no
    # pair row, and the slab below reaches up to the next height.
    sole = np.flatnonzero(np.bincount(slab)[slab] == 1)
    t = slab[sole]
    lowers[t, sole] = False
    without[sole, t] = 0.0
    sole, t = sole[t > 0], t[t > 0] - 1
    without[sole, t] = area[t] * (upper[t + 1] - zs[t])
    slabs, removed = np.nonzero(lowers)
    step = max(1, _BLOCK_CELLS // m)
    for b in range(0, len(slabs), step):
        t, i = slabs[b:b + step], removed[b:b + step]
        without[i, t] = _pair_areas(dx, ys, t, i) * width[t]
    hv = np.cumsum(terms, axis=1)[:, -1]
    contributions[rows] = hv[0] - hv[1:]
    return contributions


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[i, j]``: squared Euclidean distance from point ``a[i]`` to point ``b[j]``.

    The k squared coordinate differences are added left to right,
    ``((d0 + d1) + d2) + ...``, one (n, m) array per coordinate, starting
    from the first square itself rather than a zero-filled accumulator
    (0.0 + x == x, and a square is never -0.0).  For k < 8 that is the order
    of numpy's ``np.sum(diff * diff, axis=2)`` over the (n, m, k) difference
    tensor, so the bytes are the same without the tensor.  GD, IGD,
    :func:`indicator_series`, SPEA2 and R-NSGA-II read these bytes.
    """
    total = np.subtract.outer(a[:, 0], b[:, 0])
    total *= total
    for j in range(1, a.shape[1]):
        d = np.subtract.outer(a[:, j], b[:, j])
        d *= d
        total += d
    return total


def euclidean_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[i, j]``: Euclidean distance from point ``a[i]`` to point ``b[j]``."""
    return np.sqrt(_squared_distances(a, b))


def gd(approx, reference) -> float:
    """Generational distance: mean distance from approx points to the reference."""
    a = pareto.as_points(approx)
    r = pareto.as_points(reference)
    if a.shape[1] != r.shape[1]:
        raise ValueError("approximation and reference dimensions differ")
    return float(euclidean_distances(a, r).min(axis=1).mean())


def build_reference_front(final_fronts: Sequence) -> np.ndarray:
    """Nondominated, deduplicated union of the given objective-vector sets."""
    if not final_fronts:
        raise ValueError("need at least one run to build a reference front")
    combined = np.vstack([pareto.as_points(f) for f in final_fronts])
    front = pareto.nondominated_filter(combined)
    _, first = np.unique(front, axis=0, return_index=True)
    return front[np.sort(first)]


def indicator_series(populations: Sequence, reference_front
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-generation ``(hv, gd, igd)`` of a run against a fixed reference front.

    ``populations`` holds one (n, k) array of mean returns per generation,
    and each returned float array has one entry per generation.  HV uses the
    reference front's ideal/nadir normalization; a reference front
    degenerate in some objective cannot be normalized, so HV is reported as
    NaN with a diagnostic while GD/IGD (raw scale) proceed.

    The generations are stacked as one (G, n_max, k) array, in blocks of at
    most ``_BLOCK_CELLS`` (generation, point, point) cells.  A shorter
    population is padded with rows of -inf, which every real point
    dominates, so the nondominated masks of one batched
    :func:`pareto._dominance_matrix` are each generation's
    :func:`pareto.nondominated_filter`.  Every generation's normalized HV
    then comes from one masked sweep, bit for bit :func:`hypervolume_exact`
    of that generation's normalized, clipped front (see the module notes).

    GD and IGD read one squared-distance matrix per generation, along its
    rows and its columns.  They equal :func:`gd` of the front against the
    reference and of the reference against the front, bit for bit:
    ``(a - b)**2 == (b - a)**2`` and each entry sums its k terms in the
    same order as the transposed entry, and ``sqrt`` is correctly rounded
    and monotone, so the square root of the minimum is the minimum of the
    square roots.
    """
    reference = pareto.as_points(reference_front)
    ideal = reference.max(axis=0)
    nadir = reference.min(axis=0)
    degenerate = bool(np.any(ideal == nadir))
    if degenerate:
        warnings.warn(
            f"reference front is degenerate in objective(s) "
            f"{np.flatnonzero(ideal == nadir).tolist()}; HV reported as NaN",
            stacklevel=2,
        )
    arrays = [pareto.as_points(population) for population in populations]
    k = reference.shape[1]
    n = max((len(a) for a in arrays), default=1)
    step = max(1, _BLOCK_CELLS // (n * n))
    hv = np.full(len(arrays), np.nan)
    gd_ = np.empty(len(arrays))
    igd_ = np.empty(len(arrays))
    for b in range(0, len(arrays), step):
        block = arrays[b:b + step]
        stack = np.full((len(block), n, k), -np.inf)
        for g, population in enumerate(block):
            stack[g, :len(population)] = population
        keep = ~pareto._dominance_matrix(stack).any(axis=-2)
        if not degenerate:
            clipped = np.maximum(pareto.normalize(stack, ideal, nadir), 0.0)
            hv[b:b + len(block)] = _hypervolumes(clipped, keep, np.ones(k))
        for g, population in enumerate(block):
            squared = _squared_distances(population[keep[g, :len(population)]], reference)
            gd_[b + g] = np.sqrt(squared.min(axis=1)).mean()
            igd_[b + g] = np.sqrt(squared.min(axis=0)).mean()
    return hv, gd_, igd_
