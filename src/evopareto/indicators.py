"""Front quality indicators: hypervolume, GD, IGD, reference fronts.

Hypervolume is computed on minimization points against a reference point
(2-D sweep, 3-D slicing), with an independent Monte Carlo estimator kept as
a cross-check oracle.  Per the reporting convention, hypervolume is measured
in normalized space (reference-front ideal -> 0, nadir -> 1, reference point
(1, ..., 1)) so it lands in [0, 1], while GD and IGD stay on the raw
objective scale.  :func:`indicator_series` scores a run's generations and
returns ``hv``, ``gd`` and ``igd`` as three float arrays, one entry per
generation.

Exact hypervolume is one kernel, a sweep over the points inside ``ref``
that scores several subsets of them at once: :func:`hypervolume_exact` is
the subset of every point, and the exclusive contributions (SMS-EMOA's
selection) are ``hv(front) - hv(front without i)`` from the leave-one-out
subsets.  Its results are the bytes of the scalar 2-D sweep and 3-D slicing
loops (kept in the tests as the oracle).  Four rules keep them:

* sort once: the points are sorted by a stable ``lexsort`` on (x, y), and a
  subset keeps that order, as a sweep over the subset alone would sort it;
* mask, don't delete: a point outside the subset, and in 3-D every point
  above the slab, gets y = +inf, so it never lowers the sweep's running
  minimum and its term is exactly 0.0;
* ordered sums: sweep terms and slab volumes are added left to right
  (``cumsum``, never the pairwise ``np.sum``), and adding 0.0 is exact;
* one slab rule: the slabs are the distinct heights z of all the points.
  Slab t exists in a subset when one of its points sits at that height, and
  reaches up to the subset's next slab, or to ``ref[2]``; its width is that
  bound minus its height, one subtraction, and a slab that does not exist
  adds 0.0.

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
from .rng import RandomStream

# A 3-D pool of up to 63 points (64 rows of 63 slabs) is scored in one block.
_BLOCK_CELLS = 2**18


def hypervolume_exact(front, ref) -> float:
    """Lebesgue measure of the union of boxes [point, ref] (minimization).

    Points that do not strictly better the reference point in every
    coordinate enclose no volume and are dropped.  Exact algorithms are
    provided for k in {2, 3} only.
    """
    arr, ref, rows = _sweep_rows(front, ref)
    if rows.size == 0:
        return 0.0
    return float(_masked_hv(arr[rows], np.ones((1, rows.size), dtype=bool), ref)[0])


def _sweep_rows(front, ref) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The front and ref as float arrays, and the indices of the points
    strictly inside ref in sweep order (stable ``lexsort`` by x, then y)."""
    arr = np.asarray(front, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    ref = np.asarray(ref, dtype=np.float64)
    k = ref.shape[0]
    if arr.shape[1] != k:
        raise ValueError("front and reference point dimensions differ")
    if k not in (2, 3):
        raise ValueError("exact hypervolume supports k in {2, 3}; use hypervolume_mc")
    rows = np.flatnonzero(np.all(arr < ref, axis=1))
    return arr, ref, rows[np.lexsort((arr[rows, 1], arr[rows, 0]))]


def _masked_hv(points: np.ndarray, active: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Hypervolume of each subset ``active[..., :]`` of the sweep-ordered
    points inside ``ref`` (see the module notes)."""
    if ref.shape[0] == 3:
        # Rows are independent: score them in blocks of at most
        # _BLOCK_CELLS (row, slab, point) cells to bound the memory.
        step = max(1, _BLOCK_CELLS // points.shape[0] ** 2)
        if len(active) > step:
            return np.concatenate([_masked_hv(points, active[i:i + step], ref)
                                   for i in range(0, len(active), step)])
        z = points[:, 2]
        zs = np.unique(z)
        # Slab t exists in a row when an active point sits at zs[t]; it
        # reaches up to the row's next slab, or to ref[2].
        exists = (active[:, None, :] & (z == zs[:, None])).any(axis=-1)
        later = np.where(exists[:, 1:], zs[1:], np.inf)
        later = np.concatenate([later, np.full((len(later), 1), ref[2])], axis=1)
        upper = np.minimum.accumulate(later[:, ::-1], axis=1)[:, ::-1]
        area = _masked_hv(points[:, :2], active[:, None, :] & (z <= zs[:, None]), ref[:2])
        terms = np.where(exists, area * (upper - zs), 0.0)
        return np.cumsum(terms, axis=-1)[..., -1]
    ys = np.where(active, points[:, 1], np.inf)
    start = np.full(ys.shape[:-1] + (1,), ref[1])
    prev_min = np.minimum.accumulate(np.concatenate([start, ys[..., :-1]], axis=-1), axis=-1)
    terms = np.where(ys < prev_min, (ref[0] - points[:, 0]) * (prev_min - ys), 0.0)
    return np.cumsum(terms, axis=-1)[..., -1]


def hypervolume_mc(front, ref, samples: int, seed: int) -> float:
    """Monte Carlo hypervolume oracle.

    Uniform samples in the box [componentwise min of front, ref]; returns the
    dominated fraction times the box volume.  Independent of the exact sweep
    and slicing code by construction.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    arr = np.asarray(front, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    ref = np.asarray(ref, dtype=np.float64)
    k = ref.shape[0]
    ideal = arr.min(axis=0)
    box = np.prod(ref - ideal)
    if box <= 0.0:
        return 0.0
    rng = RandomStream(seed)
    u = rng.uniform_vector(samples * k).reshape(samples, k)
    pts = ideal + u * (ref - ideal)
    dominated = np.zeros(samples, dtype=bool)
    for p in arr:
        dominated |= np.all(pts >= p, axis=1)
    return float(dominated.mean() * box)


def hypervolume_contributions(front, ref) -> np.ndarray:
    """Exclusive hypervolume of each point: hv(front) - hv(front minus point).

    One batched pass: row 0 holds every point inside ``ref`` and row 1 + i
    all of them but point i.  Points outside ``ref`` contribute 0.0.  In 3-D
    the rows are scored in blocks, so memory stays bounded for large fronts;
    each row is scored alone, so the blocks do not change a bit.
    """
    arr, ref, rows = _sweep_rows(front, ref)
    contributions = np.zeros(arr.shape[0])
    if rows.size:
        active = np.vstack([np.ones(rows.size, dtype=bool), ~np.eye(rows.size, dtype=bool)])
        hv = _masked_hv(arr[rows], active, ref)
        contributions[rows] = hv[0] - hv[1:]
    return contributions


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[i, j]``: squared Euclidean distance from point ``a[i]`` to point ``b[j]``.

    The k squared coordinate differences are added left to right,
    ``((d0 + d1) + d2) + ...``, one (n, m) array per coordinate.  For k < 8
    that is the order of numpy's ``np.sum(diff * diff, axis=2)`` over the
    (n, m, k) difference tensor, so the bytes are the same without the
    tensor.  GD, IGD, :func:`indicator_series` and SPEA2 read these bytes.
    """
    total = np.zeros((len(a), len(b)))
    for j in range(a.shape[1]):
        d = np.subtract.outer(a[:, j], b[:, j])
        d *= d
        total += d  # 0.0 + x == x: a square is never -0.0
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


def igd(approx, reference) -> float:
    """Inverted generational distance: gd with the roles swapped."""
    return gd(reference, approx)


def build_reference_front(final_fronts: Sequence) -> np.ndarray:
    """Nondominated, deduplicated union of the given objective-vector sets."""
    if not final_fronts:
        raise ValueError("need at least one run to build a reference front")
    combined = np.vstack([pareto.as_points(f) for f in final_fronts])
    front = pareto.nondominated_filter(combined)
    _, first = np.unique(front, axis=0, return_index=True)
    return front[np.sort(first)]


def normalized_hypervolume(points, ideal, nadir) -> float:
    """Hypervolume of maximization points in normalized space vs (1, ..., 1).

    Points are mapped so the reference-front ideal sits at 0 and the nadir at
    1, clipped below at 0 so the reported value cannot exceed 1; points at or
    beyond the reference point contribute nothing.
    """
    normalized = pareto.normalize(points, ideal, nadir)
    clipped = np.maximum(normalized, 0.0)
    return hypervolume_exact(clipped, np.ones(clipped.shape[1]))


def indicator_series(populations: Sequence, reference_front
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-generation ``(hv, gd, igd)`` of a run against a fixed reference front.

    ``populations`` holds one (n, k) array of mean returns per generation,
    and each returned float array has one entry per generation.  HV uses the
    reference front's ideal/nadir normalization; a reference front
    degenerate in some objective cannot be normalized, so HV is reported as
    NaN with a diagnostic while GD/IGD (raw scale) proceed.

    GD and IGD read one squared-distance matrix per generation, along its
    rows and its columns.  They equal :func:`gd` and :func:`igd` bit for
    bit: ``(a - b)**2 == (b - a)**2`` and each entry sums its k terms in the
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
    values = np.empty((len(populations), 3))
    for generation, population in enumerate(populations):
        front = pareto.nondominated_filter(population)
        hv = float("nan") if degenerate else normalized_hypervolume(front, ideal, nadir)
        squared = _squared_distances(front, reference)
        values[generation] = (hv, np.sqrt(squared.min(axis=1)).mean(),
                              np.sqrt(squared.min(axis=0)).mean())
    return values[:, 0], values[:, 1], values[:, 2]
