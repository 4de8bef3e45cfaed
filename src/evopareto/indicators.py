"""Front quality indicators: hypervolume, GD, IGD, reference fronts.

Hypervolume is computed on minimization points against a reference point
(2-D sweep, 3-D slicing), with an independent Monte Carlo estimator kept as
a cross-check oracle.  Per the reporting convention, hypervolume is measured
in normalized space (reference-front ideal -> 0, nadir -> 1, reference point
(1, ..., 1)) so it lands in [0, 1], while GD and IGD stay on the raw
objective scale.

Exclusive contributions (SMS-EMOA's selection) are one batched leave-one-out
pass that gives, bit for bit, ``hv(front) - hv(front without i)`` as a loop
of :func:`hypervolume_exact` calls would.  Four rules keep the bytes:

* sort once: the points inside ``ref`` are sorted by the same stable
  ``lexsort`` as the sweep, and dropping one keeps the others' order;
* mask, don't delete: the removed point, and in 3-D every point above the
  slab, gets y = +inf, so it never lowers the sweep's running minimum and
  its term is exactly 0.0;
* ordered sums: sweep terms and 3-D slab volumes are added left to right
  (``cumsum``, never the pairwise ``np.sum``), and adding 0.0 is exact; a
  point alone at its height takes its slab, and the slab below then spans
  up to the next bound as one subtraction;
* the total still comes from :func:`hypervolume_exact`.

SMS-EMOA drops the first minimal contribution in worst-front order
(``np.argmin``), so exact ties go to the earlier member.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pareto
from .rng import RandomStream


def hypervolume_exact(front, ref) -> float:
    """Lebesgue measure of the union of boxes [point, ref] (minimization).

    Points that do not strictly better the reference point in every
    coordinate enclose no volume and are dropped.  Exact algorithms are
    provided for k in {2, 3} only.
    """
    arr = np.asarray(front, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    ref = np.asarray(ref, dtype=np.float64)
    k = ref.shape[0]
    if arr.shape[1] != k:
        raise ValueError("front and reference point dimensions differ")
    if k not in (2, 3):
        raise ValueError("exact hypervolume supports k in {2, 3}; use hypervolume_mc")
    arr = arr[np.all(arr < ref, axis=1)]
    if arr.shape[0] == 0:
        return 0.0
    return float(_hv2d(arr, ref) if k == 2 else _hv3d(arr, ref))


def _hv2d(points: np.ndarray, ref: np.ndarray) -> float:
    order = np.lexsort((points[:, 1], points[:, 0]))
    area = 0.0
    min_y = ref[1]
    for x, y in points[order]:
        if y < min_y:
            area += (ref[0] - x) * (min_y - y)
            min_y = y
    return area


def _hv3d(points: np.ndarray, ref: np.ndarray) -> float:
    zs = np.unique(points[:, 2])
    bounds = np.append(zs, ref[2])
    volume = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        active = points[points[:, 2] <= lo]
        volume += _hv2d(active[:, :2], ref[:2]) * (hi - lo)
    return volume


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

    One batched leave-one-out pass, bit-identical to calling
    :func:`hypervolume_exact` once per removed point (see the module notes).
    """
    arr = np.asarray(front, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    ref = np.asarray(ref, dtype=np.float64)
    total = hypervolume_exact(arr, ref)
    # Removing a point outside ref leaves the hypervolume unchanged.
    rest = np.full(arr.shape[0], total)
    inside = np.all(arr < ref, axis=1)
    if inside.any():
        points = arr[inside]
        order = np.lexsort((points[:, 1], points[:, 0]))
        points = points[order]
        # without[i, j]: point j is still there once point i is removed.
        without = ~np.eye(points.shape[0], dtype=bool)
        if ref.shape[0] == 2:
            rest_hv = _masked_hv2d(points, without, ref)
        else:
            rest_hv = _hv3d_without_each(points, without, ref)
        rest[np.flatnonzero(inside)[order]] = rest_hv
    return total - rest


def _masked_hv2d(points: np.ndarray, active: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """:func:`_hv2d` of each subset ``active[..., :]`` of the sorted points:
    inactive points get y = +inf and add exactly 0.0, and the terms are
    summed left to right, as the sweep adds them."""
    ys = np.where(active, points[:, 1], np.inf)
    start = np.full(ys.shape[:-1] + (1,), ref[1])
    prev_min = np.minimum.accumulate(np.concatenate([start, ys[..., :-1]], axis=-1), axis=-1)
    gain = ys < prev_min
    xs = np.broadcast_to(points[:, 0], ys.shape)
    terms = np.zeros(ys.shape)
    terms[gain] = (ref[0] - xs[gain]) * (prev_min[gain] - ys[gain])
    return np.cumsum(terms, axis=-1)[..., -1]


def _hv3d_without_each(points: np.ndarray, without: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Row i: :func:`_hv3d` of the sorted points without point i."""
    z = points[:, 2]
    zs = np.unique(z)
    bounds = np.append(zs, ref[2])
    # Slab t of the front without point i holds the points j with z_j <= zs[t].
    area = _masked_hv2d(points, (z <= zs[:, None]) & without[:, None, :], ref)
    width = np.tile(bounds[1:] - bounds[:-1], (points.shape[0], 1))
    # A point alone at its height takes its slab with it; the slab below
    # then reaches up to the next remaining bound.
    slab = np.searchsorted(zs, z)
    alone = np.flatnonzero(np.bincount(slab)[slab] == 1)
    width[alone, slab[alone]] = 0.0
    above = alone[slab[alone] > 0]
    width[above, slab[above] - 1] = bounds[slab[above] + 1] - bounds[slab[above] - 1]
    terms = np.where(width > 0.0, area * width, 0.0)
    return np.cumsum(terms, axis=-1)[..., -1]


def _pairwise_min_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2)).min(axis=1)


def gd(approx, reference) -> float:
    """Generational distance: mean distance from approx points to the reference."""
    a = pareto.as_points(approx)
    r = pareto.as_points(reference)
    if a.shape[1] != r.shape[1]:
        raise ValueError("approximation and reference dimensions differ")
    return float(_pairwise_min_distances(a, r).mean())


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


@dataclass(frozen=True)
class IndicatorReport:
    algorithm: str
    generation: int
    hv: float
    gd: float
    igd: float


def normalized_hypervolume(points, ideal, nadir) -> float:
    """Hypervolume of maximization points in normalized space vs (1, ..., 1).

    Points are mapped so the reference-front ideal sits at 0 and the nadir at
    1, clipped below at 0 so the reported value cannot exceed 1; points at or
    beyond the reference point contribute nothing.
    """
    normalized = pareto.normalize(points, ideal, nadir)
    clipped = np.maximum(normalized, 0.0)
    return hypervolume_exact(clipped, np.ones(clipped.shape[1]))


def indicator_series(populations: Sequence, reference_front, algorithm: str) -> list[IndicatorReport]:
    """Per-generation indicators of a run against a fixed reference front.

    ``populations`` holds one (n, k) array of mean returns per generation.
    HV uses the reference front's ideal/nadir normalization; a reference
    front degenerate in some objective cannot be normalized, so HV is
    reported as NaN with a diagnostic while GD/IGD (raw scale) proceed.
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
    reports = []
    for generation, population in enumerate(populations):
        front = pareto.nondominated_filter(population)
        hv = float("nan") if degenerate else normalized_hypervolume(front, ideal, nadir)
        reports.append(IndicatorReport(
            algorithm=algorithm,
            generation=generation,
            hv=hv,
            gd=gd(front, reference),
            igd=igd(front, reference),
        ))
    return reports
