"""Pareto-based optimizers: NSGA-II, SPEA2, SMS-EMOA, NSGA-III, R-NSGA-II.

All five maximize the mean-return vector.  Dominance, sorting and crowding
come from :mod:`evopareto.pareto` (maximization sense); SMS-EMOA and the
NSGA-III normalization negate to minimization internally where the standard
formulations require it.  R-NSGA-II is NSGA-II with a preference key: it
subclasses :class:`NSGA2` and overrides only the secondary key.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .. import pareto
from ..indicators import euclidean_distances, hypervolume_contributions
from .base import Optimizer


def _fill_by_fronts(ranks: np.ndarray, size: int) -> tuple[list[int], np.ndarray | None]:
    """Whole fronts while they fit in ``size``, and the front that overflows
    the remaining slots (None when whole fronts fill them exactly)."""
    selected: list[int] = []
    for front in pareto.fronts(ranks):
        if len(selected) == size:
            break
        if len(selected) + len(front) > size:
            return selected, front
        selected.extend(front.tolist())
    return selected, None


def _truncate_by_fronts(ranks: np.ndarray, size: int, key: np.ndarray) -> list[int]:
    """Whole fronts while they fit in ``size``, then the overflowing front in
    ascending ``key`` order; stable, so input order breaks ties."""
    survivors, split = _fill_by_fronts(ranks, size)
    if split is not None:
        order = np.argsort(key[split], kind="stable")
        survivors.extend(split[order[: size - len(survivors)]].tolist())
    return survivors


def _crowding(points: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of every point within its own front."""
    crowding = np.empty(points.shape[0], dtype=np.float64)
    for front in pareto.fronts(ranks):
        crowding[front] = pareto.crowding_distance(points[front])
    return crowding


class NSGA2(Optimizer):
    """Elitist nondominated sorting GA: tournaments compare (rank, secondary
    key) and survival orders the overflowing front by the secondary key."""

    def _secondary(self, points: np.ndarray, ranks: np.ndarray,
                   inherited: np.ndarray | None = None) -> np.ndarray:
        """Secondary key (lower wins) of ``points``, whose fronts are ``ranks``:
        negated crowding.  Survivors keep ``inherited``, their pool crowding."""
        return -_crowding(points, ranks) if inherited is None else inherited

    def _install_initial(self, evaluated):
        self.population = evaluated
        self._ranks = pareto.fast_nondominated_sort(evaluated.returns)
        self._secondaries = self._secondary(evaluated.returns, self._ranks)

    def _keys(self):
        return list(zip(self._ranks.tolist(), self._secondaries.tolist()))

    def _absorb(self, evaluated):
        pool = self.population.join(evaluated)
        ranks = pareto.fast_nondominated_sort(pool.returns)
        secondaries = self._secondary(pool.returns, ranks)
        survivors = _truncate_by_fronts(ranks, self.config.pop_size, secondaries)
        # Survivors are whole fronts plus part of the next: pool ranks hold.
        self.population = pool.take(survivors)
        self._ranks = ranks[survivors]
        self._secondaries = self._secondary(self.population.returns, self._ranks,
                                            secondaries[survivors])


class SPEA2(Optimizer):
    """Strength Pareto EA with a fixed-size archive (archive size = pop_size).

    The reported population is the archive after environmental selection,
    which is the solution set SPEA2 maintains; each generation's offspring
    are evaluated and merged into it.  A surplus of nondominated members is
    truncated one at a time, dropping the member whose sorted distances to
    the others are lexicographically least (:meth:`_truncate`).
    """

    def _install_initial(self, evaluated):
        self._select_archive(evaluated)

    def _select_archive(self, union) -> None:
        points = union.returns
        dist = self._distances(points)
        fitness = self._fitness(points, dist)
        keep = self.config.pop_size
        nondominated = np.flatnonzero(fitness < 1.0)
        if len(nondominated) > keep:
            chosen = self._truncate(dist, nondominated, keep)
        else:
            # The best dominated members fill the archive; index order on ties.
            dominated = np.flatnonzero(fitness >= 1.0)
            dominated = dominated[np.argsort(fitness[dominated], kind="stable")]
            chosen = np.concatenate([nondominated, dominated[: keep - len(nondominated)]])
        self.population = union.take(chosen)
        self._fitness_values = fitness[chosen]

    @staticmethod
    def _distances(points: np.ndarray) -> np.ndarray:
        """Pairwise Euclidean distances with an infinite self-distance."""
        dist = euclidean_distances(points, points)
        np.fill_diagonal(dist, np.inf)
        return dist

    def _fitness(self, points: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Raw strength fitness plus k-th nearest neighbour density;
        ``dist`` is :meth:`_distances` of ``points``."""
        dom = pareto._dominance_matrix(points)
        strength = dom.sum(axis=1).astype(np.float64)
        raw = strength @ dom
        kappa = int(math.isqrt(2 * self.config.pop_size))
        idx = min(kappa - 1, points.shape[0] - 2)
        sigma = np.sort(dist, axis=1)[:, max(idx, 0)]
        density = 1.0 / (sigma + 2.0)
        return raw + density

    @staticmethod
    def _truncate(dist: np.ndarray, candidates, keep: int) -> list[int]:
        """Iteratively drop the member with lexicographically closest neighbours.

        ``dist`` is :meth:`_distances` of all points.  Each member's row of
        sorted distances to the other alive members is its key, and the
        first member in candidate order wins ties.  The infinite
        self-distance sorts last in every row.

        The candidates' block of ``dist`` is copied once; a removal sets the
        victim's column to +inf.  A member's sorted row is then its sorted
        key padded with one +inf per removed member, the same padding in
        every row, so the rows order as the keys do.  The victim's key is
        least, so its first entry, its nearest distance, is the least of
        every alive member's; each removal recomputes the nearest distance
        only of the members whose nearest was the victim.  A sole member
        at the least nearest distance is the victim.  Tied members' rows are
        sorted, and the least is found by one ``argmin`` over the rows'
        bytes: a distance is never negative, never -0.0 and never NaN, and
        such doubles order as their big-endian bytes do, so the rows' bytes
        order as the rows do lexicographically.  ``argmin`` returns the
        first of fully tied rows, the row a stable lexsort would put first.
        """
        members = np.asarray(candidates, dtype=np.int64)
        block = dist[np.ix_(members, members)]
        # A removed member's nearest distance is NaN, which no comparison picks.
        nearest = block.min(axis=1)
        for _ in range(len(members) - keep):
            tied = np.flatnonzero(nearest == np.fmin.reduce(nearest))
            victim = tied[0]
            if len(tied) > 1:
                rows = np.sort(block[tied], axis=1)
                victim = tied[np.argmin(rows.astype(">f8").view(f"S{8 * len(members)}").ravel())]
            nearest[victim] = np.nan
            stale = np.flatnonzero(block[:, victim] == nearest)
            block[:, victim] = np.inf
            nearest[stale] = block[stale].min(axis=1)
        return members[~np.isnan(nearest)].tolist()

    def _keys(self):
        return list(zip(self._fitness_values.tolist(), range(len(self._fitness_values))))

    def _absorb(self, evaluated):
        self._select_archive(self.population.join(evaluated))


def _removal_index(points: np.ndarray, worst_front: np.ndarray) -> int:
    """Index to drop from a pool (maximization ``points``) whose worst front
    is the rows ``worst_front``, in row order: the first member with the
    least exclusive hypervolume contribution.

    The reference point is the pool nadir plus a 10% range margin,
    recomputed for this pool; coordinates with zero range get unit margin so
    remaining coordinates still discriminate.
    """
    if worst_front.shape[0] == 1:
        return int(worst_front[0])
    minimized = -points
    nadir = minimized.max(axis=0)
    span = nadir - minimized.min(axis=0)
    ref = nadir + np.where(span > 0.0, 0.1 * span, 1.0)
    front = minimized.take(worst_front, axis=0)
    least = _screened_least(front, ref) if front.shape[1] == 2 else None
    if least is None:
        least = int(np.argmin(hypervolume_contributions(*_unit_box(front, ref))))
    return int(worst_front[least])


def _unit_box(front: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``front`` and ``ref`` with each objective scaled by the power of two
    that brings its side of the box into [0.5, 1).

    Every term of the exact sweep is a product of one difference per
    objective, so the scaling multiplies every contribution by one power of
    two: exactly, short of underflow, which keeps their order and ties.
    Unscaled, a side or an area of two sides can overflow to inf, giving
    NaN contributions, or their products underflow to zero.
    """
    exponents = [-math.frexp(side)[1] for side in (ref - front.min(axis=0)).tolist()]
    return np.ldexp(front, exponents), np.ldexp(ref, exponents)


# The box sizes the 2-D screen decides on: no product or sum that its bound
# covers can overflow, and underflow's absolute errors (2**-1075 per
# product) stay far below its slack.
_SCREEN_BOX = (2.0**-900, 2.0**1000)


def _screened_least(front: np.ndarray, ref: np.ndarray) -> int | None:
    """Row of the 2-D minimization ``front`` with the least exclusive area,
    when the closed form decides it; otherwise None.

    Sorted by x, with ``ref`` at both ends, member i of m exclusively
    covers (x[i+1] - x[i]) * (y[i-1] - y[i]).  Computed so, it lies within
    (2m + 9) u hv of :func:`hypervolume_contributions` (u = 2**-53, hv the
    front's hypervolume, at most the box (ref[0] - min x) (ref[1] - min y)),
    and slack = 4 (m + 8) u box is at least twice that.  So a member whose
    area is less than every other's by more than 2 slack is the contributions'
    unique argmin.  Anything else is left to the exact sweep: duplicates and
    ties, two members on one x or one y, a member not strictly inside ``ref``,
    or a box outside ``_SCREEN_BOX``.
    """
    order = front[:, 0].argsort()
    x, y = front.take(order, axis=0).T
    ref_x, ref_y = ref.tolist()
    # In Python floats, so an overflow gives inf without a warning.
    box = (ref_x - float(x[0])) * (ref_y - float(y[-1]))
    if not (_SCREEN_BOX[0] <= box <= _SCREEN_BOX[1] and x[-1] < ref_x and y[0] < ref_y):
        return None
    width = x[1:] - x[:-1]
    height = y[:-1] - y[1:]
    # x must strictly rise and y strictly fall.
    if width.min() <= 0.0 or height.min() <= 0.0:
        return None
    areas = np.empty(len(x))
    areas[0] = width[0] * (ref_y - y[0])
    np.multiply(width[1:], height[:-1], out=areas[1:-1])
    areas[-1] = (ref_x - x[-1]) * height[-1]
    least, runner = areas.argpartition(1)[:2]
    slack = 4 * (len(x) + 8) * 2.0**-53 * box
    if areas[runner] - areas[least] > 2 * slack:
        return int(order[least])
    return None


def _raise_ranks(dom: np.ndarray, alive: np.ndarray, ranks: np.ndarray, child: int) -> None:
    """Bring ``ranks`` of the ``alive`` rows up to date, in place, after
    row ``child`` has joined them.

    A rank is the length of the longest chain of alive dominators above a
    row, which is the rank peeling gives.  The child's is one past its
    highest dominator's.  A row it dominates may now sit one past the
    child; each row that grows can raise the rows below it in turn, until
    no rank grows.  Rows the child does not dominate gain no chain.
    """
    above = dom[:, child] & alive
    rank = ranks[child] = ranks[above].max() + 1 if above.any() else 0
    grown = np.flatnonzero(dom[child] & alive & (ranks <= rank))
    ranks[grown] = rank + 1
    while grown.size:
        need = np.where(dom[grown] & alive, ranks[grown, None] + 1, 0).max(axis=0)
        grown = np.flatnonzero(need > ranks)
        ranks[grown] = need[grown]


class SMSEMOA(Optimizer):
    """Steady-state hypervolume-selection EMOA, batched per generation.

    pop_size offspring are created from the generation-start population, the
    first child of each of pop_size random pairs, and inserted one at a time,
    each insertion followed by one hypervolume-based removal, so the
    evaluation budget matches the generational algorithms.  Exact
    hypervolume restricts it to k <= 3.

    One dominance matrix of the joined pool serves the whole generation.
    Peeling its population rows ranks them once; each insertion then ranks
    the child and raises the ranks below it (:func:`_raise_ranks`), the
    steady-state update of Li, Deb, Zhang & Kwong (IEEE TCYB 2017).  A
    removal changes no rank: the victim is in the worst front, so it
    dominates no alive row.  The worst front is the alive rows of the top
    rank, in pool order, as a full sort of the alive rows would find it.
    In 2-D the removal takes the least closed-form exclusive area when that
    decides it beyond rounding (:func:`_screened_least`), else the exact
    contributions' argmin, the same member either way.
    """

    def _install_initial(self, evaluated):
        if evaluated.returns.shape[1] > 3:
            raise ValueError("SMS-EMOA uses exact hypervolume and supports k <= 3 only")
        self.population = evaluated

    def _parents(self, keys):
        return self._random_pair()

    def _propose(self):
        return self._vary(self.config.pop_size, 1)

    def _absorb(self, evaluated):
        # Alive rows of the joined pool, in pool order: the population's
        # order, each child after them.
        n = len(self.population)
        pool = self.population.join(evaluated)
        points = pareto.as_points(pool.returns)
        dom = pareto._dominance_matrix(points)
        alive = np.zeros(len(pool), dtype=bool)
        alive[:n] = True
        ranks = np.zeros(len(pool), dtype=np.int64)
        ranks[:n] = pareto._peel_ranks(dom[:n, :n])
        for child in range(n, len(pool)):
            alive[child] = True
            _raise_ranks(dom, alive, ranks, child)
            members = np.flatnonzero(alive)
            top = ranks[members]
            worst = np.flatnonzero(top == top.max())
            victim = members[_removal_index(points.take(members, axis=0), worst)]
            alive[victim] = False
        self.population = pool.take(np.flatnonzero(alive))


def generate_reference_directions(k: int, partitions: int) -> np.ndarray:
    """Das-Dennis simplex lattice: nonnegative k-vectors, coordinates
    multiples of 1/partitions, summing to one.  C(k+p-1, p) directions."""
    if k < 2 or partitions < 1:
        raise ValueError("need k >= 2 and partitions >= 1")
    rows: list[list[int]] = []

    def compose(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for used in range(remaining + 1):
            compose(prefix + [used], remaining - used, slots - 1)

    compose([], partitions, k)
    return np.array(rows, dtype=np.float64) / partitions


def minimum_partitions(k: int, pop_size: int) -> int:
    """Smallest p whose Das-Dennis lattice has at least pop_size directions."""
    p = 1
    while math.comb(k + p - 1, p) < pop_size:
        p += 1
    return p


def perpendicular_distances(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(n, d) matrix of distances from each point to each direction ray."""
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    proj = points @ unit.T
    sq = np.sum(points * points, axis=1, keepdims=True) - proj * proj
    return np.sqrt(np.maximum(sq, 0.0))


def niche_fill(niche_count: np.ndarray, candidate_assoc: np.ndarray,
               candidate_dist: np.ndarray, need: int, rng) -> list[int]:
    """Pick ``need`` candidates, always serving the least-crowded direction.

    Direction ties break randomly (one draw per round from ``rng`` over the
    least-filled open directions in ascending order); within a direction
    candidates are taken closest-perpendicular first, the lower index on
    ties, so when every candidate maps to a single direction the selection
    degenerates to plain distance ordering.  A direction drawn with no
    candidate left is closed.  Each direction keeps its candidates as a
    queue, best last, and the open directions are kept grouped by count, so
    a round makes no array call.
    """
    counts = niche_count.tolist()
    assoc = candidate_assoc.tolist()
    queues: list[list[int]] = [[] for _ in counts]
    for c in np.argsort(candidate_dist, kind="stable")[::-1].tolist():
        queues[assoc[c]].append(c)
    # Open directions by count, each group in ascending order.
    groups: dict[int, list[int]] = {}
    for direction, count in enumerate(counts):
        groups.setdefault(count, []).append(direction)
    picked: list[int] = []
    while len(picked) < need:
        low = min(groups)
        least = groups[low]
        direction = least.pop(rng.below(len(least)))
        if not least:
            del groups[low]
        queue = queues[direction]
        if queue:
            picked.append(queue.pop())
            bisect.insort(groups.setdefault(low + 1, []), direction)
    return picked


class NSGA3(Optimizer):
    """Reference-direction niching NSGA for the many-front regime."""

    def _install_initial(self, evaluated):
        k = evaluated.returns.shape[1]
        self._directions = generate_reference_directions(k, minimum_partitions(k, self.config.pop_size))
        self.population = evaluated

    def _parents(self, keys):
        return self._random_pair()

    def _normalize(self, maximized: np.ndarray) -> np.ndarray:
        """Translate by the pool ideal and scale by achievement-scalarizing
        extreme-point intercepts (minimization space)."""
        t = -maximized
        t = t - t.min(axis=0)
        k = t.shape[1]
        extremes = np.empty(k, dtype=np.int64)
        for j in range(k):
            weights = np.full(k, 1e-6)
            weights[j] = 1.0
            extremes[j] = int(np.argmin(np.max(t / weights, axis=1)))
        intercepts = None
        try:
            plane = np.linalg.solve(t[extremes], np.ones(k))
            if np.all(plane > 1e-12) and np.all(np.isfinite(plane)):
                intercepts = 1.0 / plane
        except np.linalg.LinAlgError:
            intercepts = None
        if intercepts is None or np.any(intercepts <= 1e-12):
            intercepts = t.max(axis=0)
        intercepts = np.where(intercepts > 1e-12, intercepts, 1.0)
        return t / intercepts

    def _absorb(self, evaluated):
        pool = self.population.join(evaluated)
        points = pool.returns
        ranks = pareto.fast_nondominated_sort(points)
        selected, last_front = _fill_by_fronts(ranks, self.config.pop_size)
        if last_front is None:
            self.population = pool.take(selected)
            return
        need = self.config.pop_size - len(selected)
        consider = selected + last_front.tolist()
        normalized = self._normalize(points[consider])
        dists = perpendicular_distances(normalized, self._directions)
        assoc = np.argmin(dists, axis=1)
        assoc_dist = dists[np.arange(len(consider)), assoc]
        n_selected = len(selected)
        niche_count = np.bincount(assoc[:n_selected], minlength=self._directions.shape[0])
        chosen = niche_fill(niche_count, assoc[n_selected:], assoc_dist[n_selected:],
                            need, self.rng)
        self.population = pool.take(selected + last_front[chosen].tolist())


def reference_point_ranks(normalized: np.ndarray, reference_points: np.ndarray,
                          epsilon: float) -> np.ndarray:
    """R-NSGA-II preference ranks for one front of normalized points (lower is better).

    Each member's rank is its best position in any per-reference-point
    ordering by Euclidean distance; epsilon-clearing then walks members
    best-first (index order on ties) and demotes any unprocessed member
    closer than epsilon to a kept one.

    The clearing reads one boolean ``near`` matrix built before the walk,
    as one neighbour list per member (the rows of one ``np.nonzero``).  Its
    row for a member holds the same ``< epsilon`` tests as that member's own
    distance row: a squared coordinate difference does not depend on which
    point is subtracted, and the k squares are added left to right either
    way.  Each demoted member is marked once, and all of them are moved
    behind the kept ones by one array add at the end.
    """
    m = normalized.shape[0]
    distances = euclidean_distances(normalized, reference_points)
    order = np.argsort(distances, axis=0, kind="stable")
    # Sorting a column's order inverts it: each member's position (from 0) in it.
    best_position = np.argsort(order, axis=0).min(axis=1) + 1.0
    rows, cols = np.nonzero(euclidean_distances(normalized, normalized) < epsilon)
    starts = np.searchsorted(rows, np.arange(m + 1)).tolist()
    cols = cols.tolist()
    processed = [False] * m
    demoted: list[int] = []
    for idx in np.argsort(best_position, kind="stable").tolist():
        if processed[idx]:
            continue
        processed[idx] = True
        for other in cols[starts[idx]:starts[idx + 1]]:
            if not processed[other]:
                processed[other] = True
                demoted.append(other)
    adjusted = best_position.copy()
    adjusted[demoted] += m
    return adjusted


class RNSGA2(NSGA2):
    """NSGA-II with crowding replaced by the reference-point rank (plus
    epsilon-clearing) within each front (Deb & Sundar, GECCO 2006).

    Default reference points are the unit-objective ideal corners of the
    normalized space; user-supplied points are given in raw objective space.
    The points ranked and user-supplied reference points are normalized once,
    by the range of the points ranked, so survivors are ranked again among
    themselves rather than inheriting pool preferences.
    """

    def _secondary(self, points, ranks, inherited=None):
        low = points.min(axis=0)
        span = points.max(axis=0) - low
        safe = np.where(span > 0.0, span, 1.0)

        def normalize(x):
            return np.where(span > 0.0, (x - low) / safe, 0.0)

        refs = self.config.rnsga2_reference_points
        refs = np.eye(points.shape[1]) if refs is None else normalize(np.array(refs))
        normalized = normalize(points)
        epsilon = self.config.rnsga2_epsilon
        pref = np.empty(points.shape[0])
        for front in pareto.fronts(ranks):
            pref[front] = reference_point_ranks(normalized[front], refs, epsilon)
        return pref
