"""Pareto-based optimizers: NSGA-II, SPEA2, SMS-EMOA, NSGA-III, R-NSGA-II.

All five maximize the mean-return vector.  Dominance, sorting and crowding
come from :mod:`evopareto.pareto` (maximization sense); SMS-EMOA and the
NSGA-III normalization negate to minimization internally where the standard
formulations require it.  R-NSGA-II is NSGA-II with a preference key: it
subclasses :class:`NSGA2` and overrides only the secondary key.
"""

from __future__ import annotations

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

    def _key(self, i):
        return (self._ranks[i], self._secondaries[i])

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


def _first_least_row(rows: np.ndarray) -> int:
    """Index of the lexicographically least row, the first of fully tied rows."""
    ties = np.arange(rows.shape[0])
    for column in rows.T:
        values = column[ties]
        ties = ties[values == values.min()]
        if ties.size == 1:
            break
    return int(ties[0])


class SPEA2(Optimizer):
    """Strength Pareto EA with a fixed-size archive (archive size = pop_size).

    The reported population is the archive after environmental selection,
    which is the solution set SPEA2 maintains; each generation's offspring
    are evaluated and merged into it.
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
        first member in ``alive`` order wins ties.  The infinite
        self-distance sorts last in every row.

        The candidates' rows are sorted once.  A removal deletes the
        victim's row and, from every other row, one copy of its distance to
        the victim, at the first position holding that value; what remains
        is exactly the sorted row over the members still alive.  The victim
        is found by keeping, column by column, the rows that hold the least
        value, so it is the row a stable lexsort of the rows would put first.
        """
        alive = np.asarray(candidates, dtype=np.int64)
        rows = np.sort(dist[np.ix_(alive, alive)], axis=1)
        while len(alive) > keep:
            victim = _first_least_row(rows)
            m = len(alive)
            gone = dist[alive, alive[victim]]
            kept = np.ones((m, m), dtype=bool)
            kept[np.arange(m), np.argmax(rows >= gone[:, None], axis=1)] = False
            kept[victim] = False
            rows = rows[kept].reshape(m - 1, m - 1)
            alive = np.delete(alive, victim)
        return alive.tolist()

    def _key(self, i):
        return (self._fitness_values[i], i)

    def _absorb(self, evaluated):
        self._select_archive(self.population.join(evaluated))


def smsemoa_removal_index(points: np.ndarray) -> int:
    """Index to drop from a pool (maximization points): worst-rank member
    with the least exclusive hypervolume contribution.

    The reference point is the pool nadir plus a 10% range margin,
    recomputed for this pool; coordinates with zero range get unit margin so
    remaining coordinates still discriminate.
    """
    ranks = pareto.fast_nondominated_sort(points)
    return _removal_index(points, np.flatnonzero(ranks == ranks.max()))


def _removal_index(points: np.ndarray, worst_front: np.ndarray) -> int:
    """:func:`smsemoa_removal_index` of ``points`` whose worst front is the
    rows ``worst_front``, in row order."""
    if worst_front.shape[0] == 1:
        return int(worst_front[0])
    minimized = -points
    nadir = minimized.max(axis=0)
    span = nadir - minimized.min(axis=0)
    ref = nadir + np.where(span > 0.0, 0.1 * span, 1.0)
    contributions = hypervolume_contributions(minimized[worst_front], ref)
    return int(worst_front[int(np.argmin(contributions))])


class SMSEMOA(Optimizer):
    """Steady-state hypervolume-selection EMOA, batched per generation.

    pop_size offspring are created from the generation-start population, the
    first child of each of pop_size random pairs, and inserted one at a time,
    each insertion followed by one hypervolume-based removal, so the
    evaluation budget matches the generational algorithms.  Exact
    hypervolume restricts it to k <= 3.

    One dominance matrix of the joined pool serves every insertion.  Each
    pool row keeps its count of alive dominators: an insertion adds the
    child's row of the matrix and a removal subtracts the victim's.  While
    no alive member is dominated, the worst front is every alive member;
    otherwise peeling the alive rows' sub-matrix ranks them, as a full sort
    of those rows would.
    """

    def _install_initial(self, evaluated):
        if evaluated.returns.shape[1] > 3:
            raise ValueError("SMS-EMOA uses exact hypervolume and supports k <= 3 only")
        self.population = evaluated

    def _parents(self):
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
        dominators = dom[:n].sum(axis=0)
        for child in range(n, len(pool)):
            alive[child] = True
            dominators += dom[child]
            members = np.flatnonzero(alive)
            if dominators[members].any():
                ranks = pareto._peel_ranks(dom[np.ix_(members, members)])
                worst = np.flatnonzero(ranks == ranks.max())
            else:
                worst = np.arange(len(members))
            victim = members[_removal_index(points[members], worst)]
            alive[victim] = False
            dominators -= dom[victim]
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

    Direction ties break randomly (one draw per round from ``rng``); within a
    direction candidates are taken closest-perpendicular first, so when every
    candidate maps to a single direction the selection degenerates to plain
    distance ordering.
    """
    counts = niche_count.copy()
    available = np.ones(counts.shape[0], dtype=bool)
    taken = np.zeros(candidate_assoc.shape[0], dtype=bool)
    picked: list[int] = []
    while len(picked) < need:
        open_dirs = np.flatnonzero(available)
        least = open_dirs[counts[open_dirs] == counts[open_dirs].min()]
        direction = int(least[rng.below(len(least))])
        members = np.flatnonzero((candidate_assoc == direction) & ~taken)
        if members.size == 0:
            available[direction] = False
            continue
        choice = int(members[np.argmin(candidate_dist[members])])
        taken[choice] = True
        picked.append(choice)
        counts[direction] += 1
    return picked


class NSGA3(Optimizer):
    """Reference-direction niching NSGA for the many-front regime."""

    def _install_initial(self, evaluated):
        k = evaluated.returns.shape[1]
        self._directions = generate_reference_directions(k, minimum_partitions(k, self.config.pop_size))
        self.population = evaluated

    def _parents(self):
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

    The clearing reads one boolean ``near`` matrix built before the walk.
    Its row for a member holds the same ``< epsilon`` tests as that
    member's own distance row: a squared coordinate difference does not
    depend on which point is subtracted, and the k squares are added left
    to right either way.
    """
    m = normalized.shape[0]
    distances = euclidean_distances(normalized, reference_points)
    order = np.argsort(distances, axis=0, kind="stable")
    # Sorting a column's order inverts it: each member's position (from 0) in it.
    best_position = np.argsort(order, axis=0).min(axis=1) + 1.0
    near = euclidean_distances(normalized, normalized) < epsilon
    adjusted = best_position.copy()
    processed = np.zeros(m, dtype=bool)
    for idx in np.argsort(best_position, kind="stable"):
        if processed[idx]:
            continue
        processed[idx] = True
        demoted = near[idx] & ~processed
        processed |= demoted
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
