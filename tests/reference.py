"""Reference implementations that the tests check the package against.

Each is the plain form of a stage: per-gene loops for the variation
operators, list loops for dominance and nondominated ranking, a Monte Carlo
hypervolume, and small compositions of the package's public stages (one
policy action, one observation, the bandit's analytic front, the normalized
hypervolume, IGD and SMS-EMOA's removal from a whole pool).  No command of
the package and no benchmark calls any of them.
"""

import numpy as np

from evopareto import indicators, pareto, policy
from evopareto.algorithms.moea import _removal_index
from evopareto.rng import RandomStream


class ScriptedStream:
    """Stands in for RandomStream: uniforms and integers from two scripts.
    ``position`` counts the uniforms consumed, the only draws that
    variation's look-ahead window holds here."""

    def __init__(self, uniforms=(), ints=()):
        self._uniforms = list(uniforms)
        self._ints = list(ints)
        self.position = 0

    def uniform(self, low=0.0, high=1.0):
        self.position += 1
        return low + (high - low) * self._uniforms.pop(0)

    def uniform_vector(self, n, low=0.0, high=1.0):
        return np.array([self.uniform(low, high) for _ in range(n)])

    def peek(self, n):
        # The script may end early: an operator must not read past the draws
        # it consumes.
        return np.array(self._uniforms[:n])

    def advance(self, n):
        assert n <= len(self._uniforms), "consumed more draws than scripted"
        del self._uniforms[:n]
        self.position += n

    def below(self, n):
        return self._ints.pop(0) % n

    def trim(self):
        pass  # nothing is computed ahead of use


# -- variation: one application draw per gene, then a spread draw for an
# applied gene; children are clamped with the bound first, as the package
# clamps them --------------------------------------------------------------------

def clamp(x, lo, hi):
    return np.minimum(hi, np.maximum(lo, x))


def sbx_oracle(parent_a, parent_b, eta_c, rng, bounds):
    child_a = parent_a.copy()
    child_b = parent_b.copy()
    for j in range(parent_a.shape[0]):
        if rng.uniform() >= 0.5:
            continue
        u = rng.uniform()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta_c + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta_c + 1.0))
        x, y = parent_a[j], parent_b[j]
        child_a[j] = 0.5 * ((1.0 + beta) * x + (1.0 - beta) * y)
        child_b[j] = 0.5 * ((1.0 - beta) * x + (1.0 + beta) * y)
    lo, hi = bounds
    return clamp(child_a, lo, hi), clamp(child_b, lo, hi)


def pm_oracle(genome, eta_m, p_m, rng, bounds):
    lo, hi = bounds
    span = hi - lo
    out = genome.copy()
    for j in range(genome.shape[0]):
        if rng.uniform() >= p_m:
            continue
        u = rng.uniform()
        x = out[j]
        if u <= 0.5:
            d = (x - lo) / span
            delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d) ** (eta_m + 1.0)) ** (1.0 / (eta_m + 1.0)) - 1.0
        else:
            d = (hi - x) / span
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d) ** (eta_m + 1.0)) ** (1.0 / (eta_m + 1.0))
        out[j] = x + delta * span
    return clamp(out, lo, hi)


def per_pair_offspring(optimizer):
    """What ask() gives, from the per-gene loops in slot order: each pair
    draws its parents, the crossover draw, SBX when that draw is below
    p_crossover, and a mutation of each child; SMS-EMOA keeps the first child
    of each random pair."""
    cfg, rng = optimizer.config, optimizer.rng

    def children(i, j):
        a, b = optimizer.population.genomes[i], optimizer.population.genomes[j]
        if rng.uniform() < cfg.p_crossover:
            a, b = sbx_oracle(a, b, cfg.eta_c, rng, cfg.bounds)
        else:
            a, b = a.copy(), b.copy()
        return [pm_oracle(c, cfg.eta_m, optimizer.mutation_rate, rng, cfg.bounds) for c in (a, b)]

    if optimizer.name == "SMSEMOA":
        rows = [children(*optimizer._random_pair())[0] for _ in range(cfg.pop_size)]
    else:
        rows = [c for _ in range(cfg.pop_size // 2)
                for c in children(*optimizer._parents(optimizer._keys()))]
    return np.array(rows)


# -- dominance on Python lists, maximization -----------------------------------

def dominates(u, v):
    return all(a >= b for a, b in zip(u, v)) and any(a > b for a, b in zip(u, v))


def nondominated_mask(points):
    return [not any(dominates(q, p) for q in points) for p in points]


def peel_ranks(points):
    ranks = [-1] * len(points)
    remaining = set(range(len(points)))
    rank = 0
    while remaining:
        front = [i for i in remaining
                 if not any(dominates(points[j], points[i]) for j in remaining)]
        for i in front:
            ranks[i] = rank
        remaining -= set(front)
        rank += 1
    return ranks


# -- compositions of the package's stages --------------------------------------

def act(spec, genome, observation):
    """Action in (-1, 1)^action_dim of one policy for one observation."""
    obs = np.asarray(observation, dtype=np.float64)
    if obs.shape != (spec.obs_dim,):
        raise ValueError(f"observation shape {obs.shape} does not match obs_dim {spec.obs_dim}")
    return policy.forward(policy.unflatten(spec, genome), obs)


def observation(env, state):
    """The observation of one episode's state."""
    return env.observe(np.array([state.values], dtype=np.float64))[0]


def analytic_front(resolution):
    """TradeoffBandit's true front sampled on a uniform grid: {(u, 1-u)}."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    u = np.linspace(0.0, 1.0, resolution)
    return np.column_stack([u, 1.0 - u])


def smsemoa_removal_index(points):
    """SMS-EMOA's victim in a pool of maximization points: the first member
    of the worst front with the least exclusive hypervolume contribution."""
    ranks = pareto.fast_nondominated_sort(points)
    return _removal_index(points, np.flatnonzero(ranks == ranks.max()))


def igd(approx, reference):
    """Inverted generational distance: GD with the roles swapped."""
    return indicators.gd(reference, approx)


def normalized_hypervolume(points, ideal, nadir):
    """Hypervolume of maximization points mapped so the ideal sits at 0 and
    the nadir at 1, clipped below at 0, against (1, ..., 1)."""
    clipped = np.maximum(pareto.normalize(points, ideal, nadir), 0.0)
    return indicators.hypervolume_exact(clipped, np.ones(clipped.shape[1]))


def hypervolume_mc(front, ref, samples, seed):
    """Monte Carlo hypervolume of minimization points: the dominated share of
    uniform samples in the box [componentwise min of front, ref], times the
    box volume.  Independent of the exact sweep and slicing code."""
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
    u = RandomStream(seed).uniform_vector(samples * k).reshape(samples, k)
    pts = ideal + u * (ref - ideal)
    dominated = np.zeros(samples, dtype=bool)
    for p in arr:
        dominated |= np.all(pts >= p, axis=1)
    return float(dominated.mean() * box)
