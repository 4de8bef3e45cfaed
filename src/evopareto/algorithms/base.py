"""Shared optimizer machinery: configuration, variation operators, ask/tell.

Every algorithm runs through the same generation loop: ``ask()`` yields a
``(pop_size, n_genes)`` array of genomes to evaluate (the initial population
on the first call), ``tell()`` receives their evaluations as one
:class:`~evopareto.evaluation.Population` and updates internal state.  One
ask/tell cycle therefore costs exactly ``pop_size`` evaluations for every
algorithm, which is what makes cross-algorithm budgets comparable.
Survivors between generations keep their stored evaluations; nothing is
silently re-evaluated or cached across generations.

``population`` holds the current slots as one ``Population``, row i being
slot i.  ``_tournament(keys)`` and ``_random_pair()`` return slot indices,
and ``_vary(n_pairs, kept)`` makes SBX + polynomial-mutation children of
``n_pairs`` parent pairs from ``_parents(keys)``.  A concrete algorithm fills
in ``_keys()``, every slot's binary-tournament key (lower wins) as Python
values, read once per generation, or overrides ``_parents(keys)``;
``_install_initial(evaluated)`` only when the first
population needs more than storing; ``_absorb(evaluated)`` for survival
selection, which picks rows of ``population.join(evaluated)`` with
``take``; and ``_propose`` only when offspring are not both children of
each pair.

All randomness is drawn sequentially from the optimizer's own stream, so a
fixed seed reproduces populations generation by generation.

SBX and polynomial mutation consume one application draw per gene and one
spread draw per applied gene, so where a gene's draws lie depends on the
draws before it.  ``_vary`` therefore runs in two passes.  The draw pass goes
pair by pair in stream order: parents, the crossover draw, the walks of SBX
and of both mutations, and one advance by exactly the draws they consumed.
The walks read one look-ahead window of uniforms per generation, which
:meth:`~evopareto.rng.RandomStream.peek` returns from the stream's
``position``, sized for the draws the pairs are expected to use; a new
window is read from a pair on only when its worst case could run past the
current one.  Each walk finds its applied genes and its end by jumping
between the window's applied draws (:func:`_walk_hits`): its ``< 0.5``
bytes for SBX, its ``< p_m`` bytes for a mutation.  Spread draws are
recorded as window positions and gathered with one index per window.  The
array pass then varies every pair of the generation at once, at the
recorded coordinates: SBX (:func:`_sbx`), mutation (:func:`_mutated`) and
one clamp.  :func:`sbx_crossover` and :func:`polynomial_mutation` walk one
``peek(2g)`` window of one pair the same way and apply the same two
functions.  Each element goes through the same IEEE operations, in the same
order, as the per-gene loop in the operators' docstrings, so the bytes do
not depend on the batching.  (Only a NaN's sign can differ from that loop,
where two NaNs meet: numpy's scalar and array arithmetic keep different
ones.  That needs a NaN parent, and no run varies one, since a NaN gene
makes its evaluation non-finite and aborts the run.)  The pow rule: every
power is the C library's ``pow`` per element (scalar ``**`` or
``math.pow``), never array ``np.power``, which differs from it in the last
bit for some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from ..evaluation import Population
from ..rng import RandomStream

ALGORITHM_NAMES = ("GA", "DE", "PSO", "NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2")

# Initial genes follow the policy-genome convention: U(-1, 1), well inside
# the search bounds where tanh layers are responsive.
INITIAL_RANGE = (-1.0, 1.0)

# The empty window before a generation's first pair reads its own.
_NO_DRAWS = np.empty(0)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Operator settings shared by the whole roster; canonical defaults.
    Every operator rule is checked here, when a config is built."""

    name: str
    pop_size: int = 50
    bounds: tuple[float, float] = (-5.0, 5.0)
    eta_c: float = 15.0
    p_crossover: float = 0.9
    eta_m: float = 20.0
    p_m: float | None = None  # None -> 1 / genome_length
    de_f: float = 0.5
    de_cr: float = 0.9
    pso_w: float = 0.7298
    pso_c1: float = 1.49618
    pso_c2: float = 1.49618
    rnsga2_epsilon: float = 0.01
    rnsga2_reference_points: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {self.name!r}; choose from {list(ALGORITHM_NAMES)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "name" and value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.pop_size < 2 or self.pop_size % 2 != 0:
            raise ValueError("pop_size must be a positive even number (pairwise crossover)")
        if self.name == "DE" and self.pop_size < 4:
            raise ValueError("DE rand/1 needs pop_size >= 4 for distinct donors")
        if len(self.bounds) != 2 or self.bounds[0] >= self.bounds[1]:
            raise ValueError("bounds must be two values, low < high")
        if self.eta_c <= 0.0:
            raise ValueError("eta_c must be positive")
        if self.eta_m < 0.0:
            raise ValueError("eta_m must be nonnegative")
        for name in ("p_crossover", "p_m", "de_cr"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.de_f < 0.0:
            raise ValueError("de_f must be nonnegative")
        if self.rnsga2_epsilon <= 0.0:
            raise ValueError("rnsga2_epsilon must be positive")


def _walk_hits(applied: bytes, n: int, k: int, genes: list[int], at: list[int]) -> int:
    """Replay the per-gene draw order of ``n`` genes over a window of draws
    from position ``k``: one application draw per gene, then a spread draw
    if it is below ``p``.  ``applied[i]`` is 1 when ``draws[i] < p``, else 0.
    Appends the applied genes to ``genes`` and their spread draws' positions
    to ``at``; returns the position after the last draw the genes consumed.
    It jumps from one applied draw to the next with ``bytes.find``: every
    draw it skips is one gene that missed, so with ``k`` moved on by one per
    hit so far, gene j's draw is at k + j."""
    find = applied.find
    h = find(1, k, k + n)
    while h >= 0:
        genes.append(h - k)
        at.append(h + 1)
        k += 1
        h = find(1, h + 2, k + n)
    return k + n


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # np.clip's bits at half its cost on one genome.  The bound goes first: on
    # a tie (a zero bound against the other signed zero) np.maximum and
    # np.minimum return their second operand, and np.clip keeps x.
    return np.minimum(hi, np.maximum(lo, x))


def _pow(bases: np.ndarray, exponent: float) -> np.ndarray:
    """C ``pow(b, exponent)`` of each base, as the numpy float64 scalar
    power computes it (and scalar ``**`` on nonnegative bases)."""
    values = bases.tolist()
    if (bases >= 0.0).all():
        try:
            return np.fromiter(map(math.pow, values, repeat(exponent)), np.float64, len(values))
        except OverflowError:
            pass
    # Only genes outside the bounds get here.  On a NaN, negative or
    # overflowing power, math.pow keeps the NaN's sign or raises, while the
    # numpy scalar power returns C pow's NaN or inf, with a warning.
    return np.array([np.float64(b) ** exponent for b in values])


def _sbx(x: np.ndarray, y: np.ndarray, u: np.ndarray, eta_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Both :func:`sbx_crossover` children of genes ``x`` and ``y`` by their
    spread draws ``u``."""
    beta = _pow(np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))), 1.0 / (eta_c + 1.0))
    return 0.5 * ((1.0 + beta) * x + (1.0 - beta) * y), 0.5 * ((1.0 - beta) * x + (1.0 + beta) * y)


def _mutated(x: np.ndarray, spreads: np.ndarray, eta_m: float, lo: float, hi: float) -> np.ndarray:
    """:func:`polynomial_mutation` of each gene ``x`` by its spread draw."""
    span = hi - lo
    low = spreads <= 0.5
    d = np.where(low, x - lo, hi - x) / span
    shrink = _pow(1.0 - d, eta_m + 1.0)
    base = (np.where(low, 2.0 * spreads, 2.0 * (1.0 - spreads))
            + np.where(low, 1.0 - 2.0 * spreads, 2.0 * (spreads - 0.5)) * shrink)
    root = _pow(base, 1.0 / (eta_m + 1.0))
    return x + np.where(low, root - 1.0, 1.0 - root) * span


def sbx_crossover(parent_a: np.ndarray, parent_b: np.ndarray, eta_c: float,
                  rng: RandomStream, bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover, applied per gene with probability 0.5.

    Draw order per gene: one application draw, then (if applied) one spread
    draw u with beta = (2u)^(1/(eta+1)) for u <= 0.5 and
    (1/(2(1-u)))^(1/(eta+1)) otherwise.  Children are clamped to bounds.
    """
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have equal genome lengths")
    if eta_c <= 0:
        raise ValueError("eta_c must be positive")
    draws = rng.peek(2 * parent_a.shape[0])
    genes, at = [], []
    rng.advance(_walk_hits((draws < 0.5).tobytes(), parent_a.shape[0], 0, genes, at))
    child_a = parent_a.copy()
    child_b = parent_b.copy()
    child_a[genes], child_b[genes] = _sbx(parent_a[genes], parent_b[genes], draws[at], eta_c)
    lo, hi = bounds
    return _clamp(child_a, lo, hi), _clamp(child_b, lo, hi)


def polynomial_mutation(genome: np.ndarray, eta_m: float, p_m: float,
                        rng: RandomStream, bounds: tuple[float, float]) -> np.ndarray:
    """Polynomial mutation with distribution index eta_m.

    Each gene mutates with probability p_m; the perturbation is zero at
    u = 0.5 and respects the gene's distance to each bound.  Draw order per
    gene as in :func:`sbx_crossover`.
    """
    if eta_m < 0:
        raise ValueError("eta_m must be nonnegative")
    if not 0.0 <= p_m <= 1.0:
        raise ValueError("p_m must lie in [0, 1]")
    lo, hi = bounds
    draws = rng.peek(2 * genome.shape[0])
    genes, at = [], []
    rng.advance(_walk_hits((draws < p_m).tobytes(), genome.shape[0], 0, genes, at))
    out = genome.copy()
    out[genes] = _mutated(genome[genes], draws[at], eta_m, lo, hi)
    return _clamp(out, lo, hi)


class Optimizer:
    """Base ask/tell optimizer over flat real genomes."""

    def __init__(self, config: AlgorithmConfig, genome_length: int, rng: RandomStream):
        self.config = config
        self.n_genes = genome_length
        self.rng = rng
        self.generation = -1
        # The current holdings, row i being slot i; set by every tell().
        self.population: Population | None = None

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def mutation_rate(self) -> float:
        return self.config.p_m if self.config.p_m is not None else 1.0 / self.n_genes

    def ask(self) -> np.ndarray:
        """Exactly pop_size genomes to evaluate next, one per row."""
        self.generation += 1
        if self.generation == 0:
            n, g = self.config.pop_size, self.n_genes
            genomes = self.rng.uniform_vector(n * g, *INITIAL_RANGE).reshape(n, g)
        else:
            genomes = self._propose()
        # A long window is not kept until the next generation's refill; the
        # outputs left after it serve tell()'s draws (NSGA-III's niche fill).
        self.rng.trim()
        return genomes

    def tell(self, evaluated: Population) -> None:
        if len(evaluated) != self.config.pop_size:
            raise ValueError("tell() expects exactly pop_size evaluated individuals")
        if self.generation == 0:
            self._install_initial(evaluated)
        else:
            self._absorb(evaluated)

    # Parent selection and variation shared by the concrete algorithms.

    def _vary(self, n_pairs: int, kept: int) -> np.ndarray:
        """SBX + mutation children of ``n_pairs`` pairs from ``_parents(keys)``:
        the first ``kept`` (1 or 2) children of each pair, pair by pair.

        A pair draws what :func:`sbx_crossover` (when its crossover draw is
        below ``p_crossover``) and then :func:`polynomial_mutation` of each
        child would draw, discarded children included.  The walks read one
        look-ahead window of uniforms, from ``rng.position`` at the first
        pair on.  It holds the first pair's worst case (``6g`` draws with
        SBX, ``4g`` without), then each later pair's expected draws (SBX's
        ``1.5g`` when crossed, ``g (1 + p_m)`` per mutation, and 8 for its
        parents, its crossover draw and slack), then two standard
        deviations of the later pairs' sum.  When a pair's worst case could
        run past the window, the spreads it holds are gathered and a new
        window is read from that pair on.
        """
        cfg, rng, g, p_m = self.config, self.rng, self.n_genes, self.mutation_rate
        p_c = cfg.p_crossover
        mean = int(g * (1.5 * p_c + 2.0 * (1.0 + p_m))) + 8
        # Whether a pair crosses, SBX's applied genes, the mutations' hits.
        variance = (1.5 * g) ** 2 * p_c * (1.0 - p_c) + 0.25 * g * p_c + 2.0 * g * p_m * (1.0 - p_m)
        keys = self._keys()
        pairs, crossed = [], []
        sbx_counts, sbx_genes, sbx_at, sbx_spreads = [], [], [], []
        pm_counts, pm_genes, pm_at, pm_spreads = [], [], [], []
        window, base = _NO_DRAWS, rng.position
        for pair in range(n_pairs):
            pairs.append(self._parents(keys))
            cross = rng.uniform() < cfg.p_crossover
            crossed.append(cross)
            k = start = rng.position - base
            if k + (6 if cross else 4) * g > len(window):
                sbx_spreads.append(window[sbx_at])
                pm_spreads.append(window[pm_at])
                sbx_at, pm_at = [], []
                left = n_pairs - 1 - pair
                window = rng.peek(6 * g + left * mean + int(2.0 * math.sqrt(left * variance)))
                base = rng.position
                halves = (window < 0.5).tobytes()
                hits = (window < p_m).tobytes()
                k = start = 0
            if cross:
                count = len(sbx_genes)
                k = _walk_hits(halves, g, k, sbx_genes, sbx_at)
                sbx_counts.append(len(sbx_genes) - count)
            for child in range(2):
                if child < kept:
                    count = len(pm_genes)
                    k = _walk_hits(hits, g, k, pm_genes, pm_at)
                    pm_counts.append(len(pm_genes) - count)
                else:
                    k = _walk_hits(hits, g, k, [], [])
            rng.advance(k - start)
        sbx_spreads.append(window[sbx_at])
        pm_spreads.append(window[pm_at])

        lo, hi = cfg.bounds
        crossed = np.array(crossed)
        parents = self.population.genomes[np.array(pairs)]  # (n_pairs, 2, g)
        children = parents[:, :kept].copy()
        rows = np.repeat(np.flatnonzero(crossed), sbx_counts)
        genes = np.array(sbx_genes, dtype=np.intp)
        a, b = _sbx(parents[rows, 0, genes], parents[rows, 1, genes],
                    np.concatenate(sbx_spreads), cfg.eta_c)
        children[rows, 0, genes] = a
        if kept == 2:
            children[rows, 1, genes] = b
        children = children.reshape(n_pairs * kept, g)
        rows = np.repeat(np.arange(n_pairs * kept), pm_counts)
        genes = np.array(pm_genes, dtype=np.intp)
        # Mutation reads crossed children as sbx_crossover returns them: clamped.
        x = children[rows, genes]
        x = np.where(crossed[rows // kept], _clamp(x, lo, hi), x)
        children[rows, genes] = _mutated(x, np.concatenate(pm_spreads), cfg.eta_m, lo, hi)
        return _clamp(children, lo, hi)

    def _keys(self) -> list | None:
        """Every slot's binary-tournament key (lower wins), read once per
        generation; None for an algorithm that draws no tournaments."""
        return None

    def _tournament(self, keys: list) -> int:
        """Binary tournament on ``keys``: the winning slot; slot i wins ties."""
        i = self.rng.below(self.config.pop_size)
        j = self.rng.below(self.config.pop_size)
        return j if keys[j] < keys[i] else i

    def _random_pair(self) -> tuple[int, int]:
        """Two distinct, uniformly drawn slots."""
        i = self.rng.below(self.config.pop_size)
        j = self.rng.below(self.config.pop_size)
        while j == i:
            j = self.rng.below(self.config.pop_size)
        return i, j

    def _parents(self, keys: list | None) -> tuple[int, int]:
        return self._tournament(keys), self._tournament(keys)

    def _propose(self) -> np.ndarray:
        return self._vary(self.config.pop_size // 2, 2)

    def _install_initial(self, evaluated: Population) -> None:
        self.population = evaluated

    def _absorb(self, evaluated: Population) -> None:
        raise NotImplementedError
