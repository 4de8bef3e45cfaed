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
slot i.  ``_tournament()`` and ``_random_pair()`` return slot indices, and
``_vary_pair(i, j)`` varies the genomes of slots i and j.  A concrete
algorithm fills in ``_key(i)``, slot i's binary-tournament key (lower wins),
or overrides ``_parents()``; ``_install_initial(evaluated)`` only when the
first population needs more than storing; ``_absorb(evaluated)`` for
survival selection, which picks rows of ``population.join(evaluated)`` with
``take``; and ``_propose`` only when offspring are not the pairwise SBX +
polynomial-mutation children of ``_parents()``.

All randomness is drawn sequentially from the optimizer's own stream, so a
fixed seed reproduces populations generation by generation.

SBX and polynomial mutation consume one application draw per gene and one
spread draw per applied gene.  They peek the longest such run (2n uniforms),
walk it once to find the applied genes and their spread draws, advance the
stream by exactly the draws the genes consumed, and vary only the applied
genes, one at a time.  The pow rule: every ``**`` is a scalar Python or
numpy-scalar power, never array ``np.power``, which differs from the C
library's ``pow`` in the last bit for some inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..evaluation import Population
from ..rng import RandomStream

ALGORITHM_NAMES = ("GA", "DE", "PSO", "NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2")


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


def _walk(draws: list[float], n: int, p: float) -> tuple[list[int], list[float], int]:
    """Replay the per-gene draw order over look-ahead ``draws``: one
    application draw per gene, then a spread draw if it is below ``p``.

    Returns the applied genes, their spread draws and the number of draws
    the genes consumed.
    """
    genes, spreads = [], []
    k = 0
    for j in range(n):
        if draws[k] < p:
            genes.append(j)
            spreads.append(draws[k + 1])
            k += 2
        else:
            k += 1
    return genes, spreads, k


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
    n = parent_a.shape[0]
    genes, spreads, used = _walk(rng.peek(2 * n).tolist(), n, 0.5)
    rng.advance(used)
    child_a = parent_a.copy()
    child_b = parent_b.copy()
    for j, u in zip(genes, spreads):
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta_c + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta_c + 1.0))
        x, y = parent_a[j], parent_b[j]
        child_a[j] = 0.5 * ((1.0 + beta) * x + (1.0 - beta) * y)
        child_b[j] = 0.5 * ((1.0 - beta) * x + (1.0 + beta) * y)
    lo, hi = bounds
    return np.clip(child_a, lo, hi), np.clip(child_b, lo, hi)


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
    span = hi - lo
    n = genome.shape[0]
    genes, spreads, used = _walk(rng.peek(2 * n).tolist(), n, p_m)
    rng.advance(used)
    out = genome.copy()
    for j, u in zip(genes, spreads):
        x = out[j]
        if u <= 0.5:
            d = (x - lo) / span
            delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d) ** (eta_m + 1.0)) ** (1.0 / (eta_m + 1.0)) - 1.0
        else:
            d = (hi - x) / span
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d) ** (eta_m + 1.0)) ** (1.0 / (eta_m + 1.0))
        out[j] = x + delta * span
    return np.clip(out, lo, hi)


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

    @property
    def best_scalar(self) -> float:
        return float(self.population.scalars.max())

    def ask(self) -> np.ndarray:
        """Exactly pop_size genomes to evaluate next, one per row."""
        self.generation += 1
        if self.generation == 0:
            # Initial parameters follow the policy-genome convention: U(-1, 1),
            # well inside the search bounds where tanh layers are responsive.
            n, g = self.config.pop_size, self.n_genes
            return self.rng.uniform_vector(n * g, -1.0, 1.0).reshape(n, g)
        return self._propose()

    def tell(self, evaluated: Population) -> None:
        if len(evaluated) != self.config.pop_size:
            raise ValueError("tell() expects exactly pop_size evaluated individuals")
        if self.generation == 0:
            self._install_initial(evaluated)
        else:
            self._absorb(evaluated)

    # Parent selection and variation shared by the concrete algorithms.

    def _vary_pair(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """SBX + mutation children of the genomes in slots i and j."""
        parent_a, parent_b = self.population.genomes[i], self.population.genomes[j]
        if self.rng.uniform() < self.config.p_crossover:
            child_a, child_b = sbx_crossover(parent_a, parent_b, self.config.eta_c,
                                             self.rng, self.config.bounds)
        else:
            child_a, child_b = parent_a.copy(), parent_b.copy()
        child_a = polynomial_mutation(child_a, self.config.eta_m, self.mutation_rate,
                                      self.rng, self.config.bounds)
        child_b = polynomial_mutation(child_b, self.config.eta_m, self.mutation_rate,
                                      self.rng, self.config.bounds)
        return child_a, child_b

    def _key(self, i: int) -> tuple:
        raise NotImplementedError

    def _tournament(self) -> int:
        """Binary tournament on ``_key``: the winning slot; slot i wins ties."""
        i = self.rng.below(self.config.pop_size)
        j = self.rng.below(self.config.pop_size)
        return j if self._key(j) < self._key(i) else i

    def _random_pair(self) -> tuple[int, int]:
        """Two distinct, uniformly drawn slots."""
        i = self.rng.below(self.config.pop_size)
        j = self.rng.below(self.config.pop_size)
        while j == i:
            j = self.rng.below(self.config.pop_size)
        return i, j

    def _parents(self) -> tuple[int, int]:
        return self._tournament(), self._tournament()

    def _propose(self) -> np.ndarray:
        pairs = [self._vary_pair(*self._parents()) for _ in range(self.config.pop_size // 2)]
        return np.array(pairs).reshape(self.config.pop_size, self.n_genes)

    def _install_initial(self, evaluated: Population) -> None:
        self.population = evaluated

    def _absorb(self, evaluated: Population) -> None:
        raise NotImplementedError
