"""Scalarized single-objective baselines: GA, DE, PSO.

All three maximize ``scalars`` (the equal-weight mean of the objective
components).  The best scalar value the population retains,
``population.scalars.max()``, is non-decreasing over generations on
deterministic environments: GA through 1-elitism, DE through per-slot
greedy replacement, PSO through its personal/global best memory.
"""

from __future__ import annotations

import numpy as np

from .base import Optimizer


class GA(Optimizer):
    """Generational GA: binary tournament, SBX + polynomial mutation, 1-elitism."""

    def _keys(self):
        return (-self.population.scalars).tolist()

    def _absorb(self, evaluated):
        # The offspring replace the population; a strictly better elite takes
        # the first worst offspring's slot.
        rows = np.arange(len(evaluated))
        elite = int(np.argmax(self.population.scalars))
        if self.population.scalars[elite] > evaluated.scalars.max():
            rows[np.argmin(evaluated.scalars)] = len(evaluated) + elite
        self.population = evaluated.join(self.population).take(rows)


def _keep_or_replace(current, challengers, replace):
    """Slot i holds ``challengers``' row i where ``replace[i]``, else ``current``'s."""
    return current.join(challengers).take(np.arange(len(current)) + len(current) * replace)


class DE(Optimizer):
    """Differential evolution, rand/1/bin with greedy per-slot selection."""

    def _distinct_donors(self, target: int) -> tuple[int, int, int]:
        picked: list[int] = []
        while len(picked) < 3:
            r = self.rng.below(self.config.pop_size)
            if r != target and r not in picked:
                picked.append(r)
        return picked[0], picked[1], picked[2]

    def _propose(self):
        # Draws go slot by slot (donors, j_rand, crossover draws); the trials
        # are then one array expression over the whole population.
        cfg = self.config
        x = self.population.genomes
        donors = np.empty((cfg.pop_size, 3), dtype=np.intp)
        crossed = np.empty(x.shape, dtype=bool)
        for i in range(cfg.pop_size):
            donors[i] = self._distinct_donors(i)
            j_rand = self.rng.below(self.n_genes)
            crossed[i] = self.rng.uniform_vector(self.n_genes) < cfg.de_cr
            crossed[i, j_rand] = True
        mutants = x[donors[:, 0]] + cfg.de_f * (x[donors[:, 1]] - x[donors[:, 2]])
        return np.clip(np.where(crossed, mutants, x), *cfg.bounds)

    def _absorb(self, evaluated):
        # A trial at least as good as its target takes the slot.
        self.population = _keep_or_replace(self.population, evaluated,
                                            evaluated.scalars >= self.population.scalars)


class PSO(Optimizer):
    """Particle swarm with inertia weight and clamped velocities.

    The reported population is the personal-best set, the solutions the
    swarm actually retains; current particle positions are transient probes
    kept as auxiliaries.
    """

    def _install_initial(self, evaluated):
        self._positions = evaluated.genomes
        self._velocities = np.zeros_like(evaluated.genomes)
        self.population = evaluated  # personal bests

    def _propose(self):
        cfg = self.config
        lo, hi = cfg.bounds
        v_max = 0.5 * (hi - lo)
        x = self._positions
        pbest = self.population.genomes
        gbest = pbest[np.argmax(self.population.scalars)]
        # Particle i draws its u1 and then its u2 block of n_genes uniforms.
        u = self.rng.uniform_vector(2 * x.size).reshape(len(x), 2, self.n_genes)
        velocity = (cfg.pso_w * self._velocities
                    + cfg.pso_c1 * u[:, 0] * (pbest - x)
                    + cfg.pso_c2 * u[:, 1] * (gbest - x))
        self._velocities = np.clip(velocity, -v_max, v_max)
        return np.clip(x + self._velocities, lo, hi)

    def _absorb(self, evaluated):
        self._positions = evaluated.genomes
        # Only a strictly better position replaces a personal best.
        self.population = _keep_or_replace(self.population, evaluated,
                                            evaluated.scalars > self.population.scalars)
