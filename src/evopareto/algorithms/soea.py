"""Scalarized single-objective baselines: GA, DE, PSO.

All three maximize ``scalar_value`` (the equal-weight mean of the objective
components).  ``best_scalar``, the best scalar value the population
retains, is non-decreasing over generations on deterministic environments:
GA through 1-elitism, DE through per-slot greedy replacement, PSO through
its personal/global best memory.
"""

from __future__ import annotations

import numpy as np

from ..evaluation import EvaluatedIndividual
from .base import Optimizer


def _argbest(individuals: list[EvaluatedIndividual]) -> int:
    """Index of the highest scalar value; first one on ties."""
    return int(np.argmax([ind.scalar_value for ind in individuals]))


class GA(Optimizer):
    """Generational GA: binary tournament, SBX + polynomial mutation, 1-elitism."""

    def _key(self, i):
        return (-self._population[i].scalar_value,)

    def _absorb(self, evaluated):
        elite = self._population[_argbest(self._population)]
        newcomers = list(evaluated)
        if elite.scalar_value > newcomers[_argbest(newcomers)].scalar_value:
            worst = min(range(len(newcomers)), key=lambda i: newcomers[i].scalar_value)
            newcomers[worst] = elite
        self._population = newcomers


class DE(Optimizer):
    """Differential evolution, rand/1/bin with greedy per-slot selection."""

    def __init__(self, config, genome_length, rng):
        if config.pop_size < 4:
            raise ValueError("DE rand/1 needs pop_size >= 4 for distinct donors")
        super().__init__(config, genome_length, rng)

    def _distinct_donors(self, target: int) -> tuple[int, int, int]:
        picked: list[int] = []
        while len(picked) < 3:
            r = self.rng.below(self.config.pop_size)
            if r != target and r not in picked:
                picked.append(r)
        return picked[0], picked[1], picked[2]

    def _propose(self):
        lo, hi = self.config.bounds
        trials = []
        for i in range(self.config.pop_size):
            r1, r2, r3 = self._distinct_donors(i)
            x1 = self._population[r1].genome
            x2 = self._population[r2].genome
            x3 = self._population[r3].genome
            mutant = x1 + self.config.de_f * (x2 - x3)
            target = self._population[i].genome
            j_rand = self.rng.below(self.n_genes)
            crossed = self.rng.uniform_vector(self.n_genes) < self.config.de_cr
            crossed[j_rand] = True
            trials.append(np.clip(np.where(crossed, mutant, target), lo, hi))
        return trials

    def _absorb(self, evaluated):
        for i, trial in enumerate(evaluated):
            if trial.scalar_value >= self._population[i].scalar_value:
                self._population[i] = trial


class PSO(Optimizer):
    """Particle swarm with inertia weight and clamped velocities.

    The reported population is the personal-best set, the solutions the
    swarm actually retains; current particle positions are transient probes
    kept as auxiliaries.
    """

    def _install_initial(self, evaluated):
        self._positions = list(evaluated)
        self._velocities = [np.zeros(self.n_genes) for _ in evaluated]
        self._population = list(evaluated)  # personal bests
        self._gbest = _argbest(self._population)

    def _propose(self):
        cfg = self.config
        lo, hi = cfg.bounds
        v_max = 0.5 * (hi - lo)
        gbest = self._population[self._gbest].genome
        proposals = []
        for i, particle in enumerate(self._positions):
            u1 = self.rng.uniform_vector(self.n_genes)
            u2 = self.rng.uniform_vector(self.n_genes)
            velocity = (cfg.pso_w * self._velocities[i]
                        + cfg.pso_c1 * u1 * (self._population[i].genome - particle.genome)
                        + cfg.pso_c2 * u2 * (gbest - particle.genome))
            velocity = np.clip(velocity, -v_max, v_max)
            self._velocities[i] = velocity
            proposals.append(np.clip(particle.genome + velocity, lo, hi))
        return proposals

    def _absorb(self, evaluated):
        self._positions = list(evaluated)
        for i, particle in enumerate(evaluated):
            if particle.scalar_value > self._population[i].scalar_value:
                self._population[i] = particle
        self._gbest = _argbest(self._population)
