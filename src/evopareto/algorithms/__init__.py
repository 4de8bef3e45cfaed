"""Optimizer roster: three scalarized single-objective EAs and five MOEAs."""

from __future__ import annotations

from ..rng import RandomStream
from .base import ALGORITHM_NAMES, AlgorithmConfig, Optimizer, polynomial_mutation, sbx_crossover
from .moea import (
    NSGA2,
    NSGA3,
    RNSGA2,
    SMSEMOA,
    SPEA2,
    generate_reference_directions,
    minimum_partitions,
    niche_fill,
    perpendicular_distances,
    reference_point_ranks,
)
from .soea import DE, GA, PSO

_REGISTRY = {
    "GA": GA,
    "DE": DE,
    "PSO": PSO,
    "NSGA2": NSGA2,
    "SPEA2": SPEA2,
    "SMSEMOA": SMSEMOA,
    "NSGA3": NSGA3,
    "RNSGA2": RNSGA2,
}


def make_optimizer(config: AlgorithmConfig, genome_length: int, rng: RandomStream) -> Optimizer:
    return _REGISTRY[config.name](config, genome_length, rng)


__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmConfig",
    "Optimizer",
    "make_optimizer",
    "sbx_crossover",
    "polynomial_mutation",
    "generate_reference_directions",
    "minimum_partitions",
    "niche_fill",
    "perpendicular_distances",
    "reference_point_ranks",
    "GA",
    "DE",
    "PSO",
    "NSGA2",
    "SPEA2",
    "SMSEMOA",
    "NSGA3",
    "RNSGA2",
]
