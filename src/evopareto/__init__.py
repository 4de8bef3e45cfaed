"""Multi-objective policy search with evolutionary algorithms.

Benchmark suite pairing lightweight stochastic control environments with a
roster of multi-objective and scalarized single-objective evolutionary
algorithms, plus the front-quality indicators and nonparametric statistics
used to compare them.
"""

from .algorithms import ALGORITHM_NAMES, AlgorithmConfig, make_optimizer
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .environments import make_env
from .evaluation import Population, evaluate, rollout, scalarize
from .harness import compute_metrics, run_experiment
from .policy import PolicySpec, genome_length, init_genome
from .rng import RandomStream, derive_seed

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmConfig",
    "ConfigError",
    "ExperimentConfig",
    "PolicySpec",
    "Population",
    "RandomStream",
    "compute_metrics",
    "derive_seed",
    "evaluate",
    "genome_length",
    "init_genome",
    "make_env",
    "make_optimizer",
    "parse_config",
    "rollout",
    "run_experiment",
    "scalarize",
    "serialize_config",
    "__version__",
]
