"""Experiment configuration: flat key = value text, typed and validated.

The format is deliberately minimal so configs diff cleanly and parse without
dependencies: one ``key = value`` pair per line, ``#`` comments and blank
lines allowed, lists comma-separated.  Unknown keys are rejected with their
line number.  A key is an :class:`ExperimentConfig` field, parsed as its type
less ``| None``; operator defaults are ``AlgorithmConfig``'s, widths ``PolicySpec``'s.

A config is checked when built, parsed or not: each rule lives once, in
:class:`ExperimentConfig` (experiment keys), ``make_env`` (environment and
noise) or ``AlgorithmConfig`` (operators), and fails as a :class:`ConfigError`.
An experiment's ``bounds`` must contain the initial genes' range;
``AlgorithmConfig`` takes any ``low < high``, so operators can be tested on
narrow bounds.

``parse_config(serialize_config(cfg))`` always returns an identical config.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace

from .algorithms import AlgorithmConfig
from .algorithms.base import INITIAL_RANGE
from .environments import make_env
from .policy import PolicySpec


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str
    algorithms: tuple[str, ...]
    sigma: float | None = None
    n_layer1: int = PolicySpec.hidden[0]
    n_layer2: int = PolicySpec.hidden[1]
    n_layer3: int = PolicySpec.hidden[2]
    pop_size: int = AlgorithmConfig.pop_size
    generations: int = 25
    n_episodes: int = 5
    n_runs: int = 10
    master_seed: int = 0
    output_dir: str | None = None
    bounds: tuple[float, float] = AlgorithmConfig.bounds
    eta_c: float = AlgorithmConfig.eta_c
    p_crossover: float = AlgorithmConfig.p_crossover
    eta_m: float = AlgorithmConfig.eta_m
    p_m: float | None = AlgorithmConfig.p_m
    de_f: float = AlgorithmConfig.de_f
    de_cr: float = AlgorithmConfig.de_cr
    pso_w: float = AlgorithmConfig.pso_w
    pso_c1: float = AlgorithmConfig.pso_c1
    pso_c2: float = AlgorithmConfig.pso_c2
    rnsga2_epsilon: float = AlgorithmConfig.rnsga2_epsilon
    rnsga2_reference_points: tuple[float, ...] | None = AlgorithmConfig.rnsga2_reference_points

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one algorithm")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("algorithms lists a name twice")
        for key in ("n_layer1", "n_layer2", "n_layer3", "generations", "n_episodes", "n_runs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        # The environment and operator rules, the latter against its k.
        try:
            for name in self.algorithms:
                self.algorithm_config(name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # Uncrossed initial genes reach mutation unclamped, so they must
        # already lie within the bounds.
        low, high = INITIAL_RANGE
        if not (self.bounds[0] <= low and high <= self.bounds[1]):
            raise ConfigError(f"bounds must contain the initial range [{low:g}, {high:g}], "
                              f"got {self.bounds!r}")

    def algorithm_config(self, name: str) -> AlgorithmConfig:
        """``name``'s operator settings, reference points grouped by the environment's k."""
        k = make_env(self.environment, self.sigma).spec.k
        refs = None
        if self.rnsga2_reference_points is not None:
            flat = self.rnsga2_reference_points
            if not flat:
                raise ConfigError("rnsga2_reference_points must hold at least one point")
            if len(flat) % k != 0:
                raise ConfigError(
                    f"rnsga2_reference_points has {len(flat)} values, "
                    f"not a multiple of k = {k}"
                )
            refs = tuple(tuple(flat[i : i + k]) for i in range(0, len(flat), k))
        # Every other operator setting is an experiment key of the same name.
        shared = {f.name: getattr(self, f.name) for f in fields(AlgorithmConfig)
                  if f.name not in ("name", "rnsga2_reference_points")}
        return AlgorithmConfig(name=name, rnsga2_reference_points=refs, **shared)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, master_seed=seed)

    def hidden_widths(self) -> tuple[int, int, int]:
        return (self.n_layer1, self.n_layer2, self.n_layer3)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document into a validated :class:`ExperimentConfig`."""
    # Postponed annotations keep each field's type as its source text.
    kinds = {f.name: f.type.removesuffix(" | None") for f in fields(ExperimentConfig)}
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {seen[key]})")
        seen[key] = lineno
        try:
            values[key] = _parse_value(key, kinds[key], value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None

    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"missing required key {f.name!r}")
    return ExperimentConfig(**values)  # type: ignore[arg-type]


def _parse_value(key: str, kind: str, value: str):
    if not value:
        raise ValueError(f"empty value for {key!r}")
    if kind == "int":
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{key!r} expects an integer, got {value!r}") from None
    if kind == "float":
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"{key!r} expects a number, got {value!r}") from None
    if kind == "str":
        return value
    items = [item.strip() for item in value.split(",") if item.strip()]
    if kind == "tuple[str, ...]":
        return tuple(items)
    try:
        return tuple(float(item) for item in items)
    except ValueError:
        raise ValueError(f"{key!r} expects comma-separated numbers, got {value!r}") from None


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; None-valued optional keys are omitted."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        # Through ``float``: a numpy float's own repr names its type, np.float64(12.0).
        items = value if isinstance(value, tuple) else (value,)
        rendered = ", ".join(repr(float(v)) if isinstance(v, float) else str(v) for v in items)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
