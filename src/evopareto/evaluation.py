"""Turning genomes into objective values.

A rollout simulates one full-horizon episode and returns the discounted
vector return sum(gamma^i * r_{i+1}).  :func:`evaluate_population` averages
rollouts over episodes for a whole generation at once; each episode draws
from a stream derived from ``(seed_base, episode)``, and individuals never
share random numbers: each gets its own seed base from the caller.  The rows
of one call may come from different runs: the harness evaluates a generation
of every run in a lockstep group at once, and each row's result is the same
as in a call of its own.

All ``B = len(genomes) * n_episodes`` episodes run in lockstep as ``[B, ...]``
arrays, row ``i * n_episodes + e`` being episode ``e`` of genome ``i``:
stacked policy weights ``[B, out, in]``, observations ``[B, obs_dim]``,
states ``[B, d]``, per-step noise ``[B]`` and returns ``[B, k]``.  The
results are byte-identical to running each episode alone, for three
reasons:

* the stacked matmul in :func:`policy.forward` runs the same matrix-vector
  product for every row as an unbatched call does;
* each episode's draws are those of its own fresh stream, one uniform and
  then ``horizon`` normals (:func:`rng.leading_draws`).  Episode seeds and
  the Box-Muller arithmetic run on arrays, and only ``log`` is called per
  element, on the C library through ``math``: integer arithmetic, correctly
  rounded IEEE operations and numpy's float64 ``cos``/``sin`` (the C
  library's own, called in a loop) give the same bytes on arrays as on
  scalars, and on every SIMD path, while numpy's SIMD ``log`` would not;
* episode returns are summed in order 0 to n-1 and then divided, so results
  do not depend on scheduling.

Evaluation takes genomes and gives mean returns ``[n, k]``.  An optimizer is
told one :class:`Population`, whose ``genomes[n, g]`` and ``returns[n, k]``
rows are individuals; it selects with ``take(rows)`` and ``join(other)``.
The harness records the returns uncopied, so the arrays are read-only.

:func:`rollout` and :func:`evaluate` run the same kernel for one episode and
one genome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import policy
from .environments import Environment
from .policy import PolicySpec
from .rng import RandomStream, derive_seeds, leading_draws


@dataclass(frozen=True)
class Population:
    """Evaluated individuals as rows: ``genomes[n, g]`` and mean ``returns[n, k]``."""

    genomes: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        for rows in (self.genomes, self.returns):
            rows.flags.writeable = False

    @cached_property
    def scalars(self) -> np.ndarray:
        """:func:`scalarize` of each return row; computed once, when first read."""
        scalars = scalarize(self.returns)
        scalars.flags.writeable = False
        return scalars

    def __len__(self) -> int:
        return len(self.returns)

    def take(self, rows) -> Population:
        """The individuals at ``rows``, in that order."""
        return Population(self.genomes[rows], self.returns[rows])

    def join(self, other: Population) -> Population:
        """This population's rows followed by ``other``'s."""
        return Population(np.concatenate([self.genomes, other.genomes]),
                          np.concatenate([self.returns, other.returns]))


def scalarize(v):
    """Equal-weight scalarization: mean of the objective components, per row."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] < 2:
        raise ValueError("scalarization expects k >= 2 objectives")
    return np.sum(v, axis=-1) / v.shape[-1]


def _check_shapes(env: Environment, spec: PolicySpec) -> None:
    if spec.obs_dim != env.spec.obs_dim or spec.action_dim != env.spec.action_dim:
        raise ValueError(
            f"policy ({spec.obs_dim}->{spec.action_dim}) does not match "
            f"environment ({env.spec.obs_dim}->{env.spec.action_dim})"
        )


def _returns(env: Environment, layers, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Discounted vector returns ``[B, k]`` of B lockstep episodes.

    ``layers`` are stacked per episode, ``u[B]`` are the initial uniforms and
    ``noise[B, horizon]`` the per-step standard normals.
    """
    values = env.initial(u)
    total = np.zeros((len(u), env.spec.k))
    discount = 1.0
    for t in range(env.spec.horizon):
        actions = policy.forward(layers, env.observe(values))
        values, rewards = env.transition(values, actions, noise[:, t])
        total += discount * rewards
        discount *= env.spec.gamma
    return total


def rollout(env: Environment, spec: PolicySpec, genome, rng: RandomStream) -> np.ndarray:
    """One Monte Carlo sample of the discounted vector return.

    Takes the episode's draws from ``rng`` up front, in the order the episode
    uses them: the initial uniform, then one normal per step.
    """
    _check_shapes(env, spec)
    layers = policy.unflatten(spec, np.asarray(genome, dtype=np.float64)[None, :])
    horizon = env.spec.horizon
    if env.stochastic:
        u = np.array([rng.uniform()])
        noise = np.array([[rng.normal() for _ in range(horizon)]])
    else:
        u, noise = np.zeros(1), np.zeros((1, horizon))
    return _returns(env, layers, u, noise)[0]


def evaluate_population(env: Environment, spec: PolicySpec, genomes, n_episodes: int,
                        seed_bases) -> np.ndarray:
    """Empirical mean returns ``[n, k]`` of the genomes (rows) over ``n_episodes`` episodes.

    Genome ``i`` draws episode ``e`` from ``derive_seed(seed_bases[i], e)``;
    ``seed_bases`` are ints (masked to 64 bits) or a uint64 array.  All
    episode keys come from one :func:`rng.derive_seeds` call and all draws
    from one :func:`rng.leading_draws` call.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    _check_shapes(env, spec)
    genomes = np.asarray(genomes, dtype=np.float64)
    if len(seed_bases) != len(genomes):
        raise ValueError("expected one seed base per genome")
    horizon = env.spec.horizon
    n = len(genomes) * n_episodes
    if env.stochastic:
        u, noise = leading_draws(derive_seeds(seed_bases, count=n_episodes).ravel(), horizon)
    else:
        u, noise = np.zeros(n), np.zeros((n, horizon))
    layers = policy.unflatten(spec, np.repeat(genomes, n_episodes, axis=0))
    returns = _returns(env, layers, u, noise).reshape(len(genomes), n_episodes, env.spec.k)
    total = np.zeros((len(genomes), env.spec.k))
    for episode in range(n_episodes):
        total = total + returns[:, episode]
    return total / n_episodes


def evaluate(env: Environment, spec: PolicySpec, genome, n_episodes: int,
             seed_base: int) -> np.ndarray:
    """Empirical mean return ``[k]`` over ``n_episodes`` independent episodes."""
    return evaluate_population(env, spec, [genome], n_episodes, [seed_base])[0]
