"""Built-in stochastic multi-objective control environments.

Three desk-scale tasks with conflicting continuous objectives, fixed
horizons, and seeded, bit-reproducible transitions:

* ``TradeoffBandit`` -- one step, two exactly antagonistic rewards with a
  known analytic front, used for quantitative acceptance checks.
* ``NoisyPointWalker`` -- 1-D point mass trading speed against actuation
  energy under Gaussian velocity noise.
* ``HopLander`` -- three objectives (forward speed, altitude, energy) with
  a ground-contact nonlinearity.

Dynamics are array-native: every method works on ``[B, ...]`` arrays, one
row per episode, so a whole population's episodes advance in lockstep.

* ``initial(u[B]) -> values[B, d]`` maps each episode's initial uniform
  draw in [0, 1) to its state;
* ``observe(values[B, d]) -> obs[B, obs_dim]``;
* ``transition(values[B, d], actions[B, a], noise[B]) -> (values[B, d],
  rewards[B, k])`` advances one step, ``noise`` being each episode's
  standard normal draw for the step.

Each environment has exactly this one implementation of its dynamics.  The
array operations are the IEEE operations, in the same order, of the scalar
formulas in the class docstrings, applied element by element, so a row's
result does not depend on the batch it runs in.  ``np.where(x > 0.0, x,
0.0)`` stands for ``max(0.0, x)``: like Python's ``max`` it gives 0.0
wherever ``x > 0.0`` is false, ``-0.0`` and NaN included.

A stochastic environment's episode draws one uniform for its initial state,
then one normal per step; the bandit draws nothing.  :meth:`Environment.reset`
and :meth:`Environment.step` run single episodes (``B = 1``) on immutable
:class:`EnvState` values and draw from a :class:`RandomStream` in that
order.  Actions are clamped to ``[-1, 1]`` defensively, episodes always run
the full horizon, and with the noise scale forced to zero the two
stochastic tasks become deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RandomStream


@dataclass(frozen=True)
class EnvSpec:
    name: str
    obs_dim: int
    action_dim: int
    k: int
    horizon: int
    gamma: float
    sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class EnvState:
    values: tuple[float, ...]
    step_index: int = 0


@dataclass(frozen=True)
class StepResult:
    next_state: EnvState
    reward: np.ndarray
    done: bool


class Environment:
    """Array dynamics from subclasses; single-episode reset and step."""

    spec: EnvSpec
    #: Whether episodes draw an initial uniform and one normal per step.
    stochastic = True

    def initial(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def observe(self, values: np.ndarray) -> np.ndarray:
        return values

    def transition(self, values: np.ndarray, actions: np.ndarray,
                   noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def reset(self, rng: RandomStream) -> EnvState:
        u = rng.uniform() if self.stochastic else 0.0
        return EnvState(values=tuple(self.initial(np.array([u]))[0].tolist()), step_index=0)

    def step(self, state: EnvState, action, rng: RandomStream) -> StepResult:
        if state.step_index >= self.spec.horizon:
            raise ValueError("episode already finished; reset before stepping")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.spec.action_dim,):
            raise ValueError(f"expected {self.spec.action_dim} action components, got {action.size}")
        noise = rng.normal() if self.stochastic else 0.0
        values, rewards = self.transition(np.array([state.values], dtype=np.float64),
                                          action[None, :], np.array([noise]))
        next_state = EnvState(values=tuple(values[0].tolist()), step_index=state.step_index + 1)
        return StepResult(next_state=next_state, reward=rewards[0],
                          done=next_state.step_index >= self.spec.horizon)


class TradeoffBandit(Environment):
    """Single-step bandit with rewards (u, 1-u), u = (a+1)/2.

    The achievable set is exactly the segment y1 + y2 = 1 restricted to
    [0, 1]^2, every point of which is nondominated, so the Pareto front is
    known in closed form.  The state is empty and the observation is 1.
    """

    stochastic = False

    def __init__(self, sigma: float = 0.0):
        self.spec = EnvSpec(name="TradeoffBandit", obs_dim=1, action_dim=1,
                            k=2, horizon=1, gamma=0.99, sigma=sigma)

    def initial(self, u):
        return np.empty((len(u), 0))

    def observe(self, values):
        return np.ones((len(values), 1))

    def transition(self, values, actions, noise):
        u = (np.clip(actions[:, 0], -1.0, 1.0) + 1.0) / 2.0
        return values, np.column_stack([u, 1.0 - u])


class NoisyPointWalker(Environment):
    """1-D point mass: maximize velocity, minimize actuation energy.

    Dynamics: v' = clamp(v + 0.1 a - 0.05 v + eps, -1, 1) with
    eps ~ N(0, sigma^2); x' = x + 0.1 v'.  Rewards (v', -a^2).

    All stochasticity scales with sigma: the initial velocity is drawn
    Uniform(-5 sigma, 5 sigma), i.e. Uniform(-0.05, 0.05) at the default
    noise level, so sigma = 0 makes whole episodes deterministic.
    """

    def __init__(self, sigma: float = 0.01):
        self.spec = EnvSpec(name="NoisyPointWalker", obs_dim=2, action_dim=1,
                            k=2, horizon=20, gamma=0.99, sigma=sigma)

    def initial(self, u):
        amp = 5.0 * self.spec.sigma
        v = -amp + (amp - -amp) * u  # RandomStream.uniform(-amp, amp)
        return np.column_stack([np.zeros_like(v), v])

    def transition(self, values, actions, noise):
        x, v = values[:, 0], values[:, 1]
        a = np.clip(actions[:, 0], -1.0, 1.0)
        eps = self.spec.sigma * noise
        v_next = np.clip(v + 0.1 * a - 0.05 * v + eps, -1.0, 1.0)
        x_next = x + 0.1 * v_next
        return np.column_stack([x_next, v_next]), np.column_stack([v_next, -(a * a)])


class HopLander(Environment):
    """Three-objective hopper analog: speed vs altitude vs energy.

    Dynamics: w' = w + 0.1 a1 - 0.02; h' = max(0, h + 0.1 w'); grounding
    (h' = 0) zeroes w'; v' = 0.95 v + 0.1 a2 + eps, eps ~ N(0, sigma^2).
    Rewards (v', h', -(a1^2 + a2^2)).  As for the walker, the initial
    altitude perturbation Uniform(-5 sigma, 5 sigma) vanishes at sigma = 0.
    """

    def __init__(self, sigma: float = 0.01):
        self.spec = EnvSpec(name="HopLander", obs_dim=3, action_dim=2,
                            k=3, horizon=20, gamma=0.99, sigma=sigma)

    def initial(self, u):
        amp = 5.0 * self.spec.sigma
        h = 1.0 + (-amp + (amp - -amp) * u)  # 1 + RandomStream.uniform(-amp, amp)
        return np.column_stack([h, np.zeros_like(h), np.zeros_like(h)])

    def transition(self, values, actions, noise):
        h, w, v = values[:, 0], values[:, 1], values[:, 2]
        actions = np.clip(actions, -1.0, 1.0)
        a1, a2 = actions[:, 0], actions[:, 1]
        w_next = w + 0.1 * a1 - 0.02
        h_next = h + 0.1 * w_next
        h_next = np.where(h_next > 0.0, h_next, 0.0)
        w_next = np.where(h_next == 0.0, 0.0, w_next)
        eps = self.spec.sigma * noise
        v_next = 0.95 * v + 0.1 * a2 + eps
        return (np.column_stack([h_next, w_next, v_next]),
                np.column_stack([v_next, h_next, -(a1 * a1 + a2 * a2)]))


_CATALOG = {
    "TradeoffBandit": TradeoffBandit,
    "NoisyPointWalker": NoisyPointWalker,
    "HopLander": HopLander,
}


def environment_names() -> list[str]:
    return sorted(_CATALOG)


def make_env(name: str, sigma: float | None = None) -> Environment:
    """Instantiate an environment by name, optionally overriding noise scale;
    every environment rule (name, finite ``sigma >= 0``, noiseless bandit) is here."""
    try:
        cls = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; choose from {environment_names()}") from None
    if sigma is None:
        return cls()
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    if name == "TradeoffBandit" and sigma != 0.0:
        raise ValueError("TradeoffBandit has no noise to scale")
    return cls(sigma=sigma)
