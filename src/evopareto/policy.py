"""Fixed-topology feedforward policies encoded as flat real genomes.

A policy is a fully connected network with three hidden layers and tanh on
every layer, output included, so actions always land in ``(-1, 1)`` and the
environments need no extra clamping for policy-produced actions.  The genome
layout is positional and unambiguous: for each layer, input to output, the
weight matrix in row-major ``(out, in)`` order followed by the bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RandomStream


@dataclass(frozen=True)
class PolicySpec:
    obs_dim: int
    hidden: tuple[int, int, int] = (4, 4, 4)
    action_dim: int = 1

    def __post_init__(self):
        if self.obs_dim < 1 or self.action_dim < 1 or min(self.hidden) < 1:
            raise ValueError("all layer widths must be >= 1")

    def layer_sizes(self) -> list[tuple[int, int]]:
        widths = [self.obs_dim, *self.hidden, self.action_dim]
        return list(zip(widths[:-1], widths[1:]))


def genome_length(spec: PolicySpec) -> int:
    """Total parameter count: sum of in*out + out over consecutive layers."""
    return sum(n_in * n_out + n_out for n_in, n_out in spec.layer_sizes())


def init_genome(spec: PolicySpec, rng: RandomStream) -> np.ndarray:
    """Fresh genome with every parameter drawn Uniform(-1, 1)."""
    return rng.uniform_vector(genome_length(spec), -1.0, 1.0)


def unflatten(spec: PolicySpec, genome: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat genome into per-layer (weights, bias) arrays.

    A ``(B, n)`` stack of genomes gives stacked ``(B, out, in)`` weights and
    ``(B, out)`` biases.
    """
    theta = np.asarray(genome, dtype=np.float64)
    expected = genome_length(spec)
    if theta.ndim not in (1, 2) or theta.shape[-1] != expected:
        raise ValueError(f"genome length {theta.shape} does not match spec ({expected},)")
    batch = theta.shape[:-1]
    layers = []
    offset = 0
    for n_in, n_out in spec.layer_sizes():
        w = theta[..., offset : offset + n_in * n_out].reshape(*batch, n_out, n_in)
        offset += n_in * n_out
        b = theta[..., offset : offset + n_out]
        offset += n_out
        layers.append((w, b))
    return layers


def forward(layers, observation: np.ndarray) -> np.ndarray:
    """Run the network; tanh at every layer.

    Takes one ``(in,)`` observation with one network's layers, or ``(B, in)``
    observations with stacked layers, row ``i`` through network ``i``.  The
    stacked matmul runs the same matrix-vector product per row as a single
    network does, so each row is bit-identical to its own unbatched call.
    """
    x = observation
    for w, b in layers:
        x = np.tanh(np.matmul(w, x[..., None])[..., 0] + b)
    return x

