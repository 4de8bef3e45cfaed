"""Deterministic random streams.

Everything stochastic in this package draws from :class:`RandomStream`, a
counter-mode SplitMix64 generator (Steele, Lea & Flood, 2014).  The i-th raw
output of a stream with key ``s`` is ``mix64(s + (i+1) * GAMMA) mod 2**64``,
which only involves 64-bit integer arithmetic, so sequences are bit-identical
on every platform and can be produced scalar-by-scalar or as vectorized
batches.

Every draw (:meth:`~RandomStream.next_u64`, ``uniform``, ``below``,
``normal``, ``uniform_vector``) is served from a look-ahead block of raw
outputs that :func:`raw_outputs` computes ahead of use.  The look-ahead rule:
the block is only a cache of the outputs after ``_counter``, and ``_counter``
alone counts what was consumed, so no value depends on the block's size or
on when it was refilled.  :meth:`~RandomStream.peek` reads the next uniforms and never
consumes; :meth:`~RandomStream.advance` consumes outputs unread, and
:attr:`~RandomStream.position` reads how many outputs were consumed.  A peek
longer than the block computes a longer one; :meth:`~RandomStream.trim`
cuts it back to the next ``_BLOCK`` outputs once the long read is done.

Uniform doubles come from the top 53 bits of a raw output; Gaussian draws use
the Box-Muller transform (pairs are generated together and the second value
is cached).  Child streams are derived from hashable key paths with
:func:`derive_seed`, never by splitting generator state, so evaluation order
and parallel scheduling cannot perturb results.  :func:`derive_seeds` gives
the seeds of many sibling paths at once; it and :func:`raw_outputs` run the
finalizer on uint64 arrays (:func:`mix64_array`), which is the same integer
arithmetic as the scalar :func:`mix64`.

:func:`raw_outputs` computes raw outputs of many streams at once as one
vectorized SplitMix64 kernel, and :func:`leading_draws` turns them into the
uniforms and normals that fresh streams would give.  Its Box-Muller must give
the bytes of the scalar :func:`box_muller` that :meth:`RandomStream.normal`
uses, which calls the C library through ``math``.  Per function:

* ``log`` is called once per element through ``math``, because numpy's SIMD
  ``np.log`` differs from the C library in the last bit for about 0.35% of
  the inputs on an AVX-512 host;
* ``cos`` and ``sin`` run on the θ array as ``np.cos``/``np.sin``: numpy's
  float64 loops for them call the C library's own ``cos`` and ``sin`` on
  every SIMD dispatch level (``tests/test_rng.py`` checks this bit for bit);
* the rest (``-2 *``, the square root, ``2 pi *`` and the products) are
  correctly rounded IEEE operations, which give the same double whatever
  SIMD path numpy picks.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53
# mix64_array's shifts and multipliers, built once rather than per call.
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_MUL1, _MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)

#: Identifier persisted in run records so stored results name their generator.
SCHEME = "splitmix64-boxmuller-v1"

# Outputs computed per look-ahead refill (more when one peek asks for more).
_BLOCK = 4096
_NO_DRAWS = np.empty(0)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit avalanche mix."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`mix64` of each element of a uint64 array (at least 1-D)."""
    x = (x ^ (x >> _U30)) * _MUL1
    x = (x ^ (x >> _U27)) * _MUL2
    return x ^ (x >> _U31)


def raw_outputs(keys, first: int, n: int) -> np.ndarray:
    """Raw outputs ``first`` .. ``first + n - 1`` (counting from 1) of each
    stream key: a ``(len(keys), n)`` uint64 array, or ``(n,)`` for one key."""
    counters = np.arange(first, first + n, dtype=np.uint64)
    return mix64_array(np.asarray(keys, dtype=np.uint64)[..., None] + counters * np.uint64(_GAMMA))


def _unit(x: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of raw outputs."""
    return (x >> np.uint64(11)).astype(np.float64) * _INV_2_53


def box_muller(u1: float, u2: float) -> tuple[float, float]:
    """Two standard normals from u1 in (0, 1] and u2 in [0, 1), on ``math``."""
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    return r * math.cos(theta), r * math.sin(theta)


def _box_muller_arrays(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """:func:`box_muller` of each pair ``(u1[j], u2[j])``, interleaved as
    ``[z0, z1]`` per pair; ``log`` from ``math`` per element, ``cos`` and
    ``sin`` from numpy's float64 loops, which call the C library's own."""
    n = len(u1)
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, n))
    theta = (2.0 * math.pi) * u2
    z = np.empty((n, 2))
    z[:, 0] = r * np.cos(theta)
    z[:, 1] = r * np.sin(theta)
    return z.ravel()


def leading_draws(keys, n_normal: int) -> tuple[np.ndarray, np.ndarray]:
    """What fresh streams give for one :meth:`RandomStream.uniform` call
    followed by ``n_normal`` :meth:`RandomStream.normal` calls.

    Returns ``(uniforms[len(keys)], normals[len(keys), n_normal])``, row ``i``
    holding the draws of ``RandomStream(keys[i])``.
    """
    n_pairs = (n_normal + 1) // 2
    raw = raw_outputs(keys, 1, 1 + 2 * n_pairs)
    # Adding 2^-53 is exact: it gives ((x >> 11) + 1) * 2^-53, as normal() does.
    u1 = _unit(raw[:, 1::2]).ravel() + _INV_2_53
    u2 = _unit(raw[:, 2::2]).ravel()
    normals = _box_muller_arrays(u1, u2).reshape(len(raw), 2 * n_pairs)
    return _unit(raw[:, 0]), normals[:, :n_normal]


def _token(key: int | str) -> int:
    """A path key as 64 bits: FNV-1a of a string, an integer masked."""
    if not isinstance(key, str):
        return key & _MASK
    h = 0xCBF29CE484222325
    for byte in key.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def derive_seed(root: int, *keys: int | str) -> int:
    """Derive a child seed from a root seed and a key path.

    Strings are hashed with FNV-1a; integers are used directly.  Each key is
    folded into the running seed through the SplitMix64 finalizer, so
    distinct paths give statistically independent streams.
    """
    s = mix64(root)
    for key in keys:
        s = mix64(s ^ _token(key))
    return s


def derive_seeds(root, *keys: int | str, count: int) -> np.ndarray:
    """``derive_seed(root, *keys, i)`` for ``i`` in ``range(count)``, as a
    uint64 array of shape ``np.shape(root) + (count,)``.

    ``root`` is an int or an array of them; Python ints are masked to 64
    bits, as :func:`derive_seed` masks them.  Keys are folded in the same way.
    """
    # Masked as Python ints: numpy will not cast a negative int to uint64.
    s = mix64_array(np.asarray(np.asarray(root, dtype=object) & _MASK, dtype=np.uint64)[..., None])
    for key in keys:
        s = mix64_array(s ^ np.uint64(_token(key)))
    return mix64_array(s ^ np.arange(count, dtype=np.uint64))


class RandomStream:
    """Counter-mode SplitMix64 stream with uniform and Gaussian draws.

    The look-ahead block holds raw outputs ``_base + 1 .. _base + len(_raw)``
    and their uniforms; each refill computes ``_BLOCK`` outputs, or more if
    one peek asks for more, until :meth:`trim` (see the module notes for the
    look-ahead rule).
    """

    __slots__ = ("key", "_counter", "_spare_normal", "_base", "_raw", "_units")

    def __init__(self, seed: int):
        self.key = seed & _MASK
        self._counter = 0
        self._spare_normal = None
        self._base = 0
        self._raw = self._units = _NO_DRAWS

    def _refill(self, n: int) -> None:
        """Cache at least the next ``n`` outputs, from ``_counter + 1`` on."""
        raw = raw_outputs(self.key, self._counter + 1, max(n, _BLOCK))
        self._base = self._counter
        self._raw = raw
        self._units = _unit(raw)
        self._units.flags.writeable = False

    @property
    def position(self) -> int:
        """How many outputs the stream has consumed."""
        return self._counter

    def next_u64(self) -> int:
        i = self._counter - self._base
        if i >= len(self._raw):
            self._refill(1)
            i = 0
        self._counter += 1
        return self._raw.item(i)

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` :meth:`uniform` draws, read-only, without consuming them."""
        i = self._counter - self._base
        if i + n > len(self._raw):
            self._refill(n)
            i = 0
        return self._units[i:i + n]

    def trim(self) -> None:
        """Keep at most ``_BLOCK`` outputs of the look-ahead block, the next
        unconsumed ones, as a copy, so a longer block's memory is freed."""
        if len(self._raw) > _BLOCK:
            i = self._counter - self._base
            self._base = self._counter
            self._raw = self._raw[i:i + _BLOCK].copy()
            self._units = self._units[i:i + _BLOCK].copy()
            self._units.flags.writeable = False

    def advance(self, n: int) -> None:
        """Consume ``n`` outputs unread, as ``n`` :meth:`next_u64` calls would."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        self._counter += n

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in [low, high) from the top 53 bits of one output."""
        u = (self.next_u64() >> 11) * _INV_2_53
        return low + (high - low) * u

    def uniform_vector(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Vectorized batch equal to ``n`` successive :meth:`uniform` calls."""
        u = self.peek(n)
        self.advance(n)
        return low + (high - low) * u

    def below(self, n: int) -> int:
        """Integer in [0, n) via modulo reduction (bias < n / 2**64)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller on two uniforms; spare value cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            # ((x >> 11) + 1) * 2^-53 lies in (0, 1], keeping log() finite.
            u1 = ((self.next_u64() >> 11) + 1) * _INV_2_53
            u2 = (self.next_u64() >> 11) * _INV_2_53
            z, self._spare_normal = box_muller(u1, u2)
        return mu + sigma * z
