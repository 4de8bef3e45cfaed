import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evopareto
from evopareto import rng
from evopareto.rng import (RandomStream, _box_muller_arrays, box_muller, derive_seed, derive_seeds,
                           leading_draws, mix64, raw_outputs)


def test_same_seed_same_sequence():
    a = RandomStream(2024)
    b = RandomStream(2024)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_golden_first_output():
    # Frozen once from this implementation; guards cross-platform drift.
    assert RandomStream(99).next_u64() == 4824385676517010403
    assert abs(RandomStream(7).normal() - 1.3649922974572282) < 1e-15


def test_scalar_and_vector_uniform_paths_agree():
    scalar = RandomStream(5)
    values = [scalar.uniform() for _ in range(32)]
    assert np.array_equal(RandomStream(5).uniform_vector(32), np.array(values))
    # Interleaved use keeps one shared counter.
    s = RandomStream(5)
    head = s.uniform_vector(10)
    tail = [s.uniform() for _ in range(22)]
    assert np.array_equal(np.concatenate([head, tail]), np.array(values))


def test_uniform_range_and_mapping():
    s = RandomStream(1)
    draws = s.uniform_vector(10_000)
    assert np.all((0.0 <= draws) & (draws < 1.0))
    t = RandomStream(1)
    mapped = t.uniform_vector(10_000, -0.05, 0.05)
    assert np.allclose(mapped, -0.05 + 0.1 * draws)


def test_normal_moments():
    s = RandomStream(31)
    draws = np.array([s.normal() for _ in range(20_000)])
    assert abs(draws.mean()) < 0.03
    assert 0.97 < draws.std() < 1.03


def test_normal_scale_and_shift():
    a = RandomStream(8)
    b = RandomStream(8)
    raw = [a.normal() for _ in range(10)]
    shifted = [b.normal(2.0, 3.0) for _ in range(10)]
    assert np.allclose(shifted, [2.0 + 3.0 * z for z in raw])


def test_below_in_range_and_deterministic():
    s = RandomStream(12)
    draws = [s.below(7) for _ in range(100)]
    assert all(0 <= d < 7 for d in draws)
    assert draws == [RandomStream(12).below(7) for _ in [None]] + draws[1:]


def test_derive_seed_distinguishes_paths():
    root = 424242
    seeds = {
        derive_seed(root, "alg", 0),
        derive_seed(root, "alg", 1),
        derive_seed(root, "eval", 0),
        derive_seed(root, 0, "alg"),
        derive_seed(root + 1, "alg", 0),
    }
    assert len(seeds) == 5
    assert derive_seed(root, "alg", 0) == derive_seed(root, "alg", 0)


def test_mix64_bijective_sample():
    xs = [0, 1, 2, 2**63, 2**64 - 1]
    assert len({mix64(x) for x in xs}) == len(xs)


def test_raw_outputs_match_scalar_streams():
    keys = [0, 1, 99, 2**63, 2**64 - 1, derive_seed(5, "x")]
    raw = raw_outputs(keys, 3, 6)
    assert raw.dtype == np.uint64 and raw.shape == (6, 6)
    for key, row in zip(keys, raw.tolist()):
        stream = RandomStream(key)
        stream.next_u64(), stream.next_u64()
        assert row == [stream.next_u64() for _ in range(6)]


def test_leading_draws_match_scalar_streams():
    # 500 streams give 5000 logarithms at n_normal = 20; np.log differs from
    # math.log in the last bit for a few tenths of a percent of inputs on
    # some SIMD hosts, so a vectorized transform would show here.
    keys = [derive_seed(3, i) for i in range(500)]
    for n_normal in (20, 5, 0):
        uniforms, normals = leading_draws(keys, n_normal)
        assert uniforms.shape == (500,) and normals.shape == (500, n_normal)
        for key, u, z_row in zip(keys, uniforms, normals):
            stream = RandomStream(key)
            assert u == stream.uniform()
            assert z_row.tolist() == [stream.normal() for _ in range(n_normal)]


@pytest.mark.parametrize("root", [0, 1, 2**63, 2**64 - 1, -7])
@pytest.mark.parametrize("keys", [(), ("eval",), ("eval", 3), (4, -1), ("a", 2**64 + 5, "b")])
@pytest.mark.parametrize("count", [0, 1, 50])
def test_derive_seeds_match_scalar_derive_seed(root, keys, count):
    got = derive_seeds(root, *keys, count=count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [derive_seed(root, *keys, i) for i in range(count)]


def test_derive_seeds_array_root_gives_one_row_per_root():
    roots = [0, 1, 2**63, 2**64 - 1, -7, 2**64 + 3]
    expected = [[derive_seed(root, "eval", 2, i) for i in range(5)] for root in roots]
    assert derive_seeds(roots, "eval", 2, count=5).tolist() == expected
    as_array = np.array([root & (2**64 - 1) for root in roots], dtype=np.uint64)
    assert derive_seeds(as_array, "eval", 2, count=5).tolist() == expected
    assert derive_seeds(as_array, count=0).shape == (len(roots), 0)


def same_bytes(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.view(np.uint64).tolist() == b.view(np.uint64).tolist()


def scalar_box_muller(u1, u2):
    return [z for pair in map(box_muller, u1.tolist(), u2.tolist()) for z in pair]


def test_box_muller_arrays_match_scalar_on_edges():
    # u1 = 1 gives log = 0 and r = sqrt(-0.0) = -0.0, so signs of zero matter.
    u1s = [2.0**-53, 1.0, 0.5, 1.0 - 2.0**-53]
    u2s = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 2.0**-53]
    u1, u2 = (np.array(v).ravel() for v in np.meshgrid(u1s, u2s))
    z = _box_muller_arrays(u1, u2)
    assert same_bytes(z, scalar_box_muller(u1, u2))
    assert any(str(v) == "-0.0" for v in z.tolist())
    assert same_bytes(_box_muller_arrays(np.empty(0), np.empty(0)), [])


def test_box_muller_arrays_match_scalar_on_dense_grid():
    stream = RandomStream(derive_seed(31, "box-muller"))
    u1 = 1.0 - stream.uniform_vector(200_000)
    u2 = stream.uniform_vector(200_000)
    assert same_bytes(_box_muller_arrays(u1, u2), scalar_box_muller(u1, u2))


def test_numpy_cos_and_sin_are_the_c_library_calls():
    # _box_muller_arrays takes cos and sin from numpy's float64 loops on the
    # grounds that they are math.cos and math.sin bit for bit.  The angles:
    # 2 pi u on the stream's 53-bit grid, 2^14 steps of 2^-45 on either side
    # of each k pi / 4 in [0, 2 pi], and the edges.
    grid = (2.0 * math.pi) * RandomStream(derive_seed(37, "trig")).uniform_vector(1_000_000)
    steps = np.arange(-2**14, 2**14) * 2.0**-45
    near = (np.arange(9)[:, None] * (math.pi / 4) + steps).ravel()
    edges = [0.0, 5e-324, 2.0**-53, math.pi / 2, math.pi, 2.0 * math.pi - 4e-16]
    theta = np.concatenate([grid, near[near >= 0.0], edges])
    angles = theta.tolist()
    for name, array_f, scalar_f in (("cos", np.cos, math.cos), ("sin", np.sin, math.sin)):
        got = array_f(theta)
        want = np.fromiter(map(scalar_f, angles), np.float64, len(angles))
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (
            f"numpy {np.__version__}: np.{name} differs from math.{name} on {differ.size} of "
            f"{theta.size} angles (first {theta[differ[0]]!r}); take {name} from math "
            f"per element in rng._box_muller_arrays again, rather than re-pinning")


LEADING_DRAWS_BYTES = (
    "import sys\n"
    "from evopareto.rng import derive_seeds, leading_draws\n"
    "u, z = leading_draws(derive_seeds(11, 'dispatch', count=400), 20)\n"
    "sys.stdout.write(u.tobytes().hex() + z.tobytes().hex())\n"
)


def test_leading_draws_do_not_depend_on_simd_dispatch():
    # The baseline SIMD level, then AVX2 with the AVX-512 levels off.
    u, z = leading_draws(derive_seeds(11, "dispatch", count=400), 20)
    for disabled in ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR"):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                   PYTHONPATH=os.pathsep.join([str(Path(evopareto.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, "-c", LEADING_DRAWS_BYTES], env=env,
                               capture_output=True, text=True, check=True)
        assert child.stdout == u.tobytes().hex() + z.tobytes().hex(), disabled


class UnbufferedStream:
    """The stream as specified: one ``mix64`` per draw, no look-ahead."""

    def __init__(self, seed):
        self.key = seed & (2**64 - 1)
        self.counter = 0
        self.spare = None

    def output(self, i):
        return mix64((self.key + i * 0x9E3779B97F4A7C15) & (2**64 - 1))

    def next_u64(self):
        self.counter += 1
        return self.output(self.counter)

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * ((self.next_u64() >> 11) * 2.0**-53)

    def uniform_vector(self, n, low=0.0, high=1.0):
        return np.array([self.uniform(low, high) for _ in range(n)])

    def below(self, n):
        return self.next_u64() % n

    def normal(self):
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        z, self.spare = box_muller(u1, u2)
        return z

    def peek(self, n):
        return np.array([(self.output(self.counter + i) >> 11) * 2.0**-53 for i in range(1, n + 1)])

    def advance(self, n):
        self.counter += n


def interleave(stream, reference, script, steps):
    """Run ``steps`` random draws on both streams; every value must agree."""
    for _ in range(steps):
        op = script.choice(["next_u64", "uniform", "below", "normal", "vector", "peek", "advance"])
        if op == "next_u64":
            assert stream.next_u64() == reference.next_u64()
        elif op == "uniform":
            low = script.uniform(-3.0, 0.0)
            high = low + script.uniform(0.5, 4.0)
            assert stream.uniform(low, high) == reference.uniform(low, high)
        elif op == "below":
            n = script.randint(1, 1000)
            assert stream.below(n) == reference.below(n)
        elif op == "normal":
            assert stream.normal() == reference.normal()
        elif op == "vector":
            n = script.randint(0, 300)
            assert np.array_equal(stream.uniform_vector(n, -1.0, 1.0),
                                  reference.uniform_vector(n, -1.0, 1.0))
        elif op == "peek":
            n = script.randint(0, 300)
            ahead = stream.peek(n)
            assert not ahead.flags.writeable
            assert np.array_equal(ahead, reference.peek(n))
        else:
            n = script.randint(0, 700)
            stream.advance(n)
            reference.advance(n)
        assert stream._counter == reference.counter


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_look_ahead_block_matches_unbuffered_stream(seed):
    stream, reference = RandomStream(seed), UnbufferedStream(seed)
    script = random.Random(seed)
    # Several refills of the look-ahead block.
    interleave(stream, reference, script, 400)
    assert stream._counter > 3 * 4096
    # A peek longer than one block, then consuming it piece by piece.
    ahead = stream.peek(10_000)
    assert np.array_equal(ahead, reference.peek(10_000))
    assert np.array_equal(stream.uniform_vector(3), reference.uniform_vector(3))
    assert [stream.uniform() for _ in range(5000)] == [reference.uniform() for _ in range(5000)]
    assert stream._counter == reference.counter
    # A batch longer than one block, served across a refill.
    assert np.array_equal(stream.uniform_vector(9000), reference.uniform_vector(9000))
    # A child stream follows its own key with a fresh block.
    child = RandomStream(derive_seed(stream.key, "child", 3))
    child_reference = UnbufferedStream(derive_seed(stream.key, "child", 3))
    interleave(child, child_reference, script, 200)
    interleave(stream, reference, script, 50)


def test_peek_does_not_consume():
    stream = RandomStream(4)
    ahead = stream.peek(20).copy()
    assert stream._counter == 0
    assert np.array_equal(stream.peek(5), ahead[:5])
    assert [stream.uniform() for _ in range(20)] == ahead.tolist()
    stream.advance(0)
    assert stream._counter == 20
    with pytest.raises(ValueError):
        stream.advance(-1)


def test_position_counts_consumed_outputs():
    stream = RandomStream(6)
    stream.peek(5000)
    assert stream.position == 0
    stream.uniform()
    stream.below(7)
    stream.normal()  # two outputs, and a spare normal that draws none
    stream.normal()
    stream.uniform_vector(10)
    stream.advance(4090)
    assert stream.position == stream._counter == 4104
    with pytest.raises(AttributeError):
        stream.position = 0


def test_trim_keeps_the_next_block_of_a_long_one():
    stream, reference = RandomStream(9), UnbufferedStream(9)
    stream.peek(10_000)
    assert np.array_equal(stream.uniform_vector(3000), reference.uniform_vector(3000))
    stream.trim()
    assert len(stream._raw) == len(stream._units) == rng._BLOCK
    assert stream.position == 3000
    assert not stream.peek(rng._BLOCK).flags.writeable
    assert np.array_equal(stream.uniform_vector(9000), reference.uniform_vector(9000))
    # Consumed past a long block, trimming keeps nothing; the next draw refills.
    stream.peek(6000)
    stream.advance(7000)
    reference.advance(7000)
    stream.trim()
    assert len(stream._raw) == 0
    assert [stream.uniform() for _ in range(10)] == [reference.uniform() for _ in range(10)]
    # A block no longer than _BLOCK is left as it is.
    before = stream._raw
    stream.trim()
    assert stream._raw is before
