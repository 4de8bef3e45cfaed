"""The variation, hypervolume and random-stream equivalence tests again,
under numpy's reduced SIMD dispatch.

numpy picks its array kernels by the CPU features it dispatches to, and some
of them (``np.power``, ``np.tanh``, ``np.log``) give other last bits on other
levels.  The variation operators must match the per-gene loops, the batched
hypervolume sweep (whole-front rows and leave-one-out pair rows) the scalar
loops, and the array Box-Muller (``np.cos``/``np.sin``) the scalar one on
``math``, whatever numpy dispatches to.  So ``test_operators.py``,
``test_algorithms.py``, ``test_indicators.py`` and ``test_rng.py`` run again
in a fresh interpreter with the AVX2 and AVX-512 levels switched off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def test_variation_equivalence_under_reduced_simd():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        reason = (probe.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={DISABLED!r}: {reason}")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_operators.py", "tests/test_algorithms.py", "tests/test_indicators.py",
         "tests/test_rng.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
