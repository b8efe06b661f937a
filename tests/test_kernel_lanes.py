"""The compiled kernel lane against the pure one.

The extension is built from src/opfold/_corec.c into a temporary directory
and loaded from there, so these tests check the C source whether or not a
built copy sits in src/. They skip only when the build itself fails.
"""

import importlib.util
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opfold import _corepy
from opfold.folding import K_CEILING

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def corec(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corec")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    built = sorted((tmp / "lib" / "opfold").glob("_corec.*"))
    if proc.returncode or not built:
        lines = proc.stderr.strip().splitlines() or ["no extension built"]
        pytest.skip(f"compiled lane did not build: {lines[-1]}")
    spec = importlib.util.spec_from_file_location("opfold._corec", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(corec, a, b, m, k):
    assert corec.fold_multiply(a, b, m, k) == \
        _corepy.fold_multiply(a, b, m, k), (a, b, m, k)


def test_lanes_agree_small_grid(corec):
    rng = random.Random(20110406)
    for m in range(1, 65):
        ones = (1 << m) - 1
        for k in range(1, 11):
            n = -(-m // k)
            # one set bit at the bottom and at the top of each part
            sparse = [1 << bit for j in range(k) if j * n < m
                      for bit in (j * n, min(j * n + n, m) - 1)]
            for a, b in ((0, 0), (ones, 0), (0, ones), (ones, ones),
                         (rng.getrandbits(m), rng.getrandbits(m)),
                         *((ones, s) for s in sparse)):
                _check(corec, a, b, m, k)


def test_lanes_agree_random_wide(corec):
    rng = random.Random(1104)
    for _ in range(1000):
        m = rng.randint(1, 4096)
        _check(corec, rng.getrandbits(m), rng.getrandbits(m), m,
               rng.randint(1, 10))


def test_pure_lane_sparse_multiplier_is_linear_in_m():
    # one set column of 2**20: a per-column shift of A would take seconds
    start = time.perf_counter()
    result = _corepy.fold_multiply(1, 1, 1 << 20, 1)
    elapsed = time.perf_counter() - start
    assert result == (1, 1, 0, 0, 1 << 20, 1)
    assert elapsed < 2.0


def test_compiled_lane_degree_ceiling_is_the_model_ceiling(corec):
    assert corec.K_CEILING == K_CEILING


@pytest.mark.parametrize("args", [
    (1 << 8, 1, 8, 2), (1, 1 << 8, 8, 2), (-1, 1, 8, 2), (1, -1, 8, 2),
    (1, 1, 8, 0), (1, 1, 8, K_CEILING + 1), (0, 0, 0, 1), (0, 0, -1, 1),
], ids=["wide-a", "wide-b", "negative-a", "negative-b", "k-zero",
        "k-over-ceiling", "m-zero", "m-negative"])
def test_compiled_lane_refuses_bad_arguments(corec, args):
    with pytest.raises(ValueError):
        corec.fold_multiply(*args)


def test_compiled_lane_refuses_non_ints(corec):
    with pytest.raises(TypeError):
        corec.fold_multiply(1.0, 1, 8, 2)
