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

import numpy as np
import pytest

from opfold import _corepy, _kernel
from opfold.bitnum import random_bitnums
from opfold.costmodel import measure_mean
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


def _numpy_bits(entropy, m, count):
    """count m-bit values from a fresh default_rng(entropy), cut here from
    Generator.bytes: each value takes whole uint32 words, lowest first."""
    stride = 4 * -(-m // 32)
    data = np.random.default_rng(list(entropy)).bytes(count * stride)
    return tuple(int.from_bytes(data[i:i + stride], "little") % (1 << m)
                 for i in range(0, count * stride, stride))


def test_seeded_bits_match_numpy_stream(corec):
    rng = random.Random(2014)
    longer_than_pool = 0
    for _ in range(3000):
        entropy = tuple(rng.getrandbits(rng.choice((0, 1, 8, 32, 64, 100)))
                        for _ in range(rng.randint(1, 6)))
        longer_than_pool += sum(max(1, -(-e.bit_length() // 32))
                                for e in entropy) > 4
        m, count = rng.randint(1, 1100), rng.randint(1, 3)
        assert corec.seeded_bits(entropy, m, count) == \
            _numpy_bits(entropy, m, count), (entropy, m, count)
    assert longer_than_pool > 500
    for m in (*range(1, 301), 1024):
        for count in (1, 2, 3):
            entropy = (20111, m, 5, count)
            expected = _numpy_bits(entropy, m, count)
            assert corec.seeded_bits(entropy, m, count) == expected, m
            assert _corepy.seeded_bits(entropy, m, count) == expected, m


@pytest.mark.parametrize("entropy, m, count, error", [
    ((3, -1), 8, 1, ValueError), ((3, 1.0), 8, 1, TypeError),
    ((3,), -1, 1, ValueError), ((3,), 8, -1, ValueError), ((), 8, 2, None),
], ids=["negative-entry", "float-entry", "m-negative", "count-negative",
        "empty-entropy"])
def test_seeded_bits_edges_follow_numpy(corec, entropy, m, count, error):
    if error is None:
        expected = random_bitnums(m, np.random.default_rng(entropy), count)
        assert corec.seeded_bits(entropy, m, count) == \
            tuple(map(int, expected))
        return
    # the numpy route refuses the same input with the same exception type
    with pytest.raises(error):
        random_bitnums(m, np.random.default_rng(entropy), count)
    with pytest.raises(error):
        corec.seeded_bits(entropy, m, count)


def test_seeded_bits_take_numpy_and_bare_int_entries(corec):
    expected = corec.seeded_bits((5, 2), 64, 2)
    assert corec.seeded_bits((np.int64(5), np.uint32(2)), 64, 2) == expected
    assert corec.seeded_bits(5, 64, 2) == corec.seeded_bits((5,), 64, 2) \
        == _numpy_bits((5,), 64, 2)


def test_measure_mean_same_on_both_lanes(corec, monkeypatch):
    def means(lane):
        monkeypatch.setattr(_kernel, "fold_multiply", lane.fold_multiply)
        monkeypatch.setattr(_kernel, "seeded_bits", lane.seeded_bits)
        return ([measure_mean(m, k, 3, 7) for m in range(1, 65)
                 for k in range(1, 9)], measure_mean(1024, 5, 1000, 2))

    assert means(corec) == means(_corepy)


def _baseline_cases():
    rng = random.Random(1959)
    ones = [(1 << m) - 1 for m in (1, 2, 63, 64, 65, 1024)]
    # 0b11...1 = 0b100...0 - 1: the plus mask is one bit wider than b
    cases = [(0, 0), (0xDEADBEEF, 0b101), (0b101, 0xDEADBEEF),
             *zip(ones, ones), (1, 0b11), (1, 0b111), (3, (1 << 64) - 1)]
    for _ in range(500):
        m = rng.randint(1, 4096)
        cases.append((rng.getrandbits(m), rng.getrandbits(m)))
    return cases


@pytest.mark.parametrize("lane", ["compiled", "pure"])
def test_baselines_on_both_lanes(lane, request, monkeypatch):
    fold = request.getfixturevalue("corec").fold_multiply \
        if lane == "compiled" else _corepy.fold_multiply
    monkeypatch.setattr(_kernel, "fold_multiply", fold)
    for a, b in _baseline_cases():
        # bit i + 1 of 3b ^ b is set iff NAF digit i is nonzero
        naf_weight = (3 * b ^ b).bit_count()
        classical = _kernel.classical_multiply(a, b)
        assert classical == (a * b, b.bit_count()), (a, b)
        assert _kernel.csd_multiply(a, b) == (a * b, naf_weight), (a, b)
        if lane == "pure":
            assert _corepy.classical_multiply(a, b) == classical, (a, b)


@pytest.mark.parametrize("entropy, expected", [
    (None, TypeError), ("ab", TypeError), (b"ab", (97, 98)),
    ([[1, 2]], TypeError), (["12"], TypeError), ([1.5], TypeError),
    ({1: 2}, TypeError), ({3}, TypeError), ([-1], ValueError),
    (range(3), (0, 1, 2)), (np.array([1, 2]), (1, 2)),
    (np.uint64(7), (7,)),
], ids=["none", "str", "bytes", "nested", "str-entry", "float-entry",
        "dict", "set", "negative-entry", "range", "ndarray", "numpy-int"])
def test_lanes_accept_the_same_entropy(corec, entropy, expected):
    # expected: the exception type both lanes raise, or the entries both
    # lanes read the entropy as
    for lane in (corec, _corepy):
        if isinstance(expected, type):
            with pytest.raises(expected):
                lane.seeded_bits(entropy, 64, 2)
        else:
            assert lane.seeded_bits(entropy, 64, 2) == \
                _numpy_bits(expected, 64, 2), lane
