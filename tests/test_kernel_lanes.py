"""The compiled kernel lane against the pure one.

The extension is built from src/opfold/_corec.c into a temporary directory
and loaded from there, so these tests check the C source whether or not a
built copy sits in src/. They skip only when the build itself fails.
"""

import importlib.util
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from opfold import _corepy, _kernel
from opfold.bitnum import BitNum, random_bitnums
from opfold.costmodel import measure_mean
from opfold.density import bernoulli_block
from opfold.folding import K_CEILING, multiply

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


def test_lanes_agree_on_mostly_empty_banks(corec):
    # at k = 9..12 a few set multiplier bits fill a few of the 2**k - 1
    # cells, so most combine adds read an unfilled cell
    rng = random.Random(2026)
    for m in (9, 40, 100, 301, 1000):
        ones = (1 << m) - 1
        for k in range(9, 13):
            n = -(-m // k)
            for count in (1, 2, 3):
                b = 0
                for j in rng.sample(range(-(-m // n)), count):
                    b |= 1 << rng.randrange(j * n, min(j * n + n, m))
                for a in (ones, rng.getrandbits(m)):
                    _check(corec, a, b, m, k)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 1024, 4096])
def test_column_read_matches_pure_lane(corec, m):
    # k = 9..16 puts the parts in two groups of 8; a narrow b leaves the
    # top parts empty
    rng = random.Random(m)
    ones = (1 << m) - 1
    for k in range(1, 17):
        n = -(-m // k)
        for b in (rng.getrandbits(m), ones, rng.getrandbits(max(1, n // 2)),
                  rng.getrandbits(min(m, n + 1)), 1 << (m - 1)):
            _check(corec, rng.getrandbits(m), b, m, k)
            _check(corec, ones, b, m, k)


def test_column_read_at_every_part_offset(corec):
    # n = 8q + r for every r, with m = k * n and with k not dividing m, so
    # the top part is padded or empty; together the part boundaries j * n
    # fall at every bit offset mod 8
    rng = random.Random(1968)
    offsets = set()
    for r in range(8):
        for q in (0, 1, 4):
            n = 8 * q + r
            if not n:
                continue
            for k in (2, 3, 8, 9, 12):
                offsets.update(j * n % 8 for j in range(k))
                for m in {k * n, k * n - 1, (n - 1) * k + 1} - {0}:
                    assert -(-m // k) == n
                    ones = (1 << m) - 1
                    # the first and last column of every part, together
                    # and, below 2**12 cells, alone
                    edges = [1 << bit for j in range(k) if j * n < m
                             for bit in (j * n, min(j * n + n, m) - 1)]
                    alone = edges if k < 12 else []
                    for b in (rng.getrandbits(m), ones, sum(set(edges)),
                              *alone):
                        _check(corec, rng.getrandbits(m) | 1, b, m, k)
    assert offsets == set(range(8))


def test_zero_multiplier_leaves_every_cell_empty(corec):
    for m, k in ((1, 1), (64, 5), (300, 8), (1000, 12)):
        result = corec.fold_multiply((1 << m) - 1, 0, m, k)
        assert result == _corepy.fold_multiply((1 << m) - 1, 0, m, k)
        assert result[0] == result[5] == 0


@pytest.mark.parametrize("b", [1 | 2 << 40, 2 | 1 << 40],
                         ids=["later-cell-wider", "earlier-cell-wider"])
def test_peak_compares_top_limbs_of_equal_index(corec, b):
    # k = 2, n = 40: cells 1 and 2 hold A * B_1 and A * B_2, 40 and 41 bits
    # wide, so both top nonzero limbs are limb 1 and their values decide
    a, m, k = (1 << 40) - 1, 80, 2
    result = corec.fold_multiply(a, b, m, k)
    assert result == _corepy.fold_multiply(a, b, m, k)
    assert result[5] == 41


def test_peak_at_every_top_limb_width(corec):
    # b = 1 leaves A alone in cell 1, so the peak is A's width w, read from
    # a top limb holding every width 1..32 of its bits at limbs 0..4
    for w in range(1, 131):
        for a in ((1 << w) - 1, 1 << (w - 1)):
            for k in range(1, 5):
                result = corec.fold_multiply(a, 1, w, k)
                assert result == _corepy.fold_multiply(a, 1, w, k), (a, k)
                assert result[5] == w, (a, k)


def test_lanes_take_numpy_int_m_and_k(corec):
    a, b = (1 << 100) - 1, (1 << 100) - 3
    expected = corec.fold_multiply(a, b, 100, 3)
    for lane in (corec, _corepy):
        result = lane.fold_multiply(a, b, np.int64(100), np.int32(3))
        assert result == expected
        assert all(type(x) is int for x in result)


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


def _mean_stderr(totals):
    """measure_mean's mean and stderr of the ledger totals, computed as it
    computes them"""
    trials = len(totals)
    mean = sum(totals) / trials
    if trials == 1:
        return mean, 0.0
    var = (sum(t * t for t in totals) - trials * mean * mean) / (trials - 1)
    return mean, (max(var, 0.0) / trials) ** 0.5


@pytest.mark.parametrize("lane", ["compiled", "pure"])
def test_measure_mean_is_the_mean_of_multiply_ledgers(lane, request,
                                                     monkeypatch):
    module = request.getfixturevalue("corec") if lane == "compiled" \
        else _corepy
    monkeypatch.setattr(_kernel, "fold_multiply", module.fold_multiply)
    monkeypatch.setattr(_kernel, "seeded_bits", module.seeded_bits)
    shapes = [(m, k, 3, 7) for m in range(1, 65) for k in range(1, 9)]
    for m, k, trials, seed in [*shapes, (1024, 5, 200, 2)]:
        totals = []
        for t in range(trials):
            a, b = module.seeded_bits((seed, m, k, t), m, 2)
            totals.append(multiply(BitNum(a), BitNum(b), m, k)[1].total)
        assert measure_mean(m, k, trials, seed) == _mean_stderr(totals), \
            (m, k)


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
    (np.uint64(7), (7,)), ([2**200 + 5], (2**200 + 5,)),
    ([1, 2**1000 - 1, 3], (1, 2**1000 - 1, 3)), (2**4096 - 7, (2**4096 - 7,)),
], ids=["none", "str", "bytes", "nested", "str-entry", "float-entry",
        "dict", "set", "negative-entry", "range", "ndarray", "numpy-int",
        "200-bit-entry", "1000-bit-middle-entry", "4096-bit-int"])
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


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                         ids=[g.__name__ for g in BIT_GENERATORS])
def test_bernoulli_bits_same_on_both_lanes(corec, bit_generator):
    # the compiled lane calls the capsule's next_double, which on every bit
    # generator is the double Generator.random draws
    for b in (0, 1, 63, 64, 65, 256, 1023, 4096):
        for delta in (0.0, 5e-324, 0.2, 0.5, np.nextafter(1.0, 0.0), 1.0):
            ours = np.random.Generator(bit_generator([b, 7]))
            ref = np.random.Generator(bit_generator([b, 7]))
            value = corec.bernoulli_bits(ours, b, delta)
            assert value == _corepy.bernoulli_bits(ref, b, delta), (b, delta)
            assert value.bit_length() <= b
            assert np.array_equal(ours.bit_generator.random_raw(4),
                                  ref.bit_generator.random_raw(4)), (b, delta)


def test_bernoulli_bits_compare_with_float_delta(corec):
    # a delta finer than a double lies between the first draw u and the next
    # double above it; numpy alone would compare u < delta exactly, and set
    # the bit
    u = np.random.default_rng(1).random()
    for delta in (np.longdouble(u) + np.longdouble(2) ** -60,
                  Fraction(u) + Fraction(1, 2**60)):
        for lane in (corec, _corepy):
            assert lane.bernoulli_bits(np.random.default_rng(1), 1, delta) \
                == 0, (lane, delta)


@pytest.mark.parametrize("rng", [
    np.random.RandomState(1), np.random.PCG64(1), None, 1,
    [np.random.default_rng(1)]],
    ids=["random-state", "bit-generator", "none", "int", "list"])
def test_bernoulli_bits_take_a_generator_only(corec, rng):
    messages = set()
    for lane in (corec, _corepy):
        with pytest.raises(TypeError) as info:
            lane.bernoulli_bits(rng, 8, 0.5)
        messages.add(str(info.value))
    assert messages == {"rng must be a numpy.random.Generator, got "
                        f"{type(rng).__name__}"}


@pytest.mark.parametrize("lane", ["compiled", "pure"])
def test_bernoulli_block_holds_the_bit_generator_lock(lane, request,
                                                      monkeypatch):
    bits = request.getfixturevalue("corec").bernoulli_bits \
        if lane == "compiled" else _corepy.bernoulli_bits
    monkeypatch.setattr(_kernel, "bernoulli_bits", bits)
    rng = np.random.default_rng(42)
    out = []
    drawer = threading.Thread(
        target=lambda: out.append(bernoulli_block(256, 0.3, rng)))
    with rng.bit_generator.lock:
        drawer.start()
        drawer.join(0.2)
        assert drawer.is_alive()
    drawer.join(30)
    assert not drawer.is_alive()
    assert out[0].to_int() == \
        _corepy.bernoulli_bits(np.random.default_rng(42), 256, 0.3)
