"""The compiled kernel lane against the pure one.

The corec fixture (conftest.py) builds the extension from
src/opfold/_corec.c into a temporary directory and loads it from there, so
these tests check the C source whether or not a built copy sits in src/.
They skip only when the build itself fails.
"""

import datetime
import random
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from opfold import _corepy, _kernel, baselines
from opfold.bitnum import BitNum, random_bitnums
from opfold.costmodel import measure_mean
from opfold.density import bernoulli_block
from opfold.folding import K_CEILING, multiply

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


def _equal_parts(rng):
    # k equal parts: every set column lands in cell 2**k - 1
    for k in range(2, 9):
        for n in (1, 7, 32, 33, 70):
            part = rng.getrandbits(n) | 1
            b = sum(part << j * n for j in range(k))
            yield rng.getrandbits(k * n) | 1, b, k * n, k, part


def _one_part(rng):
    # one nonzero part: the other k - 1 part cells stay unfilled
    for k in range(1, 13):
        for m in (k, 40, 129, 300):
            n = -(-m // k)
            for j in {0, (m - 1) // n, rng.randrange(-(-m // n))}:
                part = rng.getrandbits(min(n, m - j * n)) | 1
                yield (1 << m) - 1, part << j * n, m, k, part


def _zero_multiplicand(rng):
    # B all ones fills every cell, with zeros
    for k in range(1, 13):
        for m in (k, 64, 300):
            yield 0, (1 << m) - 1, m, k, 0


@pytest.mark.parametrize("cases", [_equal_parts, _one_part,
                                   _zero_multiplicand],
                         ids=["equal-parts", "one-part", "zero-multiplicand"])
def test_peak_is_the_widest_part_product(corec, cases):
    # part is the one value every nonzero part holds, so the widest part
    # product is a * part
    for a, b, m, k, part in cases(random.Random(1113)):
        result = corec.fold_multiply(a, b, m, k)
        assert result == _corepy.fold_multiply(a, b, m, k), (a, b, m, k)
        assert result[5] == (a * part).bit_length(), (a, b, m, k)


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


# The compiled lane keeps the last multiplicand's shifted copies and the
# last multiplier's bytes between calls, and reuses them when the same int
# object comes back. Every call below is checked against the pure lane,
# which keeps nothing.

def test_kept_operand_serves_every_shape(corec):
    # one a across every (m, k) with a fresh b, then one b with a fresh a
    # of changing width; k falls and rises, so n, and the copies needed,
    # grow past those already built
    rng = random.Random(23)
    kept = rng.getrandbits(40) | 1 << 39
    for m in (40, 41, 64, 100, 257, 1000):
        for k in (12, 8, 3, 1, 5, 10, 2):
            _check(corec, kept, rng.getrandbits(m), m, k)
            _check(corec, rng.getrandbits(rng.randint(1, m)), kept, m, k)
            _check(corec, kept, kept, m, k)


def test_alternating_multiplicands(corec):
    rng = random.Random(2)
    b = rng.getrandbits(300)
    for a, other in ((rng.getrandbits(300), rng.getrandbits(300)),
                     (rng.getrandbits(300), rng.getrandbits(20)),
                     (0, rng.getrandbits(299))):
        for k in (1, 5, 8, 1):
            _check(corec, a, b, 300, k)
            _check(corec, other, b, 300, k)


def test_equal_but_distinct_operand(corec):
    a, b = (1 << 500) - 12345, (1 << 499) + 977
    for x in (a, b):
        twin = int.from_bytes(x.to_bytes(63, "little"), "little")
        assert twin == x and twin is not x
        for k in (1, 4):
            _check(corec, a, b, 500, k)
            _check(corec, twin, b, 500, k)
            _check(corec, a, twin, 500, k)


@pytest.mark.parametrize("refused", [
    (1 << 200, 3, 200, 4), (5, 1 << 200, 200, 4), (5, 3, 200, 0)],
    ids=["wide-a", "wide-b", "k-zero"])
def test_refused_call_between_two_hits(corec, refused):
    a, b = (1 << 200) - 1, (1 << 200) - 7
    _check(corec, a, b, 200, 4)
    with pytest.raises(ValueError):
        corec.fold_multiply(*refused)
    _check(corec, a, b, 200, 4)
    _check(corec, a, b, 200, 3)


def test_call_over_one_mib_then_small(corec):
    # a 2**18-bit multiplicand's 32 copies take 2 MiB, so the call drops
    # both kept operands and frees its buffer; a sparse multiplier keeps
    # the pure lane quick
    m = 1 << 18
    big, sparse = (1 << m) - 1, 1 | 1 << (m - 1)
    small_a, small_b = (1 << 100) - 3, (1 << 99) + 5
    _check(corec, small_a, small_b, 100, 3)
    for k in (1, 8):
        _check(corec, big, sparse, m, k)
        _check(corec, small_a, small_b, 100, 3)
        _check(corec, big, small_b, m, k)
    _check(corec, sparse, small_b, m, 1)
    _check(corec, small_a, sparse, m, 8)
    # kept operands, then a bank over 1 MiB at k = 15 on the same objects
    _check(corec, small_a, small_b, 100, 3)
    _check(corec, small_a, small_b, 100, 15)
    _check(corec, small_a, small_b, 100, 3)


def test_int_subclass_operand_is_not_kept(corec):
    # a kept operand is released inside a later call; an int subclass's
    # __del__ could then run the kernel on the buffer in use, so only exact
    # ints are kept, and this one is dropped as soon as its call returns
    results = []

    class Dying(int):
        def __del__(self):
            results.append(corec.fold_multiply(7, 5, 8, 2))

    a, b = (1 << 200) - 3, (1 << 199) + 11
    assert corec.fold_multiply(Dying(a), b, 200, 4) == \
        _corepy.fold_multiply(a, b, 200, 4)
    assert results == [_corepy.fold_multiply(7, 5, 8, 2)]
    assert corec.fold_multiply(a, Dying(b), 200, 4) == \
        _corepy.fold_multiply(a, b, 200, 4)
    assert len(results) == 2
    _check(corec, b, a, 200, 4)
    _check(corec, a, b, 200, 4)


def _nonzero_columns(b, m, k):
    n = -(-m // k)
    cols = 0
    for j in range(k):
        cols |= b >> (j * n) & (1 << n) - 1
    return cols.bit_count()


def test_oracle_sequence_on_kept_operands(corec, monkeypatch):
    # criterion 1's calls for one pair: k = 1..8, then both baselines,
    # which reuse a throughout and b up to the signed-digit masks
    monkeypatch.setattr(_kernel, "fold_multiply", corec.fold_multiply)
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(8, 256)
        a, b = rng.getrandbits(m), rng.getrandbits(m)
        A, B = BitNum(a), BitNum(b)
        for k in range(1, 9):
            product, ledger = multiply(A, B, m, k)
            n = -(-m // k)
            assert product.to_int() == a * b, (a, b, m, k)
            assert (ledger.accumulate_adds, ledger.combine_adds,
                    ledger.horner_adds, ledger.shifts) == \
                (_nonzero_columns(b, m, k), (1 << k + 1) - 2 * k - 2, k - 1,
                 n + k - 1), (a, b, m, k)
            assert (a * b, *vars(ledger).values()) == \
                _corepy.fold_multiply(a, b, m, k), (a, b, m, k)
        product, count = baselines.classical_multiply(A, B)
        assert (product.to_int(), count) == (a * b, b.bit_count())
        product, count = baselines.csd_multiply(A, B)
        assert (product.to_int(), count) == \
            (a * b, (b + (b >> 1) ^ b >> 1).bit_count())


RNG = object()  # stands for a fresh numpy Generator in the rows below


@pytest.mark.parametrize("name, args, error", [
    ("fold_multiply", (), TypeError),
    ("fold_multiply", (1, 1, 8), TypeError),
    ("fold_multiply", (1, 1, 8, 2, 0), TypeError),
    ("fold_multiply", (1.0, 1, 8, 2), TypeError),
    ("fold_multiply", (1, "1", 8, 2), TypeError),
    ("fold_multiply", (1, 1, 8.0, 2), TypeError),
    ("fold_multiply", (1, 1, 8, 2.0), TypeError),
    ("fold_multiply", (1, 1, 1 << 63, 2), OverflowError),
    ("fold_multiply", (1, 1, 8, 1 << 63), OverflowError),
    ("seeded_bits", (), TypeError),
    ("seeded_bits", ((1,), 8), TypeError),
    ("seeded_bits", ((1,), 8, 1, 0), TypeError),
    ("seeded_bits", (1.0, 8, 1), TypeError),
    ("seeded_bits", ("1", 8, 1), TypeError),
    ("seeded_bits", ((1,), 8.0, 1), TypeError),
    ("seeded_bits", ((1,), 8, 1.0), TypeError),
    ("seeded_bits", ((1,), 1 << 63, 1), OverflowError),
    ("bernoulli_bits", (), TypeError),
    ("bernoulli_bits", (RNG, 8), TypeError),
    ("bernoulli_bits", (RNG, 8, 0.5, 0), TypeError),
    ("bernoulli_bits", (RNG, 8, None), TypeError),
    ("bernoulli_bits", (RNG, 8, "x"), ValueError),
    ("bernoulli_bits", (RNG, 8.0, 0.5), TypeError),
    ("bernoulli_bits", (RNG, 1 << 63, 0.5), OverflowError),
], ids=lambda x: x if isinstance(x, str) else None)
def test_entry_points_refuse_as_the_tuple_parser_did(corec, name, args,
                                                     error):
    # the exception types PyArg_ParseTuple raised for these before the
    # entry points took their arguments by vectorcall
    args = tuple(np.random.default_rng(1) if x is RNG else x for x in args)
    with pytest.raises(error):
        getattr(corec, name)(*args)


def test_entry_points_take_bools_and_numpy_ints(corec):
    # True is an int, and numpy ints pass through __index__, as before;
    # keywords are refused, as before
    assert corec.fold_multiply(True, True, np.int64(8), np.int32(2)) == \
        corec.fold_multiply(1, 1, 8, 2) == (1, 1, 2, 1, 5, 1)
    assert corec.fold_multiply(True, False, True, True) == (0, 0, 0, 0, 1, 0)
    assert corec.seeded_bits((1,), np.int64(64), np.int32(2)) == \
        corec.seeded_bits((1,), 64, 2)
    assert corec.seeded_bits(True, 64, True) == corec.seeded_bits((1,), 64, 1)
    for b in (np.int64(100), np.uint8(100)):
        assert corec.bernoulli_bits(np.random.default_rng(3), b, 0.5) == \
            corec.bernoulli_bits(np.random.default_rng(3), 100, 0.5)
    assert corec.bernoulli_bits(np.random.default_rng(3), True, 1.0) == 1
    for name in ("fold_multiply", "seeded_bits", "bernoulli_bits"):
        with pytest.raises(TypeError, match="keyword"):
            getattr(corec, name)(m=8)


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
def test_bernoulli_bits_take_a_generator_only(rng, request, monkeypatch):
    # bernoulli_block is the one Generator check for both lanes, so with
    # either lane behind it the refusal and its message are the same, and
    # no lane is reached: a RandomState is left as it was
    state = rng.get_state()[1].copy() \
        if isinstance(rng, np.random.RandomState) else None
    messages = set()
    for bits in (request.getfixturevalue("corec").bernoulli_bits,
                 _corepy.bernoulli_bits):
        monkeypatch.setattr(_kernel, "bernoulli_bits", bits)
        with pytest.raises(TypeError) as info:
            bernoulli_block(8, 0.5, rng)
        messages.add(str(info.value))
    assert messages == {"rng must be a numpy.random.Generator, got "
                        f"{type(rng).__name__}"}
    if state is not None:
        assert np.array_equal(rng.get_state()[1], state)


def test_compiled_bernoulli_bits_draws_from_a_bit_generator_capsule_only(
        corec):
    # the lane leaves the Generator check to bernoulli_block; the capsule's
    # name is what keeps it from calling into any other capsule's pointer
    fake = SimpleNamespace(bit_generator=SimpleNamespace(
        capsule=datetime.datetime_CAPI, lock=threading.Lock()))
    with pytest.raises(ValueError):
        corec.bernoulli_bits(fake, 8, 0.5)
    assert not fake.bit_generator.lock.locked()
    with pytest.raises(AttributeError):
        corec.bernoulli_bits(np.random.PCG64(1), 8, 0.5)


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
