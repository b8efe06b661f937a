"""The compiled kernel lane against the pure one.

The corec fixture (conftest.py) builds the extension from
src/opfold/_corec.c into a temporary directory and loads it from there, so
these tests check the C source whether or not a built copy sits in src/.
They skip only when the build itself fails.
"""

import contextlib
import datetime
import random
import signal
import sys
import threading
import time
import tracemalloc
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


def test_lanes_agree_across_the_wide_threshold(corec):
    # a fold whose copies of A, la + 1 lanes each, hold WIDE_LANES lanes
    # or more runs the wide fold routine, a narrower one the baseline
    # routine. m = 32 * la is the widest m of la limbs and 32 * la - 31 the
    # narrowest; every operand has bit m - 1 set, so A has la limbs
    assert corec.SIMD in ("avx512f", "avx2", "baseline")
    rng = random.Random(449)
    for lanes in (corec.WIDE_LANES - 1, corec.WIDE_LANES,
                  corec.WIDE_LANES + 1):
        for m in (32 * (lanes - 1) - 31, 32 * (lanes - 1)):
            top = 1 << (m - 1)
            ones = (1 << m) - 1
            for k in range(1, 11):
                n = -(-m // k)
                # one set bit at the bottom and at the top of each part
                sparse = sum({1 << bit for j in range(k) if j * n < m
                              for bit in (j * n, min(j * n + n, m) - 1)})
                for a, b in ((ones, ones), (sparse, sparse), (ones, sparse),
                             (top | rng.getrandbits(m), rng.getrandbits(m))):
                    _check(corec, a, b, m, k)
                assert corec.fold_trials(m, m, k, 2) == \
                    _corepy.fold_trials(m, m, k, 2), (m, k)


def test_kernel_reason_names_the_wide_loops():
    if _kernel.KERNEL_NAME == "compiled":
        from opfold import _corec
        assert _kernel.KERNEL_REASON.endswith(f", {_corec.SIMD} loops")


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
# object comes back; a rebuilt multiplicand drops the kept multiplier too.
# Every call below is checked against the pure lane, which keeps nothing.

def test_kept_operand_serves_every_shape(corec):
    # one a across every (m, k) with a fresh b, then one b with a fresh a
    # of changing width, which moves b's region; k falls and rises, so n,
    # and the copies its columns read, change while the kept a's 32 copies
    # stay as built
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


def test_fold_past_the_kept_region_takes_a_traced_buffer(corec):
    # at k = 1 with full-width operands a fold needs 1,048,274 bytes at
    # m = 104,800, inside the kept 1 MiB region, and 1,048,590 at
    # m = 104,801, which it takes from PyMem_Calloc, so tracemalloc sees
    # it, and frees before it returns. The small pair, the same objects
    # each time, is kept between the big folds
    small_a, small_b = (1 << 100) - 3, (1 << 99) + 5
    small = _corepy.fold_multiply(small_a, small_b, 100, 3)
    cases = [(m, (1 << m) - 1, 1 | 1 << (m - 1)) for m in (104_800, 104_801)]
    expected = [_corepy.fold_multiply(a, b, m, 1) for m, a, b in cases]
    results, rises = [], []
    tracemalloc.start()
    try:
        for m, a, b in cases:
            results.append(corec.fold_multiply(small_a, small_b, 100, 3))
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results.append(corec.fold_multiply(a, b, m, 1))
            current, peak = tracemalloc.get_traced_memory()
            rises.append((peak - before, current - before))
            results.append(corec.fold_multiply(small_a, small_b, 100, 3))
    finally:
        tracemalloc.stop()
    assert results == [small, expected[0], small, small, expected[1], small]
    (kept_peak, _), (own_peak, own_left) = rises
    assert kept_peak < 256 << 10
    assert own_peak >= 1 << 20
    assert own_left < 64 << 10


def test_fold_in_its_own_buffer_keeps_neither_operand(corec):
    # a fold over 1 MiB leaves the kept region, and the kept pair's copies
    # in it, as they were, so its own operands must not pass for kept
    kept_a, kept_b = (1 << 100) - 3, (1 << 99) + 5
    other_a, other_b = (1 << 100) - 77, (1 << 98) + 9
    _check(corec, kept_a, kept_b, 100, 3)
    _check(corec, other_a, other_b, 100, 15)
    _check(corec, other_a, other_b, 100, 3)
    _check(corec, kept_a, kept_b, 100, 3)


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
    # fold_trials' seed is the one entropy entry the C stream reads, an
    # int and never a sequence; then the shape its k and m must fit
    ("fold_trials", ((1,), 8, 2, 1), TypeError),
    ("fold_trials", (None, 8, 2, 1), TypeError),
    ("fold_trials", (-(1 << 100), 8, 2, 1), ValueError),
    ("fold_trials", (1, 8, 2.0, 1), TypeError),
    ("fold_trials", (1, 8, 1 << 63, 1), OverflowError),
    ("fold_trials", (1, 8, 0, 1), ValueError),
    ("fold_trials", (1, -1, 2, 1), ValueError),
    ("fold_trials", (1, 1 << 32, 2, 1), ValueError),
    ("bernoulli_bits", (), TypeError),
    ("bernoulli_bits", (RNG, 8), TypeError),
    ("bernoulli_bits", (RNG, 8, 0.5, 0), TypeError),
    ("bernoulli_bits", (RNG, 8, None), TypeError),
    ("bernoulli_bits", (RNG, 8, "x"), ValueError),
    ("bernoulli_bits", (RNG, 8.0, 0.5), TypeError),
    ("bernoulli_bits", (RNG, 1 << 63, 0.5), OverflowError),
    ("fold_trials", (), TypeError),
    ("fold_trials", (1, 8, 2), TypeError),
    ("fold_trials", (1, 8, 2, 1, 0), TypeError),
    ("fold_trials", (1.0, 8, 2, 1), TypeError),
    ("fold_trials", ("1", 8, 2, 1), TypeError),
    ("fold_trials", (1, 8.0, 2, 1), TypeError),
    ("fold_trials", (1, 8, 2, 1.0), TypeError),
    ("fold_trials", (1, 1 << 63, 2, 1), OverflowError),
    ("fold_trials", (1, 8, 2, 1 << 63), OverflowError),
    ("fold_trials", (-1, 8, 2, 1), ValueError),
    ("fold_trials", (1, 8, 2, -1), ValueError),
    ("fold_trials", (1, 0, 2, 1), ValueError),
    ("fold_trials", (1, 8, K_CEILING + 1, 1), ValueError),
    ("bernoulli_bits", (RNG, -1, 0.5), ValueError),
], ids=lambda x: x if isinstance(x, str) else None)
def test_entry_points_refuse_as_the_tuple_parser_did(corec, name, args,
                                                     error):
    # the exception types PyArg_ParseTuple raised for these before the
    # entry points took their arguments by vectorcall; fold_trials, which
    # never had a tuple parser, follows them
    args = tuple(np.random.default_rng(1) if x is RNG else x for x in args)
    with pytest.raises(error):
        getattr(corec, name)(*args)


@pytest.mark.parametrize("lane", ["compiled", "pure"])
def test_lanes_refuse_a_negative_count_alike(lane, request):
    module = request.getfixturevalue("corec") if lane == "compiled" \
        else _corepy
    with pytest.raises(ValueError, match=r"^b must be >= 0, got -1$"):
        module.bernoulli_bits(np.random.default_rng(1), -1, 0.5)
    with pytest.raises(ValueError, match=r"^trials must be >= 0, got -1$"):
        module.fold_trials(1, 8, 2, -1)


def test_entry_points_take_bools_and_numpy_ints(corec):
    # True is an int, and numpy ints pass through __index__, as before;
    # keywords are refused, as before
    assert corec.fold_multiply(True, True, np.int64(8), np.int32(2)) == \
        corec.fold_multiply(1, 1, 8, 2) == (1, 1, 2, 1, 5, 1)
    assert corec.fold_multiply(True, False, True, True) == (0, 0, 0, 0, 1, 0)
    for b in (np.int64(100), np.uint8(100)):
        assert corec.bernoulli_bits(np.random.default_rng(3), b, 0.5) == \
            corec.bernoulli_bits(np.random.default_rng(3), 100, 0.5)
    assert corec.bernoulli_bits(np.random.default_rng(3), True, 1.0) == 1
    assert corec.fold_trials(np.uint8(3), np.int64(64), np.int32(2),
                             np.int16(3)) == corec.fold_trials(3, 64, 2, 3)
    assert corec.fold_trials(True, True, True, True) == \
        corec.fold_trials(1, 1, 1, 1)
    for name in ("fold_multiply", "fold_trials", "bernoulli_bits"):
        with pytest.raises(TypeError, match="keyword"):
            getattr(corec, name)(m=8)


def _numpy_bits(entropy, m, count):
    """count m-bit values from a fresh default_rng(entropy), cut here from
    Generator.bytes: each value takes whole uint32 words, lowest first."""
    stride = 4 * -(-m // 32)
    data = np.random.default_rng(list(entropy)).bytes(count * stride)
    return tuple(int.from_bytes(data[i:i + stride], "little") % (1 << m)
                 for i in range(0, count * stride, stride))


def test_seeded_bits_match_numpy_stream():
    # the one seeded route, on both lanes, against the values cut here
    for m in (*range(1, 301), 1024):
        for count in (1, 2, 3):
            entropy = (20111, m, 5, count)
            assert _kernel.seeded_bits(entropy, m, count) == \
                _numpy_bits(entropy, m, count), m


def test_fold_trials_draws_the_numpy_stream(corec):
    # the C stream against the pure lane's draws through numpy. A seed
    # over 32 bits takes more than one word, so with m, k and t the
    # entropy outgrows the 4-word pool; the fifth figure, the products mod
    # 2**32 - 1, checks both operands of every trial
    rng = random.Random(2014)
    longer_than_pool = 0
    for _ in range(500):
        seed = rng.getrandbits(rng.randint(0, 100))
        m = rng.randint(1, 1100)
        k, trials = rng.randint(1, min(m, 10)), rng.randint(1, 3)
        longer_than_pool += seed >> 32 > 0
        assert corec.fold_trials(seed, m, k, trials) == \
            _corepy.fold_trials(seed, m, k, trials), (seed, m, k, trials)
    assert longer_than_pool > 250
    # a seed past 128 bits is read through a heap buffer
    for seed in (2**200 + 5, 2**1000 - 1, 2**4096 - 7):
        assert corec.fold_trials(seed, 64, 3, 2) == \
            _corepy.fold_trials(seed, 64, 3, 2), seed


@pytest.mark.parametrize("entropy, m, count, error", [
    ((3, -1), 8, 1, ValueError), ((3, 1.0), 8, 1, TypeError),
    ((3,), -1, 1, ValueError), ((3,), 8, -1, ValueError), ((), 8, 2, None),
], ids=["negative-entry", "float-entry", "m-negative", "count-negative",
        "empty-entropy"])
def test_seeded_bits_edges_follow_numpy(entropy, m, count, error):
    # random_bitnums from entropy, which _kernel.seeded_bits draws, against
    # the same call on the Generator that entropy seeds
    if error is None:
        assert random_bitnums(m, entropy, count) == \
            random_bitnums(m, np.random.default_rng(entropy), count)
        return
    # the numpy route refuses the same input with the same exception type
    with pytest.raises(error):
        random_bitnums(m, np.random.default_rng(entropy), count)
    with pytest.raises(error):
        random_bitnums(m, entropy, count)


def test_seeded_bits_take_numpy_and_bare_int_entries():
    expected = _kernel.seeded_bits((5, 2), 64, 2)
    assert _kernel.seeded_bits((np.int64(5), np.uint32(2)), 64, 2) == expected
    assert _kernel.seeded_bits(5, 64, 2) == _kernel.seeded_bits((5,), 64, 2) \
        == _numpy_bits((5,), 64, 2)


def test_compiled_lane_exports_only_what_the_kernel_imports(corec):
    # a C entry point that _kernel does not take is code no caller runs;
    # the seeded draw is _corepy's on both lanes
    public = {name for name in dir(corec)
              if not name.startswith("_") and callable(getattr(corec, name))}
    assert public == {"fold_multiply", "fold_trials", "bernoulli_bits"}
    assert _kernel.seeded_bits is _corepy.seeded_bits


def test_measure_mean_same_on_both_lanes(corec, monkeypatch):
    def means(lane):
        monkeypatch.setattr(_kernel, "fold_multiply", lane.fold_multiply)
        monkeypatch.setattr(_kernel, "fold_trials", lane.fold_trials)
        return ([measure_mean(m, k, 3, 7) for m in range(1, 65)
                 for k in range(1, 9)], measure_mean(1024, 5, 1000, 2))

    assert means(corec) == means(_corepy)


def _trial_sums(lane, seed, m, k, trials):
    """fold_trials' 5-tuple, summed here one trial at a time from the
    lane's fold_multiply counts and the native product's residue"""
    sums = [0, 0, 0, 0, 0]
    for t in range(trials):
        a, b = _corepy.seeded_bits((seed, m, k, t), m, 2)
        _, acc, comb, horner, _, _ = lane.fold_multiply(a, b, m, k)
        sums[0] += acc
        sums[1] += comb
        sums[2] += horner
        sums[3] += (acc + comb + horner) ** 2
        sums[4] += a * b % 0xFFFFFFFF
    return tuple(sums)


def test_fold_trials_sums_the_per_trial_folds(corec):
    seeds = (0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) + 5)
    cases = [(seed, m, k, trials)
             for m in (1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 255, 1024, 4100)
             for k in range(1, min(m, 10) + 1)
             for seed in seeds for trials in (1, 3)]
    for seed, m, k, trials in [*cases, (2, 1024, 5, 1000)]:
        expected = corec.fold_trials(seed, m, k, trials)
        assert expected == _trial_sums(corec, seed, m, k, trials), \
            (seed, m, k, trials)
        assert _corepy.fold_trials(seed, m, k, trials) == expected == \
            _trial_sums(_corepy, seed, m, k, trials), (seed, m, k, trials)
    assert corec.fold_trials(5, 64, 3, 0) == \
        _corepy.fold_trials(5, 64, 3, 0) == (0, 0, 0, 0, 0)


def test_fold_trials_leaves_the_kept_operands(corec):
    # fold_trials folds in a buffer of its own, so the multiplicand and
    # multiplier fold_multiply keeps, each held by a reference, stay kept
    a, b = (1 << 300) - 12345, (1 << 299) + 977
    sums = _trial_sums(corec, 9, 300, 4, 3)
    first = corec.fold_multiply(a, b, 300, 4)
    assert first == _corepy.fold_multiply(a, b, 300, 4)
    kept = sys.getrefcount(a), sys.getrefcount(b)
    assert corec.fold_trials(9, 300, 4, 3) == sums
    assert (sys.getrefcount(a), sys.getrefcount(b)) == kept
    assert corec.fold_multiply(a, b, 300, 4) == first


def test_fold_trials_over_one_mib_then_small(corec):
    # a 2**18-bit multiplicand's 32 copies take 2 MiB of fold_trials' own
    # buffer, twice what fold_multiply keeps between calls; at k = 1 a
    # trial's only adds are the multiplier's set bits
    m = 1 << 18
    pairs = [_corepy.seeded_bits((3, m, 1, t), m, 2) for t in range(2)]
    weights = [b.bit_count() for _, b in pairs]
    assert corec.fold_trials(3, m, 1, 2) == \
        (sum(weights), 0, 0, sum(w * w for w in weights),
         sum(a * b % 0xFFFFFFFF for a, b in pairs))
    small_a, small_b = (1 << 100) - 3, (1 << 99) + 5
    _check(corec, small_a, small_b, 100, 3)
    assert corec.fold_trials(4, 100, 3, 2) == _corepy.fold_trials(4, 100, 3, 2)
    _check(corec, small_a, small_b, 100, 3)


@contextlib.contextmanager
def _on_alarm(handler, seconds, interval=0.0):
    """Run handler on SIGALRM, which fires after seconds and then every
    interval, until the block ends"""
    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds, interval)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_fold_trials_stops_on_a_signal(corec):
    class Stop(Exception):
        pass

    def stop(signum, frame):
        raise Stop

    start = time.monotonic()
    with _on_alarm(stop, 0.05), pytest.raises(Stop):
        corec.fold_trials(1, 1024, 5, 10**9)
    assert time.monotonic() - start < 5
    assert corec.fold_trials(1, 1024, 5, 3) == \
        _corepy.fold_trials(1, 1024, 5, 3)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_fold_trials_survives_a_handler_that_folds(corec):
    # a handler runs between trials and keeps operands of its own in
    # fold_multiply's buffer, which fold_trials does not share; every trial
    # still draws and folds its own pair, so the sums are those of a call no
    # handler interrupts
    a, b = (1 << 1000) - 7, (1 << 999) + 3
    seen = []

    def fold(signum, frame):
        seen.append(corec.fold_multiply(a, b, 1000, 5))

    with _on_alarm(fold, 0.001, 0.001):
        got = corec.fold_trials(6, 1024, 5, 20000)
    assert seen and set(seen) == {_corepy.fold_multiply(a, b, 1000, 5)}
    assert got == corec.fold_trials(6, 1024, 5, 20000)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_fold_trials_frees_its_buffer_on_a_signal(corec):
    # the buffer comes from PyMem_Malloc, so tracemalloc sees it; 20 calls
    # stopped mid-point would hold ~2 MB if the signal path kept it
    class Stop(Exception):
        pass

    def stop(signum, frame):
        raise Stop

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            with _on_alarm(stop, 0.005), pytest.raises(Stop):
                corec.fold_trials(1, 4096, 6, 10**9)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 << 10


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
    monkeypatch.setattr(_kernel, "fold_trials", module.fold_trials)
    shapes = [(m, k, 3, 7) for m in range(1, 65) for k in range(1, 9)]
    for m, k, trials, seed in [*shapes, (1024, 5, 200, 2)]:
        totals = []
        for t in range(trials):
            a, b = _corepy.seeded_bits((seed, m, k, t), m, 2)
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
def test_lanes_accept_the_same_entropy(entropy, expected):
    # expected: the exception type the seeded draw raises, or the entries
    # it reads the entropy as; both lanes draw through _corepy's
    if isinstance(expected, type):
        with pytest.raises(expected):
            _kernel.seeded_bits(entropy, 64, 2)
    else:
        assert _kernel.seeded_bits(entropy, 64, 2) == \
            _numpy_bits(expected, 64, 2)


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
