"""BitNum agrees with native big-integer arithmetic and formatting."""

import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opfold.bitnum import BitNum, UnderflowError, random_bitnum, random_bitnums

values = st.integers(min_value=0, max_value=(1 << 4096) - 1)
small = st.integers(min_value=0, max_value=(1 << 256) - 1)


@given(values, values)
@example(0, 0)
@example(0b101, 0b011)
def test_add_matches_oracle(x, y):
    got = BitNum(x) + BitNum(y)
    assert got.to_int() == x + y


def test_add_small_cases():
    assert (BitNum(0) + BitNum(9)).to_int() == 9
    assert (BitNum(0b101) + BitNum(0b011)).to_int() == 0b1000


@given(values, values)
@example(5, 5)
@example(0b1000, 0b011)
def test_sub_matches_oracle(x, y):
    hi, lo = max(x, y), min(x, y)
    got = BitNum(hi) - BitNum(lo)
    assert got.to_int() == hi - lo


@given(values, values)
def test_sub_underflow(x, y):
    hi, lo = max(x, y), min(x, y)
    if hi == lo:
        assert (BitNum(hi) - BitNum(lo)).to_int() == 0
    else:
        with pytest.raises(UnderflowError):
            BitNum(lo) - BitNum(hi)


@given(values, st.integers(min_value=0, max_value=300))
@example(1, 5)
@example(0, 100)
def test_shl_matches_oracle(x, s):
    got = BitNum(x) << s
    assert got.to_int() == x << s
    if x:
        assert got.bit_length() == BitNum(x).bit_length() + s
    assert got.weight() == BitNum(x).weight()


def test_shl_small_cases():
    assert (BitNum(7) << 0).to_int() == 7
    with pytest.raises(ValueError):
        BitNum(7) << -1
    assert (BitNum(1) << 5).to_int() == 0b100000
    toy = BitNum(0b101010100011)
    assert (toy << 6).to_bin() == "0b101010100011000000"


@given(values, values, values)
def test_add_commutative_associative(x, y, z):
    a, b, c = BitNum(x), BitNum(y), BitNum(z)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


def test_oracle_corpus_10k():
    # bulk agreement with the native big-integer oracle, lengths 0..4096
    rng = random.Random(12345)
    for _ in range(10_000):
        bits = rng.randrange(0, 4097)
        x = rng.getrandbits(bits) if bits else 0
        y = rng.getrandbits(bits) if bits else 0
        s = rng.randrange(0, 200)
        a, b = BitNum(x), BitNum(y)
        total = a + b
        assert total.to_int() == x + y
        hi, lo = (a, b) if x >= y else (b, a)
        diff = hi - lo
        assert diff.to_int() == abs(x - y)
        shifted = a << s
        assert shifted.to_int() == x << s


@given(values)
def test_weight_matches_oracle(x):
    assert BitNum(x).weight() == bin(x).count("1")


def test_weight_examples():
    assert BitNum(0).weight() == 0
    assert BitNum(0b101010100011).weight() == 6


def test_weight_mean_1024():
    # 10 000 uniform 1024-bit draws: mean within 0.48 of 512
    total = 0
    for t in range(10_000):
        rng = np.random.default_rng([0, 1024, t])
        total += random_bitnum(1024, rng).weight()
    assert abs(total / 10_000 - 512.0) <= 0.48


@given(values, st.integers(min_value=0, max_value=5000))
def test_bit_addressing(x, i):
    assert BitNum(x).bit(i) == (x >> i) & 1


def test_bit_beyond_length_is_zero():
    v = BitNum(0b101)
    assert v.bit_length() == 3
    assert v.bit(3) == 0
    assert v.bit(4096) == 0
    assert BitNum(0).bit_length() == 0
    assert BitNum(0).bit(0) == 0
    with pytest.raises(IndexError):
        v.bit(-1)


@given(values)
def test_parse_format_roundtrip(x):
    v = BitNum(x)
    assert BitNum.parse(v.to_bin()).to_int() == x
    assert BitNum.parse(v.to_hex()).to_int() == x
    assert BitNum.parse(v.to_dec()).to_int() == x


def test_parse_forms():
    assert BitNum.parse("0b101").to_int() == 5
    assert BitNum.parse("0x2F").to_int() == 47
    assert BitNum.parse(" 37 ").to_int() == 37
    assert BitNum.parse("0b0").to_int() == 0
    with pytest.raises(ValueError):
        BitNum.parse("-5")
    with pytest.raises(ValueError):
        BitNum(-1)
    with pytest.raises(TypeError):
        BitNum(1.5)
    assert BitNum(BitNum(5)) == BitNum(5)


def test_comparisons_and_hash():
    assert BitNum(3) < BitNum(10)
    assert BitNum(10) >= BitNum(10)
    assert BitNum(7) == BitNum(7)
    assert BitNum(2) > BitNum(1)
    assert (BitNum(1) == 1) is False
    assert hash(BitNum(7)) == hash(BitNum(7))
    assert bool(BitNum(0)) is False and bool(BitNum(2)) is True


@pytest.mark.parametrize("op", [operator.lt, operator.le,
                                operator.gt, operator.ge])
@pytest.mark.parametrize("other", [2, 2.0, "2", None])
def test_ordering_against_other_types_raises_type_error(op, other):
    with pytest.raises(TypeError):
        op(BitNum(1), other)
    with pytest.raises(TypeError):
        op(other, BitNum(1))


@given(values, values)
@example(0, 0)
def test_xor_matches_oracle(x, y):
    assert (BitNum(x) ^ BitNum(y)).to_int() == x ^ y


def test_xor_with_non_bitnum_raises_type_error():
    # and the other binary operators, which take a BitNum only too
    for op in (operator.xor, operator.add, operator.sub, operator.and_,
               operator.or_):
        with pytest.raises(TypeError):
            op(BitNum(5), 3)


@given(values)
def test_int_roundtrip(x):
    assert int(BitNum(x)) == x
    assert BitNum(int(BitNum(x))) == BitNum(x)


def test_repr_is_binary():
    assert repr(BitNum(0b1011)) == "BitNum(0b1011)"
    assert repr(BitNum(0)) == "BitNum(0b0)"


def test_random_bitnum_deterministic():
    assert random_bitnum(64, 99) == random_bitnum(64, 99)
    assert random_bitnum(0, 1) == BitNum(0)
    for m in (1, 7, 31, 64, 1000):
        assert random_bitnum(m, 5).bit_length() <= m


@pytest.mark.parametrize("m", [1, 7, 8, 31, 33, 1000, 1024])
def test_random_bitnums_pair_equals_two_random_bitnum_calls(m):
    for t in range(20):
        rng_one = np.random.default_rng([3, m, t])
        first = random_bitnum(m, rng_one)
        second = random_bitnum(m, rng_one)
        rng_pair = np.random.default_rng([3, m, t])
        assert random_bitnums(m, rng_pair, 2) == (first, second)
        # entropy in place of a Generator draws from a fresh one
        assert random_bitnums(m, [3, m, t], 2) == (first, second)
        # the generator is left where the two single draws leave it
        assert rng_pair.integers(1 << 62) == rng_one.integers(1 << 62)
        # and both match one Generator.bytes call per value
        rng_bytes = np.random.default_rng([3, m, t])
        assert (first, second) == tuple(
            BitNum(int.from_bytes(rng_bytes.bytes((m + 7) // 8), "little")
                   & ((1 << m) - 1)) for _ in range(2))
    assert random_bitnums(0, 1, 2) == (BitNum(0), BitNum(0))


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_bitnum_seed_separation(seed):
    assert random_bitnum(64, seed).bit_length() <= 64


def test_random_bitnum_per_bit_frequency():
    # every position of a 64-bit draw is close to fair over 10 000 draws
    counts = [0] * 64
    for t in range(10_000):
        rng = np.random.default_rng([0, 64, t])
        v = random_bitnum(64, rng)
        for i in range(64):
            counts[i] += v.bit(i)
    freqs = [c / 10_000 for c in counts]
    assert min(freqs) >= 0.47
    assert max(freqs) <= 0.53
