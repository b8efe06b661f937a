"""Classical and signed-digit baselines against integer oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opfold import _corepy, _kernel, costmodel
from opfold.bitnum import BitNum, UnderflowError, random_bitnum
from opfold.baselines import (
    SignedDigitString,
    classical_multiply,
    csd_multiply,
    csd_recode,
)
from opfold.folding import multiply as fold_multiply

TOY = BitNum(0b101010100011)

values = st.integers(min_value=0, max_value=(1 << 512) - 1)


def _min_signed_weight(v):
    """Fewest nonzero digits over all {-1,0,+1} radix-2 representations.

    w(0) = 0; even v costs w(v/2); odd v costs 1 plus the cheaper of
    clearing the low bit downward or upward.
    """
    memo = {0: 0, 1: 1}  # 1 maps to itself via the upward branch

    def w(x):
        if x in memo:
            return memo[x]
        if x % 2 == 0:
            r = w(x // 2)
        else:
            r = 1 + min(w((x - 1) // 2), w((x + 1) // 2))
        memo[x] = r
        return r

    return w(v)


# --- classical --------------------------------------------------------------

def test_classical_zero_multiplier():
    product, count = classical_multiply(BitNum(999), BitNum(0))
    assert product.is_zero() and count == 0


def test_classical_toy():
    product, count = classical_multiply(BitNum(1), TOY)
    assert product == TOY
    assert count == 6


@given(values, values)
def test_classical_oracle(x, y):
    product, count = classical_multiply(BitNum(x), BitNum(y))
    assert product.to_int() == x * y
    assert count == bin(y).count("1")


def test_classical_mean_count_1024():
    # 1000 trials, sample mean of weight(B) vs m/2 = 512; 3 sigma of the
    # sample mean is 3*16/sqrt(1000) = 1.52, gated with headroom at 1.6
    counts = []
    for t in range(1000):
        rng = np.random.default_rng([2, 1024, 1, t])
        random_bitnum(1024, rng)  # multiplicand slot of the paired stream
        b = random_bitnum(1024, rng)
        counts.append(classical_multiply(BitNum(1), b)[1])
    mean = float(np.mean(counts))
    assert abs(mean - 512) <= 1.6


# --- csd_recode ---------------------------------------------------------------

def test_recode_zero_is_empty():
    sd = csd_recode(BitNum(0))
    assert len(sd) == 0
    assert sd.nonzero_count() == 0
    assert sd.value() == BitNum(0)


def test_recode_seven():
    # 7 recodes as 8 - 1: digits LSB-first
    sd = csd_recode(BitNum(7))
    assert sd.digits == (-1, 0, 0, 1)
    assert sd.value() == BitNum(7)


@given(values)
def test_recode_roundtrip_and_shape(x):
    sd = csd_recode(BitNum(x))
    assert sd.value().to_int() == x
    assert len(sd) <= x.bit_length() + 1
    if sd.digits:
        assert sd.digits[-1] != 0


def test_recode_minimal_exhaustive():
    for v in range(4097):
        assert csd_recode(BitNum(v)).nonzero_count() == _min_signed_weight(v)


def test_recode_minimal_random_wide():
    rng = random.Random(2718)
    for _ in range(40):
        v = rng.getrandbits(rng.randrange(1, 257))
        assert csd_recode(BitNum(v)).nonzero_count() == _min_signed_weight(v)


def test_recode_mean_count_1024():
    counts = [
        csd_recode(random_bitnum(1024, [0, 1024, t])).nonzero_count()
        for t in range(1000)
    ]
    arr = np.asarray(counts, dtype=float)
    se = arr.std(ddof=1) / np.sqrt(len(arr))
    assert abs(arr.mean() - 1024 / 3) <= 3 * se


def test_digit_string_validation():
    SignedDigitString.from_digits(())
    SignedDigitString.from_digits((1, 0, -1))
    with pytest.raises(ValueError):
        SignedDigitString.from_digits((2,))
    with pytest.raises(ValueError):
        SignedDigitString.from_digits((1, 1))
    with pytest.raises(ValueError):
        SignedDigitString.from_digits((1, -1))
    with pytest.raises(ValueError):
        SignedDigitString.from_digits((1, 0))


def _loop_validate(digits):
    """The per-digit validator: None if accepted, else the error message."""
    for d in digits:
        if d not in (-1, 0, 1):
            return f"digit {d} outside {{-1, 0, +1}}"
    for lo, hi in zip(digits, digits[1:]):
        if lo != 0 and hi != 0:
            return "adjacent nonzero digits"
    if digits and digits[-1] == 0:
        return "leading zero digit"
    return None


def _loop_decode(digits):
    """The per-digit decode: +2**i per +1 digit, -2**i per -1 digit."""
    pos = sum(1 << i for i, d in enumerate(digits) if d == 1)
    neg = sum(1 << i for i, d in enumerate(digits) if d == -1)
    return pos - neg


def test_digit_strings_match_loops_exhaustive():
    # every tuple over {-2..2} of length <= 6: 19531 strings
    checked = 0
    for length in range(7):
        for digits in itertools.product(range(-2, 3), repeat=length):
            expected = _loop_validate(digits)
            try:
                sd = SignedDigitString.from_digits(digits)
            except ValueError as exc:
                assert str(exc) == expected, digits
                continue
            finally:
                checked += 1
            assert expected is None, digits
            assert sd.nonzero_count() == sum(1 for d in digits if d)
            value = _loop_decode(digits)
            if value < 0:
                with pytest.raises(UnderflowError):
                    sd.value()
            else:
                assert sd.value() == BitNum(value), digits
    assert checked == 19531
    with pytest.raises(UnderflowError):
        SignedDigitString.from_digits((-1,)).value()


def test_digit_masks_validation():
    for plus, minus in ((-1, 0), (0, -2), (1, 1)):
        with pytest.raises(ValueError,
                           match="^digit masks must be non-negative and"
                                 " disjoint$"):
            SignedDigitString(plus, minus)
    with pytest.raises(ValueError, match="^adjacent nonzero digits$"):
        SignedDigitString(3, 0)


def test_from_digits_roundtrip_seeded():
    rng = random.Random(300)
    for _ in range(2000):
        sd = csd_recode(BitNum(rng.getrandbits(rng.randrange(0, 301))))
        again = SignedDigitString.from_digits(sd.digits)
        assert again == sd
        assert hash(again) == hash(sd)


# --- csd_multiply ---------------------------------------------------------

def test_csd_multiply_zero():
    product, count = csd_multiply(BitNum(5), BitNum(0))
    assert product.is_zero() and count == 0


def test_csd_multiply_three_by_seven():
    product, count = csd_multiply(BitNum(3), BitNum(7))
    assert product == BitNum(21)
    assert count == 2


@given(values, values)
def test_csd_multiply_oracle(x, y):
    product, count = csd_multiply(BitNum(x), BitNum(y))
    assert product.to_int() == x * y
    assert count == csd_recode(BitNum(y)).nonzero_count()


# --- cross-multiplier agreement -----------------------------------------------

def test_all_multipliers_agree():
    rng = random.Random(31337)
    for _ in range(60):
        m = rng.randrange(1, 200)
        x, y = rng.getrandbits(m), rng.getrandbits(m)
        a, b = BitNum(x), BitNum(y)
        want = x * y
        assert classical_multiply(a, b)[0].to_int() == want
        assert csd_multiply(a, b)[0].to_int() == want
        for k in range(1, 7):
            assert fold_multiply(a, b, m, k)[0].to_int() == want


# --- kernels against the digit-by-digit schedules ------------------------------

FIXED_A = (0, 1, 3, 0xDEADBEEF, (1 << 200) - 1)


def _shift_loop(a, b):
    """Classical schedule one multiplier bit at a time: add a, shift a."""
    acc = adds = 0
    for bit in reversed(format(b, "b")):
        if bit == "1":
            acc += a
            adds += 1
        a <<= 1
    return acc, adds


def _carry_recode(b):
    """NAF digits by the per-bit carry recurrence, index 0 = LSB."""
    digits = []
    carry = 0
    for i in range(b.bit_length() + 1):
        b_i = b >> i & 1
        carry_next = (b_i + (b >> (i + 1) & 1) + carry) >> 1
        digits.append(b_i + carry - 2 * carry_next)
        carry = carry_next
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def _digit_walk(a, digits):
    """Signed-digit schedule from the top digit: p = (p << 1) +/- a."""
    p = count = 0
    for d in reversed(digits):
        p <<= 1
        if d == 1:
            p += a
            count += 1
        elif d == -1:
            p -= a
            count += 1
        assert p >= 0
    return p, count


def _edge_multipliers(m):
    return (0, 1, (1 << m) - 1, int(("01" * m)[:m], 2),
            int(("1011" * m)[:m], 2))


def _check_kernels(b, multiplicands):
    digits = csd_recode(BitNum(b)).digits
    assert digits == _carry_recode(b)
    for a in multiplicands:
        assert _kernel.classical_multiply(a, b) == _shift_loop(a, b)
        product, count = _digit_walk(a, digits)
        assert csd_multiply(BitNum(a), BitNum(b)) == (BitNum(product), count)


def test_kernels_match_digit_schedules_exhaustive():
    for b in range(4097):
        _check_kernels(b, FIXED_A)


def test_kernels_match_digit_schedules_wide():
    rng = random.Random(4096)
    for m in (1, 2, 7, 64, 1023, 4096):
        for b in _edge_multipliers(m):
            _check_kernels(b, (rng.getrandbits(m),))
    for _ in range(60):
        m = rng.randrange(1, 4097)
        _check_kernels(rng.getrandbits(m), (rng.getrandbits(m),))


def test_naf_masks_shape():
    rng = random.Random(1960)
    wide = [rng.getrandbits(rng.randrange(1, 4097)) for _ in range(60)]
    wide += [b for m in (64, 4096) for b in _edge_multipliers(m)]
    for b in [*range(4097), *wide]:
        plus, minus = _corepy.naf_masks(b)
        nonzero = plus | minus
        assert plus & minus == 0
        assert plus - minus == b
        assert nonzero & (nonzero >> 1) == 0
        assert nonzero.bit_count() == ((b + (b >> 1)) ^ (b >> 1)).bit_count()


def test_recode_holds_naf_masks():
    rng = random.Random(1960)
    wide = [rng.getrandbits(rng.randrange(1, 4097)) for _ in range(60)]
    wide += [b for m in (1, 2, 7, 64, 1023, 4096)
             for b in _edge_multipliers(m)]
    for b in [*range(4097), *wide]:
        sd = csd_recode(BitNum(b))
        assert (sd.plus, sd.minus) == _corepy.naf_masks(b)


def test_baselines_refuse_a_fold_over_the_bank_budget(monkeypatch):
    # both baselines are the k = 1 fold, so they refuse a width that
    # multiply refuses at k = 1, before any kernel call; only the refused
    # side is built
    kernel_calls = []
    monkeypatch.setattr(_kernel, "fold_multiply",
                        lambda *args: kernel_calls.append(args))
    m_max = costmodel._M_MAX[1]
    over = f"k = 1 at m = {m_max + 1} needs an accumulator bank over the " \
           f"budget of {costmodel.BANK_BUDGET_BITS} bits"
    zero, wide = BitNum(0), BitNum(1 << m_max)
    for call in (classical_multiply, csd_multiply):
        for a, b in ((zero, wide), (wide, zero)):
            with pytest.raises(ValueError) as info:
                call(a, b)
            assert str(info.value) == over
    # b = 0b11 << (m_max - 2) is m_max bits wide, but its NAF is
    # +1 0 -1 0 ..., one digit more, so the signed-digit fold is over
    with pytest.raises(ValueError) as info:
        csd_multiply(zero, BitNum(0b11 << (m_max - 2)))
    assert str(info.value) == over
    assert kernel_calls == []
