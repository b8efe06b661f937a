"""Reference multipliers: classical shift-and-add and signed-digit recoding.

Both count whole-operand additions, the same unit as the folded ledger;
a subtraction in the signed-digit path costs one unit like an addition.
Both run in the kernel layer on host ints, like the folded multiply: the
functions here only wrap and unwrap BitNum values.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernel as _k
from .bitnum import BitNum, _from_bits


@dataclass(frozen=True)
class SignedDigitString:
    """Digits over {-1, 0, +1}, index 0 = LSB, no two adjacent nonzero."""

    digits: tuple

    def __post_init__(self):
        for d in self.digits:
            if d not in (-1, 0, 1):
                raise ValueError(f"digit {d} outside {{-1, 0, +1}}")
        if b"\x01\x01" in bytes(map(bool, self.digits)):
            raise ValueError("adjacent nonzero digits")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("leading zero digit")

    def __len__(self):
        return len(self.digits)

    def nonzero_count(self):
        return len(self.digits) - self.digits.count(0)

    def value(self):
        """Decode back to the unsigned value: +1 mask minus -1 mask."""
        a = np.asarray(self.digits)
        return BitNum(_from_bits(a == 1)) - BitNum(_from_bits(a == -1))


def classical_multiply(A, B):
    """Accumulate-and-add product; count = weight(B) exactly."""
    product, count = _k.classical_multiply(A.to_int(), B.to_int())
    return BitNum._wrap(product), count


def csd_recode(B):
    """Minimal-weight signed-digit form with no adjacent nonzero digits.

    The non-adjacent form read off the kernel's NAF masks: digit i is +1
    (-1) where bit i of the plus (minus) mask is set. The top digit is
    always +1, so the plus mask's width is the digit count.
    """
    plus, minus = _k.naf_masks(B.to_int())
    width = plus.bit_length()
    digits = map(operator.sub, _k._bit_flags(plus, width),
                 _k._bit_flags(minus, width))
    return SignedDigitString(digits=tuple(digits))


def csd_multiply(A, B):
    """Shift-add/shift-subtract product over the NAF of B.

    Count = nonzero NAF digits; a subtraction costs one unit like an
    addition. The kernel adds every +1 digit's term before it subtracts
    any -1 digit's term, so the running value never underflows.
    """
    product, count = _k.csd_multiply(A.to_int(), B.to_int())
    return BitNum._wrap(product), count
