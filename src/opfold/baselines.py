"""Reference multipliers: classical shift-and-add and signed-digit recoding.

Both count whole-operand additions, the same unit as the folded ledger,
and both are the fold kernel at k = 1 (see _kernel); the one subtraction
that joins signed-digit's +1 and -1 products is not counted. The
functions here only wrap and unwrap BitNum values. A SignedDigitString
holds the kernel's NAF masks; from_digits and .digits are its tuple edge.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernel as _k
from . import folding
from .bitnum import BitNum


@dataclass(frozen=True)
class SignedDigitString:
    """NAF digits as masks: bit i of plus (minus) is set iff digit i is +1
    (-1), index 0 = LSB. Build one from a digit tuple with from_digits.
    """

    plus: int
    minus: int

    def __post_init__(self):
        if self.plus < 0 or self.minus < 0 or self.plus & self.minus:
            raise ValueError("digit masks must be non-negative and disjoint")
        nonzero = self.plus | self.minus
        if nonzero & (nonzero >> 1):
            raise ValueError("adjacent nonzero digits")

    @classmethod
    def from_digits(cls, digits):
        """Checked string from a digit tuple, index 0 = LSB."""
        for d in digits:
            if d not in (-1, 0, 1):
                raise ValueError(f"digit {d} outside {{-1, 0, +1}}")
        a = np.asarray(digits)
        result = cls(_k._from_bits(a == 1), _k._from_bits(a == -1))
        if len(result) != len(digits):
            raise ValueError("leading zero digit")
        return result

    @property
    def digits(self):
        """The digit tuple, index 0 = LSB, top digit nonzero."""
        width = len(self)
        return tuple(map(operator.sub, _k._bit_flags(self.plus, width),
                         _k._bit_flags(self.minus, width)))

    def __len__(self):
        return (self.plus | self.minus).bit_length()

    def nonzero_count(self):
        return (self.plus | self.minus).bit_count()

    def value(self):
        """Decode back to the unsigned value: +1 mask minus -1 mask."""
        return BitNum(self.plus) - BitNum(self.minus)


def _check_width(width):
    """Refuse a k = 1 fold of width bits that folding.multiply refuses."""
    if width > folding._M_MAX[1]:
        folding._validate_multiply(width, 1)


def classical_multiply(A, B):
    """Accumulate-and-add product; count = weight(B) exactly."""
    a, b = A._value, B._value
    _check_width((a | b).bit_length())
    product, count = _k.classical_multiply(a, b)
    return BitNum._wrap(product), count


def csd_recode(B):
    """Minimal-weight non-adjacent signed-digit form: B's kernel NAF masks."""
    return SignedDigitString(*_k.naf_masks(B.to_int()))


def csd_multiply(A, B):
    """Signed-digit product over the NAF of B.

    Count = nonzero NAF digits: the +1 digits' terms accumulate in one
    sum and the -1 digits' terms in another, and one uncounted
    subtraction joins them, so the result never underflows.
    """
    a, b = A._value, B._value
    # the widest multiplier folded is the NAF's +1 mask, whose top bit is
    # that of b + (b >> 1) (naf_masks): one bit over b's when that sum
    # carries out
    _check_width((a | b + (b >> 1)).bit_length())
    product, count = _k.csd_multiply(a, b)
    return BitNum._wrap(product), count
