"""Reference multipliers: classical shift-and-add and signed-digit recoding.

Both count whole-operand additions, the same unit as the folded ledger,
and both are the fold kernel at k = 1: classical_multiply folds B, and
csd_multiply folds the +1 and -1 masks of B's NAF and subtracts the
second product from the first, a subtraction that is not counted. A
SignedDigitString holds the NAF masks; from_digits and .digits are its
tuple edge.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernel as _k
from . import costmodel
from ._corepy import _bit_flags, _from_bits, naf_masks
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
        result = cls(_from_bits(a == 1), _from_bits(a == -1))
        if len(result) != len(digits):
            raise ValueError("leading zero digit")
        return result

    @property
    def digits(self):
        """The digit tuple, index 0 = LSB, top digit nonzero."""
        width = len(self)
        return tuple(map(operator.sub, _bit_flags(self.plus, width),
                         _bit_flags(self.minus, width)))

    def __len__(self):
        return (self.plus | self.minus).bit_length()

    def nonzero_count(self):
        return (self.plus | self.minus).bit_count()

    def value(self):
        """Decode back to the unsigned value: +1 mask minus -1 mask."""
        return BitNum(self.plus) - BitNum(self.minus)


# _M_MAX[1], the widest k = 1 fold multiply admits; the baselines test a
# width against it inline and call _validate_multiply only to raise the
# error of a refused one
_WIDTH_MAX = costmodel._M_MAX[1]
_new = object.__new__


def classical_multiply(A, B):
    """Accumulate-and-add product; count = weight(B) exactly."""
    a, b = A._value, B._value
    width = (a | b).bit_length()
    if width > _WIDTH_MAX:
        costmodel._validate_multiply(width, 1)
    product, count = _k.classical_multiply(a, b)
    # BitNum._wrap inline, with no call frame
    p = _new(BitNum)
    p._value = product
    return p, count


def csd_recode(B):
    """Minimal-weight non-adjacent signed-digit form: B's kernel NAF masks."""
    return SignedDigitString(*naf_masks(B.to_int()))


def csd_multiply(A, B):
    """Signed-digit product over the NAF of B.

    Count = nonzero NAF digits: the +1 digits' terms accumulate in one
    sum and the -1 digits' terms in another, and one uncounted
    subtraction joins them, so the result never underflows.
    """
    a = A._value
    plus, minus = naf_masks(B._value)
    # the +1 mask is the widest multiplier folded: one bit over B when B's
    # top two bits are set
    width = (a | plus).bit_length() or 1
    if width > _WIDTH_MAX:
        costmodel._validate_multiply(width, 1)
    p, p_adds = _k.fold_multiply(a, plus, width, 1)[:2]
    q, q_adds = _k.fold_multiply(a, minus, width, 1)[:2]
    product = _new(BitNum)
    product._value = p - q
    return product, p_adds + q_adds
