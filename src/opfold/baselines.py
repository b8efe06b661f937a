"""Reference multipliers: classical shift-and-add and signed-digit recoding.

Both count whole-operand additions, the same unit as the folded ledger;
a subtraction in the signed-digit path costs one unit like an addition.
"""

from dataclasses import dataclass

from . import _kernel as _k
from .bitnum import BitNum


@dataclass(frozen=True)
class SignedDigitString:
    """Digits over {-1, 0, +1}, index 0 = LSB, no two adjacent nonzero."""

    digits: tuple

    def __post_init__(self):
        for d in self.digits:
            if d not in (-1, 0, 1):
                raise ValueError(f"digit {d} outside {{-1, 0, +1}}")
        for lo, hi in zip(self.digits, self.digits[1:]):
            if lo != 0 and hi != 0:
                raise ValueError("adjacent nonzero digits")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("leading zero digit")

    def __len__(self):
        return len(self.digits)

    def nonzero_count(self):
        return sum(1 for d in self.digits if d)

    def value(self):
        """Decode back to the unsigned value."""
        pos = BitNum(0)
        neg = BitNum(0)
        one = BitNum(1)
        for i, d in enumerate(self.digits):
            if d == 1:
                pos = pos + (one << i)
            elif d == -1:
                neg = neg + (one << i)
        return pos - neg


def classical_multiply(A, B):
    """Accumulate-and-add product; count = weight(B) exactly."""
    product, count = _k.classical_multiply(A.to_int(), B.to_int())
    return BitNum._wrap(product), count


def csd_recode(B):
    """Minimal-weight signed-digit form with no adjacent nonzero digits.

    Standard carry recoding: c_{i+1} = (b_i + b_{i+1} + c_i) >> 1 and
    d_i = b_i + c_i - 2*c_{i+1}.
    """
    length = B.bit_length()
    digits = []
    carry = 0
    for i in range(length + 1):
        b_i = B.bit(i)
        carry_next = (b_i + B.bit(i + 1) + carry) >> 1
        digits.append(b_i + carry - 2 * carry_next)
        carry = carry_next
    while digits and digits[-1] == 0:
        digits.pop()
    return SignedDigitString(digits=tuple(digits))


def csd_multiply(A, B):
    """Shift-add/shift-subtract product over the recoded multiplier.

    Count = nonzero digits. Scanning from the top digit keeps the running
    value at least 2*A whenever a -1 digit is applied (the leading nonzero
    digit of a nonnegative recoding is +1), so the subtraction never
    underflows.
    """
    sd = csd_recode(B)
    p = BitNum(0)
    count = 0
    for i in range(len(sd.digits) - 1, -1, -1):
        p = p << 1
        d = sd.digits[i]
        if d == 1:
            p = p + A
            count += 1
        elif d == -1:
            p = p - A
            count += 1
    return p, count
