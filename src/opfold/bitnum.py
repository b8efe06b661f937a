"""Value-semantic arbitrary-precision unsigned integers with bit addressing.

A BitNum holds one non-negative host int. Bitwise and additive operators
map straight onto int operators; the multiply kernels in _corepy build
products from shifted additions only, so the oracle tests that check them
against native `*` still compare two independent routes.
"""

import numpy as np

from ._corepy import draw_bits, seeded_bits


class UnderflowError(ArithmeticError):
    """Subtraction result would be negative."""


class BitNum:
    """Immutable unsigned integer; bit 0 is the least significant bit."""

    __slots__ = ("_value",)

    def __init__(self, value=0):
        # an exact int first: the common case, kept as the same object
        if type(value) is int and value >= 0:
            self._value = value
        elif isinstance(value, BitNum):
            self._value = value._value
        elif isinstance(value, int):
            if value < 0:
                raise ValueError("BitNum is unsigned")
            self._value = int(value)
        else:
            raise TypeError(f"cannot build BitNum from {type(value).__name__}")

    @classmethod
    def _wrap(cls, value):
        out = object.__new__(cls)
        out._value = value
        return out

    @classmethod
    def parse(cls, text):
        """Parse "0b…", "0x…", or decimal text; round-trips with the
        matching formatter exactly."""
        s = text.strip()
        if s.startswith(("0b", "0B")):
            value = int(s[2:], 2)
        elif s.startswith(("0x", "0X")):
            value = int(s[2:], 16)
        else:
            if s.startswith(("+", "-")):
                raise ValueError(f"unsigned value required: {text!r}")
            value = int(s, 10)
        return cls(value)

    def to_int(self):
        return self._value

    def to_bin(self):
        return "0b" + format(self._value, "b")

    def to_hex(self):
        return "0x" + format(self._value, "x")

    def to_dec(self):
        return str(self._value)

    def bit(self, i):
        """Bit i as 0 or 1; defined (and 0) for i >= bit_length."""
        if i < 0:
            raise IndexError("negative bit index")
        return (self._value >> i) & 1

    def bit_length(self):
        return self._value.bit_length()

    def weight(self):
        return self._value.bit_count()

    def is_zero(self):
        return not self._value

    def __add__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return BitNum._wrap(self._value + other._value)

    def __sub__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        if self._value < other._value:
            raise UnderflowError("subtraction would be negative")
        return BitNum._wrap(self._value - other._value)

    def __lshift__(self, s):
        if s < 0:
            raise ValueError("negative shift")
        return BitNum._wrap(self._value << s)

    def __and__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return BitNum._wrap(self._value & other._value)

    def __or__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return BitNum._wrap(self._value | other._value)

    def __xor__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return BitNum._wrap(self._value ^ other._value)

    def __eq__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return self._value < other._value

    def __le__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return self._value <= other._value

    def __gt__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return self._value > other._value

    def __ge__(self, other):
        if not isinstance(other, BitNum):
            return NotImplemented
        return self._value >= other._value

    def __hash__(self):
        return hash(self._value)

    def __bool__(self):
        return bool(self._value)

    def __int__(self):
        return self._value

    def __repr__(self):
        return f"BitNum({self.to_bin()})"


def random_bitnums(m, rng_seed, count):
    """`count` uniform values over m independent bits, from one draw.

    From a numpy Generator, equal to `count` successive random_bitnum(m,
    rng) calls on it, and leaves it in the same state (_corepy.draw_bits).
    Any other rng_seed is entropy, a non-negative int or a sequence of
    them, and the values are the ones a fresh default_rng(rng_seed) gives
    (_corepy.seeded_bits, the one seeded draw on either kernel lane).
    """
    if isinstance(rng_seed, np.random.Generator):
        values = draw_bits(rng_seed, m, count)
    else:
        values = seeded_bits(rng_seed, m, count)
    return tuple(map(BitNum._wrap, values))


def random_bitnum(m, rng_seed):
    """Uniform value over m independent bits; deterministic per seed.

    rng_seed may be a non-negative int, a sequence of them, or a numpy
    Generator.
    """
    return random_bitnums(m, rng_seed, 1)[0]
