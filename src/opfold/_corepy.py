"""Instrumented shift-and-add multiply kernels over non-negative host ints.

Each kernel reads its multiplier and builds the product from additions (or
subtractions) of shifted copies of the multiplicand, and counts them.
The product never comes from native `*`, so tests that check it against
`a * b` still compare two independent routes. The three kernels differ in
how they read the multiplier b:

- classical_multiply takes the set-bit positions of b (`_set_bits`) and
  adds `a << i` once per set bit.
- csd_multiply recodes b into its non-adjacent form (`naf_masks`), adds
  `a << i` for every +1 digit and then subtracts it for every -1 digit.
- fold_multiply reads b's bits into the column patterns of the k x n part
  array with one numpy call, then adds `a << i` into the cell that column
  i's pattern names, once per nonzero column i. numpy never sees the
  multiplicand and never forms a product or a cell: every counted addition
  is one int `+`, of a shifted multiplicand into a cell (accumulate) or of
  two cells (combine, Horner).

Reading the multiplier (bit positions, NAF masks, column indices) is
recoding, not counted work.
"""

import operator
from functools import reduce
from itertools import compress, count

import numpy as np

KERNEL_NAME = "pure"

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(x, width):
    """Bits of x, 0 <= x < 2**width, as width bytes of 0/1, lowest first."""
    # the sentinel bit at `width` keeps the leading zeros, and the reversed
    # slice drops it again
    return format(x | 1 << width, "b")[:0:-1].encode("ascii").translate(
        _BIT_FLAGS)


def _set_bits(x):
    """Iterator over the positions of the set bits of x >= 0, lowest first."""
    return compress(count(), _bit_flags(x, x.bit_length()))


def from_int(x):
    """x itself: both kernel lanes take host ints, so an operand needs no
    conversion before it is passed to either lane. Its only caller is
    check_lane_parity in bench/run.py, so it can go only together with
    that call."""
    return x


def naf_masks(b):
    """Non-adjacent form of b >= 0 as two masks; returns (plus, minus).

    Bit i of plus (minus) is set iff NAF digit i is +1 (-1), so
    plus - minus == b and popcount(plus | minus) is the NAF weight
    (Reitwiesner's recoding in closed mask form).
    """
    half = b >> 1
    t = b + half
    d = half ^ t
    return t & d, half & d


def classical_multiply(a, b):
    """Shift-and-add product of two ints; returns (product, add count).

    One addition of `a << i` per set bit i of b.
    """
    return sum(map(a.__lshift__, _set_bits(b))), b.bit_count()


def csd_multiply(a, b):
    """Signed-digit product of two ints; returns (product, add count).

    One addition of `a << i` per +1 NAF digit of b, then one subtraction
    per -1 digit. Every + term goes in before any - term, so the running
    value never drops below a * b >= 0.
    """
    plus, minus = naf_masks(b)
    p = sum(map(a.__lshift__, _set_bits(plus)))
    p = reduce(operator.sub, map(a.__lshift__, _set_bits(minus)), p)
    return p, plus.bit_count() + minus.bit_count()


def fold_multiply(a, b, m, k):
    """Fused folded multiply: accumulate / combine / Horner in one pass.

    Returns (product, accumulate_adds, combine_adds, horner_adds, shifts,
    peak_cell_bits). Caller validates 1 <= k and operand widths <= m.
    """
    n = (m + k - 1) // k
    # the k x n part array, row j = part j+1 and column 0 = bit 0, so column
    # i's cell index has bit j set iff part j+1 has a 1 at position i
    bits = np.unpackbits(
        np.frombuffer(b.to_bytes((k * n + 7) // 8, "little"), np.uint8),
        count=k * n, bitorder="little").reshape(k, n)
    patterns = ((1 << np.arange(k)) @ bits).tolist()
    cells = [0] * (1 << k)
    for i, col in compress(enumerate(patterns), patterns):
        cells[col] += a << i
    acc_adds = n - patterns.count(0)
    shifts = n
    comb_adds = 0
    for i in range(k, 0, -1):
        base = 1 << (i - 1)
        upper = cells[base + 1:2 * base]
        # cells[base] += cells[base + j] and cells[j] += cells[base + j]
        # for j = 1 .. base - 1, as whole-slice operations
        cells[base] = sum(upper, cells[base])
        cells[1:base] = map(operator.add, cells[1:base], upper)
        comb_adds += 2 * (base - 1)
    peak = max(cells).bit_length()  # every cell is non-negative
    p = cells[1 << (k - 1)]
    horner_adds = 0
    for i in range(k - 1, 0, -1):
        p = (p << n) + cells[1 << (i - 1)]
        shifts += 1
        horner_adds += 1
    return p, acc_adds, comb_adds, horner_adds, shifts, peak
