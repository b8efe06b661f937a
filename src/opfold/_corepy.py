"""The instrumented fold kernel over non-negative host ints.

fold_multiply reads the multiplier b's bits into the column patterns of
the k x n part array with one numpy call, then adds `a << i` into the
cell that column i's pattern names, once per nonzero column i, and
combines the cells. numpy never sees the multiplicand and never forms a
product or a cell: every counted addition is one int `+`, of a shifted
multiplicand into a cell (accumulate) or of two cells (combine, Horner).
The product never comes from native `*`, so tests that check it against
`a * b` still compare two independent routes. Reading the multiplier
(column patterns, NAF masks) is recoding, not counted work. At k = 1 the
fold is the classical baseline: one cell, one addition per set bit of b.

draw_bits holds the one rule that cuts m-bit operands from a numpy
Generator's bytes; seeded_bits applies it to a fresh default_rng, for
both kernel lanes. fold_trials runs a sweep point's trials on those
draws; _corec.fold_trials, which runs numpy's stream in C, cuts the same
values by the same rule. _from_bits is the one bit-array-to-int rule,
and bernoulli_bits packs a Generator's `random(b) < delta` with it, as
_corec.bernoulli_bits draws it.
"""

import operator
from collections.abc import Sequence
from itertools import compress

import numpy as np

KERNEL_NAME = "pure"

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(x, width):
    """Bits of x, 0 <= x < 2**width, as width bytes of 0/1, lowest first."""
    # the sentinel bit at `width` keeps the leading zeros, and the reversed
    # slice drops it again
    return format(x | 1 << width, "b")[:0:-1].encode("ascii").translate(
        _BIT_FLAGS)


def _from_bits(bits):
    """Int whose bit i is bits[i], for a bool or 0/1 array, lowest first."""
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little")


def bernoulli_bits(rng, b, delta):
    """Int whose bit i is set iff the i-th of the b doubles rng.random(b)
    draws is below float(delta), for a numpy Generator rng, which
    density.bernoulli_block checks. _corec takes the same arguments and
    compares with the same double."""
    b = operator.index(b)
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    delta = float(delta)
    return _from_bits(rng.random(b) < delta)


def draw_bits(rng, m, count):
    """`count` ints of m uniform bits each, from one draw of numpy Generator
    rng; equal to `count` successive m-bit draws, leaving rng as they would.

    Generator.bytes(nb) draws ceil(nb/4) uint32 words and keeps the first nb
    of their little-endian bytes, so value i is cut from the i-th run of
    ceil(m/32) words and masked to m bits.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    nbytes = (m + 7) // 8
    stride = 4 * ((m + 31) // 32)
    size = count * stride
    if not size:  # no bits to draw, and Generator.bytes(0) still draws a word
        return (0,) * count
    data = rng.bytes(size)
    mask = (1 << m) - 1
    return tuple(int.from_bytes(data[i:i + nbytes], "little") & mask
                 for i in range(0, size, stride))


def seeded_bits(entropy, m, count):
    """draw_bits from a fresh np.random.default_rng(entropy). It takes one
    operator.index entry or a sequence of them, and refuses None, nested
    sequences and string entries, which numpy would take."""
    if isinstance(entropy, (Sequence, np.ndarray)):
        entropy = list(map(operator.index, entropy))
    else:
        entropy = operator.index(entropy)
    return draw_bits(np.random.default_rng(entropy), m, count)


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


def fold_multiply(a, b, m, k):
    """Fused folded multiply: accumulate / combine / Horner in one pass.

    Returns (product, accumulate_adds, combine_adds, horner_adds, shifts,
    peak_cell_bits). Caller validates 1 <= k and operand widths <= m.
    m and k are taken through operator.index, as _corec takes them, so a
    numpy int m or k counts as the int it holds.
    """
    m, k = operator.index(m), operator.index(k)
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
    # every cell is non-negative. _corec measures only the part cells, the
    # widest ones; this maximum over every cell is kept as the reference
    # the lane-parity tests check that against
    peak = max(cells).bit_length()
    p = cells[1 << (k - 1)]
    horner_adds = 0
    for i in range(k - 1, 0, -1):
        p = (p << n) + cells[1 << (i - 1)]
        shifts += 1
        horner_adds += 1
    return p, acc_adds, comb_adds, horner_adds, shifts, peak


def fold_trials(seed, m, k, trials):
    """The ledger sums of `trials` folds: trial t folds the two m-bit values
    seeded_bits((seed, m, k, t), m, 2) gives. Returns the accumulate,
    combine and Horner counts summed over the trials, the sum of each
    trial's squared total and the sum of each product mod 2**32 - 1, as
    _corec.fold_trials does. Caller validates (m, k), as for
    fold_multiply."""
    trials = operator.index(trials)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    acc_sum = comb_sum = horner_sum = total_sq = residues = 0
    for t in range(trials):
        p, acc, comb, horner, _, _ = fold_multiply(
            *seeded_bits((seed, m, k, t), m, 2), m, k)
        acc_sum += acc
        comb_sum += comb
        horner_sum += horner
        total = acc + comb + horner
        total_sq += total * total
        residues += p % 0xFFFFFFFF
    return acc_sum, comb_sum, horner_sum, total_sq, residues


def classical_multiply(a, b):
    """_kernel.classical_multiply on the pure lane. Outside the tests its
    only caller is check_lane_parity in bench/run.py, so it can go only
    together with that call."""
    return fold_multiply(a, b, max(a.bit_length(), b.bit_length(), 1), 1)[:2]
