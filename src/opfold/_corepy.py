"""Instrumented shift-and-add multiply kernels over non-negative host ints.

Each kernel walks its multiplier and builds the product from additions of
shifted copies of the multiplicand, counting every addition and shift.
The product never comes from native `*`, so tests that check it against
`a * b` still compare two independent routes.

fold_multiply uses numpy for one thing only: reading the multiplier's bits
into the column indices of the k x n part array in one call. numpy never
sees the multiplicand and never forms a product or a cell: every counted
addition is one int `+`, of a shifted multiplicand into a cell
(accumulate) or of two cells (combine, Horner).
"""

import operator

import numpy as np

KERNEL_NAME = "pure"


def classical_multiply(a, b):
    """Shift-and-add product of two ints; returns (product, add count).

    One addition per set bit of b; the running addend is shifted left one
    position per multiplier bit.
    """
    acc = 0
    adds = 0
    for bit in reversed(format(b, "b")):
        if bit == "1":
            acc += a
            adds += 1
        a <<= 1
    return acc, adds


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
    for col in patterns:
        if col:
            cells[col] += a
        a <<= 1
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
