"""Instrumented shift-and-add multiply kernels over non-negative host ints.

Each kernel walks its multiplier bit by bit and builds the product from
additions of shifted copies of the multiplicand, counting every addition
and shift as it goes. The product never comes from native `*`, so tests
that check it against `a * b` still compare two independent routes.
"""

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
    mask = (1 << n) - 1
    # rows of the k x n part array, part k on top and column n-1 leftmost,
    # so each column read downwards is its cell index in binary
    rows = [format((b >> (j * n)) & mask, f"0{n}b")
            for j in range(k - 1, -1, -1)]
    patterns = [int("".join(column), 2) for column in zip(*rows)]
    cells = [0] * (1 << k)
    acc_adds = 0
    shifts = 0
    for col in reversed(patterns):
        if col:
            cells[col] += a
            acc_adds += 1
        a <<= 1
        shifts += 1
    comb_adds = 0
    for i in range(k, 0, -1):
        base = 1 << (i - 1)
        for j in range(1, base):
            cells[base] += cells[base + j]
            cells[j] += cells[base + j]
            comb_adds += 2
    peak = max(c.bit_length() for c in cells)
    p = cells[1 << (k - 1)]
    horner_adds = 0
    for i in range(k - 1, 0, -1):
        p = (p << n) + cells[1 << (i - 1)]
        shifts += 1
        horner_adds += 1
    return p, acc_adds, comb_adds, horner_adds, shifts, peak
