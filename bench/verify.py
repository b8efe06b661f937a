"""Host-int checks of every workload output.

Each check recomputes what the program returned with plain Python integer
arithmetic and returns True when the output is right. None of them calls
into opfold, so a defect in the program's limb arithmetic cannot hide
itself.
"""

import csv
import io
from fractions import Fraction

import numpy as np


def nonzero_columns(b, m, k):
    """Columns of the k x ceil(m/k) part array of b that hold a 1."""
    n = -(-m // k)
    mask = (1 << n) - 1
    cols = 0
    for j in range(k):
        cols |= (b >> (j * n)) & mask
    return cols.bit_count()


def ledger_ok(ledger, b, m, k):
    """Accumulate adds = nonzero columns, combine and Horner are fixed."""
    return (ledger.accumulate_adds == nonzero_columns(b, m, k)
            and ledger.combine_adds == (1 << (k + 1)) - 2 * k - 2
            and ledger.horner_adds == k - 1)


def naf_weight(b):
    """Nonzero digits of the non-adjacent form of b."""
    return ((b + (b >> 1)) ^ (b >> 1)).bit_count()


def oracle_item_ok(a, b, m, result):
    """One oracle item: products for k = 1..8, classical and CSD."""
    folded, classical, classical_count, csd, csd_count = result
    want = a * b
    if len(folded) != 8:
        return False
    for k, (product, ledger) in enumerate(folded, start=1):
        if product != want or not ledger_ok(ledger, b, m, k):
            return False
    return (classical == want and classical_count == b.bit_count()
            and csd == want and csd_count == naf_weight(b))


def split_ok(parent, b, children, densities):
    """One halving split: children equal halve-AND-XOR on ints, weight kept.

    children = (b10, b01, b11) as ints, densities the three reported
    densities.
    """
    half = b // 2
    lo = parent & ((1 << half) - 1)
    hi = parent >> half
    shared = lo & hi
    want = (hi ^ shared, lo ^ shared, shared)
    if tuple(children) != want:
        return False
    w10, w01, w11 = (c.bit_count() for c in children)
    if w10 + w01 + 2 * w11 != parent.bit_count():
        return False
    return tuple(densities) == (w10 / half, w01 / half, w11 / half)


def tree_levels(block, b, depth):
    """(harvested, cumulative gain, frontier weight) per level, nodes-only."""
    frontier = [block]
    size = b
    cumulative = 0
    w0 = block.bit_count()
    levels = [(0, 0, w0)]
    for _ in range(depth):
        half = size // 2
        mask = (1 << half) - 1
        harvested = 0
        children = []
        for v in frontier:
            lo, hi = v & mask, v >> half
            shared = lo & hi
            harvested += shared.bit_count()
            children += (hi ^ shared, lo ^ shared)
        cumulative += harvested
        frontier = children
        size = half
        levels.append((harvested, cumulative,
                       sum(c.bit_count() for c in children)))
    return levels


def tree_ok(block, b, depth, report):
    """A simulate_tree report matches the halve-AND-XOR walk on ints."""
    got = [(lv.harvested, lv.cumulative_gain, lv.frontier_weight)
           for lv in report.levels]
    w0 = block.bit_count()
    return (report.initial_weight == w0
            and got == tree_levels(block, b, depth)
            and all(lv.residual_weight == w0 - lv.cumulative_gain
                    for lv in report.levels))


def operand_pair(seed, m, k, trial):
    """The two operands opfold bench draws for one trial, as ints."""
    rng = np.random.default_rng([seed, m, k, trial])
    nbytes = (m + 7) // 8
    mask = (1 << m) - 1
    a = int.from_bytes(rng.bytes(nbytes), "little") & mask
    b = int.from_bytes(rng.bytes(nbytes), "little") & mask
    return a, b


def sweep_row(m, k, trials, seed):
    """The CSV row `opfold bench` must print for one (m, k), as text."""
    const = (1 << (k + 1)) - k - 3
    total = total_sq = 0
    for t in range(trials):
        _, b = operand_pair(seed, m, k, t)
        adds = nonzero_columns(b, m, k) + const
        total += adds
        total_sq += adds * adds
    # same float expression as the program, so the six-digit text matches
    mean = total / trials
    if trials > 1:
        var = (total_sq - trials * mean * mean) / (trials - 1)
        stderr = (max(var, 0.0) / trials) ** 0.5
    else:
        stderr = 0.0
    n = -(-m // k)
    f_avg = Fraction((1 << k) - 1, 1 << k) * n + const
    return [str(m), str(k), str(n), format(float(f_avg), ".6g"),
            str(n + const), format(mean, ".6g"), format(stderr, ".6g"),
            str(trials), str(seed)]


def sweep_csv_ok(text, m, k, trials, seed):
    """`opfold bench` CSV for one (m, k) point matches the int recount."""
    lines = text.splitlines()
    if not lines or lines[0] != "# schema: opfold-bench-v1":
        return False
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if len(rows) != 2 or rows[0] != ["m", "k", "n", "f_avg", "f_wst",
                                     "measured_mean", "stderr", "trials",
                                     "seed"]:
        return False
    return rows[1] == sweep_row(m, k, trials, seed)
