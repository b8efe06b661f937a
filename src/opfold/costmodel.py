"""Closed-form addition-count model, optimal degree, sweeps, bank budget.

Average and worst-case counts for an m-bit multiply folded with degree k:

    f_avg(m, k) = (2**k - 1) / 2**k * ceil(m/k) + 2**(k+1) - k - 3
    f_wst(m, k) = ceil(m/k) + 2**(k+1) - k - 3

Both are exact (f_avg as a Fraction). Degree selection uses the ceiling-free
affine form of f_avg, m*(2**k - 1)/(k*2**k) + constant, whose pairwise
crossings produce the published operating ranges; the ceiling form is
non-monotonic in m at part-width steps and would blur the range boundaries.
Ties go to the larger k, which is what places the exact integer crossings
(m = 24, 84) at the start of the next range.
"""

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from . import _kernel as _k

DEFAULT_K_MAX = 8


def _check_k(k):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _check(m, k, *operands):
    """The package's one (m, k) check, which folding calls too: k and m at
    least 1, then each (name, operand) at most m bits wide."""
    _check_k(k)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    for name, x in operands:
        if x.bit_length() > m:
            raise ValueError(
                f"{name} has {x.bit_length()} bits, exceeds m = {m}")


def phase_constant(k):
    """Fixed combine + Horner additions: 2**(k+1) - k - 3."""
    return combine_cost(k) + k - 1


def _f_avg_terms(m, k):
    """f_avg(m, k) as (numerator, denominator) ints, for a checked (m, k):
    sweep divides them for its float, which int / int rounds correctly,
    so it is float(f_avg(m, k)) with no Fraction built."""
    return ((1 << k) - 1) * -(-m // k) + (phase_constant(k) << k), 1 << k


def f_avg(m, k):
    """Expected additions for uniform random operands, exact rational."""
    _check(m, k)
    return Fraction(*_f_avg_terms(m, k))


def f_wst(m, k):
    """Worst-case additions (all multiplier bits set)."""
    _check(m, k)
    return -(-m // k) + phase_constant(k)


def affine_avg(m, k):
    """Ceiling-free average form m*(2**k - 1)/(k*2**k) + constant."""
    _check(m, k)
    return Fraction(m * ((1 << k) - 1), k << k) + phase_constant(k)


def optimal_k(m, k_max=DEFAULT_K_MAX):
    """Degree minimizing the affine average cost; ties to the larger k.

    k_max may not pass K_CEILING, the degree no bank budget admits.
    """
    _check(m, k_max)
    if k_max > K_CEILING:
        raise ValueError(
            f"k_max = {k_max} exceeds {K_CEILING}, the largest degree "
            f"whose accumulator bank can fit the budget of "
            f"{BANK_BUDGET_BITS} bits")
    best_k = 1
    best = affine_avg(m, 1)
    for k in range(2, k_max + 1):
        value = affine_avg(m, k)
        if value <= best:
            best = value
            best_k = k
    return best_k


def asymptotic_ratio(k):
    """Large-m additions ratio of classical over folded: k*2**(k-1)/(2**k - 1)."""
    _check_k(k)
    return Fraction(k << (k - 1), (1 << k) - 1)


def combine_cost(k):
    """Combination additions 2**(k+1) - 2k - 2 (= sum of 2**i - 2)."""
    _check_k(k)
    return (1 << (k + 1)) - 2 * k - 2


def yen_cost(k):
    """Combination additions of the compared scheme: k*(2**(k-1) - 1)."""
    _check_k(k)
    return k * ((1 << (k - 1)) - 1)


def memory_bits(m, k):
    """Accumulator footprint: (2**k - 1) cells of m + ceil(m/k) bits."""
    _check(m, k)
    return _memory_bits(m, k)


def _memory_bits(m, k, per_cell=0):
    """memory_bits for an (m, k) already checked, plus per_cell bits for
    each cell. m and k are taken through operator.index, so a numpy int m
    counts as the int it holds and the product cannot wrap at 64 bits."""
    m, k = operator.index(m), operator.index(k)
    n = -(-m // k)
    return ((1 << k) - 1) * (m + n + per_cell)


# multiply and trace_multiply refuse a degree whose accumulator bank would
# outgrow BANK_BUDGET_BITS (16 MiB). A cell is charged its width m + ceil(m/k)
# (the costmodel.memory_bits footprint) plus CELL_OVERHEAD_BITS for the list
# slot and int object the host keeps per cell, which dominates at small m.
# No m admits a degree above K_CEILING: its 2**k - 1 cells alone outnumber
# the budget's bits. _validate_multiply and costmodel.optimal_k test it
# before 1 << k. The bank grows with m, so the budget admits m = 1 ..
# _M_MAX[k] at degree k, and multiply tests it with that one lookup.
# The budget charges the 2**k - 1 cells only, nothing per column. Peak RSS
# of one multiply above a fresh process's start (ru_maxrss, 2-CPU x86-64,
# A all ones, every cell filled once): compiled lane 150 MB at k = 1,
# m = 2**24 (charged 4.2 MB), mostly 32 pre-shifted copies of A in 64-bit
# lanes, and 52 MB at k = 5, m = 3,000,000 (charged 14 MB); 156 MB at
# k = 1 when B's top bit is set, since the compiled lane reads B's columns
# 8 at a time and keeps no per-column array; pure lane 272 MB and 31 MB,
# the first mostly its per-column pattern array and list. Between calls
# the compiled lane keeps one static 1 MiB region, in RSS only as far as
# folds have written it, holding the last two operands' kernel forms, and
# references to those two ints, at most about 1 MiB more; a call that
# needs more folds in a buffer of its own and frees it, so the 2**24-bit
# multiply leaves no buffer behind.
BANK_BUDGET_BITS = 1 << 27
CELL_OVERHEAD_BITS = 512
K_CEILING = BANK_BUDGET_BITS.bit_length() - 1


def bank_bits(m, k):
    """Host footprint of the 2**k - 1 accumulator cells, in bits."""
    _check(m, k)
    return _memory_bits(m, k, CELL_OVERHEAD_BITS)


def _m_max(k):
    """Largest m with bank_bits(m, k) <= BANK_BUDGET_BITS, or 0.

    The bank is (2**k - 1) * (m + ceil(m/k) + CELL_OVERHEAD_BITS), so m fits
    iff m + ceil(m/k) <= t. With t = q*(k + 1) + r, m = q*k + j has
    m + ceil(m/k) = q*(k + 1) + j + (j > 0), largest at j = max(r - 1, 0).
    """
    t = BANK_BUDGET_BITS // ((1 << k) - 1) - CELL_OVERHEAD_BITS
    q, r = divmod(t, k + 1)
    return max(q * k + max(r - 1, 0), 0)


# _M_MAX[k] for k in 0 .. K_CEILING; no degree-0 fold exists
_M_MAX = (0, *map(_m_max, range(1, K_CEILING + 1)))


def _validate_multiply(m, k, *operands):
    """_check, then the bank budget, k > K_CEILING before 1 << k."""
    _check(m, k, *operands)
    if k > K_CEILING or m > _M_MAX[k]:
        raise ValueError(
            f"k = {k} at m = {m} needs an accumulator bank over the budget "
            f"of {BANK_BUDGET_BITS} bits")


def crossing(k, k_next):
    """Operand size where the affine average costs of two degrees meet."""
    dc = phase_constant(k_next) - phase_constant(k)
    dm = Fraction((1 << k) - 1, k << k) - Fraction(
        (1 << k_next) - 1, k_next << k_next)
    return Fraction(dc, 1) / dm


@dataclass(frozen=True)
class Table1Row:
    """Operating range and affine cost forms for one degree."""

    k: int
    m_lo: int
    m_hi: int
    avg_coeff: Fraction
    wst_coeff: Fraction
    constant: int

    def avg_form(self):
        return f"{float(self.avg_coeff):.3f}*m + {self.constant}"

    def wst_form(self):
        return f"{float(self.wst_coeff):.3f}*m + {self.constant}"


def table1():
    """Optimal-degree ranges for k = 2..5, derived from the affine crossings."""
    rows = []
    for k in range(2, 6):
        lo = crossing(k - 1, k)
        hi = crossing(k, k + 1)
        m_lo = int(lo) if lo.denominator == 1 else ceil(lo)
        m_hi = int(hi) - 1 if hi.denominator == 1 else floor(hi)
        rows.append(Table1Row(
            k=k,
            m_lo=m_lo,
            m_hi=m_hi,
            avg_coeff=Fraction((1 << k) - 1, k << k),
            wst_coeff=Fraction(1, k),
            constant=phase_constant(k),
        ))
    return rows


def measure_mean(m, k, trials, seed):
    """Sample mean/stderr of measured ledger totals over random operands.

    Trial t multiplies the two m-bit values a fresh default_rng([seed, m,
    k, t]) gives on both kernel lanes, so results are independent of
    trial ordering and batch size. (m, k) is checked once, before any
    operand is drawn, and every drawn value fits m bits, so the point is
    one _kernel.fold_trials call: it returns the accumulate, combine and
    Horner counts summed over the trials, whose sum is the total of the
    ledgers folding.multiply would report, and the sum of the squared
    totals; its fifth figure, the summed product residues, is for the
    lane-parity tests and is not read here. On the compiled lane that
    call builds no int per trial, and draws the operands from numpy's
    stream without building a Generator.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > sys.maxsize:
        raise ValueError(f"trials must be <= {sys.maxsize}, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _validate_multiply(m, k)
    acc, comb, horner, total_sq, _ = _k.fold_trials(seed, m, k, trials)
    total = acc + comb + horner
    mean = total / trials
    if trials > 1:
        var = (total_sq - trials * mean * mean) / (trials - 1)
        stderr = (max(var, 0.0) / trials) ** 0.5
    else:
        stderr = 0.0
    return mean, stderr


def sweep(m_values, k_values, trials, seed):
    """Predicted-versus-measured grid; one dict per (m, k)."""
    rows = []
    for m in m_values:
        for k in k_values:
            mean, stderr = measure_mean(m, k, trials, seed)
            numerator, denominator = _f_avg_terms(m, k)
            rows.append({
                "m": m,
                "k": k,
                "n": -(-m // k),
                "f_avg": numerator / denominator,
                "f_wst": f_wst(m, k),
                "measured_mean": mean,
                "stderr": stderr,
                "trials": trials,
                "seed": seed,
            })
    return rows


SWEEP_COLUMNS = ("m", "k", "n", "f_avg", "f_wst",
                 "measured_mean", "stderr", "trials", "seed")
