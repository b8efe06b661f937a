"""Closed-form addition-count model, optimal degree selection, and sweeps.

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
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from . import _kernel as _k
from . import folding

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


def f_avg(m, k):
    """Expected additions for uniform random operands, exact rational."""
    _check(m, k)
    return Fraction(((1 << k) - 1) * -(-m // k) + (phase_constant(k) << k),
                    1 << k)


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

    k_max may not pass folding.K_CEILING, the degree no bank budget admits.
    """
    _check(m, k_max)
    if k_max > folding.K_CEILING:
        raise ValueError(
            f"k_max = {k_max} exceeds {folding.K_CEILING}, the largest degree "
            f"whose accumulator bank can fit the budget of "
            f"{folding.BANK_BUDGET_BITS} bits")
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

    Trial t multiplies the two m-bit values _kernel.seeded_bits draws for
    entropy (seed, m, k, t), the pair a fresh default_rng([seed, m, k, t])
    gives on both kernel lanes, so results are independent of trial
    ordering and batch size. (m, k) is checked once, before any operand is
    drawn, and every drawn value fits m bits, so each trial calls the fold
    kernel on the ints directly and sums accumulate + combine + Horner
    adds from its tuple: the ledger total folding.multiply would report,
    without wrapping the operands or building the ledger.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    folding._validate_multiply(m, k)
    total = 0
    total_sq = 0
    for t in range(trials):
        _, acc, comb, horner, _, _ = _k.fold_multiply(
            *_k.seeded_bits((seed, m, k, t), m, 2), m, k)
        adds = acc + comb + horner
        total += adds
        total_sq += adds * adds
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
            rows.append({
                "m": m,
                "k": k,
                "n": -(-m // k),
                "f_avg": float(f_avg(m, k)),
                "f_wst": f_wst(m, k),
                "measured_mean": mean,
                "stderr": stderr,
                "trials": trials,
                "seed": seed,
            })
    return rows


SWEEP_COLUMNS = ("m", "k", "n", "f_avg", "f_wst",
                 "measured_mean", "stderr", "trials", "seed")
