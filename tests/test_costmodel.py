"""Closed-form cost model: frozen values, boundaries, and Monte Carlo checks."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opfold import costmodel
from opfold.bitnum import BitNum
from opfold.costmodel import (
    BANK_BUDGET_BITS,
    K_CEILING,
    SWEEP_COLUMNS,
    affine_avg,
    asymptotic_ratio,
    combine_cost,
    crossing,
    f_avg,
    f_wst,
    measure_mean,
    memory_bits,
    optimal_k,
    phase_constant,
    sweep,
    table1,
    yen_cost,
)
from opfold.folding import multiply


def _exact_mean_total(m, k):
    """Expectation of the measured total with the zero-padding accounted for.

    Column i of the part array draws one random bit from part j only while
    (j-1)*n + i < m; the padded positions are always 0, so the column is
    nonzero with probability 1 - 2**-r_i. f_avg idealizes r_i = k everywhere.
    """
    n = -(-m // k)
    acc = 0.0
    for i in range(n):
        r = sum(1 for j in range(1, k + 1) if (j - 1) * n + i < m)
        acc += 1.0 - 0.5 ** r
    return acc + combine_cost(k) + (k - 1)


# --- closed forms -----------------------------------------------------------

def test_phase_constant():
    assert [phase_constant(k) for k in range(1, 6)] == [0, 3, 10, 25, 56]


def test_f_avg_frozen_values():
    assert f_avg(1024, 5) == Fraction(8147, 32)
    assert float(f_avg(1024, 5)) == 254.59375
    assert f_avg(84, 3) == Fraction(69, 2)


@given(st.integers(min_value=1, max_value=5000))
def test_f_avg_k1_is_half_m(m):
    assert f_avg(m, 1) == Fraction(m, 2)
    assert f_wst(m, 1) == m


def test_f_wst_frozen_values():
    assert f_wst(1024, 5) == 261
    assert f_wst(12, 2) == 9
    assert f_wst(100, 4) == 50


@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=10))
def test_f_avg_below_f_wst(m, k):
    assert f_avg(m, k) < f_wst(m, k)
    assert f_avg(m, k) > phase_constant(k)


def test_validation():
    for fn in (f_avg, f_wst, affine_avg, memory_bits):
        with pytest.raises(ValueError):
            fn(0, 2)
        with pytest.raises(ValueError):
            fn(8, 0)
    with pytest.raises(ValueError):
        measure_mean(8, 2, 0, 0)


def test_worst_case_ledger_equals_f_wst():
    for m in (12, 60, 100):
        for k in (2, 3, 4, 5):
            b = BitNum((1 << m) - 1)
            _, ledger = multiply(BitNum(7), b, m, k)
            assert ledger.total == f_wst(m, k)


def test_affine_equals_ceiling_form_when_k_divides_m():
    for k in range(1, 9):
        for mult in (1, 3, 20, 100):
            m = k * mult
            assert affine_avg(m, k) == f_avg(m, k)


# --- degree selection -------------------------------------------------------

def test_crossings_exact():
    assert crossing(1, 2) == 24
    assert crossing(2, 3) == 84
    assert crossing(3, 4) == Fraction(2880, 11)
    assert crossing(4, 5) == Fraction(9920, 13)
    assert crossing(5, 6) == Fraction(40320, 19)


def test_integer_crossings_are_exact_ties():
    assert affine_avg(24, 1) == affine_avg(24, 2)
    assert affine_avg(84, 2) == affine_avg(84, 3)


def test_optimal_k_boundaries():
    assert optimal_k(23) == 1
    assert optimal_k(24) == 2
    assert optimal_k(83) == 2
    assert optimal_k(84) == 3
    assert optimal_k(261) == 3
    assert optimal_k(262) == 4
    assert optimal_k(763) == 4
    assert optimal_k(764) == 5
    assert optimal_k(1024) == 5
    assert optimal_k(2122) == 5
    assert optimal_k(2123) == 6


def test_optimal_k_exhaustive_scan_matches_ranges():
    ranges = {r.k: (r.m_lo, r.m_hi) for r in table1()}
    assert ranges == {2: (24, 83), 3: (84, 261), 4: (262, 763), 5: (764, 2122)}
    prev = optimal_k(24)
    for m in range(24, 2123):
        k = optimal_k(m)
        lo, hi = ranges[k]
        assert lo <= m <= hi
        assert k >= prev  # piecewise constant, nondecreasing
        prev = k


def test_optimal_k_respects_k_max():
    assert optimal_k(2123, k_max=5) == 5
    assert optimal_k(1024, k_max=2) == 2


def test_optimal_k_rejects_k_max_over_the_degree_ceiling():
    # the ceiling is the one multiply tests first: no m fits a wider bank
    assert K_CEILING == BANK_BUDGET_BITS.bit_length() - 1 == 27
    for k_max in (K_CEILING + 1, 10**9):
        with pytest.raises(ValueError, match=f"exceeds {K_CEILING}"):
            optimal_k(1024, k_max=k_max)


def test_optimal_k_ceiling_does_not_depend_on_m():
    assert optimal_k(10**9, k_max=K_CEILING) == 21
    assert optimal_k(10_000_000) == 8
    assert optimal_k(1, k_max=K_CEILING) == 1


# --- comparison numbers -------------------------------------------------------

def test_asymptotic_ratios():
    assert asymptotic_ratio(1) == 1
    assert asymptotic_ratio(2) == Fraction(4, 3)
    assert asymptotic_ratio(3) == Fraction(12, 7)
    assert asymptotic_ratio(5) == Fraction(80, 31)


def test_combine_and_yen_costs():
    assert [combine_cost(k) for k in range(1, 6)] == [0, 2, 8, 22, 52]
    assert [yen_cost(k) for k in range(1, 6)] == [0, 2, 9, 28, 75]
    for k in range(1, 3):
        assert combine_cost(k) == yen_cost(k)
    for k in range(3, 12):
        assert combine_cost(k) < yen_cost(k)


@given(st.integers(min_value=1, max_value=20))
def test_combine_cost_equals_literal_sum(k):
    assert combine_cost(k) == sum((1 << i) - 2 for i in range(1, k + 1))


def test_memory_bits():
    assert memory_bits(16, 1) == 32
    assert memory_bits(1024, 5) == 38099


# --- operating-range table rendering -----------------------------------------

def test_table1_forms():
    rows = {r.k: r for r in table1()}
    assert rows[2].avg_form() == "0.375*m + 3"
    assert rows[2].wst_form() == "0.500*m + 3"
    assert rows[3].avg_form() == "0.292*m + 10"
    assert rows[3].wst_form() == "0.333*m + 10"
    assert rows[4].avg_form() == "0.234*m + 25"
    assert rows[4].wst_form() == "0.250*m + 25"
    assert rows[5].avg_form() == "0.194*m + 56"
    assert rows[5].wst_form() == "0.200*m + 56"


def test_table1_coefficients_are_exact_fractions():
    for r in table1():
        assert r.avg_coeff == Fraction((1 << r.k) - 1, r.k << r.k)
        assert r.wst_coeff == Fraction(1, r.k)
        assert r.constant == phase_constant(r.k)


# --- Monte Carlo ---------------------------------------------------------------

def test_measured_mean_matches_f_avg_without_padding():
    # cells where k divides m so every column sees k random bits and f_avg
    # is the exact expectation
    for m, k in ((32, 2), (64, 2), (128, 2), (60, 3), (126, 3),
                 (32, 4), (64, 4), (100, 5)):
        mean, se = measure_mean(m, k, 400, seed=0)
        assert abs(mean - float(f_avg(m, k))) <= 3 * se


def test_measured_mean_matches_padded_expectation():
    for m, k in ((32, 3), (100, 3), (33, 4), (50, 6), (17, 8)):
        mean, se = measure_mean(m, k, 300, seed=0)
        expected = _exact_mean_total(m, k)
        assert expected <= float(f_avg(m, k))
        assert abs(mean - expected) <= 3 * se


def test_measure_mean_deterministic():
    assert measure_mean(64, 3, 25, seed=9) == measure_mean(64, 3, 25, seed=9)
    # one trial has no spread to estimate
    assert measure_mean(64, 2, 1, 3)[1] == 0.0


def test_measure_mean_checks_the_bank_before_drawing():
    # m = 2**27 at k = 5 is over the bank budget; drawing its two operands
    # first would peak near 100 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the budget"):
            measure_mean(1 << 27, 5, 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=160),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 320))
def test_random_totals_never_exceed_worst_case(m, k, x):
    mask = (1 << m) - 1
    b = BitNum(x & mask)
    _, ledger = multiply(BitNum((x >> 160) & mask), b, m, k)
    assert ledger.total <= f_wst(m, k)
    assert ledger.peak_cell_bits <= m + -(-m // k)


def test_sweep_rows_and_columns():
    rows = sweep([16, 32], [1, 2], trials=10, seed=4)
    assert len(rows) == 4
    for r in rows:
        assert tuple(r) == SWEEP_COLUMNS
        assert r["trials"] == 10 and r["seed"] == 4
        assert r["n"] == -(-r["m"] // r["k"])
    again = sweep([16, 32], [1, 2], trials=10, seed=4)
    assert rows == again


def test_sweep_f_avg_is_f_avg_rounded_once(monkeypatch):
    # sweep divides f_avg's numerator by its denominator with no Fraction
    # built; int / int rounds correctly, so the float is float(f_avg)
    monkeypatch.setattr(costmodel, "measure_mean",
                        lambda m, k, trials, seed: (0.0, 0.0))
    for m in (*range(1, 301), 2**20 + 1):
        for row in sweep([m], range(1, 13), 1, 0):
            assert row["f_avg"] == float(f_avg(m, row["k"])), (m, row["k"])
