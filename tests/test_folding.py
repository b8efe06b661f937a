"""Folded multiplication: decomposition, phases, ledgers, oracle equivalence."""

import dataclasses
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opfold import folding
from opfold.bitnum import BitNum
from opfold.costmodel import combine_cost, f_avg, f_wst, memory_bits, optimal_k
from opfold.folding import (
    BANK_BUDGET_BITS,
    CELL_OVERHEAD_BITS,
    K_CEILING,
    AccumulatorBank,
    CostLedger,
    Decomposition,
    accumulate,
    bank_bits,
    characteristic_vectors,
    combine,
    format_trace,
    horner_assemble,
    multiply,
    split,
    trace_multiply,
)

TOY = BitNum(0b101010100011)


@st.composite
def mk_cases(draw, m_max=192, k_max=6):
    m = draw(st.integers(min_value=1, max_value=m_max))
    k = draw(st.integers(min_value=1, max_value=k_max))
    a = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    return m, k, a, b


# --- split ---------------------------------------------------------------

def test_split_toy():
    d = split(TOY, 12, 2)
    assert (d.n, d.k) == (6, 2)
    assert d.part(2) == BitNum(0b101010)
    assert d.part(1) == BitNum(0b100011)
    assert d.reassemble() == TOY


def test_split_k1_identity():
    d = split(TOY, 12, 1)
    assert d.parts == (TOY,)
    assert d.n == 12


def test_split_padding_rule():
    d = split(BitNum(1), 10, 3)
    assert d.n == 4
    assert d.parts == (BitNum(1), BitNum(0), BitNum(0))


def test_split_rejects():
    with pytest.raises(ValueError):
        split(TOY, 12, 0)
    with pytest.raises(ValueError):
        split(TOY, 0, 2)
    with pytest.raises(ValueError):
        split(TOY, 11, 2)  # 12-bit operand


@pytest.mark.parametrize("m, k, n, parts, message", [
    (4, 2, 2, (BitNum(0b111), BitNum(0)), "part 1 has 3 bits, exceeds n = 2"),
    (4, 2, 2, (BitNum(1),), "1 parts for k = 2"),
    (4, 2, 3, (BitNum(1), BitNum(0)), "n = 3 is not ceil(m/k)"),
], ids=["wide-part", "short-tuple", "wrong-n"])
def test_decomposition_refuses_a_bad_part_array(m, k, n, parts, message):
    # a part past n bits was read as the next part's bits by accumulate
    with pytest.raises(ValueError, match=re.escape(message)):
        Decomposition(m=m, k=k, n=n, parts=parts)


@pytest.mark.parametrize("call, message", [
    (lambda: split(TOY, 12, 0), "k must be >= 1, got 0"),
    (lambda: split(TOY, 0, 0), "k must be >= 1, got 0"),
    (lambda: split(TOY, 0, 2), "m must be >= 1, got 0"),
    (lambda: split(TOY, 11, 2), "operand has 12 bits, exceeds m = 11"),
    (lambda: multiply(BitNum(1), BitNum(1), 0, 0), "k must be >= 1, got 0"),
    (lambda: multiply(BitNum(1), BitNum(1), 0, 2), "m must be >= 1, got 0"),
    (lambda: multiply(BitNum(256), BitNum(256), 8, 2),
     "multiplicand has 9 bits, exceeds m = 8"),
    (lambda: trace_multiply(BitNum(1), BitNum(256), 8, 2),
     "multiplier has 9 bits, exceeds m = 8"),
    # every entry point names k first when both m and k are bad
    (lambda: f_avg(0, 0), "k must be >= 1, got 0"),
    (lambda: memory_bits(0, 0), "k must be >= 1, got 0"),
    (lambda: optimal_k(0, 0), "k must be >= 1, got 0"),
    (lambda: bank_bits(0, 0), "k must be >= 1, got 0"),
    # multiply's fast path refuses what the checks refuse, with their message
    (lambda: multiply(BitNum(1 << 100), BitNum(1), 100, 2),
     "multiplicand has 101 bits, exceeds m = 100"),
    (lambda: multiply(BitNum(1), BitNum(1 << 100), np.int64(100), 2),
     "multiplier has 101 bits, exceeds m = 100"),
    (lambda: multiply(BitNum(1 << 8), BitNum(1), 8, 0),
     "k must be >= 1, got 0"),
    (lambda: multiply(BitNum(0), BitNum(0), 0, 1), "m must be >= 1, got 0"),
    (lambda: multiply(BitNum(1), BitNum(1), 8, K_CEILING + 1),
     f"k = {K_CEILING + 1} at m = 8 needs an accumulator bank over the "
     f"budget of {BANK_BUDGET_BITS} bits"),
    (lambda: multiply(BitNum(0), BitNum(0), 1 << 20, 10),
     f"k = 10 at m = {1 << 20} needs an accumulator bank over the budget "
     f"of {BANK_BUDGET_BITS} bits"),
])
def test_input_check_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("m, k", [(1 << 36, 27), (1 << 40, 23), (1 << 43, 20)],
                         ids=["2^36-27", "2^40-23", "2^43-20"])
def test_numpy_int_shapes_over_budget_refused_as_ints(m, k):
    # (2**k - 1) * (m + ceil(m/k)) passes 2**63 here: in int64 it wraps, to
    # a negative bank at (2**36, 27), and the shape would pass the budget
    with pytest.raises(ValueError) as want:
        multiply(BitNum(0), BitNum(0), m, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bank_bits(np.int64(m), np.int64(k)) == bank_bits(m, k)
        assert memory_bits(np.int64(m), np.int32(k)) == memory_bits(m, k)
        for call in (
                lambda: multiply(BitNum(0), BitNum(0), np.int64(m), k),
                lambda: multiply(BitNum(1), BitNum(1), np.int64(m),
                                 np.int64(k)),
                lambda: folding._validate_multiply(np.int64(m), k)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == str(want.value)


@pytest.mark.parametrize("m", [100, np.int64(100)], ids=["int", "numpy-int64"])
def test_multiply_accepts_operands_exactly_m_bits_wide(m):
    # the fast path compares bit lengths with m, so a numpy int m works as
    # a plain one does; a shortcut such as (a | b) >> m raises
    # OverflowError for it
    a, b = (1 << 100) - 1, 1 << 99 | 5
    product, ledger = multiply(BitNum(a), BitNum(b), m, 4)
    assert product.to_int() == a * b
    assert ledger == trace_multiply(BitNum(a), BitNum(b), 100, 4).ledger


@given(mk_cases())
def test_split_reassembles(case):
    m, k, _, b = case
    d = split(BitNum(b), m, k)
    assert d.n == -(-m // k)
    assert len(d.parts) == k
    assert d.reassemble() == BitNum(b)
    for p in d.parts:
        assert p.bit_length() <= d.n


# --- characteristic vectors ----------------------------------------------

def test_vectors_toy():
    d = split(TOY, 12, 2)
    vecs = characteristic_vectors(d, include_zero=True)
    assert vecs[0b00] == BitNum(0b010100)
    assert vecs[0b01] == BitNum(0b000001)
    assert vecs[0b10] == BitNum(0b001000)
    assert vecs[0b11] == BitNum(0b100010)
    assert set(characteristic_vectors(d)) == {1, 2, 3}


def test_vectors_zero_operand():
    vecs = characteristic_vectors(split(BitNum(0), 12, 2))
    assert all(v.is_zero() for v in vecs.values())


@given(mk_cases(k_max=5))
def test_vectors_disjoint_and_cover(case):
    m, k, _, b = case
    d = split(BitNum(b), m, k)
    vecs = characteristic_vectors(d, include_zero=True)
    assert set(vecs) == set(range(1 << k))
    keys = sorted(vecs)
    union = BitNum(0)
    for i, v in enumerate(keys):
        union = union | vecs[v]
        for w in keys[i + 1:]:
            assert (vecs[v] & vecs[w]).is_zero()
    assert union == BitNum((1 << d.n) - 1)


@given(mk_cases(k_max=5))
def test_vectors_restore_parts(case):
    m, k, _, b = case
    d = split(BitNum(b), m, k)
    vecs = characteristic_vectors(d)
    for j in range(1, k + 1):
        total = BitNum(0)
        for v, vec in vecs.items():
            if v >> (j - 1) & 1:
                total = total + vec
        assert total == d.part(j)


def _probe_vectors(d):
    """The per-bit route: one probe per part and column, keyed by pattern."""
    rows = [0] * (1 << d.k)
    for i in range(d.n):
        col = 0
        for j, p in enumerate(d.parts):
            if p.bit(i):
                col |= 1 << j
        rows[col] |= 1 << i
    return {v: BitNum(r) for v, r in enumerate(rows)}


def test_vectors_match_per_bit_probe_grid():
    rng = random.Random(2011)
    for m in range(1, 41):
        seeded = (rng.getrandbits(m), rng.getrandbits(m))
        for k in range(1, 11):
            for b in (0, (1 << m) - 1, *seeded):
                d = split(BitNum(b), m, k)
                assert characteristic_vectors(d, include_zero=True) == \
                    _probe_vectors(d), (m, k, b)


@pytest.mark.parametrize("m, k", [(1024, 5), (4096, 8)])
def test_vectors_match_per_bit_probe_wide(m, k):
    rng = random.Random(m)
    for b in (0, (1 << m) - 1, rng.getrandbits(m), rng.getrandbits(m)):
        d = split(BitNum(b), m, k)
        assert characteristic_vectors(d, include_zero=True) == \
            _probe_vectors(d)
        assert characteristic_vectors(d) == {
            v: vec for v, vec in _probe_vectors(d).items() if v}


# --- accumulate / combine / horner_assemble -------------------------------

def test_accumulate_toy_unit_multiplicand():
    d = split(TOY, 12, 2)
    bank, count = accumulate(BitNum(1), d)
    assert count == 4
    vecs = characteristic_vectors(d)
    for v in (1, 2, 3):
        assert bank.cell(v) == vecs[v]


def test_accumulate_zero_multiplier():
    bank, count = accumulate(BitNum(12345), split(BitNum(0), 16, 3))
    assert count == 0
    assert all(c.is_zero() for c in bank.cells)


@given(mk_cases(m_max=96, k_max=4))
def test_accumulate_cells_match_vector_products(case):
    m, k, a, b = case
    d = split(BitNum(b), m, k)
    bank, count = accumulate(BitNum(a), d)
    vecs = characteristic_vectors(d)
    assert count == sum(v.weight() for v in vecs.values())
    for v, vec in vecs.items():
        assert bank.cell(v).to_int() == a * vec.to_int()


def test_combine_toy():
    d = split(TOY, 12, 2)
    a = BitNum(0b1011)
    bank, _ = accumulate(a, d)
    combined = combine(bank, 2)
    assert combined.cell(0b10).to_int() == a.to_int() * 0b101010
    assert combined.cell(0b01).to_int() == a.to_int() * 0b100011


def test_combine_all_zero_bank():
    bank = AccumulatorBank.zero(3)
    out = combine(bank, 3)
    assert all(c.is_zero() for c in out.cells)


def test_combine_k_mismatch():
    with pytest.raises(ValueError):
        combine(AccumulatorBank.zero(3), 2)


@given(mk_cases(m_max=96, k_max=4))
def test_combine_recovers_part_products(case):
    m, k, a, b = case
    d = split(BitNum(b), m, k)
    bank, _ = accumulate(BitNum(a), d)
    combined = combine(bank, k)
    for j in range(1, k + 1):
        assert combined.cell(1 << (j - 1)).to_int() == a * d.part(j).to_int()


@pytest.mark.parametrize("k", [0, 2, 4])
def test_horner_k_mismatch(k):
    d = split(BitNum(0b110101), 6, 3)
    bank = combine(accumulate(BitNum(5), d)[0], 3)
    assert horner_assemble(bank, d.n, 3).to_int() == 5 * 0b110101
    with pytest.raises(ValueError, match="bank built for k = 3"):
        horner_assemble(bank, d.n, k)


def test_horner_k1_returns_cell_unchanged():
    bank = AccumulatorBank(k=1, cells=(BitNum(99),))
    assert horner_assemble(bank, 7, 1) == BitNum(99)


@given(mk_cases(m_max=96, k_max=4))
def test_horner_matches_positional_sum(case):
    m, k, a, b = case
    d = split(BitNum(b), m, k)
    combined = combine(accumulate(BitNum(a), d)[0], k)
    direct = sum(
        (a * d.part(j).to_int()) << (d.n * (j - 1)) for j in range(1, k + 1))
    assert horner_assemble(combined, d.n, k).to_int() == direct == a * b


def test_bank_cell_index_bounds():
    bank = AccumulatorBank.zero(2)
    with pytest.raises(IndexError):
        bank.cell(0)
    with pytest.raises(IndexError):
        bank.cell(4)


# --- multiply -------------------------------------------------------------

def test_multiply_toy():
    product, ledger = multiply(BitNum(1), TOY, 12, 2)
    assert product == TOY
    assert (ledger.accumulate_adds, ledger.combine_adds,
            ledger.horner_adds) == (4, 2, 1)
    assert ledger.total == 7


def test_multiply_zero_multiplier_ledger():
    for k in (1, 2, 3, 5):
        product, ledger = multiply(BitNum(777), BitNum(0), 16, k)
        assert product.is_zero()
        assert ledger.accumulate_adds == 0
        assert ledger.combine_adds == combine_cost(k)
        assert ledger.horner_adds == k - 1


def test_multiply_k1_is_classical():
    b = BitNum(0b1011001)
    product, ledger = multiply(BitNum(45), b, 7, 1)
    assert product.to_int() == 45 * 0b1011001
    assert (ledger.accumulate_adds, ledger.combine_adds,
            ledger.horner_adds) == (b.weight(), 0, 0)


def test_multiply_rejects():
    with pytest.raises(ValueError):
        multiply(BitNum(1), BitNum(1), 8, 0)
    with pytest.raises(ValueError):
        multiply(BitNum(1), BitNum(1), 8, 25)
    with pytest.raises(ValueError):
        multiply(BitNum(1), BitNum(1), 0, 2)
    with pytest.raises(ValueError):
        multiply(BitNum(256), BitNum(1), 8, 2)
    with pytest.raises(ValueError):
        multiply(BitNum(1), BitNum(256), 8, 2)


def test_multiply_oracle_grid():
    rng = random.Random(424242)
    for _ in range(150):
        m = rng.randrange(1, 300)
        k = rng.randrange(1, 9)
        a = rng.getrandbits(m)
        b = rng.getrandbits(m)
        product, ledger = multiply(BitNum(a), BitNum(b), m, k)
        assert product.to_int() == a * b
        assert ledger.total <= f_wst(m, k)


@given(mk_cases())
def test_multiply_ledger_invariants(case):
    m, k, a, b = case
    n = -(-m // k)
    product, ledger = multiply(BitNum(a), BitNum(b), m, k)
    assert product.to_int() == a * b
    assert ledger.combine_adds == combine_cost(k)
    assert ledger.horner_adds == k - 1
    assert 0 <= ledger.accumulate_adds <= n
    assert ledger.shifts == n + k - 1
    assert ledger.total <= f_wst(m, k)
    assert ledger.peak_cell_bits <= m + n
    assert product.bit_length() <= 2 * m
    vec0 = characteristic_vectors(
        split(BitNum(b), m, k), include_zero=True)[0]
    assert ledger.accumulate_adds == n - vec0.weight()


def test_worst_case_totals_hit_bound_exactly():
    for m in (12, 40, 100):
        for k in (2, 3, 4):
            b = BitNum((1 << m) - 1)
            _, ledger = multiply(BitNum(3), b, m, k)
            assert ledger.total == f_wst(m, k)


@given(mk_cases(m_max=128, k_max=5))
def test_fused_matches_phased_path(case):
    m, k, a, b = case
    product, ledger = multiply(BitNum(a), BitNum(b), m, k)
    trace = trace_multiply(BitNum(a), BitNum(b), m, k)
    assert trace.product == product
    assert trace.ledger == ledger


def test_fused_matches_phased_path_grid():
    # every combine round of every k in 1..10, and accumulate's cells
    # against characteristic_vectors, the word-level route to the patterns
    rng = random.Random(31)
    for m in range(1, 41):
        full = (1 << m) - 1
        pairs = [(0, 0), (full, full)] + [
            (rng.getrandbits(m), rng.getrandbits(m)) for _ in range(2)]
        for k in range(1, 11):
            for a, b in pairs:
                A, B = BitNum(a), BitNum(b)
                product, ledger = multiply(A, B, m, k)
                trace = trace_multiply(A, B, m, k)
                assert product.to_int() == a * b
                d = split(B, m, k)
                bank, count = accumulate(A, d)
                vecs = characteristic_vectors(d)
                assert count == sum(v.weight() for v in vecs.values())
                for v, vec in vecs.items():
                    assert bank.cell(v).to_int() == a * vec.to_int()
                assert (product, ledger) == (trace.product, trace.ledger)


def test_widest_cell_after_combine_is_a_part_product():
    # combine adds each cell v, once final, into part cell 2**t, t = v's top
    # bit, so no cell outgrows that part cell and the peak is the widest
    # part product: the compiled lane measures only the part cells
    rng = random.Random(1105)
    for m in range(1, 41):
        full = (1 << m) - 1
        for k in range(1, 11):
            n = -(-m // k)
            # one set bit per part, at a random offset within it
            one_per_part = sum(1 << rng.randrange(j * n, min(j * n + n, m))
                               for j in range(k) if j * n < m)
            for a, b in ((rng.getrandbits(m), rng.getrandbits(m)),
                         (full, full), (full, one_per_part),
                         (rng.getrandbits(m), one_per_part)):
                A, B = BitNum(a), BitNum(b)
                d = split(B, m, k)
                cells = combine(accumulate(A, d)[0], k)
                for v in range(1, 1 << k):
                    top = cells.cell(1 << (v.bit_length() - 1))
                    assert cells.cell(v) <= top, (m, k, a, b, v)
                widest = max((a * p.to_int()).bit_length() for p in d.parts)
                assert multiply(A, B, m, k)[1].peak_cell_bits == widest


def test_cost_ledger_is_a_frozen_dataclass():
    ledger = CostLedger(4, 2, 1, 7, 6)
    assert [f.name for f in dataclasses.fields(CostLedger)] == [
        "accumulate_adds", "combine_adds", "horner_adds", "shifts",
        "peak_cell_bits"]
    assert repr(ledger) == ("CostLedger(accumulate_adds=4, combine_adds=2, "
                            "horner_adds=1, shifts=7, peak_cell_bits=6)")
    assert ledger == CostLedger(accumulate_adds=4, combine_adds=2,
                                horner_adds=1, shifts=7, peak_cell_bits=6)
    assert ledger != CostLedger(4, 2, 1, 7, 5)
    assert ledger != (4, 2, 1, 7, 6)
    assert hash(ledger) == hash((4, 2, 1, 7, 6))
    assert dataclasses.replace(ledger, shifts=9) == CostLedger(4, 2, 1, 9, 6)
    assert dataclasses.astuple(ledger) == (4, 2, 1, 7, 6)
    assert ledger.total == 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        ledger.shifts = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ledger.shifts
    with pytest.raises(TypeError):
        CostLedger(4, 2, 1, 7)


def test_multiply_ledger_is_the_constructed_frozen_dataclass():
    # multiply fills its ledger past __init__; it must be the same object
    # a constructor call makes
    _, ledger = multiply(BitNum(0b1011), BitNum(0b1101), 4, 2)
    built = CostLedger(*dataclasses.astuple(ledger))
    assert type(ledger) is CostLedger
    assert dataclasses.fields(ledger) == dataclasses.fields(CostLedger)
    assert vars(ledger) == vars(built)
    assert repr(ledger) == repr(built) == (
        "CostLedger(accumulate_adds=2, combine_adds=2, horner_adds=1, "
        "shifts=3, peak_cell_bits=6)")
    assert ledger == built and not ledger != built
    assert hash(ledger) == hash(built) == hash((2, 2, 1, 3, 6))
    assert dataclasses.replace(ledger, shifts=9) == CostLedger(2, 2, 1, 9, 6)
    assert dataclasses.astuple(ledger) == (2, 2, 1, 3, 6)
    assert ledger.total == 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        ledger.shifts = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ledger.shifts


# --- bank budget -----------------------------------------------------------

def test_bank_bits_is_memory_bits_plus_cell_overhead():
    for m, k in ((1, 1), (12, 2), (1024, 5), (4096, 8), (3000, 11)):
        assert bank_bits(m, k) == (memory_bits(m, k)
                                   + ((1 << k) - 1) * CELL_OVERHEAD_BITS)


def test_bank_budget_accepts_every_k_to_8_up_to_m_4096():
    assert max(bank_bits(m, k) for m in (1, 4095, 4096)
               for k in range(1, 9)) <= BANK_BUDGET_BITS
    product, _ = multiply(BitNum(3), BitNum((1 << 4096) - 1), 4096, 8)
    assert product.to_int() == 3 * ((1 << 4096) - 1)


def test_bank_budget_boundary():
    # largest accepted k at m = 1 and the first rejected one; only the
    # accepted side is multiplied
    k = max(k for k in range(1, 28) if bank_bits(1, k) <= BANK_BUDGET_BITS)
    assert bank_bits(1, k + 1) > BANK_BUDGET_BITS
    product, _ = multiply(BitNum(1), BitNum(1), 1, k)
    assert product == BitNum(1)
    for fn in (multiply, trace_multiply):
        with pytest.raises(ValueError, match=str(BANK_BUDGET_BITS)):
            fn(BitNum(1), BitNum(1), 1, k + 1)
    # a wide operand at the paper's k = 5 is over budget too; zero operands
    # keep the rejected call from building anything
    m = 4_000_000
    assert bank_bits(m, 5) > BANK_BUDGET_BITS
    with pytest.raises(ValueError, match="budget"):
        multiply(BitNum(0), BitNum(0), m, 5)


def test_m_max_is_the_largest_m_the_budget_admits():
    # multiply's one-lookup test against the budget rule it stands for;
    # a degree no m admits has a 0 entry
    assert len(folding._M_MAX) == K_CEILING + 1
    for k in range(1, K_CEILING + 1):
        m_max = folding._M_MAX[k]
        if m_max:
            assert bank_bits(m_max, k) <= BANK_BUDGET_BITS, k
        assert BANK_BUDGET_BITS < bank_bits(m_max + 1, k), k
    assert folding._M_MAX[1] > folding._M_MAX[8] > 4096
    assert folding._M_MAX[K_CEILING] == 0


@pytest.mark.parametrize("kind", [int, np.int64], ids=["int", "numpy-int64"])
def test_multiply_refuses_one_past_m_max(kind):
    # zero operands keep every refused call from building anything
    for k in range(1, K_CEILING + 1):
        m = folding._M_MAX[k] + 1
        with pytest.raises(ValueError) as info:
            multiply(BitNum(0), BitNum(0), kind(m), kind(k))
        assert str(info.value) == (
            f"k = {k} at m = {m} needs an accumulator bank over the budget "
            f"of {BANK_BUDGET_BITS} bits"), k


def test_bank_budget_rejects_huge_k_without_building_it():
    with pytest.raises(ValueError, match="budget"):
        multiply(BitNum(1), BitNum(1), 4096, 10**12)


# --- k=2 reference loop ----------------------------------------------------
# Transcription of the halved-operand procedure: a case switch over the two
# column bits, one running left shift of A per column, two combination adds,
# one shifted reassembly. Every intermediate is checked against a plain
# integer model, then the end-of-phase states against trace_multiply.

def test_k2_literal_procedure():
    rng = random.Random(9)
    for _ in range(25):
        m = rng.randrange(2, 120)
        a = rng.getrandbits(m)
        b = rng.getrandbits(m)
        trace = trace_multiply(BitNum(a), BitNum(b), m, 2)
        n = trace.decomposition.n
        b1, b2 = (trace.decomposition.part(j).to_int() for j in (1, 2))

        cells = {0b01: BitNum(0), 0b10: BitNum(0), 0b11: BitNum(0)}
        model = {0b01: 0, 0b10: 0, 0b11: 0}
        ax, ax_model = BitNum(a), a
        for i in range(n):
            col = (b2 >> i & 1) << 1 | (b1 >> i & 1)
            if col:
                cells[col] = cells[col] + ax
                model[col] += ax_model
            ax = ax << 1
            ax_model <<= 1
            assert ax.to_int() == ax_model
            assert all(cells[v].to_int() == model[v] for v in cells)
        for v in cells:
            assert cells[v] == trace.bank_accumulated.cell(v)

        cells[0b10] = cells[0b10] + cells[0b11]
        cells[0b01] = cells[0b01] + cells[0b11]
        for v in cells:
            assert cells[v] == trace.bank_combined.cell(v)

        product = (cells[0b10] << n) + cells[0b01]
        assert product == trace.product
        assert product.to_int() == a * b


# --- trace formatting -------------------------------------------------------

def test_format_trace_toy_sections():
    text = format_trace(trace_multiply(BitNum(1), TOY, 12, 2))
    assert "operands (m=12, k=2, n=6)" in text
    assert "B_1 = 100011" in text
    assert "B_2 = 101010" in text
    assert "B_(11) = 100010" in text
    assert "C_(10)" in text
    assert "(dec 2723)" in text
    assert "accumulate_adds = 4" in text
    assert "shifts          = 7 (excluded from total)" in text


@settings(max_examples=25)
@given(mk_cases(m_max=64, k_max=3))
def test_format_trace_total_renders(case):
    m, k, a, b = case
    trace = trace_multiply(BitNum(a), BitNum(b), m, k)
    assert f"total           = {trace.ledger.total}" in format_trace(trace)
