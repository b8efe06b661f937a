"""Operand-folding multiplication.

The multiplier B is split into k parts of n = ceil(m/k) bits viewed as a
k x n bit array. One pass over the n columns adds the shifted multiplicand
into one of 2**k - 1 accumulator cells keyed by the column pattern
(accumulate). A fixed schedule of 2**(k+1) - 2k - 2 additions then turns
cell 2**(j-1) into A x B_j for every part (combine), and a Horner pass of
k - 1 shift-by-n adds reassembles the full product.

`multiply` runs the chosen kernel lane and reports a per-phase addition
ledger; the lane's fold_ledger builds the BitNum product and the
CostLedger, so multiply only checks the operands. `accumulate` /
`combine` / `horner_assemble` expose the phases over BitNum values for
inspection, and `trace_multiply` snapshots them; all
four run the pure lane's own phase functions in _corepy, so the phases are
written once in Python. `characteristic_vectors` is an independent,
word-level route to the column patterns, built from whole parts with AND
and complement, that the tests check accumulate's cells against.
"""

from dataclasses import dataclass, field

from . import _corepy
from . import _kernel as _k
from .bitnum import BitNum
from .costmodel import K_CEILING, _M_MAX, _validate_multiply


@dataclass(frozen=True)
class Decomposition:
    """B as k zero-padded n-bit parts, parts[0] = B_1 (least significant)."""

    m: int
    k: int
    n: int
    parts: tuple

    def __post_init__(self):
        # split builds only these, for an (m, k) the bank budget admits;
        # accumulate reads the parts as one multiplier, so a part past n
        # bits would lend its top bits to the next part
        k, n = self.k, self.n
        _validate_multiply(self.m, k)
        if len(self.parts) != k:
            raise ValueError(f"{len(self.parts)} parts for k = {k}")
        if n != -(-self.m // k):
            raise ValueError(f"n = {n} is not ceil(m/k) for m = {self.m}, "
                             f"k = {k}")
        for j, part in enumerate(self.parts, 1):
            if part.bit_length() > n:
                raise ValueError(f"part {j} has {part.bit_length()} bits, "
                                 f"exceeds n = {n}")

    def part(self, j):
        """1-based part accessor: part(1) = B_1 ... part(k) = B_k."""
        return self.parts[j - 1]

    def reassemble(self):
        """Sum of 2**(n*(j-1)) * B_j over all parts."""
        total = BitNum(0)
        for j in range(self.k, 0, -1):
            total = (total << self.n) + self.parts[j - 1]
        return total


@dataclass(frozen=True)
class AccumulatorBank:
    """The 2**k - 1 working cells C_(1) .. C_(2**k - 1)."""

    k: int
    cells: tuple

    def __post_init__(self):
        k = self.k
        if not 1 <= k <= K_CEILING or len(self.cells) != (1 << k) - 1:
            raise ValueError(f"{len(self.cells)} cells for k = {k}, "
                             f"not 2**k - 1")

    @classmethod
    def zero(cls, k):
        """An all-zero bank, refused before it is built at a k whose bank
        the budget admits at no m."""
        _validate_multiply(1, k)
        return cls(k=k, cells=(BitNum(0),) * ((1 << k) - 1))

    def cell(self, v):
        if not 1 <= v < (1 << self.k):
            raise IndexError(f"cell index {v} outside 1..{(1 << self.k) - 1}")
        return self.cells[v - 1]


@dataclass(frozen=True)
class CostLedger:
    """Addition counts per phase; shifts and peak width are diagnostics
    and excluded from total.

    peak_cell_bits is the width of the widest cell after combine, which is
    always a part product A x B_j: combine adds every other cell, once
    final, into the part cell of its top bit, and no cell is negative.
    """

    accumulate_adds: int
    combine_adds: int
    horner_adds: int
    shifts: int
    peak_cell_bits: int

    @property
    def total(self):
        return self.accumulate_adds + self.combine_adds + self.horner_adds


def split(B, m, k):
    """Split B into k parts of n = ceil(m/k) bits, B_k holding the pad,
    for an (m, k) the bank budget admits."""
    _validate_multiply(m, k, ("operand", B))
    return _split(B, m, k)


def _split(B, m, k):
    n = (m + k - 1) // k
    mask = (1 << n) - 1
    v = B.to_int()
    parts = tuple(BitNum._wrap((v >> (j * n)) & mask) for j in range(k))
    return Decomposition(m=m, k=k, n=n, parts=parts)


def characteristic_vectors(d, include_zero=False):
    """Indicator vectors of the column patterns, keyed by pattern.

    Bit r of vectors[v] is 1 iff column r of the part array equals the
    binary pattern v. Each is an AND-product over the parts: part j+1
    where bit j of v is set, its n-bit complement where it is clear
    (Warren, Hacker's Delight, section 7-3). Inspection/testing aid only:
    the multiply path never materializes these.
    """
    rows = [(1 << d.n) - 1]
    for p in map(BitNum.to_int, d.parts):
        rows = [r & ~p for r in rows] + [r & p for r in rows]
    start = 0 if include_zero else 1
    return {v: BitNum._wrap(rows[v]) for v in range(start, 1 << d.k)}


def _bank(k, cells):
    return AccumulatorBank(k, tuple(map(BitNum._wrap, cells[1:])))


def _cells(bank, k, caller):
    if bank.k != k:
        raise ValueError(
            f"bank built for k = {bank.k}, {caller} called with {k}")
    return [0, *map(BitNum.to_int, bank.cells)]


def accumulate(A, d):
    """Algorithm phase 2 over BitNum values, as _corepy.accumulate: returns
    the filled bank and the addition count."""
    patterns = _corepy.column_patterns(d.reassemble().to_int(), d.n, d.k)
    cells, count = _corepy.accumulate(A.to_int(), patterns, d.k)
    return _bank(d.k, cells), count


def combine(bank, k):
    """Decremental combination: after this, cell(2**(j-1)) = A x B_j.

    Rounds run i = k .. 1; round i folds each upper cell 2**(i-1) + j into
    both 2**(i-1) and j. This is the pure kernel lane's _corepy.combine,
    which performs all 2**(k+1) - 2k - 2 additions of the schedule; the
    compiled lane skips those that add an empty cell.
    """
    cells = _cells(bank, k, "combine")
    _corepy.combine(cells, k)
    return _bank(k, cells)


def horner_assemble(bank, n, k):
    """Fold the part products together: k-1 shifts by n, k-1 additions."""
    return BitNum._wrap(
        _corepy.horner(_cells(bank, k, "horner_assemble"), n, k))


def multiply(A, B, m, k):
    """Folded product of two m-bit operands with degree k.

    Returns (product, ledger). For k = 1 the path degenerates to classical
    accumulate-and-add and the ledger is (weight(B), 0, 0).
    """
    a, b = A._value, B._value
    # _validate_multiply's checks as one expression; only a refused input
    # calls it, to raise the error that names the fault
    if not (1 <= k <= K_CEILING and 1 <= m <= _M_MAX[k]
            and (a | b).bit_length() <= m):
        _validate_multiply(m, k, ("multiplicand", A), ("multiplier", B))
    return _k.fold_ledger(a, b, m, k, BitNum, CostLedger)


@dataclass(frozen=True)
class MultiplyTrace:
    """Phase-by-phase snapshot of one folded multiplication."""

    a: BitNum
    b: BitNum
    m: int
    k: int
    decomposition: Decomposition
    vectors: dict = field(repr=False)
    bank_accumulated: AccumulatorBank = field(repr=False)
    bank_combined: AccumulatorBank = field(repr=False)
    product: BitNum
    ledger: CostLedger


def trace_multiply(A, B, m, k):
    """Run the phased reference path, snapshotting every stage."""
    _validate_multiply(m, k, ("multiplicand", A), ("multiplier", B))
    d = _split(B, m, k)
    cells, acc_count = _corepy.accumulate(
        A.to_int(), _corepy.column_patterns(B.to_int(), d.n, k), k)
    bank_acc = _bank(k, cells)
    comb_count = _corepy.combine(cells, k)
    return MultiplyTrace(
        a=A, b=B, m=m, k=k,
        decomposition=d,
        vectors=characteristic_vectors(d),
        bank_accumulated=bank_acc,
        bank_combined=_bank(k, cells),
        product=BitNum._wrap(_corepy.horner(cells, d.n, k)),
        ledger=CostLedger(acc_count, comb_count, k - 1, d.n + k - 1,
                          max(cells).bit_length()),
    )


def _pad_bits(x, width):
    return format(x.to_int(), f"0{width}b") if width > 0 else "0"


def dec_text(x):
    """"(dec …)" with BitNum x's decimal digits, or a note where int-to-str
    conversion refuses that many (sys.get_int_max_str_digits)."""
    try:
        return f"(dec {x.to_dec()})"
    except ValueError:
        return "(dec omitted: over the int-to-str digit limit)"


def format_trace(trace):
    """Human-readable rendering of a MultiplyTrace."""
    d = trace.decomposition
    k, n = trace.k, d.n
    lines = []
    lines.append(f"operands (m={trace.m}, k={k}, n={n})")
    lines.append(f"  A = {trace.a.to_bin()}")
    lines.append(f"  B = {trace.b.to_bin()}")
    lines.append("parts (B_1 = least significant)")
    for j in range(1, k + 1):
        lines.append(f"  B_{j} = {_pad_bits(d.part(j), n)}")
    lines.append("characteristic vectors")
    for v in sorted(trace.vectors):
        label = format(v, f"0{k}b")
        lines.append(f"  B_({label}) = {_pad_bits(trace.vectors[v], n)}")
    for title, bank in (("bank after accumulate", trace.bank_accumulated),
                        ("bank after combine", trace.bank_combined)):
        lines.append(title)
        for v in range(1, 1 << k):
            label = format(v, f"0{k}b")
            lines.append(f"  C_({label}) = {bank.cell(v).to_bin()}")
    lines.append("product")
    lines.append(f"  {trace.product.to_bin()} {dec_text(trace.product)}")
    led = trace.ledger
    lines.append("ledger")
    lines.append(f"  accumulate_adds = {led.accumulate_adds}")
    lines.append(f"  combine_adds    = {led.combine_adds}")
    lines.append(f"  horner_adds     = {led.horner_adds}")
    lines.append(f"  total           = {led.total}")
    lines.append(f"  shifts          = {led.shifts} (excluded from total)")
    lines.append(f"  peak_cell_bits  = {led.peak_cell_bits}")
    return "\n".join(lines)
