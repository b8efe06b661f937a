"""The kernel layer: one fold kernel, both baselines at k = 1, and draws.

fold_multiply, fold_ledger, fold_trials and bernoulli_bits come from the
compiled lane `_corec` when it is built (`python3 setup.py build_ext --inplace`)
and from _corepy otherwise, all from one lane; KERNEL_NAME names the
lane and KERNEL_REASON says why it was chosen. _corepy's NAF masks, the
bit reader `_bit_flags` that SignedDigitString.digits is read with, its
one bit packer `_from_bits`, draw_bits, which cuts m-bit values from a
caller's numpy Generator, and seeded_bits are re-exported on both
lanes. folding.multiply, both baselines, costmodel.measure_mean and
density.bernoulli_block call through this module, so the kernel stays
one layer that can be timed, traced or replaced on its own.

classical_multiply(a, b) is fold_multiply at k = 1, so its count is
popcount(b). csd_multiply(a, b) folds the +1 and -1 masks of b's NAF,
calling fold_multiply for each directly, and subtracts the second
product from the first; its count is the NAF weight, and the one
subtraction that joins them is not counted.

The compiled lane folds in one static 1 MiB region that it keeps between
fold_multiply calls, with the last multiplicand's shifted copies and the
last multiplier's bytes, and reuses them when the very same exact int
comes back: the folds of one pair at k = 1..8 and both baselines on it
read and shift the multiplicand once. A call that needs more than 1 MiB
drops both kept operands, folds in a zeroed buffer of its own and frees
it before it returns. The pure lane keeps nothing between calls.

The compiled lane's fold loops are one fold routine per instruction set:
a baseline routine and, on x86-64 gcc and clang builds, wide routines for
AVX-512F and AVX2, whose adds run 8 or 4 lanes to a vector. Each routine
builds the multiplicand's shifted copies when they are new, zeroes what
it writes unless its buffer came zeroed, and runs the three phases. The
module picks the wide routine once, at import, from what the CPU
supports, and exports the choice as _corec.SIMD: "avx512f", "avx2" or
"baseline", which KERNEL_REASON names. A fold whose shifted multiplicand
holds at least _corec.WIDE_LANES = 16 lanes (a multiplicand over 448
bits) runs the wide routine; a narrower one, every fold of criterion 1's
m <= 256, runs the baseline routine. Every routine returns the same
tuples.

seeded_bits(entropy, m, count) is
draw_bits(np.random.default_rng(entropy), m, count).

fold_trials(seed, m, k, trials) runs one sweep point: trial t folds the
pair seeded_bits((seed, m, k, t), m, 2), and the call returns
(accumulate_adds, combine_adds, horner_adds, total_squares,
product_residues), each count summed over the trials, total_squares the
sum of each trial's squared total and product_residues the sum of each
product mod 2**32 - 1. The pure lane loops over seeded_bits and
fold_multiply. The compiled lane is one call: it runs numpy's
SeedSequence and PCG64 in C, draws each pair straight into the fold's
limbs, runs every phase fold_multiply runs, and builds no int per trial,
not even the product. It folds in a buffer of its own, zeroing what each
trial's fold writes, so the operands fold_multiply keeps stay kept. It
never releases the GIL, and it checks for signals between trials, so
Ctrl-C stops a long point.

bernoulli_bits(rng, b, delta) is the int whose bit i is set iff the
i-th of the b doubles rng.random(b) draws is below float(delta), for a
numpy Generator rng. density.bernoulli_block, its one caller, checks
that rng is a Generator, and neither lane checks it again, as
folding.multiply checks fold_multiply's operands. The pure lane packs
that bool array; the compiled lane calls the bit generator's next_double
b times through numpy's "BitGenerator" capsule, under the bit
generator's lock, and packs each 64 bits into one word. Both leave rng
in the same state.

Both lanes run one schedule: accumulate adds A shifted to column i's
offset into the cell that column's pattern names, once per nonzero
column; combine and Horner follow, on the pure lane as the _corepy phase
functions that folding's phases run. The n columns fill at most n of the
2**k - 1 cells: the compiled lane skips every combine add whose source
cell is still empty, while the pure lane performs every add. Both count
the whole schedule, so the ledgers agree. After combine no cell is wider
than the part cell 2**j of its top bit, so the compiled lane measures
peak_cell_bits on the k part cells alone and the pure lane, the
all-cell reference, on every cell. On either lane fold_multiply(a, b,
m, k) returns (product, accumulate_adds, combine_adds, horner_adds,
shifts, peak_cell_bits): after the product come folding.CostLedger's
fields in declared order. shifts is the model's n column shifts plus
k - 1 Horner shifts. The baselines read that tuple, as do the
lane-parity checks of the tests and of bench/run.py.

fold_ledger(a, b, m, k, product_type, ledger_type) runs the same fold
and returns folding.multiply's result itself, (product, ledger): a
product_type whose _value is the product int, and a ledger_type whose
__dict__ maps CostLedger's field names to the counts, both built with no
__init__ call, the dict set past a frozen dataclass's __setattr__.
folding.multiply passes BitNum and CostLedger and returns what it gets,
so on the compiled lane no Python code runs between the fold and the
caller. Each class must have object's __new__; the compiled lane raises
TypeError for any other.
"""

from . import _corepy
from ._corepy import _bit_flags, _from_bits, draw_bits, naf_masks, seeded_bits

try:
    from ._corec import (SIMD, bernoulli_bits, fold_ledger, fold_multiply,
                         fold_trials)
except ImportError as exc:
    from ._corepy import (bernoulli_bits, fold_ledger, fold_multiply,
                          fold_trials)
    KERNEL_NAME = _corepy.KERNEL_NAME
    KERNEL_REASON = f"compiled lane not importable: {exc}"
else:
    KERNEL_NAME = "compiled"
    KERNEL_REASON = f"opfold._corec is built, {SIMD} loops"

__all__ = ["KERNEL_NAME", "KERNEL_REASON", "bernoulli_bits",
           "classical_multiply", "csd_multiply", "draw_bits", "fold_ledger",
           "fold_multiply", "fold_trials", "naf_masks", "seeded_bits"]


def classical_multiply(a, b):
    """Shift-and-add product on the chosen lane; returns (product, adds)."""
    return fold_multiply(a, b, (a | b).bit_length() or 1, 1)[:2]


def csd_multiply(a, b):
    """Signed-digit product on the chosen lane; returns (product, adds)."""
    plus, minus = naf_masks(b)
    # classical_multiply's two folds, called directly
    p, p_adds = fold_multiply(a, plus, (a | plus).bit_length() or 1, 1)[:2]
    q, q_adds = fold_multiply(a, minus, (a | minus).bit_length() or 1, 1)[:2]
    return p - q, p_adds + q_adds
