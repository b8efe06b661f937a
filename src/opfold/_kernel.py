"""The kernel layer: the lane choice and what differs between the lanes.

fold_multiply, fold_ledger, fold_trials and bernoulli_bits come from the
compiled lane `_corec` when it is built (`python3 setup.py build_ext --inplace`)
and from _corepy otherwise, all from one lane; KERNEL_NAME names the
lane and KERNEL_REASON says why it was chosen. folding.multiply, both
baselines, costmodel.measure_mean and density.bernoulli_block call them
through this module, so the kernel stays one layer that can be timed,
traced or replaced on its own. Helpers that are the same on both lanes,
the NAF masks, the seeded draws and the bit packers, are _corepy's, and
their callers import them from there.

The lane contract: both lanes take the same arguments, return the same
values and refuse the same bad shapes and operands with the same
exception types and messages. fold_multiply(a, b, m, k) folds ints
0 <= a, b < 2**m at 1 <= m <= 2**32 - 1 and 1 <= k <=
costmodel.K_CEILING, and returns (product, accumulate_adds,
combine_adds, horner_adds, shifts, peak_cell_bits): after the product
come folding.CostLedger's fields in declared order. shifts is the
model's n column shifts plus k - 1 Horner shifts. Both lanes run one
schedule: accumulate adds A shifted to column i's offset into the cell
that column's pattern names, once per nonzero column; combine and Horner
follow, on the pure lane as the _corepy phase functions that folding's
phases run. The n columns fill at most n of the 2**k - 1 cells: the
compiled lane skips every combine add whose source cell is still empty,
while the pure lane performs every add. Both count the whole schedule,
so the ledgers agree. After combine no cell is wider than the part cell
2**j of its top bit, so the compiled lane measures peak_cell_bits on the
k part cells alone and the pure lane, the all-cell reference, on every
cell. The baselines read that tuple, as do the lane-parity checks of the
tests and of bench/run.py.

fold_ledger(a, b, m, k, product_type, ledger_type) runs the same fold
and returns folding.multiply's result itself, (product, ledger): a
product_type whose _value is the product int, and a ledger_type whose
__dict__ maps CostLedger's field names to the counts, both built with no
__init__ call, the dict set past a frozen dataclass's __setattr__.
folding.multiply passes BitNum and CostLedger and returns what it gets,
so on the compiled lane no Python code runs between the fold and the
caller. Each class must have object's __new__; the compiled lane raises
TypeError for any other.

fold_trials(seed, m, k, trials) runs one sweep point: trial t folds the
pair _corepy.seeded_bits((seed, m, k, t), m, 2), and the call returns
(accumulate_adds, combine_adds, horner_adds, total_squares,
product_residues), each count summed over the trials, total_squares the
sum of each trial's squared total and product_residues the sum of each
product mod 2**32 - 1. The pure lane loops over seeded_bits and
fold_multiply; the compiled lane draws the same values from numpy's
stream in C and builds no int per trial.

bernoulli_bits(rng, b, delta) is the int whose bit i is set iff the
i-th of the b doubles rng.random(b) draws is below float(delta), for a
numpy Generator rng, and leaves rng in the same state on both lanes.
density.bernoulli_block, its one caller, checks that rng is a Generator,
and neither lane checks it again.

classical_multiply(a, b) is fold_multiply at k = 1, so its count is
popcount(b). baselines.classical_multiply and bench/run.py's lane-parity
check call it.

How the compiled lane folds, the 1 MiB region it keeps between calls,
the wide fold routines it picks at import (KERNEL_REASON names the
choice) and the numpy stream fold_trials draws in C, is set out in
_corec.c's header.
"""

from . import _corepy

try:
    from ._corec import (SIMD as _SIMD, bernoulli_bits, fold_ledger,
                         fold_multiply, fold_trials)
except ImportError as exc:
    from ._corepy import (bernoulli_bits, fold_ledger, fold_multiply,
                          fold_trials)
    KERNEL_NAME = _corepy.KERNEL_NAME
    KERNEL_REASON = f"compiled lane not importable: {exc}"
else:
    KERNEL_NAME = "compiled"
    KERNEL_REASON = f"opfold._corec is built, {_SIMD} loops"


def classical_multiply(a, b):
    """Shift-and-add product on the chosen lane; returns (product, adds)."""
    return fold_multiply(a, b, (a | b).bit_length() or 1, 1)[:2]
