"""The multiply kernel layer: one fold kernel, with both baselines at k = 1.

fold_multiply and seeded_bits come from the compiled lane `_corec` when
it is built (`python3 setup.py build_ext --inplace`) and from _corepy
otherwise, both from one lane; KERNEL_NAME names the lane and
KERNEL_REASON says why it was chosen. _corepy's NAF masks, the bit
reader `_bit_flags` that SignedDigitString.digits is read with, and
draw_bits, which cuts m-bit values from a caller's numpy Generator, are
re-exported. folding.multiply and both baselines call through this
module, so the kernel stays one layer that can be timed, traced or
replaced on its own.

classical_multiply(a, b) is fold_multiply at k = 1, so its count is
popcount(b). csd_multiply(a, b) folds the +1 and -1 masks of b's NAF
and subtracts the second product from the first; its count is the NAF
weight, and the one subtraction that joins them is not counted.

seeded_bits(entropy, m, count) gives the values
draw_bits(np.random.default_rng(entropy), m, count) gives, for the
entropy both lanes accept. The pure lane builds that Generator; the
compiled lane runs numpy's SeedSequence and PCG64 in C and builds none,
and its values are the same bit for bit.

Both lanes run one schedule: accumulate adds A shifted to column i's
offset into the cell that column's pattern names, once per nonzero
column; combine and Horner follow. On either lane fold_multiply(a, b,
m, k) returns (product, accumulate_adds, combine_adds, horner_adds,
shifts, peak_cell_bits): after the product come folding.CostLedger's
fields in declared order, and folding.multiply builds the ledger from
them positionally. shifts is the model's n column shifts plus k - 1
Horner shifts.
"""

from . import _corepy
from ._corepy import _bit_flags, draw_bits, naf_masks

try:
    from ._corec import fold_multiply, seeded_bits
except ImportError as exc:
    from ._corepy import fold_multiply, seeded_bits
    KERNEL_NAME = _corepy.KERNEL_NAME
    KERNEL_REASON = f"compiled lane not importable: {exc}"
else:
    KERNEL_NAME = "compiled"
    KERNEL_REASON = "opfold._corec is built"

__all__ = ["KERNEL_NAME", "KERNEL_REASON", "classical_multiply",
           "csd_multiply", "draw_bits", "fold_multiply", "naf_masks",
           "seeded_bits"]


def classical_multiply(a, b):
    """Shift-and-add product on the chosen lane; returns (product, adds)."""
    return fold_multiply(a, b, max(a.bit_length(), b.bit_length(), 1), 1)[:2]


def csd_multiply(a, b):
    """Signed-digit product on the chosen lane; returns (product, adds)."""
    plus, minus = naf_masks(b)
    p, p_adds = classical_multiply(a, plus)
    q, q_adds = classical_multiply(a, minus)
    return p - q, p_adds + q_adds
