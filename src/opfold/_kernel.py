"""The multiply kernel layer.

Re-exports the int kernels of _corepy, with the NAF masks and the bit
reader `_bit_flags` that SignedDigitString.digits is read with.
fold_multiply comes from the compiled lane `_corec` when it is built
(`python3 setup.py build_ext --inplace`) and from _corepy otherwise;
KERNEL_NAME names the lane and KERNEL_REASON says why it was chosen.
folding.multiply and both baselines call through this module, so the
kernel stays one layer that can be timed, traced or replaced on its own.

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
from ._corepy import _bit_flags, classical_multiply, csd_multiply, naf_masks

try:
    from ._corec import fold_multiply
except ImportError as exc:
    fold_multiply = _corepy.fold_multiply
    KERNEL_NAME = _corepy.KERNEL_NAME
    KERNEL_REASON = f"compiled lane not importable: {exc}"
else:
    KERNEL_NAME = "compiled"
    KERNEL_REASON = "opfold._corec is built"

__all__ = ["KERNEL_NAME", "KERNEL_REASON", "classical_multiply",
           "csd_multiply", "fold_multiply", "naf_masks"]
