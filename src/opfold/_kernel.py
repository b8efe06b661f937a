"""The multiply kernel layer.

Re-exports the int kernels of _corepy, with the NAF masks and the bit
reader `_bit_flags` that SignedDigitString.digits is read with.
fold_multiply comes from the compiled lane `_corec` when it is built
(`python3 setup.py build_ext --inplace`) and from _corepy otherwise;
KERNEL_NAME names the lane and KERNEL_REASON says why it was chosen.
folding.multiply and both baselines call through this module, so the
kernel stays one layer that can be timed, traced or replaced on its own.
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
