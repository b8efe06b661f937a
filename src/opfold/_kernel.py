"""The multiply kernel layer.

A plain re-export of the int kernels in _corepy, with the NAF masks and
the bit reader `_bit_flags` that SignedDigitString.digits is read with.
folding.multiply and both baselines call through this module, so the
kernel stays one layer that can be timed, traced or replaced on its own.
"""

from ._corepy import (
    KERNEL_NAME,
    _bit_flags,
    classical_multiply,
    csd_multiply,
    fold_multiply,
    naf_masks,
)

__all__ = ["KERNEL_NAME", "classical_multiply", "csd_multiply",
           "fold_multiply", "naf_masks"]
