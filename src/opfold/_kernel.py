"""The multiply kernel layer.

A plain re-export of the int kernels in _corepy. folding.multiply and
baselines.classical_multiply call through this module, so the kernel stays
one layer that can be timed, traced or replaced on its own.
"""

from ._corepy import KERNEL_NAME, classical_multiply, fold_multiply

__all__ = ["KERNEL_NAME", "classical_multiply", "fold_multiply"]
