"""Instrumented operand-folding multiplication models."""

from ._kernel import KERNEL_NAME
from .bitnum import BitNum, UnderflowError, random_bitnum
from .folding import (
    AccumulatorBank,
    CostLedger,
    Decomposition,
    MultiplyTrace,
    accumulate,
    characteristic_vectors,
    combine,
    format_trace,
    horner_assemble,
    multiply,
    split,
    trace_multiply,
)
from .baselines import SignedDigitString, classical_multiply, csd_multiply, csd_recode
from .costmodel import (
    Table1Row,
    asymptotic_ratio,
    combine_cost,
    f_avg,
    f_wst,
    memory_bits,
    optimal_k,
    table1,
    yen_cost,
)
from .density import (
    SplitOutcome,
    TreeReport,
    logistic_step,
    simulate_split,
    simulate_tree,
    split_gain,
    telescoping_sum,
    tree_gain,
)
from .hdlgen import HdlConfig, emit

__version__ = "0.1.0"

__all__ = [
    "KERNEL_NAME",
    "BitNum", "UnderflowError", "random_bitnum",
    "Decomposition", "AccumulatorBank", "CostLedger", "MultiplyTrace",
    "split", "characteristic_vectors", "accumulate", "combine",
    "horner_assemble", "multiply", "trace_multiply", "format_trace",
    "SignedDigitString", "classical_multiply", "csd_recode", "csd_multiply",
    "Table1Row", "f_avg", "f_wst", "optimal_k",
    "asymptotic_ratio", "combine_cost", "yen_cost", "memory_bits", "table1",
    "SplitOutcome", "TreeReport", "logistic_step",
    "telescoping_sum", "split_gain", "tree_gain", "simulate_split",
    "simulate_tree",
    "HdlConfig", "emit",
    "__version__",
]
