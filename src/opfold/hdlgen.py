"""Parameterized VHDL text emitter for the folded multiplier.

The emitted architecture follows the legacy combinational two-section
shape (constant declarations plus one process walking the four algorithm
phases), with derived constants baked as numeric literals for the
requested (m, k). Step labels 1, 2-1 .. 2-4, 3-1 .. 3-4, 4-1 .. 4-4 each
appear exactly once so generated files can be diffed against the
algorithm phase by phase.

Output is text only; the software model is the behavioral reference, and
nothing here parses, elaborates, or simulates the result.
"""

import re
from dataclasses import dataclass

_IDENT = re.compile(r"^[A-Za-z](_?[A-Za-z0-9])*$")

# VHDL-2008's reserved words (IEEE 1076-2008, 15.10), which no basic
# identifier may be, in any letter case
_RESERVED = frozenset("""
    abs access after alias all and architecture array assert assume
    assume_guarantee attribute begin block body buffer bus case component
    configuration constant context cover default disconnect downto else
    elsif end entity exit fairness file for force function generate generic
    group guarded if impure in inertial inout is label library linkage
    literal loop map mod nand new next nor not null of on open or others
    out package parameter port postponed procedure process property
    protected pure range record register reject release rem report
    restrict restrict_guarantee return rol ror select sequence severity
    shared signal sla sll sra srl strong subtype then to transport type
    unaffected units until use variable vmode vprop vunit wait when while
    with xnor xor
""".split())

M_MIN, M_MAX = 4, 4096
K_MIN, K_MAX = 1, 8

# one tuple of header lines per numbered correction item
_CORRECTIONS = (
    ("part width n is (m + k - 1) / k with explicit parentheses; the",
     "unparenthesized legacy expression binds 1/k first and yields m + k."),
    ("multi-bit values are cleared with (OTHERS => '0') aggregates instead",
     "of one-bit \"0\" literals."),
    ("the reassembly step shifts by n bits per round, not by one bit.",),
    ("the multiplier is zero-extended through a padded working copy BP",
     "instead of a reversed slice assignment into the top part."),
    ("accumulator cells are m+n bits and the product register is 2*m bits;",
     "the legacy widths truncate the partial products."),
    ("cleared combination cells use an ascending index range; the legacy",
     "descending range is null in VHDL and cleared nothing."),
    ("working values are process variables rather than signals so that",
     "loop-carried updates take effect within a single evaluation."),
)


@dataclass(frozen=True)
class HdlConfig:
    """Generation parameters; derived constants are baked into the text."""

    m: int
    k: int
    entity_name: str = "Mult_Entity"

    def __post_init__(self):
        if not M_MIN <= self.m <= M_MAX:
            raise ValueError(
                f"m must be in {M_MIN}..{M_MAX}, got {self.m}")
        if not K_MIN <= self.k <= K_MAX:
            raise ValueError(
                f"k must be in {K_MIN}..{K_MAX}, got {self.k}")
        if not _IDENT.match(self.entity_name) \
                or self.entity_name.lower() in _RESERVED:
            raise ValueError(
                f"invalid HDL identifier: {self.entity_name!r}")


def emit(config):
    """Render the multiplier entity as VHDL source text."""
    m, k, entity = config.m, config.k, config.entity_name
    n = (m + k - 1) // k
    pad = k * n - m
    cells = (1 << k) - 1
    cell_w = m + n
    out_w = 2 * m

    lines = []
    push = lines.append
    push(f"-- {entity}: operand-folding multiplier, m = {m}, k = {k}.")
    push(f"-- Generated text; derived constants (n = {n}, pad = {pad}) are")
    push("-- baked as literals, so regenerate for other sizes rather than")
    push("-- overriding the generics.")
    push("--")
    push("-- Corrections applied relative to the legacy reference listing:")
    for item, (first, *rest) in enumerate(_CORRECTIONS, 1):
        push(f"--   {item}. {first}")
        for line in rest:
            push(f"--      {line}")
    push("")
    push("LIBRARY IEEE;")
    push("USE IEEE.STD_LOGIC_1164.ALL;")
    push("USE IEEE.NUMERIC_STD.ALL;")
    push("")
    push(f"ENTITY {entity} IS")
    push(f"  GENERIC(CONSTANT m : NATURAL := {m};")
    push(f"          CONSTANT k : NATURAL := {k});")
    push(f"  PORT(A : IN  STD_LOGIC_VECTOR({m - 1} DOWNTO 0);")
    push(f"       B : IN  STD_LOGIC_VECTOR({m - 1} DOWNTO 0);")
    push(f"       C : OUT STD_LOGIC_VECTOR({out_w - 1} DOWNTO 0));")
    push(f"END {entity};")
    push("")
    push(f"ARCHITECTURE Behavioral OF {entity} IS")
    push(f"  CONSTANT n   : NATURAL := {n};  -- (m + k - 1) / k")
    push(f"  CONSTANT pad : NATURAL := {pad};  -- k*n - m")
    push(f"  TYPE CELL_ARRAY IS ARRAY(1 TO {cells}) OF "
         f"UNSIGNED({cell_w - 1} DOWNTO 0);  -- 2**k - 1 cells, m+n bits")
    push("BEGIN")
    push("")
    push("  Mult_Process : PROCESS(A, B)")
    push(f"    VARIABLE AX     : UNSIGNED({cell_w - 1} DOWNTO 0);")
    push(f"    VARIABLE BP     : STD_LOGIC_VECTOR({k * n - 1} DOWNTO 0);")
    push("    VARIABLE C_TEMP : CELL_ARRAY;")
    push(f"    VARIABLE COL    : NATURAL RANGE 0 TO {cells};")
    push(f"    VARIABLE P      : UNSIGNED({out_w - 1} DOWNTO 0);")
    push("  BEGIN")
    push(f"    AX := RESIZE(UNSIGNED(A), {cell_w});")
    push(f"    BP({m - 1} DOWNTO 0) := B;")
    if pad:
        push(f"    BP({k * n - 1} DOWNTO {m}) := (OTHERS => '0');"
             f"  -- pad = {pad} zero bits")
    push("    -- STEP 1: clear every accumulator cell C_(i)")
    push(f"    FOR i IN 1 TO {cells} LOOP")
    push("      C_TEMP(i) := (OTHERS => '0');")
    push("    END LOOP;")
    push(f"    -- STEP 2-1: scan the part-array columns i = 0 .. {n - 1}")
    push(f"    FOR i IN 0 TO {n - 1} LOOP")
    push("      COL := 0;")
    push(f"      FOR j IN 0 TO {k - 1} LOOP")
    push(f"        IF BP(j * {n} + i) = '1' THEN")
    push("          COL := COL + 2 ** j;")
    push("        END IF;")
    push("      END LOOP;")
    push("      -- STEP 2-2: pattern 0 has no cell; skip all-zero columns")
    push("      IF COL /= 0 THEN")
    push("        -- STEP 2-3: C_(col) <- C_(col) + A")
    push("        C_TEMP(COL) := C_TEMP(COL) + AX;")
    push("      END IF;")
    push("      -- STEP 2-4: A <- 2*A (one-bit left shift), next column")
    push("      AX := SHIFT_LEFT(AX, 1);")
    push("    END LOOP;")
    push(f"    -- STEP 3-1: combination rounds i = {k} .. 1")
    push(f"    FOR i IN {k} DOWNTO 1 LOOP")
    push("      -- STEP 3-2: sweep j = 1 .. 2**(i-1) - 1 (empty at i = 1)")
    push("      FOR j IN 1 TO 2 ** (i - 1) - 1 LOOP")
    push("        -- STEP 3-3: fold C_(2**(i-1) + j) into C_(2**(i-1)) and C_(j)")
    push("        C_TEMP(2 ** (i - 1)) := C_TEMP(2 ** (i - 1))"
         " + C_TEMP(2 ** (i - 1) + j);")
    push("        C_TEMP(j) := C_TEMP(j) + C_TEMP(2 ** (i - 1) + j);")
    push("      END LOOP;")
    push("      -- STEP 3-4: clear the consumed cells before the next round")
    push("      FOR j IN 2 ** (i - 1) + 1 TO 2 ** i - 1 LOOP")
    push("        C_TEMP(j) := (OTHERS => '0');")
    push("      END LOOP;")
    push("    END LOOP;")
    push("    -- STEP 4-1: P <- C_(2**(k-1)), the top part product A x B_k")
    push(f"    P := RESIZE(C_TEMP({1 << (k - 1)}), {out_w});")
    push(f"    -- STEP 4-2: walk the remaining parts i = {k - 1} .. 1")
    push(f"    FOR i IN {k - 1} DOWNTO 1 LOOP")
    push("      -- STEP 4-3: P <- (P shifted left by n) + C_(2**(i-1))")
    push(f"      P := SHIFT_LEFT(P, n) + RESIZE(C_TEMP(2 ** (i - 1)), {out_w});")
    push("      -- STEP 4-4: next part")
    push("    END LOOP;")
    push("    C <= STD_LOGIC_VECTOR(P);")
    push("  END PROCESS Mult_Process;")
    push("")
    push("END Behavioral;")
    return "\n".join(lines) + "\n"
