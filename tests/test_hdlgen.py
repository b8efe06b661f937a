"""VHDL emitter: parameter validation, width literals, stability."""

from pathlib import Path

import pytest

from opfold.hdlgen import HdlConfig, emit

GOLDEN = Path(__file__).parent / "golden"

STEP_LABELS = ("1", "2-1", "2-2", "2-3", "2-4",
               "3-1", "3-2", "3-3", "3-4",
               "4-1", "4-2", "4-3", "4-4")


def test_config_validation():
    HdlConfig(m=4, k=1)
    HdlConfig(m=4096, k=8)
    with pytest.raises(ValueError):
        HdlConfig(m=3, k=2)
    with pytest.raises(ValueError):
        HdlConfig(m=4097, k=2)
    with pytest.raises(ValueError):
        HdlConfig(m=32, k=0)
    with pytest.raises(ValueError):
        HdlConfig(m=32, k=9)


def test_entity_name_validation():
    HdlConfig(m=8, k=2, entity_name="My_Mult_2")
    for bad in ("", "1abc", "a__b", "a_", "a-b", "entity name", "begin",
                "END", "Process"):
        with pytest.raises(ValueError):
            HdlConfig(m=8, k=2, entity_name=bad)


def test_emit_32_2_widths():
    text = emit(HdlConfig(m=32, k=2))
    assert "GENERIC(CONSTANT m : NATURAL := 32;" in text
    assert "CONSTANT k : NATURAL := 2)" in text
    assert "A : IN  STD_LOGIC_VECTOR(31 DOWNTO 0);" in text
    assert "C : OUT STD_LOGIC_VECTOR(63 DOWNTO 0));" in text
    assert "CONSTANT n   : NATURAL := 16;" in text
    assert "ARRAY(1 TO 3) OF UNSIGNED(47 DOWNTO 0)" in text
    assert "P := RESIZE(C_TEMP(2), 64);" in text


def test_emit_custom_entity_and_sizes():
    text = emit(HdlConfig(m=12, k=2, entity_name="Toy_Mult"))
    assert "ENTITY Toy_Mult IS" in text
    assert "END Toy_Mult;" in text
    assert "ARCHITECTURE Behavioral OF Toy_Mult IS" in text
    assert "CONSTANT n   : NATURAL := 6;" in text


def test_emit_padding():
    # m=10, k=3 -> n=4, one part is 2 bits short
    text = emit(HdlConfig(m=10, k=3))
    assert "CONSTANT n   : NATURAL := 4;" in text
    assert "CONSTANT pad : NATURAL := 2;" in text
    assert "BP(11 DOWNTO 10) := (OTHERS => '0');" in text


def test_emit_no_padding_clear_when_exact():
    text = emit(HdlConfig(m=32, k=2))
    assert "CONSTANT pad : NATURAL := 0;" in text
    assert "(OTHERS => '0');  -- pad" not in text


def test_step_labels_each_exactly_once():
    for cfg in (HdlConfig(m=32, k=2), HdlConfig(m=10, k=3),
                HdlConfig(m=4, k=1)):
        text = emit(cfg)
        for label in STEP_LABELS:
            assert text.count(f"-- STEP {label}:") == 1, (cfg, label)


def test_k1_ranges_are_null_not_negative():
    # degenerate degree: combination sweeps become legal null ranges
    text = emit(HdlConfig(m=8, k=1))
    assert "FOR i IN 1 DOWNTO 1 LOOP" in text
    assert "FOR i IN 0 DOWNTO 1 LOOP" in text  # Horner walk runs zero times
    assert "P := RESIZE(C_TEMP(1), 16);" in text


def test_emit_deterministic():
    cfg = HdlConfig(m=96, k=4)
    assert emit(cfg) == emit(cfg)


@pytest.mark.parametrize("m,k", [(32, 2), (1024, 5)])
def test_golden_files(m, k):
    text = emit(HdlConfig(m=m, k=k))
    golden = (GOLDEN / f"mult_{m}_{k}.vhd").read_text()
    assert text == golden


def test_golden_1024_5_width_literals():
    text = (GOLDEN / "mult_1024_5.vhd").read_text()
    assert "CONSTANT n   : NATURAL := 205;" in text
    assert "CONSTANT pad : NATURAL := 1;" in text
    assert "ARRAY(1 TO 31) OF UNSIGNED(1228 DOWNTO 0)" in text
    assert "C : OUT STD_LOGIC_VECTOR(2047 DOWNTO 0));" in text
    assert "BP(1024 DOWNTO 1024) := (OTHERS => '0');" in text
