"""CLI surface: subcommands, formats, exit codes, seeding."""

import tracemalloc

import pytest

from opfold import cli
from opfold.hdlgen import HdlConfig, emit


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- multiply / trace -------------------------------------------------------

def test_multiply_toy(capsys):
    rc, out, err = run(capsys, [
        "multiply", "--a", "0b1", "--b", "0b101010100011",
        "--m", "12", "--k", "2"])
    assert rc == 0 and err == ""
    assert "product = 0b101010100011 (dec 2723)" in out
    assert "ledger: accumulate=4 combine=2 horner=1 total=7" in out


def test_multiply_accepts_all_parse_forms(capsys):
    base = None
    for text in ("42", "0x2a", "0b101010"):
        rc, out, _ = run(capsys, ["multiply", "--a", "7", "--b", text])
        assert rc == 0
        base = base or out
        assert out == base


def test_multiply_m_defaults_to_multiplier_width(capsys):
    # documented: --m fits B, so a wider A must be given --m explicitly
    rc, _, err = run(capsys, ["multiply", "--a", "42", "--b", "7"])
    assert rc == 2 and "error:" in err
    rc, out, _ = run(capsys, ["multiply", "--a", "42", "--b", "7",
                              "--m", "6"])
    assert rc == 0
    assert "product = 0b100100110 (dec 294)" in out


def test_multiply_k1_ledger(capsys):
    rc, out, _ = run(capsys, [
        "multiply", "--a", "5", "--b", "0b101010100011", "--k", "1"])
    assert rc == 0
    assert "ledger: accumulate=6 combine=0 horner=0 total=6" in out


def test_multiply_invalid_k_exits_2(capsys):
    rc, out, err = run(capsys, [
        "multiply", "--a", "1", "--b", "3", "--k", "0"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "k" in err


def test_multiply_unparsable_operand_exits_2(capsys):
    rc, _, err = run(capsys, ["multiply", "--a", "abc", "--b", "3"])
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["multiply", "--a", "1", "--b", "1", "--m", "4096", "--k", "24"],
    ["trace", "--a", "1", "--b", "1", "--m", "4096", "--k", "24"],
    ["bench", "--m-range", str(1 << 27), "--k-range", "5", "--trials", "1"],
], ids=["multiply", "trace", "bench"])
def test_over_bank_budget_exits_2(argv, capsys):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "budget" in err


def test_trace_toy(capsys):
    rc, out, _ = run(capsys, [
        "trace", "--a", "1", "--b", "0b101010100011", "--m", "12"])
    assert rc == 0
    assert "bank after accumulate" in out
    assert "bank after combine" in out
    assert "B_(11) = 100010" in out


# --- bench ---------------------------------------------------------------------

def test_bench_csv_schema_and_shape(capsys):
    argv = ["bench", "--m-range", "16:32:16", "--k-range", "1,2",
            "--trials", "5", "--seed", "7"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: opfold-bench-v1"
    assert lines[1] == "m,k,n,f_avg,f_wst,measured_mean,stderr,trials,seed"
    assert len(lines) == 2 + 4  # (16, 32) x (1, 2)
    rc2, out2, _ = run(capsys, argv)
    assert rc2 == 0 and out2 == out


def test_bench_pretty_table(capsys):
    rc, out, _ = run(capsys, [
        "bench", "--m-range", "16", "--trials", "2", "--seed", "1",
        "--k-range", "2", "--format", "pretty-table"])
    assert rc == 0
    header = out.splitlines()[0]
    assert "measured_mean" in header and "," not in header


def test_bench_bad_range_exits_2(capsys):
    rc, _, err = run(capsys, ["bench", "--m-range", "32:16", "--trials", "1"])
    assert rc == 2 and "error:" in err


def test_parse_range_is_lazy_and_capped():
    assert cli._parse_range("1:5:2") == range(1, 6, 2)
    assert cli._parse_range("3,,5") == [3, 5]
    top = cli.MAX_GRID_POINTS
    assert len(cli._parse_range(f"1:{top}")) == top
    assert len(cli._parse_range(",".join(["7"] * top))) == top
    for text in (f"1:{top + 1}", f"0:{2 * top}:2",
                 ",".join(["7"] * (top + 1))):
        with pytest.raises(ValueError, match=f"more than the cap of {top}$"):
            cli._parse_range(text)


@pytest.mark.parametrize("argv", [
    ["bench", "--m-range", "1:1000000000", "--trials", "1"],
    ["bench", "--m-range", "16", "--k-range", "1:1000000000"],
    ["optk", "--m-range", "1:1000000000"],
], ids=["bench-m", "bench-k", "optk"])
def test_grid_over_point_cap_exits_2_before_running(argv, capsys):
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert err == (f"error: range '1:1000000000' has 1000000000 points, "
                   f"more than the cap of {cli.MAX_GRID_POINTS}\n")
    assert peak < 2**20


def test_comma_grid_over_point_cap_exits_2(capsys):
    points = ",".join(["16"] * (cli.MAX_GRID_POINTS + 1))
    for argv in (["bench", "--m-range", points, "--trials", "1"],
                 ["optk", "--m-range", points]):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: range '16,16,") and "cap" in err


# --- table / optk ----------------------------------------------------------------

def test_table_pretty_default(capsys):
    rc, out, _ = run(capsys, ["table"])
    assert rc == 0
    assert "0.375*m + 3" in out
    assert "0.194*m + 56" in out
    assert "764" in out and "2122" in out


def test_table_csv(capsys):
    rc, out, _ = run(capsys, ["table", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: opfold-table-v1"
    assert lines[1] == "k,m_lo,m_hi,avg_form,wst_form"
    assert lines[2] == "2,24,83,0.375*m + 3,0.500*m + 3"
    assert lines[5] == "5,764,2122,0.194*m + 56,0.200*m + 56"


def test_optk_single(capsys):
    rc, out, _ = run(capsys, ["optk", "--m", "1024"])
    assert rc == 0
    assert out == "5\n"


def test_optk_range_csv(capsys):
    rc, out, _ = run(capsys, ["optk", "--m-range", "82:85", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: opfold-optk-v1"
    assert lines[1] == "m,optimal_k"
    assert lines[2:] == ["82,2", "83,2", "84,3", "85,3"]


def test_optk_requires_m_or_range(capsys):
    rc, _, err = run(capsys, ["optk"])
    assert rc == 2 and "error:" in err


def test_optk_with_both_m_and_range_exits_2(capsys):
    rc, out, err = run(capsys, ["optk", "--m", "1024", "--m-range", "1:3"])
    assert rc == 2 and out == ""
    assert err == "error: optk needs exactly one of --m and --m-range\n"


def test_optk_names_k_max_before_m(capsys):
    rc, out, err = run(capsys, ["optk", "--m", "0", "--k-max", "0"])
    assert rc == 2 and out == ""
    assert err == "error: k must be >= 1, got 0\n"


def test_optk_k_max_over_the_degree_ceiling_exits_2(capsys):
    rc, out, err = run(capsys, ["optk", "--m", "1024",
                                "--k-max", "1000000000"])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "1000000000" in err


# --- density ----------------------------------------------------------------------

def test_density_gain_csv(capsys):
    argv = ["density", "--b", "64", "--depth", "3", "--trials", "5",
            "--seed", "3"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: opfold-density-gain-v1"
    assert lines[1] == "depth_or_iter,predicted,measured,stderr,trials,seed"
    assert len(lines) == 2 + 4
    rc2, out2, _ = run(capsys, argv)
    assert out2 == out


def test_density_density_series(capsys):
    rc, out, _ = run(capsys, [
        "density", "--series", "density", "--b", "64", "--depth", "2",
        "--trials", "4", "--exact-weight"])
    assert rc == 0
    assert out.splitlines()[0] == "# schema: opfold-density-density-v1"


@pytest.mark.parametrize("mode", ["nodes-only", "full-recursive"])
def test_density_series_refuses_mode(mode, capsys):
    rc, out, err = run(capsys, [
        "density", "--series", "density", "--mode", mode, "--b", "64",
        "--depth", "2", "--trials", "4"])
    assert rc == 2 and out == ""
    assert err == "error: --mode applies only to --series gain\n"


def test_density_bad_depth_exits_2(capsys):
    rc, _, err = run(capsys, ["density", "--b", "12", "--depth", "3",
                              "--trials", "2"])
    assert rc == 2 and "error:" in err


def test_density_huge_depth_exits_2(capsys):
    rc, out, err = run(capsys, ["density", "--depth", "1000000",
                                "--trials", "2"])
    assert rc == 2 and out == ""
    assert "error: depth 1000000 exceeds log2" in err


@pytest.mark.parametrize("argv, message", [
    (["--b", "1048576", "--depth", "21", "--trials", "1"],
     "depth 21 exceeds log2 of the block length 1048576"),
    (["--b", "-4"], "block length must be >= 1, got -4"),
    (["--b", "0", "--depth", "0"], "block length must be >= 1, got 0"),
], ids=["deep", "negative", "zero"])
def test_density_bad_walk_exits_2_before_drawing(argv, message, capsys):
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, ["density"] + argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"
    assert peak < 2**20


@pytest.mark.parametrize("flags", [[], ["--exact-weight"]],
                         ids=["bernoulli", "exact-weight"])
def test_density_block_over_budget_exits_2(flags, capsys):
    rc, out, err = run(capsys, ["density", "--b", "1000000000000000",
                                "--depth", "1", "--trials", "1"] + flags)
    assert rc == 2 and out == ""
    assert err == ("error: block length 1000000000000000 exceeds the "
                   "sampling budget of 16777216 bits\n")


# --- hdl --------------------------------------------------------------------------

def test_hdl_stdout_matches_emit(capsys):
    rc, out, _ = run(capsys, ["hdl", "--m", "32", "--k", "2"])
    assert rc == 0
    assert out == emit(HdlConfig(m=32, k=2))


def test_hdl_out_file(tmp_path, capsys):
    target = tmp_path / "mult.vhd"
    rc, out, _ = run(capsys, [
        "hdl", "--m", "10", "--k", "3", "--entity", "Padded_Mult",
        "--out", str(target)])
    assert rc == 0 and out == ""
    text = target.read_text()
    assert text == emit(HdlConfig(m=10, k=3, entity_name="Padded_Mult"))


def test_hdl_invalid_m_exits_2(capsys):
    rc, _, err = run(capsys, ["hdl", "--m", "3", "--k", "2"])
    assert rc == 2 and "error:" in err


def test_out_path_io_failure_exits_3(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "x.csv"
    rc, _, err = run(capsys, ["table", "--out", str(missing)])
    assert rc == 3
    assert err.startswith("i/o error:") and "no_such_dir" in err


# --- seeding ---------------------------------------------------------------------

def test_main_reuses_one_parser(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    argv = ["bench", "--m-range", "64", "--k-range", "3", "--trials", "5"]
    rc, first, _ = run(capsys, argv + ["--seed", "4"])
    assert rc == 0
    rc, second, _ = run(capsys, argv + ["--seed", "4"])
    assert rc == 0
    rc, unseeded, _ = run(capsys, argv)
    assert rc == 0
    assert len(built) == 1
    # a parser built fresh for the call gives the same bytes
    monkeypatch.setattr(cli, "_parser", build_parser)
    rc, fresh, _ = run(capsys, argv + ["--seed", "4"])
    assert rc == 0
    assert first == second == fresh
    rc, fresh_unseeded, _ = run(capsys, argv)
    assert rc == 0
    assert unseeded == fresh_unseeded != first


@pytest.mark.parametrize("argv", [
    ["bench", "--m-range", "16", "--trials", "2", "--seed", "-1"],
    ["density", "--b", "64", "--depth", "2", "--trials", "2", "--seed", "-1"],
], ids=["bench", "density"])
def test_negative_seed_exits_2_naming_the_seed(argv, capsys):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_default_seed_is_zero(capsys):
    argv = ["bench", "--m-range", "64", "--k-range", "2", "--trials", "20"]
    rc, out_default, _ = run(capsys, argv)
    assert rc == 0
    rc, out_zero, _ = run(capsys, argv + ["--seed", "0"])
    assert rc == 0
    rc, out_nine, _ = run(capsys, argv + ["--seed", "9"])
    assert rc == 0
    assert out_default == out_zero != out_nine
