"""CLI surface: subcommands, formats, exit codes, seeding."""

import hashlib
import shlex
import sys
import tracemalloc

import pytest

from opfold import cli
from opfold._kernel import KERNEL_NAME
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


@pytest.mark.parametrize("command", ["multiply", "trace"])
def test_product_past_the_digit_limit_prints_in_binary(command, capsys):
    # 16000 bits is well inside the bank budget, but the product's decimal
    # passes int-to-str's digit limit, so only its binary is printed
    a = (1 << 16000) - 1
    rc, out, err = run(capsys, [command, "--a", hex(a), "--b", hex(a),
                                "--k", "5"])
    assert rc == 0 and err == ""
    note = "(dec omitted: over the int-to-str digit limit)"
    product = f"{bin(a * a)} {note}"
    assert (f"product = {product}" if command == "multiply"
            else f"  {product}") in out.splitlines()
    assert out.count(note) == (3 if command == "multiply" else 1)


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
    flag = "--k-range" if "--k-range" in argv else "--m-range"
    assert err == (f"error: range '1:1000000000' for {flag} has 1000000000 "
                   f"points, more than the cap of {cli.MAX_GRID_POINTS}\n")
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


@pytest.mark.parametrize("flags", [[], ["--exact-weight"]],
                         ids=["bernoulli", "exact-weight"])
@pytest.mark.parametrize("delta0", ["inf", "-inf", "nan", "1.5"])
def test_density_delta0_outside_unit_interval_exits_2(delta0, flags, capsys):
    # refused before the first draw, with the message of bernoulli_block,
    # on both samplers
    rc, out, err = run(capsys, ["density", "--delta0", delta0,
                                "--trials", "1"] + flags)
    assert rc == 2 and out == ""
    assert err == f"error: density {float(delta0)} outside [0, 1]\n"


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


# --- parsing ------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    ([], "missing command; opfold --help lists them"),
    (["frobnicate"], "unknown command 'frobnicate', expected one of "
                     "multiply, trace, bench, table, optk, density, hdl"),
    (["bench", "--m-range", "16", "--bogus", "1"],
     "bench has no option '--bogus'"),
    (["bench", "--m-range", "16", "--bogus=1"],
     "bench has no option '--bogus'"),
    (["bench", "--m-range", "16", "--trial", "1"],
     "bench has no option '--trial'"),
    (["bench", "--m-range", "16", "5"], "bench has no option '5'"),
    (["bench", "--m-range"], "--m-range needs a value"),
    (["bench", "--trials", "3"], "bench needs --m-range"),
    (["hdl", "--m", "32"], "hdl needs --k"),
    (["bench", "--m-range", "16", "--trials", "many"],
     "--trials: invalid int value 'many'"),
    (["bench", "--m-range", "16", "--seed="], "--seed: invalid int value ''"),
    (["density", "--delta0", "half"], "--delta0: invalid float value 'half'"),
    (["table", "--format", "json"],
     "--format must be one of csv, pretty-table, got 'json'"),
    (["density", "--mode=all"],
     "--mode must be one of nodes-only, full-recursive, got 'all'"),
    (["density", "--exact-weight=yes"], "--exact-weight takes no value"),
    (["bench", "--m-range", "x"], "bad range 'x' for --m-range"),
    (["bench", "--m-range", "16", "--k-range", "1:x"],
     "bad range '1:x' for --k-range"),
    (["bench", "--m-range", "16,y"], "bad range '16,y' for --m-range"),
    (["optk", "--m-range", "x:9"], "bad range 'x:9' for --m-range"),
    (["bench", "--m-range", ","], "empty range ',' for --m-range"),
    (["optk", "--m-range", " , "], "empty range ' , ' for --m-range"),
    (["bench", "--m-range", "16", "--k-range", "1:200000000"],
     "range '1:200000000' for --k-range has 200000000 points, more than "
     f"the cap of {cli.MAX_GRID_POINTS}"),
    (["optk", "--m-range", "1:200000000"],
     "range '1:200000000' for --m-range has 200000000 points, more than "
     f"the cap of {cli.MAX_GRID_POINTS}"),
    (["bench", "--m-range", "1:2:3:4"],
     "bad range '1:2:3:4' for --m-range, expected lo:hi[:step]"),
    (["bench", "--m-range", "8", "--k-range", "2", "--trials",
      "99999999999999999999"],
     f"trials must be <= {sys.maxsize}, got 99999999999999999999"),
    (["multiply", "--a", "0x", "--b", "3"],
     "--a: invalid literal for int() with base 16: ''"),
    (["multiply", "--a", "3", "--b", "1e5"],
     "--b: invalid literal for int() with base 10: '1e5'"),
    (["trace", "--a", "", "--b", "3"],
     "--a: invalid literal for int() with base 10: ''"),
    (["multiply", "--a", "9" * 5000, "--b", "3"],
     f"--a: decimal operand has over {sys.get_int_max_str_digits()} "
     "digits; give it in 0x or 0b form"),
], ids=["no-command", "unknown-command", "unknown-option",
        "unknown-option-equals", "prefix", "stray-word", "missing-value",
        "missing-required", "missing-required-hdl", "bad-int",
        "empty-int", "bad-float", "bad-choice", "bad-choice-equals",
        "flag-with-value", "bench-m-range-not-int", "bench-k-range-not-int",
        "bench-m-list-not-int", "optk-m-range-not-int", "bench-m-range-empty",
        "optk-m-range-empty", "bench-k-range-over-cap",
        "optk-m-range-over-cap", "bench-m-range-four-fields",
        "bench-trials-past-ssize", "operand-empty-hex", "operand-float",
        "operand-empty", "operand-past-the-digit-limit"])
def test_command_line_fault_exits_2_with_one_error_line(argv, message,
                                                        capsys):
    try:
        rc, out, err = run(capsys, argv)
    except SystemExit as exc:  # pragma: no cover - the failure being tested
        pytest.fail(f"SystemExit({exc.code}) escaped cli.main")
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spaced, joined", [
    (["bench", "--m-range", "64", "--k-range", "2:3", "--trials", "5",
      "--seed", "4"],
     ["bench", "--m-range=64", "--k-range=2:3", "--trials=5", "--seed=4"]),
    (["density", "--series", "density", "--b", "64", "--depth", "2",
      "--trials", "4", "--delta0", "0.25"],
     ["density", "--series=density", "--b=64", "--depth=2", "--trials=4",
      "--delta0=0.25"]),
    (["multiply", "--a", "0b1", "--b", "0b101010100011", "--m", "12"],
     ["multiply", "--a=0b1", "--b=0b101010100011", "--m=12"]),
], ids=["bench", "density", "multiply"])
def test_equals_form_gives_the_same_bytes(spaced, joined, capsys):
    rc, out, err = run(capsys, spaced)
    assert rc == 0 and err == ""
    assert run(capsys, joined) == (0, out, "")


def test_repeated_option_last_value_wins(capsys):
    argv = ["bench", "--m-range", "64", "--k-range", "2", "--trials", "5"]
    rc, out, _ = run(capsys, argv + ["--seed", "3"])
    assert rc == 0
    assert run(capsys, argv + ["--seed", "8", "--seed=3"]) == (0, out, "")
    assert run(capsys, ["bench", "--m-range", "9", "--trials", "1"] + argv[1:]
               + ["--seed", "3"]) == (0, out, "")


def test_value_may_start_with_a_dash(capsys):
    # the word after an option is its value, so the option's own check runs
    rc, out, err = run(capsys, ["bench", "--m-range", "16", "--seed", "-1"])
    assert (rc, out) == (2, "")
    assert err == "error: seed must be >= 0, got -1\n"
    rc, out, err = run(capsys, ["density", "--b", "-4"])
    assert (rc, out) == (2, "")
    assert err == "error: block length must be >= 1, got -4\n"
    # an option name is a value too, and fails that value's own check
    rc, out, err = run(capsys, ["bench", "--trials", "1", "--m-range",
                                "--seed"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "'--seed'" in err


def test_top_level_help_names_the_lane_and_every_command(capsys):
    for flag in ("--help", "-h"):
        rc, out, err = run(capsys, [flag])
        assert rc == 0 and err == ""
        assert f"(kernel lane: {KERNEL_NAME})" in out
        for command, (_, text, _) in cli.COMMANDS.items():
            assert f"  {command}" in out and text in out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help_lists_every_option(command, capsys):
    rc, out, err = run(capsys, [command, "--help"])
    assert rc == 0 and err == ""
    assert out.startswith(f"usage: opfold {command} [options]\n")
    for name, _, _, note in cli.COMMANDS[command][2]:
        assert f"  --{name}" in out and note in out
    # help wins over a missing required option, as it is read first
    assert run(capsys, [command, "-h"]) == (0, out, "")


def test_bench_help_marks_required_and_defaults(capsys):
    rc, out, _ = run(capsys, ["bench", "--help"])
    assert rc == 0
    assert "--m-range STR\n      lo:hi[:step] or list (required)\n" in out
    assert "--trials INT\n      random multiplies per point (default: 100)" \
        in out
    assert "--format {csv,pretty-table}\n" in out


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["opfold", "optk", "--m", "1024"])
    assert run(capsys, None) == (0, "5\n", "")


def test_parse_gives_the_fields_the_handlers_read():
    args = cli._parse(["density", "--exact-weight", "--b", "64"])
    assert vars(args) == {
        "series": "gain", "b": 64, "depth": 8, "delta0": 0.5, "mode": None,
        "exact_weight": True, "trials": 100, "seed": 0, "format": "csv",
        "out": None, "command": "density", "func": cli._cmd_density}


# --- byte stability ---------------------------------------------------------

# SHA-256 of each command's stdout, the same on both kernel lanes; a change
# to any product, ledger, CSV, table or HDL byte changes a digest
STDOUT_SHA256 = {
    "bench --m-range 1024 --k-range 5 --trials 200 --seed 2":
        "77c3fae6063c50e2d79cd7bfc5960dab0ed3b307d542927d8a8182a51c6ef2c1",
    "bench --m-range 8:300:7 --k-range 1:8 --trials 20 --seed 4":
        "b447534aeaac51efed72f293d056770715a2f3e700ce476d9c538e03808f3afa",
    "multiply --a 0b1 --b 0b101010100011 --m 12 --k 2":
        "2d37fc41ff1cb160afd36db85df102fec32e1ada7e2964a97747c31eb001a178",
    "trace --a 0b1 --b 0b101010100011 --m 12 --k 2":
        "85d6288d6be208d99203e602532ecef530e3c9007bd9b2987e65c8c29cf2c973",
    "trace --a 0x2a5 --b 0x3b7 --m 10 --k 4":
        "ae6217664fbee0544c1238b3cc94c895c5e479afacd7cdea8d5fe99cdbf6ee4a",
    "table":
        "34e85057b592fb806ba15c915e6b8903ec35c4aa95dcbcf2b21d8589ceac39a9",
    "optk --m-range 1:3000":
        "bd2576986a595fd4e066ac0017ffdc83d92864d5390a650aeb708b81e6597793",
    "hdl --m 32 --k 2":
        "95c4c46ea3a133325b7ac38869f3b9726e4a3a0ff526e8fb0549e3a2c0f9107f",
    "density --series density --b 4096 --depth 4 --trials 50":
        "9ba5e4c00fe84c8bdf481f60ae6413335e00158d9264c2175f75a3013340ee42",
    "density --series gain --b 1024 --depth 4 --trials 20":
        "d028c35deaae65ef5599cc951c5660855ade4976cfbc7bea99f8be6b60a596d9",
}


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_stdout_bytes_are_stable(capsys, command):
    rc, out, err = run(capsys, shlex.split(command))
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]
