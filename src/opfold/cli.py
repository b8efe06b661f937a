"""Command-line front end: reproduction runs and CSV/table emission.

One table, COMMANDS, gives each command its handler, help line and options,
and both the parser and --help read it. Options are `--name value` or
`--name=value`, exact names only; the last of a repeated option wins, and
the word after an option is always its value. Exit codes: 0 success,
2 validation error (a command-line fault included), 3 I/O error. Seeded
commands take --seed (default 0).
"""

import csv
import io
import sys
from types import SimpleNamespace

from . import costmodel, density, folding, hdlgen
from ._kernel import KERNEL_NAME
from .bitnum import BitNum, UnderflowError


# Most points one --m-range or --k-range may list; every point is a row.
MAX_GRID_POINTS = 4096


def _parse_range(text):
    """"lo:hi[:step]" (inclusive) as a range, or a comma list of ints.

    Either form is refused past MAX_GRID_POINTS before any point runs.
    """
    if ":" in text:
        fields = text.split(":")
        if len(fields) not in (2, 3):
            raise ValueError(f"bad range {text!r}, expected lo:hi[:step]")
        lo, hi = int(fields[0]), int(fields[1])
        step = int(fields[2]) if len(fields) == 3 else 1
        if step < 1 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        values = range(lo, hi + 1, step)
    else:
        values = [int(f) for f in text.split(",") if f.strip() != ""]
        if not values:
            raise ValueError(f"empty range {text!r}")
    if len(values) > MAX_GRID_POINTS:
        raise ValueError(f"range {text!r} has {len(values)} points, more "
                         f"than the cap of {MAX_GRID_POINTS}")
    return values


def _format_cell(value):
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _render_rows(columns, rows, fmt, schema):
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# schema: {schema}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_format_cell(r[c]) for c in columns])
        return buf.getvalue()
    cells = [[_format_cell(r[c]) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _operands(args):
    """(A, B, m) of multiply and trace; m defaults to B's width."""
    a = BitNum.parse(args.a)
    b = BitNum.parse(args.b)
    m = args.m if args.m is not None else max(1, b.bit_length())
    return a, b, m


def _cmd_multiply(args):
    a, b, m = _operands(args)
    product, ledger = folding.multiply(a, b, m, args.k)
    n = (m + args.k - 1) // args.k
    out = [
        f"A = {a.to_bin()} (dec {a.to_dec()})",
        f"B = {b.to_bin()} (dec {b.to_dec()})",
        f"m = {m}, k = {args.k}, n = {n}",
        f"product = {product.to_bin()} (dec {product.to_dec()})",
        f"ledger: accumulate={ledger.accumulate_adds}"
        f" combine={ledger.combine_adds}"
        f" horner={ledger.horner_adds} total={ledger.total}",
        f"shifts = {ledger.shifts} (excluded from total),"
        f" peak_cell_bits = {ledger.peak_cell_bits}",
    ]
    return "\n".join(out) + "\n"


def _cmd_trace(args):
    trace = folding.trace_multiply(*_operands(args), args.k)
    return folding.format_trace(trace) + "\n"


def _cmd_bench(args):
    m_values = _parse_range(args.m_range)
    k_values = _parse_range(args.k_range)
    rows = costmodel.sweep(m_values, k_values, args.trials, args.seed)
    return _render_rows(costmodel.SWEEP_COLUMNS, rows, args.format,
                        "opfold-bench-v1")


def _cmd_table(args):
    columns = ("k", "m_lo", "m_hi", "avg_form", "wst_form")
    rows = [{
        "k": r.k,
        "m_lo": r.m_lo,
        "m_hi": r.m_hi,
        "avg_form": r.avg_form(),
        "wst_form": r.wst_form(),
    } for r in costmodel.table1()]
    return _render_rows(columns, rows, args.format, "opfold-table-v1")


def _cmd_optk(args):
    if (args.m is None) == (args.m_range is None):
        raise ValueError("optk needs exactly one of --m and --m-range")
    if args.m_range is None:
        return f"{costmodel.optimal_k(args.m, args.k_max)}\n"
    columns = ("m", "optimal_k")
    rows = [{"m": m, "optimal_k": costmodel.optimal_k(m, args.k_max)}
            for m in _parse_range(args.m_range)]
    return _render_rows(columns, rows, args.format, "opfold-optk-v1")


def _cmd_density(args):
    if args.series == "gain":
        rows = density.gain_series(
            args.b, args.depth, args.delta0, args.trials, args.seed,
            mode=args.mode or "nodes-only", exact_weight=args.exact_weight)
    elif args.mode is not None:
        raise ValueError("--mode applies only to --series gain")
    else:
        rows = density.density_series(
            args.b, args.depth, args.delta0, args.trials, args.seed,
            exact_weight=args.exact_weight)
    return _render_rows(density.SERIES_COLUMNS, rows, args.format,
                        f"opfold-density-{args.series}-v1")


def _cmd_hdl(args):
    config = hdlgen.HdlConfig(m=args.m, k=args.k, entity_name=args.entity)
    return hdlgen.emit(config)


# An option whose default is REQUIRED must be given.
REQUIRED = object()

_OUT = ("out", str, None, "output path (default: stdout)")


def _rendered(fmt_default="csv"):
    return (("format", ("csv", "pretty-table"), fmt_default, "renderer"),
            _OUT)


_OPERANDS = (
    ("a", str, REQUIRED, "multiplicand (0b/0x/decimal)"),
    ("b", str, REQUIRED, "multiplier (0b/0x/decimal)"),
    ("m", int, None, "operand width (default: fit B)"),
    ("k", int, 2, "folding degree"),
    _OUT,
)

# command: (handler, help line, options). An option is (name, type, default,
# help); its type is int, float, str, a tuple of choices, or bool for a flag
# that takes no value and sets True. A handler reads option --x-y as x_y.
COMMANDS = {
    "multiply": (_cmd_multiply, "one folded product with its ledger",
                 _OPERANDS),
    "trace": (_cmd_trace, "phase-by-phase multiply snapshot", _OPERANDS),
    "bench": (_cmd_bench, "predicted vs measured addition counts", (
        ("m-range", str, REQUIRED, "lo:hi[:step] or list"),
        ("k-range", str, "1:8", "lo:hi[:step] or list"),
        ("trials", int, 100, "random multiplies per point"),
        ("seed", int, 0, "RNG seed"),
    ) + _rendered()),
    "table": (_cmd_table, "optimal-degree operating ranges",
              _rendered("pretty-table")),
    "optk": (_cmd_optk, "cheapest folding degree for a width", (
        ("m", int, None, "one operand width"),
        ("m-range", str, None, "widths, lo:hi[:step] or list"),
        ("k-max", int, costmodel.DEFAULT_K_MAX, "largest degree tried"),
    ) + _rendered()),
    "density": (_cmd_density, "splitting-gain and density series", (
        ("series", ("gain", "density"), "gain", "which series"),
        ("b", int, 4096, "block length"),
        ("depth", int, 8, "splitting depth"),
        ("delta0", float, 0.5, "initial bit density"),
        ("mode", density.MODES, None, "gain accounting (gain series only)"),
        ("exact-weight", bool, False,
         "sample blocks of exact weight round(delta0*b)"),
        ("trials", int, 100, "random blocks per row"),
        ("seed", int, 0, "RNG seed"),
    ) + _rendered()),
    "hdl": (_cmd_hdl, "emit multiplier HDL text", (
        ("m", int, REQUIRED, "operand width"),
        ("k", int, REQUIRED, "folding degree"),
        ("entity", str, "Mult_Entity", "VHDL entity name"),
        _OUT,
    )),
}

# per command: {"--x-y": ("x_y", type)} and the fields' defaults
_LOOKUP = {
    command: ({"--" + name: (name.replace("-", "_"), kind)
               for name, kind, _, _ in options},
              {name.replace("-", "_"): default
               for name, _, default, _ in options})
    for command, (_, _, options) in COMMANDS.items()}
_HELP = ("-h", "--help")


def _cmd_help(args):
    """The top-level help, or the options of args.command."""
    if args.command is None:
        lines = ["usage: opfold <command> [options]", "",
                 "Instrumented operand-folding multiplication models "
                 f"(kernel lane: {KERNEL_NAME}).", "", "commands:"]
        lines += [f"  {name:<10}{text}"
                  for name, (_, text, _) in COMMANDS.items()]
        lines += ["", "opfold <command> --help lists its options."]
        return "\n".join(lines) + "\n"
    _, text, options = COMMANDS[args.command]
    lines = [f"usage: opfold {args.command} [options]", "", text, "",
             "options:"]
    for name, kind, default, note in options:
        if kind is bool:
            value = ""
        elif isinstance(kind, tuple):
            value = " {" + ",".join(kind) + "}"
        else:
            value = " " + kind.__name__.upper()
        if default is REQUIRED:
            note += " (required)"
        elif default is not None and kind is not bool:
            note += f" (default: {default})"
        lines.append(f"  --{name}{value}\n      {note}")
    return "\n".join(lines) + "\n"


def _parse(argv):
    """The namespace a handler reads: option fields, `command` and `func`.

    `--name value` or `--name=value`, exact names only; the last of a
    repeated option wins, and the word after an option is always its value.
    Any fault raises ValueError. -h or --help selects _cmd_help.
    """
    if not argv:
        raise ValueError("missing command; opfold --help lists them")
    command = argv[0]
    if command in _HELP:
        return SimpleNamespace(func=_cmd_help, command=None, out=None)
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}, expected one of "
                         f"{', '.join(COMMANDS)}")
    kinds, defaults = _LOOKUP[command]
    values = {**defaults, "command": command, "func": COMMANDS[command][0]}
    words = iter(argv[1:])
    for word in words:
        if word in _HELP:
            return SimpleNamespace(func=_cmd_help, command=command, out=None)
        flag, eq, text = word.partition("=")
        if flag not in kinds:
            raise ValueError(f"{command} has no option {flag!r}")
        dest, kind = kinds[flag]
        if kind is bool:
            if eq:
                raise ValueError(f"{flag} takes no value")
            values[dest] = True
            continue
        if not eq and (text := next(words, None)) is None:
            raise ValueError(f"{flag} needs a value")
        if isinstance(kind, tuple):
            if text not in kind:
                raise ValueError(f"{flag} must be one of {', '.join(kind)}, "
                                 f"got {text!r}")
            values[dest] = text
        else:
            try:
                values[dest] = kind(text)
            except ValueError:
                raise ValueError(f"{flag}: invalid {kind.__name__} value "
                                 f"{text!r}") from None
    for dest, value in values.items():
        if value is REQUIRED:
            raise ValueError(f"{command} needs --{dest.replace('_', '-')}")
    return SimpleNamespace(**values)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        _write_output(args.func(args), args.out)
        return 0
    except (ValueError, UnderflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
