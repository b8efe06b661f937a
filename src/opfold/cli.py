"""Command-line front end: reproduction runs and CSV/table emission.

Exit codes: 0 success, 2 validation error, 3 I/O error. Seeded commands
take --seed (default 0).
"""

import argparse
import csv
import functools
import io
import sys

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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opfold",
        description="Instrumented operand-folding multiplication models "
                    f"(kernel lane: {KERNEL_NAME}).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_default="csv"):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "pretty-table"),
                       default=fmt_default)

    for name, func, text in (
            ("multiply", _cmd_multiply, "one folded product with its ledger"),
            ("trace", _cmd_trace, "phase-by-phase multiply snapshot")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--a", required=True,
                       help="multiplicand (0b/0x/decimal)")
        p.add_argument("--b", required=True,
                       help="multiplier (0b/0x/decimal)")
        p.add_argument("--m", type=int, help="operand width (default: fit B)")
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--out")
        p.set_defaults(func=func)

    p = sub.add_parser("bench", help="predicted vs measured addition counts")
    p.add_argument("--m-range", required=True, help="lo:hi[:step] or list")
    p.add_argument("--k-range", default="1:8")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table", help="optimal-degree operating ranges")
    add_common(p, fmt_default="pretty-table")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("optk", help="cheapest folding degree for a width")
    p.add_argument("--m", type=int)
    p.add_argument("--m-range")
    p.add_argument("--k-max", type=int, default=costmodel.DEFAULT_K_MAX)
    add_common(p)
    p.set_defaults(func=_cmd_optk)

    p = sub.add_parser("density", help="splitting-gain and density series")
    p.add_argument("--series", choices=("gain", "density"), default="gain")
    p.add_argument("--b", type=int, default=4096, help="block length")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--delta0", type=float, default=0.5)
    p.add_argument("--mode", choices=density.MODES)
    p.add_argument("--exact-weight", action="store_true",
                   help="sample blocks of exact weight round(delta0*b)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("hdl", help="emit multiplier HDL text")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--entity", default="Mult_Entity")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hdl)

    return parser


@functools.cache
def _parser():
    """The process-wide parser; it holds no per-call state."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
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
