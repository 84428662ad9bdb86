"""Command-line front end: every analysis as a reproducible, scriptable command.

All rational inputs use exact "p/q" literals; decimals are rejected so no
value is silently rounded on the way in.  Output is a table, JSON, or CSV
rendering of one structured payload, byte-identical across runs once the
timestamp is disabled.  JSON and CSV write the payload's rows as they are
made; a table holds them all to size its columns.

Exit codes: 0 success, 1 usage or domain error, 2 acceptance-band failure,
3 resource or depth cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain, combinations, islice
from math import gcd, isfinite

from . import analysis, core, errorsum
from .core import DepthOverflowError, DomainError, as_rational, constant_stream, expand
from .sequences import DEFAULT_DEPTH, Enclosure, PierceSeq

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAND = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise _UsageError(message)


def _fmt(value):
    """Render payload values: fractions as p/q, enclosures as [p/q, p/q]."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Enclosure):
        return f"[{_fmt(value.lo)}, {_fmt(value.hi)}]"
    if isinstance(value, bool) or isinstance(value, (int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_fmt(v) for v in value]
    return str(value)


def _parse_point(text: str):
    """A rational literal, or const:NAME for a named digit stream."""
    if text.startswith("const:"):
        return PierceSeq.from_stream(constant_stream(text[len("const:"):]))
    return as_rational(text)


# ---------------------------------------------------------------------------
# commands -> payload dicts: scalars plus optional "rows", an iterable of
# flat dicts whose values are already rendered by _fmt or _ratio
# ---------------------------------------------------------------------------


def _cmd_expand(args):
    x = as_rational(args.x)
    digits = expand(x)
    rows = []
    prod, v = 1, 0
    for k, d in enumerate(digits):
        prod, v, _ = core.child_numerators(k, prod, v, 0, d)
        s_k = Fraction(v, prod)
        rows.append(_fmt({"k": k + 1, "digit": d, "convergent": s_k, "residual": x - s_k}))
    return {"x": x, "length": len(digits), "digits": list(digits), "rows": rows}, EXIT_OK


def _cmd_esum(args):
    point = _parse_point(args.x)
    if isinstance(point, PierceSeq):
        enc = errorsum.esum_stream(point, args.depth)
        return {"input": args.x, "depth": args.depth, "value": enc, "width": enc.width}, EXIT_OK
    value = errorsum.esum(point)
    return {"input": args.x, "value": value}, EXIT_OK


def _cmd_jumps(args):
    rep = errorsum.jumps_at(as_rational(args.x))
    return {
        "x": rep.x,
        "side": rep.side,
        "parity": rep.parity,
        "value": rep.interior_value,
        "left_limit": rep.left_limit,
        "right_limit": rep.right_limit,
        "jump_magnitude": rep.jump_magnitude,
    }, EXIT_OK


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, rendered as _fmt renders a Fraction."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _graph_rows(order_max: int, digit_cap: int):
    # every order-n prefix with digits <= digit_cap, in lexicographic order:
    # an order n-1 prefix of digits < digit_cap, then d = first .. digit_cap
    for order in range(1, order_max + 1):
        for prefix in combinations(range(1, digit_cap), order - 1):
            head = "(" + "".join(f"{x}," for x in prefix)
            node = core.digit_numerators(prefix)
            for d in range(prefix[-1] + 1 if prefix else 1, digit_cap + 1):
                prod, v, e = core.child_numerators(order - 1, *node, d)
                yield {
                    "sigma": f"{head}{d})",
                    "order": order,
                    "phi": _ratio(v, prod),
                    "estar": _ratio(e, prod),
                    "length": f"1/{prod * (d + 1)}",
                }


def _cmd_graph(args):
    # validate here, not in the lazy row generator, so that a bad argument
    # fails before any output is opened
    if args.order < 1:
        raise DomainError("order must be >= 1")
    if args.digit_cap < 1:
        raise DomainError("digit cap must be >= 1")
    rows = _graph_rows(args.order, args.digit_cap)
    return {"order_max": args.order, "digit_cap": args.digit_cap, "rows": rows}, EXIT_OK


def _decimal_str(value: Fraction, digits: int = 20) -> str:
    scaled = value * 10**digits
    whole = scaled.numerator // scaled.denominator  # floor, exact
    sign, whole = ("-", -whole) if whole < 0 else ("", whole)
    return f"{sign}{whole // 10**digits}.{whole % 10**digits:0{digits}d}"


def _cmd_integral(args):
    tol = None if args.tolerance is None else as_rational(args.tolerance)
    if tol is not None and tol < 0:
        raise DomainError(f"tolerance must be >= 0, got {tol}")
    rep = analysis.integrate_esum(args.grid)
    payload = {
        "grid": rep.grid,
        "estimate": rep.estimate,
        "estimate_decimal": _decimal_str(rep.estimate),
        "target": rep.target,
        "deviation": rep.deviation,
        "quantization": rep.quantization,
    }
    if tol is not None:
        payload["tolerance"] = tol
        payload["within_tolerance"] = abs(rep.deviation) <= tol
        if not payload["within_tolerance"]:
            return payload, EXIT_BAND
    return payload, EXIT_OK


def _cmd_variation(args):
    rep = analysis.variation_over_partition(args.order, args.digit_cap)
    return {
        "order": rep.order,
        "digit_cap": rep.digit_cap,
        "capped_sum": rep.capped_sum,
        "residual_mass": rep.residual_mass,
        "total": rep.total,
    }, EXIT_OK


def _cmd_dimension(args):
    if not 1 <= args.pow_min < args.pow_max:
        raise DomainError("need 1 <= pow-min < pow-max for a decreasing scale sweep")
    try:
        lo, hi = (float(x) for x in args.band.split(":"))
    except ValueError:
        raise DomainError(f"cannot parse band {args.band!r}, expected lo:hi") from None
    if not (isfinite(lo) and isfinite(hi) and lo <= hi):
        raise DomainError(f"band {args.band!r} needs finite ends with lo <= hi")
    scales = [Fraction(1, 2**p) for p in range(args.pow_min, args.pow_max + 1)]
    counts = analysis.box_count_sweep(scales)
    fit = analysis.dimension_slope(counts)
    payload = {
        "rows": _fmt([{"epsilon": e, "count": c} for e, c in counts]),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "band_low": lo,
        "band_high": hi,
        "in_band": lo <= fit.slope <= hi,
    }
    return payload, EXIT_OK if payload["in_band"] else EXIT_BAND


def _cmd_ivt(args):
    bracket = analysis.ivt_root(args.a, args.b, args.y, args.tol)
    iv = bracket.interval
    return {
        "a": as_rational(args.a),
        "b": as_rational(args.b),
        "y": bracket.target,
        "prefix": "(" + ",".join(map(str, iv.sigma)) + ")",
        "interval": str(iv),
        "width": iv.length,
        "value_min": bracket.value_min,
        "value_max": bracket.value_max,
    }, EXIT_OK


def _cmd_counts(args):
    rep = analysis.count_bounded_products(
        args.product, args.max_len, increasing=args.increasing, budget=args.budget
    )
    return {
        "product_cap": rep.product_cap,
        "max_length": rep.max_length,
        "increasing": rep.increasing,
        "count": rep.count,
        "bound": rep.bound,
        "within_bound": rep.within_bound(),
    }, EXIT_OK


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _write_json(scalars, rows, out) -> None:
    """Write the payload as indented JSON with sorted keys, rows streamed.

    Byte-identical to json.dumps(payload, indent=2, sort_keys=True) plus a
    newline, where payload is ``scalars`` with "rows" added when ``rows`` is
    not None.  Rows must be non-empty flat dicts of JSON scalars.  They go
    through the C encoder in batches, with the indented layout spelled out
    in its separators, since the indenting encoder is pure Python.
    """
    pad = "  "  # indent=2
    item_sep = ",\n" + 3 * pad
    encode = json.JSONEncoder(sort_keys=True, separators=(item_sep, ": ")).encode
    row_open, row_close = f"{2 * pad}{{\n{3 * pad}", f"\n{2 * pad}}}"
    keys = sorted([*scalars, "rows"] if rows is not None else scalars)
    sep = "{\n"
    for key in keys:
        out.write(f"{sep}{pad}{json.dumps(key)}: ")
        sep = ",\n"
        if key != "rows":
            text = json.dumps(scalars[key], indent=pad, sort_keys=True)
            out.write(text.replace("\n", "\n" + pad))
            continue
        rows = iter(rows)
        batch_sep = "[\n"
        for batch in iter(lambda: list(islice(rows, 512)), []):
            # the encoder escapes newlines inside strings, so in a list of
            # flat dicts "}" + item_sep + "{" occurs only between two rows
            text = encode(batch)[2:-2].replace("}" + item_sep + "{", f"{row_close},\n{row_open}")
            out.write(f"{batch_sep}{row_open}{text}{row_close}")
            batch_sep = ",\n"
        out.write("[]" if batch_sep == "[\n" else f"\n{pad}]")
    out.write("\n}\n")


def _write_csv(scalars, rows, out) -> None:
    """Sorted scalars as a header and a value line, then the rows, streamed."""
    writer = csv.writer(out, lineterminator="\n")
    keys = sorted(scalars)
    writer.writerow(keys)
    writer.writerow([scalars[k] for k in keys])
    if rows is not None:
        rows = iter(rows)
        first = next(rows, None)
        keys = list(first) if first else []
        writer.writerow(keys)
        if first:
            writer.writerows([row[k] for k in keys] for row in chain([first], rows))


def _write_table(scalars, rows, out) -> None:
    """Scalars as key: value lines, then the rows in aligned columns."""
    lines = [f"{key}: {value}" for key, value in scalars.items()]
    # the column widths depend on every row, so this format holds them all
    rows = list(rows or ())
    if rows:
        keys = list(rows[0])
        table = [keys] + [[str(row[k]) for k in keys] for row in rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(keys))]
        lines.append("")
        for r in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    out.write("\n".join(lines) + "\n")


_WRITERS = {"json": _write_json, "csv": _write_csv, "table": _write_table}


def _emit(payload, args) -> None:
    rows = payload.pop("rows", None)
    meta = {"schema": SCHEMA_VERSION, "command": args.command}
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    scalars = _fmt({**meta, **payload})
    write = _WRITERS[args.format]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(scalars, rows, fh)
    else:
        write(scalars, rows, sys.stdout)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--out", metavar="PATH", default=None)
    common.add_argument("--no-timestamp", action="store_true")

    parser = _Parser(prog="piercesum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="digits and convergents of p/q")
    p.add_argument("x", help="rational in [0,1] as p/q")
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser("esum", parents=[common], help="error sum at a point")
    p.add_argument("x", help="rational p/q, or const:one-minus-inv-e")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.set_defaults(run=_cmd_esum)

    p = sub.add_parser("jumps", parents=[common], help="one-sided limits at a rational")
    p.add_argument("x", help="rational strictly inside (0,1)")
    p.set_defaults(run=_cmd_jumps)

    p = sub.add_parser("graph", parents=[common], help="graph samples over digit prefixes")
    p.add_argument("--order", type=int, required=True, help="maximum prefix order")
    p.add_argument("--digit-cap", type=int, required=True)
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("integral", parents=[common], help="Riemann sum of the error sum")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--tolerance", default=None, help="exit 2 if |deviation| exceeds this p/q")
    p.set_defaults(run=_cmd_integral)

    p = sub.add_parser("variation", parents=[common], help="oscillation sum over a partition")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--digit-cap", type=int, default=None, help="omit for the analytic total")
    p.set_defaults(run=_cmd_variation)

    p = sub.add_parser("dimension", parents=[common], help="box-counting slope over a sweep")
    p.add_argument("--pow-min", type=int, default=6, help="coarsest scale 2^-pow")
    p.add_argument("--pow-max", type=int, default=14, help="finest scale 2^-pow")
    p.add_argument("--band", default="0.8:1.3", help="acceptance band lo:hi for the slope")
    p.set_defaults(run=_cmd_dimension)

    p = sub.add_parser("ivt", parents=[common], help="bracket a solution of E(x) = y")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--tol", default="1/1000000000")
    p.set_defaults(run=_cmd_ivt)

    p = sub.add_parser("counts", parents=[common], help="bounded-product sequence counts")
    p.add_argument("--product", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--increasing", action="store_true")
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(run=_cmd_counts)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.run(args)
        _emit(payload, args)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (analysis.ResourceLimitError, DepthOverflowError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except analysis.DegenerateFitError as exc:
        print(f"degenerate fit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
