"""Command-line surface: every computation as a reproducible report.

Output is deterministic by construction: fixed key order, rationals as
"a/b" strings, floats printed to 15 significant digits, and a fixed
basis/entry ordering inherited from the library.  Exit codes: 0 when all
checks pass, 1 when a mathematical check fails, 2 for usage errors.
The package modules past ``padic`` load lazily, so a subcommand compiles
and runs only the modules it uses: that is most of a short call's time.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import re
import sys
import types
from fractions import Fraction

from .padic import (
    PrimeParams,
    capped_product,
    format_float,
    format_rational,
    parse_rational,
    point,
)


def _lazy_module(name: str) -> types.ModuleType:
    """The package module ``name``, registered in ``sys.modules`` and on the
    package now, its body run on the first attribute access (the standard
    library's ``LazyLoader`` recipe).  A module already imported is returned
    as it is, so there is never a second copy with its own caches."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


# A subcommand runs only the modules it reads.  Every one is registered,
# angular too though only other modules read it: a module that imports it
# later then finds it in sys.modules, and no import sets a new attribute on
# the package while a caller iterates over its attributes (as
# bench/tracer.py does).  domain, which no subcommand runs, stays for the
# tracer, which looks it up in sys.modules to wrap `canonical_center`.
_lazy_module("angular")
_lazy_module("domain")
correlator = _lazy_module("correlator")
determinant = _lazy_module("determinant")
matrix = _lazy_module("matrix")
operator = _lazy_module("operator")
spectral = _lazy_module("spectral")
tree = _lazy_module("tree")

# The caps, each checked here once before any work so that a huge value is
# a quick usage error, not a call that runs without end; the library holds
# none.  A call at its caps took at most 14 s and 63 MB on a 2-core Xeon VM,
# `matrix` at its dimension cap 58 s (README, "Caps").  --m is capped through
# the bit operations of one pass over the shell couplings w_1..w_(m-1), about
# m^2 log2(p), which spectrum, det and matrix stream and none stores;
# greens and correlator read single weights and keep the cap.  greens' lower
# cap bounds its about 3m points of up to m log2(p) bits, each valued,
# evaluated as a Fraction and printed: at --p 999983 --max-vdist 600, in
# process, 3.7 s at m = 1000, 16.8 s at 2000, 110 s and 515 MB at 4000.
P_CAP = 10**6
COUPLING_BIT_OPS_CAP = 3 * 10**9
GREENS_M_CAP = 1000
MAX_CONDUCTOR_CAP = 500
MAX_VDIST_CAP = 600
# The largest dimension tried whose `matrix` call (build and verify) took
# about a minute at most on a 2-core Xeon VM, one BLAS thread: 58 s at
# (p, m, level) = (2, 3072, 1), 52 s at (3, 1536, 1), 54 s at (2, 3, 11).
# It bounds m and the level together.
MATRIX_DIM_CAP = 3072
TREE_NODE_CAP = 20000


class UsageError(Exception):
    """Invalid arguments that argparse alone cannot catch."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a token such as ``-1/2`` or ``-1e7`` after an option as its
    value, as newer argparse does; older versions take only a plain
    negative decimal so, and call any other ``-`` token an option."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


class Report:
    """One command's payload: canonical JSON data plus a flat projection.

    The exit code follows ``data["all_pass"]``; a report without one passes.
    """

    __slots__ = ("data", "columns", "rows", "raw_text")

    def __init__(
        self, data: dict, columns: tuple[str, ...], rows: list[tuple], raw_text: str | None = None
    ) -> None:
        self.data = data
        self.columns = columns
        self.rows = rows
        self.raw_text = raw_text

    @property
    def code(self) -> int:
        return 0 if self.data.get("all_pass", True) else 1


def _scalar_rows(mapping: dict) -> list[tuple]:
    """(name, value) rows for the scalar entries of a report mapping, in order."""
    return [(k, v) for k, v in mapping.items() if not isinstance(v, (list, dict))]


def _quantity_report(body: dict, **head) -> Report:
    """JSON data is head then body; the rows are body's scalar quantities."""
    return Report({**head, **body}, ("quantity", "value"), _scalar_rows(body))


def _json_ready(obj):
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool) or isinstance(obj, int) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _cell(x) -> str:
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format_float(x)
    return str(x)


def render(report: Report, fmt: str) -> str:
    if report.raw_text is not None:
        return report.raw_text
    # Each of json and csv adds to every call's start-up, so it is imported
    # only for the format that needs it.
    if fmt == "json":
        import json

        return json.dumps(_json_ready(report.data), indent=2) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_cell(x) for x in row])
        return buf.getvalue()
    # pretty, the one format left: argparse admits only these three.
    table = [list(report.columns)] + [[_cell(x) for x in row] for row in report.rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(report.columns))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def cmd_greens(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    if args.expect is None:
        expected = -Fraction(ctx.p, ctx.m * (ctx.p - 1))
    else:
        try:
            expected = parse_rational(args.expect)
        except ValueError as exc:
            raise UsageError(f"--expect: {exc}") from exc
    points = operator.height_check_points(ctx, args.max_vdist)
    if not points:
        raise UsageError(
            f"--max-vdist {args.max_vdist} samples no point at p={ctx.p}, m={ctx.m}; raise it"
        )
    data = operator.verify_greens(points, args.max_vdist, expected)
    rows = data["rows"]
    return Report(data, tuple(rows[0]), [tuple(row.values()) for row in rows])


def cmd_spectrum(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    entries = spectral.enumerate_spectrum(args.max_conductor, ctx)
    data = {
        "max_conductor": args.max_conductor,
        "entries": [e.to_json_dict() for e in entries],
        **spectral.verify_spectrum(entries, args.max_conductor, ctx),
    }
    rows = [(e.kind, e.index, e.eigenvalue, e.multiplicity) for e in entries]
    return Report(data, ("kind", "index", "lambda", "mult"), rows)


def cmd_det(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    det, angular, radial, zeta_prime = determinant.det_factors(ctx)
    body = {
        "det": det,
        "angular_factor": angular,
        "radial_factor": radial,
        "zeta_prime_zero": zeta_prime,
        **determinant.verify_zeta_series(ctx),
    }
    return _quantity_report(body)


def cmd_matrix(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    mx = matrix.build_matrix(args.level, ctx)
    if args.dump:
        import json

        # Written before the verification, which costs far more than the build.
        _write("--dump", args.dump + ".csv", mx.to_csv())
        manifest = json.dumps(mx.basis_manifest(), indent=2)
        _write("--dump", args.dump + ".basis.json", manifest + "\n")
    eigenvalues, checks = matrix.verify_matrix(mx)
    passed = checks["passed"]
    data = {
        "level": args.level,
        "dimension": mx.dimension,
        "eigenvalues": eigenvalues,
        "report": checks,
        "all_pass": passed,
    }
    rows = _scalar_rows({k: v for k, v in checks.items() if k != "passed"})
    return Report(data, ("check", "value"), rows + [("all_pass", passed)])


def cmd_correlator(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    delta = args.delta
    try:
        x1 = point(parse_rational(args.x1), ctx)
        x2 = point(parse_rational(args.x2), ctx)
    except ValueError as exc:
        raise UsageError(f"bad point: {exc}") from exc
    if not math.isfinite(delta):
        raise UsageError(f"--delta {delta!r} is not a finite number")
    if delta <= 0:
        raise UsageError("--delta must be positive")
    if x1.value == x2.value:
        raise UsageError("points must be distinct")
    overflow = f"--delta {delta!r}: the two-point value overflows a float"
    try:
        value = correlator.two_point(x1, x2, delta)
    except OverflowError as exc:
        raise UsageError(overflow) from exc
    # A tiny delta makes the second term, about 2 / (m delta log p), infinite.
    if not math.isfinite(value):
        raise UsageError(overflow)
    try:
        checks = correlator.verify_correlator(x1, x2)
    except OverflowError as exc:
        raise UsageError("the delta = 1 kernel at these points overflows a float") from exc
    return _quantity_report({"two_point": value, **checks}, x1=x1.value, x2=x2.value, delta=float(delta))


def cmd_tree(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    return Report({}, (), [], raw_text=tree.tree_quotient_dot(ctx.p, ctx.m, args.depth))


def _check_caps(args: argparse.Namespace) -> None:
    """Refuse a parameter out of its range: --p over its cap before its
    primality test, an option below its least value, and --m, the matrix
    dimension m (p-1) p^(level-1) and the tree's m p^depth nodes over their
    caps before any power of p is formed.  A size is checked only where
    p >= 2 and m >= 1: PrimeParams refuses the others."""
    p, m = args.p, args.m
    if p > P_CAP:
        raise UsageError(f"--p {p} exceeds the cap of {P_CAP}")
    if args.command != "tree" and p >= 2:
        m_cap = math.isqrt(int(COUPLING_BIT_OPS_CAP / math.log2(p)))
        if args.command == "greens":
            m_cap = min(m_cap, GREENS_M_CAP)
        if m > m_cap:
            raise UsageError(f"--m {m} exceeds the cap of {m_cap} at p = {p}")
    # Each option of one subcommand, its least value and its cap (--level and
    # --depth are capped through the sizes below); one absent reads as least.
    for dest, least, cap in (
        ("max_conductor", 1, MAX_CONDUCTOR_CAP),
        ("max_vdist", 0, MAX_VDIST_CAP),
        ("level", 1, math.inf),
        ("depth", 0, math.inf),
    ):
        value = getattr(args, dest, least)
        option = "--" + dest.replace("_", "-")
        if value < least:
            raise UsageError(f"{option} must be >= {least}")
        if value > cap:
            raise UsageError(f"{option} {value} exceeds the cap of {cap}")
    if p < 2 or m < 1:
        return
    if args.command == "matrix":
        k = args.level - 1
        if capped_product(m * (p - 1), p, k, MATRIX_DIM_CAP) > MATRIX_DIM_CAP:
            raise UsageError(f"matrix dimension {m}*{p - 1}*{p}^{k} exceeds cap {MATRIX_DIM_CAP}")
    if args.command == "tree" and capped_product(m, p, args.depth, TREE_NODE_CAP) > TREE_NODE_CAP:
        raise UsageError(f"{m}*{p}^{args.depth} nodes exceeds the node cap of {TREE_NODE_CAP}")


def _write(option: str, path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"{option} cannot write {path!r}: {exc.strerror}") from exc


HANDLERS = {
    "greens": cmd_greens,
    "spectrum": cmd_spectrum,
    "det": cmd_det,
    "matrix": cmd_matrix,
    "correlator": cmd_correlator,
    "tree": cmd_tree,
}


def build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="prime p")
    common.add_argument("--m", type=int, required=True, help="period exponent m >= 1")
    common.add_argument(
        "--format",
        choices=("json", "csv", "pretty"),
        default="json",
        help="output format (default json)",
    )
    common.add_argument("--out", default=None, help="write output to this path")
    parser = _ArgumentParser(
        prog="tateop",
        description="Exact computations for the nonlocal boundary operator on the Tate curve domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("greens", parents=[common], help="height identity sweep")
    g.add_argument("--max-vdist", type=int, default=6, help="largest v(x-1) sampled")
    g.add_argument(
        "--expect",
        default=None,
        help="override the expected constant (rational a/b); mismatches exit 1",
    )

    s = sub.add_parser("spectrum", parents=[common], help="eigenvalue table and checks")
    s.add_argument("--max-conductor", type=int, required=True, help="largest radial level")

    sub.add_parser("det", parents=[common], help="zeta-regularized determinant")

    x = sub.add_parser("matrix", parents=[common], help="exact level-k matrix checks")
    x.add_argument("--level", type=int, required=True, help="discretization level k >= 1")
    x.add_argument("--dump", default=None, help="write PREFIX.csv and PREFIX.basis.json")

    c = sub.add_parser("correlator", parents=[common], help="two-point function and height limit")
    c.add_argument("--x1", required=True, help="first point (rational a/b)")
    c.add_argument("--x2", required=True, help="second point (rational a/b)")
    c.add_argument("--delta", type=float, default=1.0, help="scaling dimension (default 1)")

    t = sub.add_parser("tree", parents=[common], help="DOT export of the tree quotient")
    t.add_argument("--depth", type=int, required=True, help="branch truncation depth")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Caps, ranges and the prime context are decided here.  After parsing only
    # a UsageError exits 2: a ValueError or ArithmeticError is a failed check.
    try:
        _check_caps(args)
        try:
            ctx = PrimeParams(args.p, args.m)
        except ValueError as exc:
            raise UsageError(exc) from exc
        report = HANDLERS[args.command](args, ctx)
        report.data = {"command": args.command, "p": ctx.p, "m": ctx.m, **report.data}
        text = render(report, args.format)
        if args.out:
            _write("--out", args.out, text)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"math check failed: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return report.code
