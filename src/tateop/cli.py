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
    valuation,
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
# domain too though only the others read it: a module that imports it
# later then finds it in sys.modules, and no import sets a new attribute
# on the package while a caller iterates over its attributes (as
# bench/tracer.py does).  A lookup in sys.modules after `import tateop.cli`
# finds each.
angular = _lazy_module("angular")
_lazy_module("domain")
correlator = _lazy_module("correlator")
determinant = _lazy_module("determinant")
matrix = _lazy_module("matrix")
operator = _lazy_module("operator")
spectral = _lazy_module("spectral")
tree = _lazy_module("tree")

LIMIT_TOLERANCE = 1e-6
# det's printed closed form and series met their exact values within a
# relative 2.2e-15 for p up to 999983, m up to the --m caps.
ZETA_FLOAT_TOLERANCE = 1e-12
INTEGRAL_CHECK_MODULUS_CAP = 5000
# The float integrals met their closed forms within a relative 2.7e-15 over
# 305 (p, m, n), p < 72, m <= 8, p^n under the cap: as the eigenvalue grows
# to about 5000 the error grows to 1e-11, so the bound is relative.
INTEGRAL_CHECK_REL_TOLERANCE = 1e-12
# The angular power sums met the circulant's trace and Parseval sum within a
# relative 2.0e-16 over 15 (p, m), --m at its cap at p = 2 and 999983 included.
CIRCULANT_REL_TOLERANCE = 1e-12
# The caps, each checked here once before any work so that a huge value is
# a quick usage error, not a call that runs without end; the library holds
# none.  A call at its caps took at most 14 s and 63 MB on a 2-core Xeon VM,
# `matrix` at its dimension cap 58 s (README, "Caps").  --m is capped through
# the bit operations of one pass over the shell couplings w_1..w_(m-1), about
# m^2 log2(p), which greens, spectrum, det and matrix stream and none stores;
# correlator, which reads one weight, keeps the cap.
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
    if fmt == "pretty":
        table = [list(report.columns)] + [
            [_cell(x) for x in row] for row in report.rows
        ]
        widths = [max(len(r[i]) for r in table) for i in range(len(report.columns))]
        lines = []
        for idx, row in enumerate(table):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


GREENS_COLUMNS = ("x", "v", "vdist", "Dh", "expected", "pass")


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
    # The operator reads a point only through its class (v, vdist), so each
    # class is evaluated once, in this call, and every point is printed.
    classes = [(x.v, valuation(x.value - 1, ctx.p)) for x in points]
    values = {c: operator.apply_D_height(ctx.p, ctx.m, *c) for c in dict.fromkeys(classes)}
    rows = []
    for x, c in zip(points, classes):
        cells = (format_rational(x.value), *c, values[c], expected, values[c] == expected)
        rows.append(dict(zip(GREENS_COLUMNS, cells)))
    # The printed classes are every shell and v(x - 1) promised; at p = 2
    # every unit is 1 mod 2, so v(x - 1) starts at 1.
    promised = {(0, j) for j in range(int(ctx.p == 2), args.max_vdist + 1)}
    promised |= {(v, 0) for v in range(1, ctx.m)}
    covered = values.keys() == promised
    data = {
        "expected": expected,
        "all_pass": covered and all(row["pass"] for row in rows),
        "rows": rows,
    }
    return Report(data, GREENS_COLUMNS, [tuple(row.values()) for row in rows])


def cmd_spectrum(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    entries = spectral.enumerate_spectrum(args.max_conductor, ctx)
    integral_checks = []
    checks_pass = True
    for e in entries:
        if e.kind != "radial":
            continue
        n, closed = e.index, e.eigenvalue
        # The exact defining sum at every conductor; a pass adds no bytes.
        checks_pass = checks_pass and spectral.eigenvalue_radial_exact(n, ctx) == closed
        if ctx.p**n > INTEGRAL_CHECK_MODULUS_CAP:
            continue
        integral = spectral.eigenvalue_radial_integral(spectral.primitive_character(ctx.p, n), 1, ctx)
        err = abs(integral - complex(float(closed)))
        ok = err <= INTEGRAL_CHECK_REL_TOLERANCE * float(closed)
        checks_pass = checks_pass and ok
        integral_checks.append(
            {
                "n": n,
                "closed": closed,
                "integral": integral.real,
                "abs_error": err,
                "pass": ok,
            }
        )
    # Every entry lies at or below lam_top (an angular eigenvalue above it,
    # or an entry past max_conductor, leaves count below total), and the
    # multiplicities add up to m lam_top.
    lam_top = spectral.eigenvalue_radial_closed(args.max_conductor, ctx)
    count = sum(e.multiplicity for e in entries if e.eigenvalue <= lam_top)
    total = sum(e.multiplicity for e in entries)
    weyl_ok = count == total == ctx.m * lam_top
    # The angular entries sum to the circulant's trace (l = 0 adds 0), and
    # their squares to its Parseval sum, which sees a shift the trace misses.
    circulant = [(e.multiplicity, e.eigenvalue) for e in entries if e.kind == "angular"]
    circulant_ok = all(
        math.isclose(
            math.fsum(mult * lam**k for mult, lam in circulant), target, rel_tol=CIRCULANT_REL_TOLERANCE
        )
        for k, target in ((1, angular.angular_trace(ctx)), (2, angular.angular_square_sum(ctx)))
    )
    # One zero mode, the constants: the kernel of D is one-dimensional.
    zero_ok = [e.multiplicity for e in entries if e.eigenvalue == 0] == [1]
    checks_pass = checks_pass and weyl_ok and circulant_ok and zero_ok
    data = {
        "max_conductor": args.max_conductor,
        "entries": [e.to_json_dict() for e in entries],
        "total_multiplicity": total,
        # The least positive listed eigenvalue; None where only the zero
        # mode is listed (p = 2, m = 1, max_conductor = 1).
        "spectral_gap": min((e.eigenvalue for e in entries if e.eigenvalue > 0), default=None),
        "weyl": {
            "lambda": lam_top,
            "count": count,
            "m_lambda": ctx.m * lam_top,
            "pass": weyl_ok,
        },
        "integral_checks": integral_checks,
        "all_pass": checks_pass,
    }
    rows = [(e.kind, e.index, e.eigenvalue, e.multiplicity) for e in entries]
    return Report(data, ("kind", "index", "lambda", "mult"), rows)


def cmd_det(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    det, angular, radial, zeta_prime = determinant.det_factors(ctx)
    series_checks = []
    for s in (2, 3, 4):
        closed = determinant.zeta_pi_value(float(s), ctx)
        series = determinant.zeta_pi_series(float(s), ctx)
        err = abs(closed - series)
        # The identity is decided exactly, and each printed float is tied to
        # its exact counterpart within a relative ZETA_FLOAT_TOLERANCE.
        exact, summed = determinant.zeta_pi_exact(s, ctx), determinant.zeta_pi_series_sum(s, ctx)
        ok = exact == summed and all(
            math.isclose(x, float(y), rel_tol=ZETA_FLOAT_TOLERANCE)
            for x, y in ((closed, exact), (series, summed))
        )
        series_checks.append(
            {"s": s, "closed": closed, "series": series, "abs_error": err, "pass": ok}
        )
    body = {
        "det": det,
        "angular_factor": angular,
        "radial_factor": radial,
        "zeta_prime_zero": zeta_prime,
        "zeta_series_checks": series_checks,
        "all_pass": all(chk["pass"] for chk in series_checks),
    }
    return _quantity_report(body)


def cmd_matrix(args: argparse.Namespace, ctx: PrimeParams) -> Report:
    mx = matrix.build_matrix(args.level, ctx)
    if args.dump:
        import json

        # Written before the verification, which costs far more than the build.
        _write("--dump", args.dump + ".csv", mx.to_csv())
        manifest = json.dumps(_json_ready(mx.basis_manifest()), indent=2)
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
    # Both sides are the one rational H(x1, x2), correctly rounded.
    try:
        at_one = correlator.two_point(x1, x2, 1.0)
        kernel = float(operator.kernel_H(x1, x2))
    except OverflowError as exc:
        raise UsageError("the delta = 1 kernel at these points overflows a float") from exc
    kernel_ok = at_one == kernel
    # The exact coefficient decides the height verdict; the extrapolated
    # limit is reported beside it, as its steps lose accuracy at large m.
    coefficient, twice_height = correlator.height_coefficient(x1, x2)
    estimate, target = correlator.height_limit_check(x1, x2)
    limit_ok = abs(estimate - target) < LIMIT_TOLERANCE * (1 + abs(target))
    body = {
        "two_point": value,
        "two_point_at_delta_1": at_one,
        "kernel": kernel,
        "kernel_match": kernel_ok,
        "limit_estimate": estimate,
        "limit_target": target,
        "limit_match": limit_ok,
        "all_pass": kernel_ok and coefficient == twice_height,
    }
    return _quantity_report(body, x1=x1.value, x2=x2.value, delta=float(delta))


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
