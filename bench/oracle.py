"""Correctness oracle: judges one ``tateop`` invocation by its exit code and
its stdout, against closed forms computed here with ``Fraction``.

The closed forms are derived independently of the package, so a change to
the package cannot move the oracle along with it.  No golden output digest
is used: a later fix that changes the bytes of a correct report must still
pass.  A rejected invocation counts as failed; an invocation that exits 0
with a report contradicting a closed form is also *wrong* (see
:func:`judge`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

REL_TOL = 1e-9


class Rejected(Exception):
    """The invocation's output contradicts the oracle."""


def options(argv) -> dict[str, str]:
    """``--key value`` and ``--key=value`` pairs after the subcommand."""
    out: dict[str, str] = {}
    args = list(argv[1:])
    while args:
        key = args.pop(0)
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            value = args.pop(0)
        out[key.lstrip("-")] = value
    return out


def _valuation(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _reduced(x: Fraction, p: int, m: int) -> Fraction:
    """Representative of x in the fundamental domain: valuation in [0, m)."""
    v = _valuation(x, p)
    return x * Fraction(p) ** (v % m - v)


def _rows(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(text)))
    elif fmt == "pretty":
        lines = [line.split() for line in text.splitlines()]
        table = [lines[0]] + lines[2:]
    else:
        raise ValueError(f"no table in format {fmt}")
    header, body = table[0], table[1:]
    if not body or any(len(row) != len(header) for row in body):
        raise Rejected("ragged or empty table")
    return [dict(zip(header, row)) for row in body]


def _quantities(text: str, fmt: str) -> dict:
    """The report as a flat mapping; two-column tables become key -> value."""
    if fmt == "json":
        return json.loads(text)
    rows = _rows(text, fmt)
    key, value = list(rows[0])
    return {row[key]: row[value] for row in rows}


def _true(value) -> bool:
    return value is True or value == "true"


def _close_log(reported, log_expected: float) -> bool:
    """reported is within REL_TOL of exp(log_expected), compared in log space
    so that values beyond the float range are judged too."""
    got = float(reported)
    return 0 < got < math.inf and abs(math.log(got) - log_expected) <= REL_TOL


def _logaddexp(x: float, y: float) -> float:
    hi = max(x, y)
    return hi + math.log1p(math.exp(min(x, y) - hi))


def _greens(opts, text, fmt):
    p, m = int(opts["p"]), int(opts["m"])
    closed = Fraction(-p, m * (p - 1))
    if fmt == "json":
        doc = json.loads(text)
        if Fraction(doc["expected"]) != closed or not _true(doc["all_pass"]):
            raise Rejected(f"greens report expects {doc['expected']}, closed form {closed}")
        rows = doc["rows"]
    else:
        rows = _rows(text, fmt)
    if not rows:
        raise Rejected("greens report has no rows")
    for row in rows:
        if Fraction(row["Dh"]) != closed or not _true(row["pass"]):
            raise Rejected(f"Dh = {row['Dh']} at x = {row['x']}, closed form {closed}")


def _det(opts, text, fmt):
    p, m = int(opts["p"]), int(opts["m"])
    closed = m * m * (1 - Fraction(1, p)) / (1 - Fraction(1, p**m)) ** 2
    doc = _quantities(text, fmt)
    if Fraction(doc["det"]) != closed or not _true(doc["all_pass"]):
        raise Rejected(f"det = {doc['det']}, closed form {closed}")


def _spectrum(opts, text, fmt):
    p, m, n = int(opts["p"]), int(opts["m"]), int(opts["max-conductor"])
    closed = m * (p - 1) * p ** (n - 1)
    if fmt == "json":
        doc = json.loads(text)
        total = doc["total_multiplicity"]
        if not _true(doc["all_pass"]):
            raise Rejected("spectrum report does not pass")
    else:
        total = sum(int(row["mult"]) for row in _rows(text, fmt))
    if total != closed:
        raise Rejected(f"total multiplicity {total}, closed form {closed}")


def _matrix(opts, text, fmt):
    p, m, k = int(opts["p"]), int(opts["m"]), int(opts["level"])
    dim = m * (p - 1) * p ** (k - 1)
    doc = _quantities(text, fmt)
    if int(doc["dimension"]) != dim or not _true(doc["all_pass"]):
        raise Rejected(f"matrix dimension {doc['dimension']} (closed form {dim}), all_pass {doc['all_pass']}")
    if fmt == "json" and len(doc["eigenvalues"]) != dim:
        raise Rejected("eigenvalue list does not match the dimension")
    if "dump" in opts:
        with open(opts["dump"] + ".csv") as fh:
            lines = fh.read().splitlines()
        with open(opts["dump"] + ".basis.json") as fh:
            basis = json.load(fh)["basis"]
        if len(lines) != dim + 1 or len(basis) != dim:
            raise Rejected("dumped matrix does not match the dimension")
        if any(line.count(",") != dim for line in lines):
            raise Rejected("dumped matrix has a ragged row")


def _correlator(opts, text, fmt):
    p, m, delta = int(opts["p"]), int(opts["m"]), float(opts.get("delta", "1"))
    x1 = _reduced(Fraction(opts["x1"]), p, m)
    x2 = _reduced(Fraction(opts["x2"]), p, m)
    v1, v2, vd = _valuation(x1, p), _valuation(x2, p), _valuation(x1 - x2, p)
    # log of (|x1||x2|/|x1-x2|^2)^delta + (r^delta + r^-delta)/(p^(m delta) - 1)
    lp = math.log(p)
    c = m * delta * lp
    log_two_point = _logaddexp(
        delta * (2 * vd - v1 - v2) * lp,
        _logaddexp(delta * (v2 - v1) * lp, delta * (v1 - v2) * lp) - c - math.log(-math.expm1(-c)),
    )
    kernel = Fraction(p) ** (2 * vd - v1 - v2) + (
        Fraction(p) ** (v2 - v1) + Fraction(p) ** (v1 - v2)
    ) / (p**m - 1)
    doc = _quantities(text, fmt)
    if not _close_log(doc["two_point"], log_two_point):
        raise Rejected(f"two_point = {doc['two_point']}, closed form exp({log_two_point!r})")
    if not _close_log(doc["kernel"], math.log(kernel)):
        raise Rejected(f"kernel = {doc['kernel']}, closed form {kernel}")
    if not _true(doc["all_pass"]):
        raise Rejected("correlator report does not pass")


def _tree(opts, text, fmt):
    p, m, d = int(opts["p"]), int(opts["m"]), int(opts["depth"])
    closed = m * p**d
    lines = text.splitlines()
    if not lines or lines[0] != "graph tate_quotient {" or lines[-1] != "}":
        raise Rejected("not a complete DOT graph")
    edges = sum(1 for line in lines if " -- " in line)
    nodes = sum(1 for line in lines[1:-1] if " -- " not in line)
    if nodes != closed or edges != closed:
        raise Rejected(f"DOT has {nodes} nodes and {edges} edges, closed form {closed}")


JUDGES = {
    "greens": _greens,
    "det": _det,
    "spectrum": _spectrum,
    "matrix": _matrix,
    "correlator": _correlator,
    "tree": _tree,
}


def judge(argv, code: int, stdout: str) -> tuple[str | None, bool]:
    """Return (reason for rejection or None, whether the report is wrong).

    Every invocation must exit 0 with a report that agrees with the closed
    forms.  A nonzero exit is a failure but not a wrong answer: the program
    declined to answer.  Exit 0 with a contradicting or unreadable report
    is both.
    """
    if code != 0:
        return f"exit code {code}", False
    opts = options(argv)
    try:
        JUDGES[argv[0]](opts, stdout, opts.get("format", "json"))
    except Rejected as exc:
        return str(exc), True
    except (ValueError, KeyError, TypeError, IndexError, OSError, ZeroDivisionError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}", True
    return None, False
