"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each criterion is one test so that `pytest -v` yields exactly one
pass/fail line per criterion; a summary line is also printed (visible
with `-s` or on failure).
"""

import io
import contextlib
import json
import math
import random
import time
from fractions import Fraction

from tateop.cli import main as cli_main
from tateop.correlator import height_limit_check, two_point
from tateop.determinant import (
    angular_determinant,
    zeta_pi_series,
    zeta_pi_value,
    zeta_prime_at_zero,
)
from tateop.matrix import build_matrix, verify_matrix
from tateop.operator import apply_D_height, height_check_points
from tateop.padic import PrimeParams, kernel_H, point, tate_div, tate_inv, valuation
from tateop.spectral import (
    eigenvalue_angular,
    eigenvalue_angular_sum,
    eigenvalue_radial_closed,
    eigenvalue_radial_integral,
    enumerate_conductor,
    enumerate_spectrum,
)

from oracles import (
    AngularCharacter,
    ShellPartition,
    StepFunction,
    character_value,
    det_D,
    dtn_cross_check,
    norm,
    total_volume,
    weak_delta_check,
)

GRID = [(p, m) for p in (2, 3, 5) for m in range(1, 6)]

# level-3 unit residues per shell, shared by criteria 3 and 8
KERNEL_SAMPLE_CONFIGS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


def _report(num: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} [{name}]: {status} {detail}")
    assert not failures, failures[:5]


def _kernel_sample(ctx: PrimeParams) -> list:
    pts = []
    p3 = ctx.p**3
    for v in range(ctx.m):
        for c in range(1, p3):
            if c % ctx.p:
                pts.append(point(c * ctx.p**v, ctx))
    return pts


def test_criterion_01_height_is_greens_function():
    failures = []
    t0 = time.perf_counter()
    checked = 0
    for p, m in GRID:
        ctx = PrimeParams(p, m)
        expected = -Fraction(p, m * (p - 1))
        pts = height_check_points(ctx, max_vdist=6)
        shells = {x.v for x in pts}
        if shells != set(range(m)):
            failures.append((p, m, "missing shells", shells))
        dists = {valuation(x.value - 1, p) for x in pts if x.v == 0}
        # x odd forces x - 1 even, so the distance-0 stratum is empty at p = 2
        required = set(range(1, 7)) if p == 2 else set(range(7))
        if not dists >= required:
            failures.append((p, m, "missing unit-shell distances", dists))
        for x in pts:
            got = apply_D_height(p, m, x.v, valuation(x.value - 1, p))
            checked += 1
            if got != expected:
                failures.append((p, m, str(x.value), got, expected))
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report(1, "Dh = -p/(m(p-1)) exactly", failures, f"({checked} points, {elapsed:.2f}s)")


def test_criterion_02_weak_delta_normalization():
    failures = []
    rng = random.Random(20260815)
    t0 = time.perf_counter()
    checked = 0
    for p, m in GRID:
        ctx = PrimeParams(p, m)
        vol = total_volume(ctx)
        base = ShellPartition.full(ctx, 1)
        partitions = [base, base.refine_ball(rng.randrange(len(base.balls)))]
        for trial in range(50):
            part = partitions[trial % 2]
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in part.balls]
            f = StepFunction(part, vals)
            b = part.balls[rng.randrange(len(part.balls))]
            y = rng.choice(b.children()).center_point() if trial % 3 else b.center_point()
            lhs, rhs = weak_delta_check(y, f)
            checked += 1
            if lhs != rhs or rhs != f.value_at(y) - f.integral() / vol:
                failures.append((p, m, trial, lhs, rhs))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(2, "DG = delta - 1/Vol exactly", failures, f"({checked} pairs, {elapsed:.2f}s)")


def test_criterion_03_kernel_identities_exhaustive():
    failures = []
    pairs = 0
    for p, m in KERNEL_SAMPLE_CONFIGS:
        ctx = PrimeParams(p, m)
        pts = _kernel_sample(ctx)
        lams = [point(p, ctx), point(2 if p > 2 else 3, ctx), point(p + 1, ctx)]
        for i, z in enumerate(pts):
            for x in pts[i + 1 :]:
                if z.value == x.value:
                    continue
                pairs += 1
                h = kernel_H(z, x)
                norm_form = (z.norm() * x.norm()) / norm(z.value - x.value, p) ** 2 + (
                    norm(z.value / x.value, p) + norm(x.value / z.value, p)
                ) / (ctx.q - 1)
                if h != norm_form:
                    failures.append((p, m, "norm form", z.value, x.value))
                if h != kernel_H(x, z):
                    failures.append((p, m, "symmetry", z.value, x.value))
                if h != kernel_H(tate_inv(z), tate_inv(x)):
                    failures.append((p, m, "inversion", z.value, x.value))
                lam = lams[pairs % len(lams)]
                if h != kernel_H(tate_div(z, lam), tate_div(x, lam)):
                    failures.append((p, m, "dilation", z.value, x.value, lam.value))
    _report(3, "kernel identities, level-3 exhaustive", failures, f"({pairs} pairs)")


def test_criterion_04_spectrum_cross_checks():
    failures = []
    # radial eigenvalues: defining integral vs closed form, n <= 4, all l
    radial_configs = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
    for p, m in radial_configs:
        ctx = PrimeParams(p, m)
        for n in range(1, 5):
            lam = eigenvalue_radial_closed(n, ctx)
            chars = enumerate_conductor(p, n)[:2]
            for chi in chars:
                for ell in range(m):
                    got = eigenvalue_radial_integral(chi, ell, ctx)
                    if abs(got - lam) > 1e-10:
                        failures.append(("radial", p, m, n, ell, got, lam))
    # angular eigenvalues: closed form vs defining sum, m <= 12
    for p in (2, 3, 5):
        for m in range(2, 13):
            ctx = PrimeParams(p, m)
            for ell in range(1, m // 2 + 1):
                closed = complex(float(eigenvalue_angular(ell, ctx)))
                s = eigenvalue_angular_sum(ell, ctx)
                if abs(closed - s) > 1e-10:
                    failures.append(("angular", p, m, ell))
    # eigenfunction residuals via the exact matrix, conductor <= 3
    import numpy as np

    for p, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = PrimeParams(p, m)
        mx = build_matrix(3, ctx)
        arr = mx.as_float()
        centers = [b.center_point() for b in mx.basis]
        count = 0
        for n in range(4):
            for chi in enumerate_conductor(p, n):
                for ell in range(m):
                    zeta = AngularCharacter(m, ell)
                    vec = np.array(
                        [
                            complex(zeta.value(x.v)) * complex(character_value(chi, x.unit_part()))
                            for x in centers
                        ]
                    )
                    lam = eigenvalue_radial_closed(n, ctx) if n else eigenvalue_angular(ell, ctx)
                    lam = complex(float(lam))
                    resid = float(np.max(np.abs(arr @ vec - lam * vec)))
                    if resid >= 1e-10:
                        failures.append(("residual", p, m, n, ell, str(chi), resid))
                    count += 1
        if count != mx.dimension:
            failures.append(("character count", p, m, count, mx.dimension))
    _report(4, "spectrum: integrals, sums, eigenfunctions", failures)


def test_criterion_05_matrix_consistency():
    failures = []
    t0 = time.perf_counter()
    dims = []
    for p, m, k in [(3, 2, 2), (2, 3, 3), (5, 1, 2), (2, 1, 4)]:
        ctx = PrimeParams(p, m)
        _, rep = verify_matrix(build_matrix(k, ctx))
        dims.append(rep["dimension"])
        if not rep["symmetric"] or not rep["row_sums_zero"]:
            failures.append((p, m, k, "exactness", rep["failures"]))
        if rep["min_eigenvalue"] < -1e-9:
            failures.append((p, m, k, "min eigenvalue", rep["min_eigenvalue"]))
        if rep["multiset_deviation"] > 1e-8 or not rep["spectrum_match"]:
            failures.append((p, m, k, "multiset", rep["multiset_deviation"]))
        if not rep["passed"]:
            failures.append((p, m, k, rep["failures"]))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(5, "matrix multiset = spectrum", failures, f"(dims {dims}, {elapsed:.2f}s)")


def test_criterion_06_weyl_law():
    failures = []
    for p in (2, 3, 5):
        for m in range(1, 5):
            ctx = PrimeParams(p, m)
            for big_m in range(2, 8):
                lam = eigenvalue_radial_closed(big_m, ctx)
                entries = enumerate_spectrum(big_m, ctx)
                count = sum(e.multiplicity for e in entries if e.eigenvalue <= lam)
                enum_total = sum(e.multiplicity for e in entries)
                if count != m * lam or count != enum_total:
                    failures.append((p, m, big_m, count, m * lam, enum_total))
    _report(6, "Weyl count N(lambda_M) = m lambda_M", failures)


def test_criterion_07_determinant():
    failures = []
    for p in (2, 3, 5, 7):
        for m in range(1, 7):
            ctx = PrimeParams(p, m)
            if det_D(ctx) != angular_determinant(ctx) * Fraction(p, p - 1) ** m:
                failures.append(("factorization", p, m))
            for s in (2, 3, 4):
                if abs(zeta_pi_series(s, ctx) - zeta_pi_value(s, ctx)) > 1e-12:
                    failures.append(("series", p, m, s))
            lhs = math.exp(-zeta_prime_at_zero(ctx))
            rhs = float(Fraction(p, p - 1) ** m)
            if abs(lhs - rhs) > 1e-8 * rhs:
                failures.append(("exp(-zeta')", p, m, lhs, rhs))
    _report(7, "det D factorization and zeta checks", failures)


def test_criterion_08_correlator():
    failures = []
    # (a) Delta = 1 degenerates to the kernel over the full kernel sample
    pairs = 0
    for p, m in KERNEL_SAMPLE_CONFIGS:
        ctx = PrimeParams(p, m)
        pts = _kernel_sample(ctx)
        for i, z in enumerate(pts):
            for x in pts[i + 1 :]:
                if z.value == x.value:
                    continue
                pairs += 1
                if abs(two_point(z, x, 1) - float(kernel_H(z, x))) > 1e-12:
                    failures.append(("delta=1", p, m, z.value, x.value))
    # (b) dimensionless limit reproduces the height for >= 20 pairs per config
    for p, m in [(3, 2), (2, 5), (5, 3)]:
        ctx = PrimeParams(p, m)
        cands = []
        for v in range(m):
            for u in (1, 2, 3, p + 1, p + 2, 2 * p + 1):
                if u % p:
                    cands.append(point(u * p**v, ctx))
        count = 0
        for i, x1 in enumerate(cands):
            for x2 in cands[i + 1 :]:
                if x1.value == x2.value or count >= 25:
                    continue
                count += 1
                est, tgt = height_limit_check(x1, x2)
                if abs(est - tgt) >= 1e-6 * (1 + abs(tgt)):
                    failures.append(("limit", p, m, x1.value, x2.value, est, tgt))
        if count < 20:
            failures.append(("too few pairs", p, m, count))
    _report(8, "two-point: kernel at 1, height at 0", failures, f"({pairs} kernel pairs)")


def test_criterion_09_dirichlet_to_neumann():
    failures = []
    for p in (2, 3, 5, 7):
        for n, lhs, rhs in dtn_cross_check(PrimeParams(p, 1), n_max=6):
            if not (lhs == rhs == (p - 1) * p ** (n - 1)):
                failures.append((p, n, lhs, rhs))
    _report(9, "m=1 DtN operator agreement", failures)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def test_criterion_10_cli_determinism_and_exit_codes():
    failures = []
    documented = [
        ["greens", "--p", "3", "--m", "2"],
        ["greens", "--p", "2", "--m", "5"],
        ["spectrum", "--p", "3", "--m", "2", "--max-conductor", "2"],
        ["spectrum", "--p", "2", "--m", "1", "--max-conductor", "3"],
        ["det", "--p", "3", "--m", "2"],
        ["matrix", "--p", "3", "--m", "2", "--level", "1"],
        ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1"],
        ["tree", "--p", "2", "--m", "5", "--depth", "1"],
    ]
    for argv in documented:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        if code1 != 0 or code2 != 0:
            failures.append(("exit", argv, code1, code2))
        if out1.encode() != out2.encode() or not out1:
            failures.append(("bytes", argv))
    # exit-code contract: pass / induced failure / usage error
    if _run_cli(["det", "--p", "3", "--m", "2"])[0] != 0:
        failures.append("pass path")
    if _run_cli(["greens", "--p", "3", "--m", "2", "--expect=-1/2"])[0] != 1:
        failures.append("induced failure path")
    if _run_cli(["greens", "--p", "4", "--m", "1"])[0] != 2:
        failures.append("usage path")
    # sanity: documented JSON payload really parses
    _, out = _run_cli(["spectrum", "--p", "3", "--m", "2", "--max-conductor", "2"])
    if json.loads(out)["total_multiplicity"] != 12:
        failures.append("payload")
    _report(10, "CLI determinism + exit codes", failures)
