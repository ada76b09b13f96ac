"""The nonlocal operator: kernel identities, height Green's function, delta check."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tateop import cli, operator
from tateop.domain import Ball
from tateop.operator import apply_D_height, height_check_points, integrate_H_over_ball
from tateop.padic import (
    PrimeParams,
    c_p_const,
    kernel_H,
    local_height,
    point,
    tate_div,
    tate_inv,
    valuation,
)

from oracles import (
    HeightProfile,
    ShellPartition,
    StepFunction,
    apply_D_step,
    geom_sum,
    greens_function,
    height_check_points_filtered,
    norm,
    total_volume,
    weak_delta_check,
)

configs = st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 2)])


def test_coupling_constant_oracles():
    assert c_p_const(3) == Fraction(3, 2)
    assert c_p_const(2) == Fraction(2, 3)
    assert c_p_const(5) == Fraction(10, 3)


def test_kernel_oracles():
    ctx = PrimeParams(3, 2)
    assert kernel_H(point(1, ctx), point(4, ctx)) == Fraction(37, 4)
    assert kernel_H(point(1, ctx), point(3, ctx)) == Fraction(3, 4)
    assert kernel_H(point(2, ctx), point(1, ctx)) == Fraction(5, 4)
    ctx25 = PrimeParams(2, 5)
    assert kernel_H(point(1, ctx25), point(3, ctx25)) == Fraction(126, 31)
    assert kernel_H(point(1, ctx25), point(4, ctx25)) == Fraction(12, 31)
    with pytest.raises(ValueError):
        kernel_H(point(4, ctx), point(4, ctx))
    with pytest.raises(ValueError, match="mixed prime contexts"):
        kernel_H(point(1, ctx), point(4, ctx25))


def test_kernel_norm_form_is_independent_oracle():
    # Recompute from raw norms; the library computes by valuation cases.
    for p, m in [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)]:
        ctx = PrimeParams(p, m)
        pts = [point(n, ctx) for n in (1, 2, 3, 4, 5, 7, p + 1, 2 * p + 1) if n % p or n == p]
        pts += [point(p**v, ctx) for v in range(m)]
        seen = set()
        for z in pts:
            for x in pts:
                if z.value == x.value or (z.value, x.value) in seen:
                    continue
                seen.add((z.value, x.value))
                q1 = ctx.q - 1
                direct = (z.norm() * x.norm()) / norm(z.value - x.value, p) ** 2 + (
                    norm(z.value / x.value, p) + norm(x.value / z.value, p)
                ) / q1
                assert kernel_H(z, x) == direct


@given(configs, st.integers(min_value=2, max_value=30), st.integers(min_value=2, max_value=30))
def test_kernel_symmetry_dilation_inversion(cfg, a, b):
    p, m = cfg
    ctx = PrimeParams(p, m)
    z, x = point(a, ctx), point(b, ctx)
    if z.value == x.value:
        return
    h = kernel_H(z, x)
    assert h > 0
    assert h == kernel_H(x, z)
    assert h == kernel_H(tate_inv(z), tate_inv(x))
    for lam_val in (p, a):
        lam = point(lam_val, ctx)
        assert h == kernel_H(tate_div(z, lam), tate_div(x, lam))


def test_integrate_kernel_oracles():
    ctx = PrimeParams(3, 2)
    x1 = point(1, ctx)
    shell1 = [Ball(ctx, 1, 1, 1), Ball(ctx, 1, 1, 2)]
    assert sum(integrate_H_over_ball(b, x1) for b in shell1) == Fraction(1, 2)
    # swap roles: integrate over the unit shell from a point at valuation 1
    shell0 = [Ball(ctx, 0, 1, 1), Ball(ctx, 0, 1, 2)]
    assert sum(integrate_H_over_ball(b, point(3, ctx)) for b in shell0) == Fraction(1, 2)
    assert integrate_H_over_ball(Ball(ctx, 0, 1, 2), x1) == Fraction(5, 12)
    with pytest.raises(ValueError):
        integrate_H_over_ball(Ball(ctx, 0, 1, 1), x1)


def test_apply_D_kills_constants():
    for p, m in [(2, 1), (3, 2), (5, 2)]:
        f = StepFunction.constant(PrimeParams(p, m), Fraction(9, 7))
        for b in f.partition.balls:
            assert apply_D_step(f, b.center_point()) == 0


def test_apply_D_step_indicator_oracle():
    # f = 1 on the unit shell of (3,2). Seen from x = 3 the two unit-shell
    # balls carry H = 3/4 and measure 1/3 each, jump +1, so
    # Df(3) = -(3/2) * (2 * 3/4 * 1/3) = -3/4; from x = 1 the jump flips.
    ctx = PrimeParams(3, 2)
    f = StepFunction.indicator_shell(ctx, 0)
    assert apply_D_step(f, point(3, ctx)) == Fraction(-3, 4)
    assert apply_D_step(f, point(1, ctx)) == Fraction(3, 4)


@given(configs, st.data())
def test_operator_is_symmetric_bilinear(cfg, data):
    # <f, D g> == <D f, g> with both integrals exact.
    p, m = cfg
    ctx = PrimeParams(p, m)
    part = ShellPartition.full(ctx, 1)
    n = len(part.balls)
    fv = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    gv = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    f, g = StepFunction(part, fv), StepFunction(part, gv)
    df = [apply_D_step(f, b.center_point()) for b in part.balls]
    dg = [apply_D_step(g, b.center_point()) for b in part.balls]
    lhs = sum(Fraction(fv[i]) * dg[i] * part.balls[i].measure() for i in range(n))
    rhs = sum(Fraction(gv[i]) * df[i] * part.balls[i].measure() for i in range(n))
    assert lhs == rhs
    energy = sum(Fraction(fv[i]) * df[i] * part.balls[i].measure() for i in range(n))
    assert energy >= 0
    if len(set(fv)) > 1:
        assert energy > 0
    # range of D is mean-zero
    assert sum(df[i] * part.balls[i].measure() for i in range(n)) == 0


def test_height_is_greens_function_spot_checks():
    for p, m in [(2, 1), (2, 3), (3, 2), (5, 2)]:
        ctx = PrimeParams(p, m)
        expected = -Fraction(p, m * (p - 1))
        for x in height_check_points(ctx, max_vdist=3):
            assert apply_D_height(p, m, x.v, valuation(x.value - 1, p)) == expected


def _coupling(p, m, u):
    """(p^(m-u) + p^u) / (q - 1): the kernel between shells u apart."""
    return Fraction(p ** (m - u) + p**u, p**m - 1)


def apply_D_height_oracle(x):
    """The stratified sum of apply_D_height term by term in Fraction
    arithmetic, with the t = ell tails as geom_sum values."""
    p, m = x.ctx.p, x.ctx.m
    vx = x.v
    two_over = Fraction(2, p**m - 1)
    total = Fraction(0)
    if vx == 0:
        ell = valuation(x.value - 1, p)
        i0 = Fraction(0)
        if p > 2:
            i0 += Fraction(p - 2, p) * (1 + two_over) * (0 - ell)
        for t in range(1, ell):
            i0 += (
                Fraction(p - 1, p)
                * Fraction(1, p**t)
                * (Fraction(p ** (2 * t)) + two_over)
                * (t - ell)
            )
        tail = geom_sum(1, ell + 1, Fraction(1, p)) - ell * geom_sum(
            0, ell + 1, Fraction(1, p)
        )
        i0 += Fraction(p - 1, p) * (Fraction(p ** (2 * ell)) + two_over) * tail
        total += i0
        for v in range(1, m):
            total += (
                Fraction(p - 1, p)
                * _coupling(p, m, v)
                * (Fraction(v * (v - m), 2 * m) - ell)
            )
    else:
        a_x = Fraction(vx * (vx - m), 2 * m)
        total += _coupling(p, m, vx) * (Fraction(1, p - 1) - Fraction(p - 1, p) * a_x)
        for v in range(1, m):
            if v == vx:
                continue
            total += (
                Fraction(p - 1, p)
                * _coupling(p, m, abs(v - vx))
                * (Fraction(v * (v - m), 2 * m) - a_x)
            )
    return -c_p_const(p) * total


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_integer_height_kernel_matches_the_fraction_oracle(p):
    # max_vdist = 100 samples every point of the smaller max_vdist as well.
    for m in (*range(1, 6), 8, 13):
        pts = height_check_points(PrimeParams(p, m), max_vdist=100)
        assert {valuation(x.value - 1, p) for x in pts if x.v == 0} == set(range(101)) - (
            {0} if p == 2 else set()
        )
        for x in pts:
            got = apply_D_height(p, m, x.v, valuation(x.value - 1, p))
            assert got == apply_D_height_oracle(x)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("u", [1, 2])
def test_a_skewed_coupling_fails_greens(skew_coupling, u):
    argv = ["greens", "--p", "3", "--m", "3", "--max-vdist", "4"]
    assert _run(argv) == 0
    skew_coupling(3, 3, u)
    assert _run(argv) == 1


def _greens_rows(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["rows"]


def test_a_value_off_at_one_class_fails_exactly_its_greens_rows(monkeypatch):
    # Every class expects the same constant, so a value reused across
    # classes would pass: one keyed on v alone would reuse (0, 0)'s here.
    argv = ["greens", "--p", "3", "--m", "2", "--max-vdist", "6"]
    exact = operator.apply_D_height

    def skewed(p, m, vx, ell):
        return exact(p, m, vx, ell) + Fraction((vx, ell) == (0, 3), p**m)

    monkeypatch.setattr(operator, "apply_D_height", skewed)
    code, rows = _greens_rows(argv)
    assert code == 1
    failed = [row for row in rows if not row["pass"]]
    assert failed == [row for row in rows if (row["v"], row["vdist"]) == (0, 3)]
    # x = 1 + 27 and 1 + 54: at p = 3 the third sampled u, 3, is no unit.
    assert len(failed) == 2


def test_greens_evaluates_each_printed_class_once(monkeypatch):
    calls = []
    exact = operator.apply_D_height

    def counted(p, m, vx, ell):
        calls.append((vx, ell))
        return exact(p, m, vx, ell)

    monkeypatch.setattr(operator, "apply_D_height", counted)
    for p, m in [(2, 3), (3, 2), (5, 4), (7, 1)]:
        calls.clear()
        code, rows = _greens_rows(["greens", "--p", str(p), "--m", str(m), "--max-vdist", "6"])
        printed = [(row["v"], row["vdist"]) for row in rows]
        assert code == 0 and len(printed) > len(set(printed))
        assert sorted(calls) == sorted(set(printed))


@pytest.mark.parametrize(
    "p,m,vx,ell", [(3, 2, 2, 0), (3, 2, -1, 0), (3, 2, 0, -1), (3, 2, 1, 1), (2, 3, 0, 0)]
)
def test_a_class_that_no_point_has_is_a_value_error(p, m, vx, ell):
    # v outside [0, m), a negative v(x - 1), v(x - 1) > 0 off the unit
    # shell, and v(x - 1) = 0 on the unit shell at p = 2.
    with pytest.raises(ValueError, match="no point has class"):
        apply_D_height(p, m, vx, ell)


def test_a_skewed_coupling_splits_the_kernel_forms_of_matrix(skew_coupling):
    # The norm form does not read the couplings, the case form reads one
    # weight: the build raises, and the call exits 1.
    argv = ["matrix", "--p", "3", "--m", "3", "--level", "1"]
    assert _run(argv) == 0
    skew_coupling(3, 3, 2)
    with pytest.raises(ArithmeticError, match="kernel forms disagree"):
        kernel_H(point(1, PrimeParams(3, 3)), point(9, PrimeParams(3, 3)))
    assert _run(argv) == 1


def test_height_check_points_cover_all_strata():
    ctx = PrimeParams(3, 3)
    pts = height_check_points(ctx, max_vdist=5)
    shells = {x.v for x in pts}
    assert shells == {0, 1, 2}
    from tateop.padic import valuation

    dists = {valuation(x.value - 1, 3) for x in pts if x.v == 0}
    assert dists >= set(range(6))
    assert all(x.value != 1 for x in pts)


def test_height_check_points_equal_the_filtered_candidates():
    # Built in the domain, the points are the candidates that reduction,
    # the shell and v(x - 1) filters and de-duplication would keep.
    for p in (2, 3, 5, 7, 11, 101, 65537):
        for m in range(1, 8):
            ctx = PrimeParams(p, m)
            for max_vdist in range(10):
                assert height_check_points(ctx, max_vdist) == height_check_points_filtered(
                    ctx, max_vdist
                )


@pytest.mark.parametrize(
    "kept",
    [
        lambda x: x.v != 1,
        lambda x: x.v != 0 or valuation(x.value - 1, 3) != 6,
        lambda x: x.v == 0,
    ],
    ids=["no-shell-1", "no-top-vdist", "unit-shell-only"],
)
def test_greens_fails_a_sample_that_misses_its_coverage(monkeypatch, kept):
    argv = ["greens", "--p", "3", "--m", "3", "--max-vdist", "6"]
    assert _run(argv) == 0
    sampled = height_check_points
    monkeypatch.setattr(
        cli.operator, "height_check_points", lambda ctx, n: tuple(filter(kept, sampled(ctx, n)))
    )
    assert _run(argv) == 1


def test_greens_function_matches_height_and_symmetry():
    ctx = PrimeParams(3, 2)
    x, y = point(4, ctx), point(1, ctx)
    assert greens_function(x, y) == Fraction(7, 6)
    assert greens_function(point(3, ctx), y) == Fraction(-1, 12)
    for a, b in [(2, 5), (3, 7), (4, 9)]:
        xa, xb = point(a, ctx), point(b, ctx)
        assert greens_function(xa, xb) == greens_function(xb, xa)
        assert greens_function(xa, xb) == local_height(tate_div(xa, xb))


def test_weak_delta_exact_small_cases():
    rng = random.Random(11)
    for p, m in [(2, 1), (3, 2), (2, 3)]:
        ctx = PrimeParams(p, m)
        part = ShellPartition.full(ctx, 1).refine_ball(0)
        for _ in range(8):
            vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in part.balls]
            f = StepFunction(part, vals)
            b = part.balls[rng.randrange(len(part.balls))]
            y = b.center_point()
            lhs, rhs = weak_delta_check(y, f)
            assert lhs == rhs
            assert rhs == f.value_at(y) - f.integral() / total_volume(ctx)


def test_height_profile_integrates_like_greens_row():
    # The weak identity needs exact ball integrals of y -> G(x, y); check one
    # row against brute refinement to level 3.
    ctx = PrimeParams(3, 2)
    prof = HeightProfile(point(2, ctx))
    for b in ShellPartition.full(ctx, 1).balls:
        fine = [b]
        for _ in range(2):
            fine = [c for bb in fine for c in bb.children()]
        total = sum(prof.integrate_over_ball(c) for c in fine)
        assert prof.integrate_over_ball(b) == total
