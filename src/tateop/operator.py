"""The nonlocal kernel operator, its closed-form action on heights, and the
weak delta identity for its Green's function.

Everything here is exact rational arithmetic.  The kernel value depends only
on the three integers (v(x), v(z), v(x - z)), so the two equivalent formulas
are evaluated and compared once per distinct triple and then cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .domain import (
    Ball,
    HeightProfile,
    StepFunction,
    local_height,
    total_volume,
)
from .padic import PrimeParams, Record, TatePoint, point, tate_div, valuation


def c_p_const(p: int) -> Fraction:
    """Normalizing constant p (p - 1) / (p + 1).

    Written as p (1 - 1/p)^2 / (1 - 1/p^2); the reduced form is checked
    against it.
    """
    raw = p * (1 - Fraction(1, p)) ** 2 / (1 - Fraction(1, p * p))
    if raw != Fraction(p * (p - 1), p + 1):
        raise ArithmeticError(f"c_p at p={p}: {raw} differs from p(p-1)/(p+1)")
    return raw


def coupling_weight(p: int, m: int, u: int) -> int:
    """p^(m-u) + p^u: the shell coupling times q - 1."""
    return p ** (m - u) + p**u


def shell_coupling(p: int, m: int, u: int) -> Fraction:
    """(p^(m-u) + p^u) / (q - 1): the kernel between shells u apart, 0 < u < m."""
    return Fraction(coupling_weight(p, m, u), p**m - 1)


@lru_cache(maxsize=None)
def _kernel_by_valuations(p: int, m: int, vx: int, vz: int, vdiff: int) -> Fraction:
    """Kernel value as a function of the three valuations.

    Evaluates both the norm form |x||z|/|x-z|^2 + (|x/z| + |z/x|)/(q - 1)
    and its case form (equal shells: same singular term plus 2/(q - 1);
    different shells: (p^(m-u) + p^u)/(q - 1) with u the shell distance)
    and insists they agree.
    """
    q1 = p**m - 1
    base = Fraction(p)
    norm_form = base ** (2 * vdiff - vx - vz) + (base ** (vz - vx) + base ** (vx - vz)) / q1
    u = abs(vz - vx)
    if u == 0:
        case_form = base ** (2 * (vdiff - vx)) + Fraction(2, q1)
    else:
        if not 0 < u < m:
            raise ValueError("shell distance must lie strictly between 0 and m")
        case_form = shell_coupling(p, m, u)
    if norm_form != case_form:
        raise ArithmeticError(
            f"kernel forms disagree at p={p}, m={m}, valuations ({vx}, {vz}, {vdiff})"
        )
    return norm_form


def kernel_H(z: TatePoint, x: TatePoint, kc: "KernelContext") -> Fraction:
    """Symmetric interaction kernel between two distinct domain points."""
    if z.ctx != kc.ctx or x.ctx != kc.ctx:
        raise ValueError("mixed prime contexts")
    if z.value == x.value:
        raise ValueError("kernel is singular on the diagonal")
    vdiff = valuation(z.value - x.value, kc.ctx.p)
    return _kernel_by_valuations(kc.ctx.p, kc.ctx.m, x.v, z.v, vdiff)


class KernelContext(Record):
    """Prime data plus the derived normalization constant."""

    __slots__ = _fields = ("ctx", "c_p")
    ctx: PrimeParams
    c_p: Fraction

    def __init__(self, ctx: PrimeParams) -> None:
        self._bind(ctx, c_p_const(ctx.p))


def integrate_H_over_ball(b: Ball, x: TatePoint, kc: KernelContext) -> Fraction:
    """Exact integral over a ball of z -> H(z, x), for x outside the ball.

    On a ball not containing x the kernel depends only on v(z) and
    v(z - x); the latter is constant on the ball unless the ball and x sit
    at the same valuation with matching leading digits, in which case the
    ball splits into finitely many strata plus nothing (x outside forces
    v(z - x) < v(x) + k, so the sum stays finite).
    """
    if b.contains(x):
        raise ValueError("singular integral: ball contains the evaluation point")
    p, m = kc.ctx.p, kc.ctx.m
    if b.v != x.v:
        return _kernel_by_valuations(p, m, x.v, b.v, min(b.v, x.v)) * b.measure()
    # Same shell: v(z - x) = v(c_b - x) is constant on the ball because x
    # differs from the center before level k.
    vdiff = valuation(b.center_point().value - x.value, p)
    return _kernel_by_valuations(p, m, x.v, b.v, vdiff) * b.measure()


def apply_D_step(f: StepFunction, x: TatePoint, kc: KernelContext) -> Fraction:
    """(Df)(x) = -c_p * integral of H(z, x) (f(z) - f(x)) d*z, exactly.

    x must not be a boundary case: the ball of the partition containing x
    contributes nothing when f is constant on it, so the singular part
    cancels and every remaining ball integral is finite.
    """
    fx = f.value_at(x)
    total = Fraction(0)
    for b, val in zip(f.partition.balls, f.values):
        if val == fx:
            continue
        if b.contains(x):
            raise ValueError("f must be constant near x with value f(x)")
        total += integrate_H_over_ball(b, x, kc) * (val - fx)
    return -kc.c_p * total


def apply_D_height(x: TatePoint, kc: KernelContext) -> Fraction:
    """Exact action of the operator on the height profile h, at x != 1.

    Splits the domain by shell.  Within the shell of x the kernel's
    singular term and the height's v-part interact through geometric
    sums that close in elementary form; the remaining shells contribute
    finitely many terms.  The result is the constant -p / (m (p - 1)),
    i.e. minus the reciprocal of the total volume.

    Every term is an integer numerator over one denominator,
    p^(ell+1) (q - 1) 2m (p - 1) with ell = v(x - 1) on the unit shell and
    ell = 0 elsewhere; each comment gives the term as a rational.
    """
    p, m = kc.ctx.p, kc.ctx.m
    if x.value == 1:
        raise ValueError("height is singular at the identity")
    vx = x.v
    q1 = p**m - 1
    two_m = 2 * m
    ell = valuation(x.value - 1, p) if vx == 0 else 0
    p_ell = p**ell
    num = 0
    if vx == 0:
        # Shell of x.  Stratify z by t = v(z - x) >= 0 and compare
        # v(z - 1) against ell; the t = ell stratum needs the inner
        # geometric sums.
        if p > 2:
            # (p - 2)/p (1 + 2/(q - 1)) (0 - ell)
            num += (p - 2) * (q1 + 2) * (0 - ell) * p_ell * two_m * (p - 1)
        strata = 0
        for t in range(1, ell):
            # (p - 1)/p p^-t (p^(2t) + 2/(q - 1)) (t - ell), without the
            # common factor (p - 1)^2 2m
            strata += (p ** (2 * t) * q1 + 2) * (t - ell) * p ** (ell - t)
        num += (p - 1) ** 2 * two_m * strata
        # (p - 1)/p (p^(2 ell) + 2/(q - 1)) tail, where the tail is the
        # geom_sum sum_{j > ell} j p^-j less ell sum_{j > ell} p^-j; over
        # p^ell (p - 1)^2 these read (ell + 1)(p - 1) + 1 and ell (p - 1).
        tail = (ell + 1) * (p - 1) + 1 - ell * (p - 1)
        num += (p ** (2 * ell) * q1 + 2) * tail * two_m
        for v in range(1, m):
            # (p - 1)/p shell_coupling(v) (v (v - m)/(2m) - ell)
            num += (p - 1) ** 2 * coupling_weight(p, m, v) * (v * (v - m) - two_m * ell) * p_ell
    else:
        a_x = vx * (vx - m)  # 2m times the height's v-part at x
        # The height difference vanishes identically on the shell of x,
        # so that shell drops out.  On the unit shell the v(z - 1) profile
        # integrates to 1/(p - 1); the remaining shells are constant.
        # shell_coupling(vx) (1/(p - 1) - (p - 1)/p a_x/(2m))
        num += coupling_weight(p, m, vx) * (two_m * p - (p - 1) ** 2 * a_x)
        for v in range(1, m):
            if v == vx:
                continue
            # (p - 1)/p shell_coupling(|v - vx|) (v (v - m) - a_x)/(2m)
            num += (p - 1) ** 2 * coupling_weight(p, m, abs(v - vx)) * (v * (v - m) - a_x)
    den = p * p_ell * q1 * two_m * (p - 1)
    return Fraction(-kc.c_p.numerator * num, kc.c_p.denominator * den)


def greens_function(
    x: TatePoint, y: TatePoint, ctx: PrimeParams | None = None
) -> Fraction:
    """Symmetric Green's function G(x, y) = h(x / y), x != y."""
    if ctx is not None and (x.ctx != ctx or y.ctx != ctx):
        raise ValueError("mixed prime contexts")
    if x.value == y.value:
        raise ValueError("Green's function is singular on the diagonal")
    return local_height(tate_div(x, y))


def weak_delta_check(
    y: TatePoint, f: StepFunction, kc: KernelContext
) -> tuple[Fraction, Fraction]:
    """Both sides of int G(x, y) (Df)(x) d*x = f(y) - mean(f), exactly.

    Df of a step function is again a step function on the same partition,
    so the left side reduces to exact ball integrals of the height
    profile centred at y.
    """
    prof = HeightProfile(y)
    lhs = Fraction(0)
    for b in f.partition.balls:
        df_b = apply_D_step(f, b.center_point(), kc)
        lhs += df_b * prof.integrate_over_ball(b)
    rhs = f.value_at(y) - f.integral() / total_volume(kc.ctx)
    return lhs, rhs


def height_check_points(ctx: PrimeParams, max_vdist: int = 6) -> tuple[TatePoint, ...]:
    """Sample points hitting every shell and every v(x - 1) up to max_vdist."""
    p, m = ctx.p, ctx.m
    pts: list[TatePoint] = []
    seen: set[Fraction] = set()
    for j in range(max_vdist + 1):
        for u in (1, 2, 3):
            if u % p == 0:
                continue
            x = point(Fraction(1 + u * p**j), ctx)
            if x.value == 1 or x.v != 0 or valuation(x.value - 1, p) != j:
                continue
            if x.value not in seen:
                seen.add(x.value)
                pts.append(x)
    for v in range(1, m):
        for u in (1, 2, p + 1):
            if u % p == 0:
                continue
            x = point(Fraction(u * p**v), ctx)
            if x.value not in seen:
                seen.add(x.value)
                pts.append(x)
    return tuple(pts)
