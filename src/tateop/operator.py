"""The nonlocal kernel operator and its closed-form action on heights.

Everything here is exact rational arithmetic.  The kernel value depends only
on the three integers (v(x), v(z), v(x - z)), so the two equivalent formulas
are evaluated and compared once per distinct triple and then cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .padic import PrimeParams, TatePoint, c_p_const, coupling_weights, point, valuation


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
        case_form = Fraction(coupling_weights(p, m)[u], q1)
    if norm_form != case_form:
        raise ArithmeticError(
            f"kernel forms disagree at p={p}, m={m}, valuations ({vx}, {vz}, {vdiff})"
        )
    return norm_form


def kernel_H(z: TatePoint, x: TatePoint) -> Fraction:
    """Symmetric interaction kernel between two distinct domain points."""
    if z.ctx != x.ctx:
        raise ValueError("mixed prime contexts")
    if z.value == x.value:
        raise ValueError("kernel is singular on the diagonal")
    p, m = x.ctx.p, x.ctx.m
    return _kernel_by_valuations(p, m, x.v, z.v, valuation(z.value - x.value, p))


def integrate_H_over_ball(b: Ball, x: TatePoint) -> Fraction:
    """Exact integral over a ball of z -> H(z, x), for x outside the ball.

    On a ball not containing x the kernel depends only on v(z) and
    v(z - x); the latter is constant on the ball unless the ball and x sit
    at the same valuation with matching leading digits, in which case the
    ball splits into finitely many strata plus nothing (x outside forces
    v(z - x) < v(x) + k, so the sum stays finite).
    """
    if b.contains(x):
        raise ValueError("singular integral: ball contains the evaluation point")
    p, m = x.ctx.p, x.ctx.m
    if b.v != x.v:
        return _kernel_by_valuations(p, m, x.v, b.v, min(b.v, x.v)) * b.measure()
    # Same shell: v(z - x) = v(c_b - x) is constant on the ball because x
    # differs from the center before level k.
    vdiff = valuation(b.center_point().value - x.value, p)
    return _kernel_by_valuations(p, m, x.v, b.v, vdiff) * b.measure()


def apply_D_height(x: TatePoint) -> Fraction:
    """Exact action of the operator on the height profile h, at x != 1.

    Splits the domain by shell.  Within the shell of x the kernel's
    singular term and the height's v-part interact through geometric
    sums that close in elementary form; the remaining shells contribute
    finitely many terms.  The result is the constant -p / (m (p - 1)),
    i.e. minus the reciprocal of the total volume.

    p and m are read off x, and the shell couplings w_u / (q - 1) off
    ``coupling_weights``.  Every term is an integer numerator over one
    denominator, p^(ell+1) (q - 1) 2m (p - 1) with ell = v(x - 1) on the
    unit shell and ell = 0 elsewhere; each comment gives the term as a
    rational.
    """
    p, m = x.ctx.p, x.ctx.m
    if x.value == 1:
        raise ValueError("height is singular at the identity")
    vx = x.v
    w = coupling_weights(p, m)
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
        # Stratum 0 < t < ell: (p - 1)/p p^-t (p^(2t) + 2/(q - 1)) (t - ell),
        # which is (t - ell) (p^(ell+t) (q - 1) + 2 p^(ell-t)) without the
        # common factor (p - 1)^2 2m.  Both powers are summed over t by
        # Horner's rule in p: high is the sum of (t - ell) p^(t-1), low of
        # (t - ell) p^(ell-t-1).
        high = low = 0
        for t in range(ell - 1, 0, -1):
            high = high * p + (t - ell)
        for t in range(1, ell):
            low = low * p + (t - ell)
        strata = p * (p_ell * q1 * high + 2 * low)
        num += (p - 1) ** 2 * two_m * strata
        # (p - 1)/p (p^(2 ell) + 2/(q - 1)) tail, where the tail is the
        # geom_sum sum_{j > ell} j p^-j less ell sum_{j > ell} p^-j; over
        # p^ell (p - 1)^2 these read (ell + 1)(p - 1) + 1 and ell (p - 1).
        tail = (ell + 1) * (p - 1) + 1 - ell * (p - 1)
        num += (p ** (2 * ell) * q1 + 2) * tail * two_m
        for v in range(1, m):
            # (p - 1)/p w_v/(q - 1) (v (v - m)/(2m) - ell)
            num += (p - 1) ** 2 * w[v] * (v * (v - m) - two_m * ell) * p_ell
    else:
        a_x = vx * (vx - m)  # 2m times the height's v-part at x
        # The height difference vanishes identically on the shell of x,
        # so that shell drops out.  On the unit shell the v(z - 1) profile
        # integrates to 1/(p - 1); the remaining shells are constant.
        # w_vx/(q - 1) (1/(p - 1) - (p - 1)/p a_x/(2m))
        num += w[vx] * (two_m * p - (p - 1) ** 2 * a_x)
        for v in range(1, m):
            if v == vx:
                continue
            # (p - 1)/p w_|v - vx|/(q - 1) (v (v - m) - a_x)/(2m)
            num += (p - 1) ** 2 * w[abs(v - vx)] * (v * (v - m) - a_x)
    den = p * p_ell * q1 * two_m * (p - 1)
    c_p = c_p_const(p)
    return Fraction(-c_p.numerator * num, c_p.denominator * den)


def height_check_points(ctx: PrimeParams, max_vdist: int) -> tuple[TatePoint, ...]:
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
