"""The nonlocal kernel operator and its closed-form action on heights.

Everything here is exact rational arithmetic.  The kernel value depends only
on the three integers (v(x), v(z), v(x - z)), so the two equivalent formulas
are evaluated and compared once per distinct triple and then cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .padic import (
    PrimeParams,
    TatePoint,
    c_p_const,
    coupling_total,
    coupling_weight,
    valuation,
)


@lru_cache(maxsize=None)
def _kernel_by_valuations(p: int, m: int, vx: int, vz: int, vdiff: int) -> Fraction:
    """Kernel value as a function of the three valuations.

    Evaluates both the norm form |x||z|/|x-z|^2 + (|x/z| + |z/x|)/(q - 1)
    and its case form (equal shells: same singular term plus 2/(q - 1);
    different shells: (p^(m-u) + p^u)/(q - 1) with u the shell distance)
    and insists they agree.  The correlator passes the base p^d: at an
    integer dimension d its two-point function is this kernel.
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
        case_form = Fraction(coupling_weight(p, m, u), q1)
    if norm_form != case_form:
        raise ArithmeticError(
            f"kernel forms disagree at p={p}, m={m}, valuations ({vx}, {vz}, {vdiff})"
        )
    return norm_form


def _pair_valuations(x1: TatePoint, x2: TatePoint) -> tuple[int, int, int]:
    """(v(x1), v(x2), v(x1 - x2)) of two distinct points of one curve."""
    if x1.ctx != x2.ctx:
        raise ValueError("mixed prime contexts")
    if x1.value == x2.value:
        raise ValueError("coincident points")
    return x1.v, x2.v, valuation(x1.value - x2.value, x1.ctx.p)


def kernel_H(z: TatePoint, x: TatePoint) -> Fraction:
    """Symmetric interaction kernel between two distinct domain points."""
    return _kernel_by_valuations(x.ctx.p, x.ctx.m, *_pair_valuations(x, z))


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


@lru_cache(maxsize=1)
def _shell_heights(p: int, m: int, vx: int) -> int:
    """Sum of v (v - m) w_u over the shells v != vx, u = v - vx mod m; it
    does not read v(x - 1), so the one value kept serves a whole shell."""
    # As w_u = p^u + p^(m-u), it is the sum of (h_u + h_(m-u)) p^u with
    # h_u = v (v - m), whose coefficients read the same both ways: one
    # Horner pass in p.
    h = [v * (v - m) for v in chain(range(vx + 1, m), range(vx))]
    total = 0
    for hu, h_mu in zip(h, reversed(h)):
        total = total * p + (hu + h_mu)
    return total * p


def apply_D_height(p: int, m: int, vx: int, ell: int) -> Fraction:
    """Exact action of the operator on the height profile h at the points
    x != 1 of class (vx, ell) = (v(x), v(x - 1)), which is all of x it reads.

    Splits the domain by shell.  Within the shell of x the kernel's
    singular term and the height's v-part interact through geometric
    sums that close in elementary form; the remaining shells contribute
    finitely many terms.  The result is the constant -p / (m (p - 1)),
    i.e. minus the reciprocal of the total volume.

    Every term is an integer numerator over one denominator,
    p^(ell+1) (q - 1) 2m (p - 1) (ell = 0 off the unit shell); each
    comment gives the term as a rational.  The shell couplings
    w_u / (q - 1), w_u = p^u + p^(m-u), enter through the sum over u of
    w_u (v (v - m) - a), which is ``_shell_heights`` less a times
    ``coupling_total``.  A class that no point has is a ValueError: off the
    unit shell v(x - 1) = 0, and at p = 2 every unit has v(x - 1) >= 1.
    """
    if not 0 <= vx < m or ell < 0 or (ell and vx) or (p, vx, ell) == (2, 0, 0):
        raise ValueError(f"no point has class (v, v(x - 1)) = ({vx}, {ell}) at p={p}, m={m}")
    q1 = p**m - 1
    two_m = 2 * m
    p_ell = p**ell
    num = 0
    if vx == 0:
        # Shell of x.  Stratify z by t = v(z - x) >= 0 and compare
        # v(z - 1) against ell; the t = ell stratum needs the inner
        # geometric sums.
        # Stratum t = 0: (p - 2)/p (1 + 2/(q - 1)) (0 - ell), empty at p = 2.
        num -= (p - 2) * (q1 + 2) * ell * p_ell * two_m * (p - 1)
        # Stratum 0 < t < ell: (p - 1)/p p^-t (p^(2t) + 2/(q - 1)) (t - ell),
        # over the one denominator 2m (p - 1)^2 (t - ell) (p^(ell+t) (q - 1) + 2 p^(ell-t)).
        # Over t, (p - 1)^2/p times the sums of (t - ell) p^(ell+t) and of
        # (t - ell) p^(ell-t) close to high and -low; ell p_ell // p is ell p^(ell-1).
        high = p_ell * (ell * (p - 1) + 1 - p_ell)
        low = (ell - 1) * p_ell - ell * p_ell // p + 1
        num += two_m * p * (q1 * high - 2 * low)
        # (p - 1)/p (p^(2 ell) + 2/(q - 1)) tail, where the tail is the
        # geom_sum sum_{j > ell} j p^-j less ell sum_{j > ell} p^-j; over
        # p^ell (p - 1)^2 these read (ell + 1)(p - 1) + 1 and ell (p - 1),
        # whose difference is p.
        num += (p ** (2 * ell) * q1 + 2) * p * two_m
    else:
        # The height difference vanishes identically on the shell of x, so
        # that shell drops out.  On the unit shell the v(z - 1) profile
        # integrates to 1/(p - 1): w_vx/(q - 1) 1/(p - 1).  Its v-part
        # joins the other shells below.
        num += coupling_weight(p, m, vx) * two_m * p
    # (p - 1)/p w_u/(q - 1) (v (v - m) - a)/(2m) on each shell v != vx,
    # u = v - vx mod m, with a = vx (vx - m) + 2m ell; the w_u sum to
    # coupling_total.  The common factor (p - 1)^2 p^ell is multiplied in last.
    a = vx * (vx - m) + two_m * ell
    num += (p - 1) ** 2 * p_ell * (_shell_heights(p, m, vx) - a * coupling_total(p, m))
    return -c_p_const(p) * Fraction(num, p * p_ell * q1 * two_m * (p - 1))


def height_check_points(ctx: PrimeParams, max_vdist: int) -> tuple[TatePoint, ...]:
    """Sample points on every shell and at every v(x - 1) up to max_vdist,
    each built where it lies in the fundamental domain.

    The units are x = 1 + u p^j for j = 0..max_vdist and the u in {1, 2, 3}
    prime to p, so v(x - 1) = j; j = 0 is skipped where p divides 1 + u,
    which is no unit.  Shell v = 1..m-1 gets u p^v for the u in
    {1, 2, p + 1} prime to p.  Distinct (u, j) give distinct x - 1, so no
    point repeats.
    """
    p, m = ctx.p, ctx.m
    units = [
        1 + u * p**j
        for j in range(max_vdist + 1)
        for u in (1, 2, 3)
        if u % p and (j or (1 + u) % p)
    ]
    shells = [u * p**v for v in range(1, m) for u in (1, 2, p + 1) if u % p]
    return tuple(TatePoint(x, ctx) for x in units + shells)
