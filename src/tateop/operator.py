"""The nonlocal kernel operator's ball integrals and its closed-form action
on heights.

Everything here is exact rational arithmetic.  The kernel H itself, a
function of the three valuations (v(x), v(z), v(x - z)) cached per triple,
is in ``padic``, which every reader of it loads anyway.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import (
    PrimeParams,
    TatePoint,
    _kernel_by_valuations,
    c_p_const,
    coupling_total,
    coupling_weight,
    valuation,
)


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
    w_u / (q - 1), w_u = p^u + p^(m-u), enter through S(vx) - a T, where
    T = ``coupling_total`` and S(k) is the sum over 0 < u < m of
    w_u h(k + u mod m), h(v) = v (v - m).  On Z/m the second difference of
    h is 2 - 2m [v = 0] and the circulant of the w_u commutes with it, so
    S(k+1) - 2 S(k) + S(k-1) = 2T - 2m w_k; S is even, so S(1) - S(0) = T;
    and S sums over k to T times the sum of h.  Hence, with no pass over u,
    (p - 1)^2 S(k) = (p - 1)^2 h(k) T + 2p (T + q + 1 - m w_k), w_0 = q + 1.
    A class that no point has is a ValueError: off the unit shell
    v(x - 1) = 0, and at p = 2 every unit has v(x - 1) >= 1.
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
    # u = v - vx mod m, a = vx (vx - m) + 2m ell: times (p - 1)^2 p^ell it is
    # (p - 1)^2 (S(vx) - a T), whose h(vx) T parts cancel.  w_vx is not read
    # through coupling_weight: off the unit shell its term cancels the one
    # above, so a skewed weight read twice would pass.
    total = coupling_total(p, m)
    w_vx = p**vx + p ** (m - vx)
    num += p_ell * (2 * p * (total + q1 + 2 - m * w_vx) - (p - 1) ** 2 * two_m * ell * total)
    return -c_p_const(p) * Fraction(num, p * p_ell * q1 * two_m * (p - 1))


def height_check_points(ctx: PrimeParams, max_vdist: int) -> tuple[TatePoint, ...]:
    """Sample points on every shell and at every v(x - 1) up to max_vdist,
    each built where it lies in the fundamental domain, with its valuation.

    The units are x = 1 + u p^j for j = 0..max_vdist and the u in {1, 2, 3}
    prime to p, so v(x - 1) = j; j = 0 is skipped where p divides 1 + u,
    which is no unit.  Shell v = 1..m-1 gets u p^v for the u in
    {1, 2, p + 1} prime to p.  Distinct (u, j) give distinct x - 1, so no
    point repeats.
    """
    p, m = ctx.p, ctx.m
    units = [
        (1 + u * p**j, 0)
        for j in range(max_vdist + 1)
        for u in (1, 2, 3)
        if u % p and (j or (1 + u) % p)
    ]
    shells = [(u * p**v, v) for v in range(1, m) for u in (1, 2, p + 1) if u % p]
    return tuple(TatePoint(x, ctx, v) for x, v in units + shells)


def verify_greens(points: tuple[TatePoint, ...], max_vdist: int, expected: Fraction) -> dict:
    """The ``greens`` report fields on the nonempty ``height_check_points(ctx,
    max_vdist)``: the expected constant, the verdict and one row per point.
    """
    p, m = points[0].ctx.p, points[0].ctx.m
    # The operator reads a point only through its class (v, vdist), so each
    # class is evaluated once, and every point is printed.
    classes = [(x.v, valuation(x.value - 1, p)) for x in points]
    values = {c: apply_D_height(p, m, *c) for c in dict.fromkeys(classes)}
    rows = []
    for x, c in zip(points, classes):
        cells = (x.value, *c, values[c], expected, values[c] == expected)
        rows.append(dict(zip(("x", "v", "vdist", "Dh", "expected", "pass"), cells)))
    # The printed classes are every shell and v(x - 1) promised; at p = 2
    # every unit is 1 mod 2, so v(x - 1) starts at 1.
    promised = {(0, j) for j in range(int(p == 2), max_vdist + 1)} | {(v, 0) for v in range(1, m)}
    covered = values.keys() == promised
    return {"expected": expected, "all_pass": covered and all(row["pass"] for row in rows), "rows": rows}
