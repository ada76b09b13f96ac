"""Boundary two-point function and the small-dimension limit that
recovers the height.

Floating point throughout: the scaling dimension is a continuous
parameter and log p is transcendental.  Two exceptions: at an integer
dimension d the two-point function is the operator's kernel with p
replaced by p^d, so it is that exact rational, correctly rounded (at
d = 1 the kernel itself); and the height is checked exactly against the
expansion's coefficient of log p delta.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import TatePoint, _kernel_by_valuations, _pair_valuations, kernel_H, local_height, tate_div

# The diagnostic bound of limit_match, relative to 1 + |target|.
LIMIT_TOLERANCE = 1e-6


def two_point(x1: TatePoint, x2: TatePoint, delta: float) -> float:
    """(|x1||x2|/|x1-x2|^2)^delta + (r^delta + r^(-delta))/(p^(m delta) - 1),
    r = |x1|/|x2|, with p and m read off the two points.

    An integer dimension d gives the kernel at base P = p^d, correctly
    rounded, so delta = 1 reproduces the kernel on the nose.  The kernel is
    a leading power P^k plus a rest 0 < r <= 4 P^g: on one shell
    P^(2t) + 2/(P^m - 1), with t = v(x1 - x2) - v, so k = 2t and g = -m;
    across shells (P^u + P^(m-u))/(P^m - 1), with u = min(|v1 - v2|,
    m - |v1 - v2|), so k = -u and g = u - m.  P^k is formed exactly, and
    Ziv's rounding test returns its float wherever r cannot carry the sum
    across the rounding boundary above it, or the float above where P^k
    is a tie that rounded down.  The distance to the boundary is at least
    2^-(2 u d log2 p + 54) across shells and 2^-53 on one shell, so the
    kernel at base P, of size d m log2 p bits, is built only where
    (m - 3u) d log2 p <= 57 and, past the underflow guard,
    u d log2 p <= 1079, or on one shell where d m log2 p <= 56: at most
    about 3300 bits.
    """
    if delta <= 0:
        raise ValueError("dimension must be positive")
    v1, v2, vd = _pair_valuations(x1, x2)
    p, m = x1.ctx.p, x1.ctx.m
    if float(delta).is_integer():
        d = int(delta)
        e = 2 * vd - v1 - v2
        # log2 of the first term, p^(d e), and a bound on log2 of the second,
        # which is at most 4 p^(d |v1 - v2| - m d); in float arithmetic, so a
        # huge d gives an infinity.
        lp2 = math.log2(p)
        first_log2 = e * lp2 * d
        second_log2 = 2 + (abs(v1 - v2) - m) * lp2 * d
        # Past 2^2048 the first term alone is far beyond the float range
        # (the second is positive): refuse.
        if first_log2 > 2048:
            raise OverflowError("the two-point value exceeds the float range")
        # The sum is below 2^-1076, under half the least subnormal: it rounds to 0.
        if max(first_log2, second_log2) < -1077:
            return 0.0
        u = min(abs(v1 - v2), m - abs(v1 - v2))
        k, g = (e, -m) if u == 0 else (-u, u - m)
        lead = Fraction(p) ** (d * k)
        value = float(lead)
        gap = Fraction(value) + Fraction(math.ulp(value)) / 2 - lead
        if not gap:
            # A tie that rounded down: the rest carries it to the float
            # above, unless it reaches the next boundary, ulp(value) or more away.
            value, gap = math.nextafter(value, math.inf), Fraction(math.ulp(value))
        # log2 of the rest's bound 4 P^g, and one bit of margin for the
        # float logarithms.
        if math.log2(gap.numerator) - math.log2(gap.denominator) > 3 + g * lp2 * d:
            return value
        return float(_kernel_by_valuations(p**d, m, v1, v2, vd))
    lp = math.log(p)
    first = math.exp(delta * (2 * vd - v1 - v2) * lp)
    try:
        second = (
            math.exp(delta * (v2 - v1) * lp) + math.exp(delta * (v1 - v2) * lp)
        ) / math.expm1(m * delta * lp)
    except OverflowError:
        # p^(m delta) is past the float range.  As |v1 - v2| < m the second
        # term, (p^R + p^-R) / (p^C - 1) with R = |v1 - v2| delta and
        # C = m delta, is below 2 p^-delta: take it through its logarithm.
        r = abs(v1 - v2) * delta * lp  # log p^R
        c = m * delta * lp  # log p^C
        second = math.exp(r + math.log1p(math.exp(-2 * r)) - c - math.log(-math.expm1(-c)))
    return first + second


def float_expression_check(x1: TatePoint, x2: TatePoint, kernel: float) -> bool:
    """Whether two_point's float expression, at delta = 1 +- h with h = 2^-30,
    is within 2 h (|e| + m) log p K of the kernel K, e = 2 v(x1 - x2) - v1 - v2.

    At an integer delta two_point returns the kernel by its exact branch, so
    only this check reads the float one.  The log-derivative in delta is at
    most (|e| + 2m) log p; a wrong sign or exponent moves the value by a
    multiple of the bound.  Where K is subnormal the roundings are absolute,
    and two least subnormals cover them.
    """
    h = 2.0**-30
    v1, v2, vd = _pair_valuations(x1, x2)
    bound = 2 * h * (abs(2 * vd - v1 - v2) + x1.ctx.m) * math.log(x1.ctx.p) * kernel
    bound += 2 * math.ulp(0.0)
    return all(abs(two_point(x1, x2, d) - kernel) <= bound for d in (1 + h, 1 - h))


def height_coefficient(x1: TatePoint, x2: TatePoint) -> tuple[Fraction, Fraction]:
    """Both sides of the exact height check: the s^1 coefficient of the
    two-point function in s = delta log p, and twice the height of x1 / x2.

    With e = 2 v(x1 - x2) - v1 - v2 and R = v1 - v2 the function is
    e^(e s) + 2 cosh(R s) / (e^(m s) - 1) = 2/(m s) + 0 + (e + R^2/m + m/6) s
    + O(s^2): the divergence that height_limit_check subtracts, and the
    slope that it estimates in floats.
    """
    v1, v2, vd = _pair_valuations(x1, x2)
    m = x1.ctx.m
    coefficient = 2 * vd - v1 - v2 + Fraction((v1 - v2) ** 2, m) + Fraction(m, 6)
    return coefficient, 2 * local_height(tate_div(x1, x2))


_RICHARDSON_STEPS = (1e-3, 5e-4, 2.5e-4)


def height_limit_check(x1: TatePoint, x2: TatePoint) -> tuple[float, float]:
    """Estimate the dimensionless limit of the correlator against
    2 log p times the height of the point ratio, with p and m read off the
    two points.

    Subtracting the constant divergence 2/(delta m log p) leaves a
    remainder that vanishes linearly in the dimension (the two constant
    terms of the expansion cancel each other), so the height sits in the
    slope at zero: divide out one power of the dimension, then run two
    Richardson stages over the halving step sequence to cancel the linear
    and quadratic corrections of the quotient.
    """
    p, m = x1.ctx.p, x1.ctx.m
    lp = math.log(p)

    def slope(delta: float) -> float:
        return (two_point(x1, x2, delta) - 2 / (delta * m * lp)) / delta

    f1, f2, f3 = (slope(d) for d in _RICHARDSON_STEPS)
    r1 = 2 * f2 - f1
    r2 = 2 * f3 - f2
    estimate = (4 * r2 - r1) / 3
    target = 2 * lp * float(local_height(tate_div(x1, x2)))
    return estimate, target


def verify_correlator(x1: TatePoint, x2: TatePoint) -> dict:
    """The report fields that follow the two-point value, in order; a delta = 1
    kernel past the float range raises OverflowError."""
    # Both sides are the one rational H(x1, x2), correctly rounded.
    at_one = two_point(x1, x2, 1.0)
    kernel = float(kernel_H(x1, x2))
    kernel_ok = at_one == kernel
    float_ok = float_expression_check(x1, x2, kernel)
    # The exact coefficient decides the height verdict; the extrapolated
    # limit is reported beside it, as its steps lose accuracy at large m.
    coefficient, twice_height = height_coefficient(x1, x2)
    estimate, target = height_limit_check(x1, x2)
    return {
        "two_point_at_delta_1": at_one,
        "kernel": kernel,
        "kernel_match": kernel_ok,
        "limit_estimate": estimate,
        "limit_target": target,
        "limit_match": abs(estimate - target) < LIMIT_TOLERANCE * (1 + abs(target)),
        "all_pass": kernel_ok and float_ok and coefficient == twice_height,
    }
