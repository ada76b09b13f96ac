"""Boundary two-point function and the small-dimension limit that
recovers the height.

Floating point throughout: the scaling dimension is a continuous
parameter and log p is transcendental.  The one exception: integer
dimensions evaluate through exact rationals before the final float, so
the degeneration to the kernel at dimension 1 is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import PrimeParams, TatePoint, local_height, tate_div, valuation


def _pair_valuations(x1: TatePoint, x2: TatePoint) -> tuple[int, int, int]:
    if x1.ctx != x2.ctx:
        raise ValueError("mixed prime contexts")
    if x1.value == x2.value:
        raise ValueError("coincident points")
    return x1.v, x2.v, valuation(x1.value - x2.value, x1.ctx.p)


def two_point(x1: TatePoint, x2: TatePoint, delta: float, ctx: PrimeParams) -> float:
    """(|x1||x2|/|x1-x2|^2)^delta + (r^delta + r^(-delta))/(p^(m delta) - 1),
    r = |x1|/|x2|.

    Integer dimensions take an exact rational path, so delta = 1
    reproduces the kernel on the nose.
    """
    if delta <= 0:
        raise ValueError("dimension must be positive")
    p, m = ctx.p, ctx.m
    v1, v2, vd = _pair_valuations(x1, x2)
    if float(delta).is_integer():
        d = int(delta)
        e = 2 * vd - v1 - v2
        # log2 of the first term, p^(d e), and a bound on log2 of the second,
        # which is at most 4 p^(d |v1 - v2| - m d).  They settle the float
        # before the exact powers, whose size grows with the dimension, are
        # built; in float arithmetic, so a huge d gives an infinity.
        lp2 = math.log2(p)
        first_log2 = e * lp2 * d
        second_log2 = 2 + (abs(v1 - v2) - m) * lp2 * d
        # Past 2^2048 the first term alone is far beyond the float range
        # (the second is positive): refuse.
        if first_log2 > 2048:
            raise OverflowError("the two-point value exceeds the float range")
        # 1 + s with 0 < s < 2^-53 rounds to 1.
        if e == 0 and second_log2 < -55:
            return 1.0
        # The sum is below 2^-1076, under half the least subnormal: it rounds to 0.
        if max(first_log2, second_log2) < -1077:
            return 0.0
        base = Fraction(p)
        exact = base ** (d * e) + (
            base ** (d * (v2 - v1)) + base ** (d * (v1 - v2))
        ) / (p ** (m * d) - 1)
        return float(exact)
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


_RICHARDSON_STEPS = (1e-3, 5e-4, 2.5e-4)


def height_limit_check(
    x1: TatePoint, x2: TatePoint, ctx: PrimeParams
) -> tuple[float, float]:
    """Estimate the dimensionless limit of the correlator against
    2 log p times the height of the point ratio.

    Subtracting the constant divergence 2/(delta m log p) leaves a
    remainder that vanishes linearly in the dimension (the two constant
    terms of the expansion cancel each other), so the height sits in the
    slope at zero: divide out one power of the dimension, then run two
    Richardson stages over the halving step sequence to cancel the linear
    and quadratic corrections of the quotient.
    """
    p, m = ctx.p, ctx.m
    lp = math.log(p)

    def slope(delta: float) -> float:
        return (two_point(x1, x2, delta, ctx) - 2 / (delta * m * lp)) / delta

    f1, f2, f3 = (slope(d) for d in _RICHARDSON_STEPS)
    r1 = 2 * f2 - f1
    r2 = 2 * f3 - f2
    estimate = (4 * r2 - r1) / 3
    target = 2 * lp * float(local_height(tate_div(x1, x2)))
    return estimate, target
