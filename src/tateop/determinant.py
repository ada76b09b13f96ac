"""Zeta-regularized determinant of the operator.

The angular eigenvalues contribute a finite exact product; the radial
tower is resummed through a spectral zeta function whose closed form is
its own analytic continuation, so the determinant factorizes exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import PrimeParams
from .angular import angular_eigenvalues

ZETA_SERIES_TERMS = 200


def angular_determinant(ctx: PrimeParams) -> Fraction:
    """Product of the nonzero angular eigenvalues:
    m^2 (p-1)^(m+1) p^(m-1) / (p^m - 1)^2, exactly.

    The product of the float eigenvalues over l = 1..m-1 is recomputed as
    a guard, in log space: |sum of log lambda_l - log closed| <= 1e-9, to
    first order the relative 1e-9 bound on the product, with no float
    underflow at large m.  The factors are proved exactly by the angular
    circulant check, once per (p, m).
    """
    p, m = ctx.p, ctx.m
    closed = Fraction(m * m * (p - 1) ** (m + 1) * p ** (m - 1), (p**m - 1) ** 2)
    log_product = math.fsum(math.log(float(lam)) for lam in angular_eigenvalues(range(1, m), ctx))
    log_closed = math.log(closed.numerator) - math.log(closed.denominator)
    if abs(log_product - log_closed) > 1e-9:
        raise ArithmeticError("angular product disagrees with its closed form")
    return closed


def zeta_pi_value(s: float, ctx: PrimeParams) -> float:
    """Closed form m (p^(s+1) - 2 p^s + 1) / ((p^s - p)(p-1)^s).

    A finite expression in s, hence its own analytic continuation;
    the only pole in range is s = 1.
    """
    p, m = ctx.p, ctx.m
    if s == 1:
        raise ValueError("s = 1 is the pole of the radial zeta function")
    ps = float(p) ** s
    return m * (ps * p - 2 * ps + 1) / ((ps - p) * float(p - 1) ** s)


def zeta_pi_series(s: float, ctx: PrimeParams) -> float:
    """Direct eigenvalue sum sum_n mult(n) lambda_n^(-s), truncated at
    ZETA_SERIES_TERMS levels.

    Converges for s > 1.  Terms are assembled in log space: the raw
    integer multiplicities overflow doubles long before the truncation
    point.
    """
    p, m = ctx.p, ctx.m
    if s <= 1:
        raise ValueError("the defining series only converges for s > 1")
    lp, lp1 = math.log(p), math.log(p - 1)
    total = m * (p - 2) * math.exp(-s * lp1)
    for n in range(2, ZETA_SERIES_TERMS + 1):
        log_mult = math.log(m) + 2 * lp1 + (n - 2) * lp
        log_lam = lp1 + (n - 1) * lp
        total += math.exp(log_mult - s * log_lam)
    return total


def zeta_prime_at_zero(ctx: PrimeParams) -> float:
    """zeta'(0) = -m log(p/(p-1)), checked against a central difference
    to 1e-6 m: zeta_pi_value is m times an m-free function, so the
    difference's error grows like m.

    Differentiating the closed form at s = 0 collapses: with
    N(s) = m(p^(s+1) - 2p^s + 1) and D(s) = (p^s - p)(p-1)^s one gets
    (N'D - ND')/D^2 |_{s=0} = m(log(p-1) - log p).
    """
    p, m = ctx.p, ctx.m
    analytic = -m * math.log(p / (p - 1))
    h = 1e-6
    fd = (zeta_pi_value(h, ctx) - zeta_pi_value(-h, ctx)) / (2 * h)
    if abs(analytic - fd) > 1e-6 * m:
        raise ArithmeticError("zeta derivative disagrees with finite differences")
    return analytic


def _radial_factor(ctx: PrimeParams, zeta_prime: float) -> Fraction:
    """(p/(p-1))^m, checked against exp(-zeta'(0)) in log space: |log of
    the closed form + zeta'(0)| <= 1e-8, to first order the relative 1e-8
    bound on the exponentials, with no float overflow at large m."""
    closed = Fraction(ctx.p, ctx.p - 1) ** ctx.m
    log_closed = math.log(closed.numerator) - math.log(closed.denominator)
    if abs(log_closed + zeta_prime) > 1e-8:
        raise ArithmeticError("exponentiated zeta derivative misses the closed form")
    return closed


def det_factors(ctx: PrimeParams) -> tuple[Fraction, Fraction, Fraction, float]:
    """(det D, angular factor, radial factor, zeta'(0)), each computed once.

    det D = m^2 (1 - 1/p) / (1 - p^(-m))^2 must equal angular x radial
    exactly.
    """
    p, m = ctx.p, ctx.m
    closed = Fraction(m * m) * (1 - Fraction(1, p)) / (1 - Fraction(1, p**m)) ** 2
    angular = angular_determinant(ctx)
    zeta_prime = zeta_prime_at_zero(ctx)
    radial = _radial_factor(ctx, zeta_prime)
    if closed != angular * radial:
        raise ArithmeticError("determinant does not factor as angular x radial")
    return closed, angular, radial, zeta_prime
