"""Zeta-regularized determinant of the operator.

The angular eigenvalues contribute a finite exact product; the radial
tower is resummed through a spectral zeta function whose closed form is
its own analytic continuation, so the determinant factorizes exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import PrimeParams
from .angular import _closed_coefficients, angular_circulant_check

ZETA_SERIES_TERMS = 200
# det's printed closed form and series met their exact values within a
# relative 2.2e-15 for p up to 999983, m up to the --m caps.
ZETA_FLOAT_TOLERANCE = 1e-12


def angular_determinant(ctx: PrimeParams) -> Fraction:
    """Product of the nonzero angular eigenvalues a t_l / (b + c t_l) over
    l = 1..m-1: a^(m-1) m^2 b / (p^m - 1)^2, exactly.

    The angular circulant check proves each factor, once per (p, m).  Over
    the m-th roots x = e^(2 pi i l / m) != 1, t_l = (1 - x)(1 - 1/x) and
    b + c t_l = -(p/x)(x - p)(x - 1/p) multiply to m^2 and (p^m - 1)^2 / b,
    the cyclotomic resultants of x^m - 1 with x - 1, x - p and x - 1/p.
    """
    p, m = ctx.p, ctx.m
    angular_circulant_check(p, m)
    a, b, _ = _closed_coefficients(p)
    return Fraction(a ** (m - 1) * m * m * b, (p**m - 1) ** 2)


def _zeta_closed(m, p, ps, p1s):
    """The closed form from ps = p^s and p1s = (p-1)^s, floats or Fractions."""
    return m * (ps * p - 2 * ps + 1) / ((ps - p) * p1s)


def zeta_pi_value(s: float, ctx: PrimeParams) -> float:
    """Closed form m (p^(s+1) - 2 p^s + 1) / ((p^s - p)(p-1)^s).

    A finite expression in s, hence its own analytic continuation;
    the only pole in range is s = 1.
    """
    p, m = ctx.p, ctx.m
    if s == 1:
        raise ValueError("s = 1 is the pole of the radial zeta function")
    return _zeta_closed(m, p, float(p) ** s, float(p - 1) ** s)


def zeta_pi_exact(s: int, ctx: PrimeParams) -> Fraction:
    """The closed form of ``zeta_pi_value`` at an integer s > 1, exactly."""
    p, m = ctx.p, ctx.m
    return _zeta_closed(m, p, Fraction(p) ** s, Fraction(p - 1) ** s)


def zeta_pi_series_sum(s: int, ctx: PrimeParams) -> Fraction:
    """The whole defining series at an integer s > 1, exactly: m (p-2)(p-1)^(-s)
    at level 1, then levels 2, 3, ... as m (p-1)^2 ((p-1) p)^(-s) / (1 - p^(1-s))."""
    p, m = ctx.p, ctx.m
    tail = m * (p - 1) ** 2 / Fraction((p - 1) * p) ** s / (1 - Fraction(p) ** (1 - s))
    return m * (p - 2) / Fraction(p - 1) ** s + tail


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


class _Dual:
    """x + eps (y log p + z log(p - 1)) with eps^2 = 0, exactly: a value of
    a function of s at s = 0 and its derivative there.  p^s is (1; 1, 0)
    and (p - 1)^s is (1; 0, 1)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y=0, z=0) -> None:
        self.x, self.y, self.z = Fraction(x), y, z

    def __add__(self, other):
        o = other if isinstance(other, _Dual) else _Dual(other)
        return _Dual(self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, other):
        o = other if isinstance(other, _Dual) else _Dual(other)
        return _Dual(self.x * o.x, self.x * o.y + o.x * self.y, self.x * o.z + o.x * self.z)

    __rmul__ = __mul__

    def __truediv__(self, other):
        x = self.x / other.x
        return _Dual(x, (self.y - x * other.y) / other.x, (self.z - x * other.z) / other.x)


def zeta_prime_at_zero(ctx: PrimeParams) -> float:
    """zeta'(0) = -m log(p/(p-1)) as a float, checked exactly: the closed
    form, evaluated on dual numbers at s = 0, must give zeta(0) = -m and
    zeta'(0) = -m log p + m log(p - 1).  It is summed as -m log1p(1/(p-1)):
    rounding p/(p-1) to a float would lose about log10 p digits.
    """
    p, m = ctx.p, ctx.m
    zeta = _zeta_closed(m, p, _Dual(1, 1, 0), _Dual(1, 0, 1))
    if (zeta.x, zeta.y, zeta.z) != (-m, -m, m):
        raise ArithmeticError("zeta derivative disagrees with the closed form's dual numbers")
    return -m * math.log1p(1 / (p - 1))


def det_factors(ctx: PrimeParams) -> tuple[Fraction, Fraction, Fraction, float]:
    """(det D, angular factor, radial factor, zeta'(0)), each computed once.

    det D = m^2 (1 - 1/p) / (1 - p^(-m))^2 must equal angular x radial
    exactly, the radial factor being exp(-zeta'(0)) = (p/(p-1))^m.
    """
    p, m = ctx.p, ctx.m
    closed = Fraction(m * m) * (1 - Fraction(1, p)) / (1 - Fraction(1, p**m)) ** 2
    angular = angular_determinant(ctx)
    radial = Fraction(p, p - 1) ** m
    if closed != angular * radial:
        raise ArithmeticError("determinant does not factor as angular x radial")
    return closed, angular, radial, zeta_prime_at_zero(ctx)


def verify_zeta_series(ctx: PrimeParams) -> dict:
    """The zeta series rows at s = 2, 3, 4 and their verdict, in report order.

    A row passes when the closed form equals the whole series exactly, and
    each printed float is within a relative ZETA_FLOAT_TOLERANCE of its
    exact counterpart.
    """
    rows = []
    for s in (2, 3, 4):
        closed, series = zeta_pi_value(float(s), ctx), zeta_pi_series(float(s), ctx)
        exact, summed = zeta_pi_exact(s, ctx), zeta_pi_series_sum(s, ctx)
        ok = exact == summed and all(
            math.isclose(x, float(y), rel_tol=ZETA_FLOAT_TOLERANCE)
            for x, y in ((closed, exact), (series, summed))
        )
        err = abs(closed - series)
        rows.append({"s": s, "closed": closed, "series": series, "abs_error": err, "pass": ok})
    return {"zeta_series_checks": rows, "all_pass": all(row["pass"] for row in rows)}
