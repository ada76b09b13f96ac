"""Angular characters of the domain and their eigenvalues.

An angular character v -> e^(2 pi i l v / m) acts on the valuation class.
The operator acts on these characters as a circulant over the m shells,
so its eigenvalue at l is its symbol at the root x = e^(2 pi i l / m).  The
closed form in t = 2 - x - 1/x is proved for every l at once by one exact
identity of polynomials modulo x^m - 1, the angular circulant check.
``eigenvalue_angular`` is the one reader of that closed form, the zero
mode l = 0 included; the values it takes, exact or float, sum to the
circulant's trace and their squares to its Parseval sum, closed forms
too.  The roots of unity that every character value reads live here.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .padic import PrimeParams, c_p_const, coupling_total, coupling_weights


@lru_cache(maxsize=None)
def root_table(n: int) -> tuple:
    """The n-th roots of unity e^(2 pi i j / n) for j in range(n), as complex.

    The reduced denominator n / gcd(j, n) picks the exact values 1, -1 and
    +-i at 1, 2 and 4; elsewhere j / n is the same correctly rounded float
    as the reduced fraction's, so a turn has the same bits in every table.
    """
    out = []
    for j in range(n):
        den = n // math.gcd(j, n)
        if den == 1:
            out.append(1 + 0j)
        elif den == 2:
            out.append(-1 + 0j)
        elif den == 4:
            out.append(1j if 4 * j == n else -1j)
        else:
            out.append(cmath.exp(2j * cmath.pi * (j / n)))
    return tuple(out)


def _closed_coefficients(p: int) -> tuple[int, int, int]:
    """(a, b, c) with the eigenvalue a t / (b + c t) at t = 2 - 2 cos(2 pi l / m)."""
    return p * (p - 1), (p - 1) ** 2, p


# t = 4 sin^2(pi j) at the turns j in [0, 1/2] where it is rational.
_EXACT_T = {
    Fraction(j, n): Fraction(t) for j, n, t in [(0, 1, 0), (1, 6, 1), (1, 4, 2), (1, 3, 3), (1, 2, 4)]
}


@lru_cache(maxsize=None)
def angular_circulant_check(p: int, m: int) -> None:
    """Prove the closed form a t / (b + c t) at every l, exactly.

    The eigenvalue at l is K T(x) at x = e^(2 pi i l / m), with
    T(x) = sum over v = 1..m-1 of w_v (x^v - 1), w_v from
    ``coupling_weights``, and K = -c_p (p - 1) / p / (q - 1).  With
    u(x) = -1 + 2x - x^2 = x t, the closed form holds at x exactly when
    K T(x) (b x + c u(x)) = a u(x).  x^m - 1 has no repeated root, so that
    holds at all m roots exactly when it holds in Z[x]/(x^m - 1): one
    cyclic convolution of m integers, after clearing K's denominator.
    Coefficient r of the left side is d_0 t_r + d_1 t_(r-1) + d_2 t_(r-2),
    with t_i the coefficients of T(x), indices mod m, and d_j those of
    d(x) = b x + c u(x): one window of three slides over the weights as
    they stream by, and each coefficient is compared as it is formed, so
    nothing of the size of the weights is held.
    """
    a, b, c = _closed_coefficients(p)
    k = -c_p_const(p) * Fraction(p - 1, p * (p**m - 1))
    d0, d1, d2 = -c, b + 2 * c, -c
    # The right side k.denominator a u(x), reduced mod x^m - 1: no
    # coefficient from r = 3 on.
    rhs = {}
    for j, uj in enumerate((-1, 2, -1)):
        rhs[j % m] = rhs.get(j % m, 0) + k.denominator * a * uj
    # t_0 is minus the weights' sum and t_v = w_v.  The windows end at
    # t_2, ..., t_(m-1), then t_0 and t_1 again (t_1 is t_0 at m = 1).
    t0 = -coupling_total(p, m)
    weights = coupling_weights(p, m)
    t1 = next(weights, t0)
    low, mid = t0, t1
    for r, high in zip(range(2, m + 2), chain(weights, (t0, t1))):
        if k.numerator * (d0 * high + d1 * mid + d2 * low) != rhs.get(r % m, 0):
            raise ArithmeticError(f"angular circulant: the closed form fails at p={p}, m={m}")
        low, mid = mid, high


def angular_trace(ctx: PrimeParams) -> Fraction:
    """The sum of the angular eigenvalues over l = 0..m-1: the trace of the
    circulant, m times its diagonal -K coupling_total (K as in the angular
    circulant check), that is 2 c_p m (q - p) / (p (q - 1))."""
    p, m = ctx.p, ctx.m
    return c_p_const(p) * Fraction(m * (p - 1) * coupling_total(p, m), p * (p**m - 1))


def angular_square_sum(ctx: PrimeParams) -> Fraction:
    """The sum of the squared angular eigenvalues over l = 0..m-1, by Parseval
    m K^2 (coupling_total^2 + the sum of the w_v^2 = p^(2v) + p^(2(m-v)) + 2q)."""
    p, m = ctx.p, ctx.m
    q = p**m
    k = c_p_const(p) * Fraction(p - 1, p * (q - 1))
    squares = 2 * (q * q - p * p) // (p * p - 1) + 2 * (m - 1) * q
    return m * k * k * (coupling_total(p, m) ** 2 + squares)


def eigenvalue_angular(l: int, ctx: PrimeParams):
    """a t / (b + c t) with t = 4 sin^2(pi l / m), proved for every l by the
    angular circulant check (run once per (p, m)).  l is folded to
    l <= m / 2 so that t carries no cancellation; the value is exact when
    t is rational, so the zero mode l = 0 is exactly 0."""
    p, m = ctx.p, ctx.m
    angular_circulant_check(p, m)
    a, b, c = _closed_coefficients(p)
    j = l % m
    turns = Fraction(min(j, m - j), m)
    t = _EXACT_T.get(turns)
    if t is None:
        t = 4 * math.sin(math.pi * float(turns)) ** 2
    return a * t / (b + c * t)
