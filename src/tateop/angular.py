"""Angular characters of the domain and their eigenvalues.

An angular character v -> e^(2 pi i l v / m) acts on the valuation class.
The operator acts on these characters as a circulant over the m shells,
so its eigenvalue at l is its symbol at the root x = e^(2 pi i l / m).  The
closed form in t = 2 - x - 1/x is proved for every l at once by one exact
identity of polynomials modulo x^m - 1, the angular circulant check.  The
roots of unity that every character value reads live here too.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

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
    Each coefficient of the left side is compared as it is formed, so
    nothing of the size of the table is held beside it.
    """
    a, b, c = _closed_coefficients(p)
    k = -c_p_const(p) * Fraction(p - 1, p * (p**m - 1))
    # T(x) has the coefficients w_1..w_(m-1) and the constant term minus
    # their sum; u(x) and d(x) = b x + c u(x) are reduced mod x^m - 1.
    w, t0 = coupling_weights(p, m), -coupling_total(p, m)
    u, d = (-1, 2, -1), (-c, b + 2 * c, -c)
    rhs = [0] * m
    for j, uj in enumerate(u):
        rhs[j % m] += k.denominator * a * uj
    for r, rhs_r in enumerate(rhs):
        # Coefficient r of T(x) d(x): d_j t_i summed over i + j = r mod m.
        lhs = 0
        for j, dj in enumerate(d):
            i = (r - j) % m
            lhs += dj * (w[i] if i else t0)
        if k.numerator * lhs != rhs_r:
            raise ArithmeticError(f"angular circulant: the closed form fails at p={p}, m={m}")


def _angular_closed(l: int, ctx: PrimeParams):
    """a t / (b + c t) with t = 4 sin^2(pi l / m), folded to l <= m / 2 so
    that t carries no cancellation; exact when t is rational."""
    p, m = ctx.p, ctx.m
    a, b, c = _closed_coefficients(p)
    j = l % m
    turns = Fraction(min(j, m - j), m)
    t = _EXACT_T.get(turns)
    if t is None:
        t = 4 * math.sin(math.pi * float(turns)) ** 2
    return a * t / (b + c * t)


def angular_eigenvalues(ls, ctx: PrimeParams) -> list:
    """The closed form at each l, proved for every l by the angular
    circulant check."""
    angular_circulant_check(ctx.p, ctx.m)
    return [_angular_closed(l, ctx) for l in ls]


def eigenvalue_angular(l: int, ctx: PrimeParams):
    """The closed form at l, proved by the angular circulant check."""
    return angular_eigenvalues((l,), ctx)[0]
