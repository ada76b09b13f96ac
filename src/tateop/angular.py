"""Angular characters of the domain and their eigenvalues.

An angular character v -> e^(2 pi i l v / m) acts on the valuation class.
Its eigenvalue has a closed form in c = 2 cos(2 pi l / m), checked against
the defining sum over the shells; the sums for many l are taken in one
pass.  The roots of unity that every character value reads live here too.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .padic import PrimeParams, c_p_const, shell_coupling


def root_of_unity(turns: Fraction):
    """e^(2 pi i turns), exact (Fraction or exact imaginary) at quarter turns."""
    r = Fraction(turns)
    if not 0 <= r.numerator < r.denominator:
        r %= 1
    den = r.denominator
    if den == 1:
        return Fraction(1)
    if den == 2:
        return Fraction(-1)
    if den == 4:
        return 1j if r.numerator == 1 else -1j
    return cmath.exp(2j * cmath.pi * float(r))


@lru_cache(maxsize=None)
def root_table(n: int) -> tuple:
    """complex(root_of_unity(Fraction(j, n))) for j in range(n), built directly.

    The reduced denominator n / gcd(j, n) picks the exact values at 1, 2
    and 4; elsewhere j / n is the same correctly rounded float as the
    reduced fraction's, so every entry has the same bits.
    """
    out = []
    for j in range(n):
        den = n // gcd(j, n)
        if den == 1:
            out.append(1 + 0j)
        elif den == 2:
            out.append(-1 + 0j)
        elif den == 4:
            out.append(1j if 4 * j == n else -1j)
        else:
            out.append(cmath.exp(2j * cmath.pi * (j / n)))
    return tuple(out)


@lru_cache(maxsize=None)
def _float_couplings(p: int, m: int) -> tuple:
    """The shell couplings to shells 1..m - 1, converted to float once."""
    return tuple(complex(shell_coupling(p, m, v)) for v in range(1, m))


_EXACT_TWO_COS = {
    Fraction(0): Fraction(2),
    Fraction(1, 2): Fraction(-2),
    Fraction(1, 3): Fraction(-1),
    Fraction(2, 3): Fraction(-1),
    Fraction(1, 4): Fraction(0),
    Fraction(3, 4): Fraction(0),
    Fraction(1, 6): Fraction(1),
    Fraction(5, 6): Fraction(1),
}


def angular_sums(ls, ctx: PrimeParams) -> list[complex]:
    """Defining sums of the angular eigenvalues at each l, shell by shell.

    One pass: the shell couplings are converted to float once, and the
    character values come from one table of the m roots of unity.
    """
    p, m = ctx.p, ctx.m
    mu_units = complex(Fraction(p - 1, p))
    couplings = _float_couplings(p, m)
    roots = root_table(m)
    scale = -complex(c_p_const(p))
    sums = []
    for l in ls:
        total = 0j
        for v, coupling in enumerate(couplings, 1):
            total += coupling * (roots[l * v % m] - 1) * mu_units
        sums.append(scale * total)
    return sums


def _angular_closed(l: int, ctx: PrimeParams):
    """p(p-1)(2-c)/(p^2 - pc + 1) with c = 2 cos(2 pi l/m); exact when c is."""
    p, m = ctx.p, ctx.m
    turns = Fraction(l % m, m)
    c = _EXACT_TWO_COS.get(turns)
    if c is not None:
        return Fraction(p * (p - 1) * (2 - c), p * p - p * c + 1)
    cf = 2.0 * cmath.cos(2 * cmath.pi * float(turns)).real
    return p * (p - 1) * (2 - cf) / (p * p - p * cf + 1)


def angular_eigenvalues(ls, ctx: PrimeParams) -> list:
    """The closed form at each l, each cross-evaluated against its defining
    sum to 1e-10; the sums are taken in one pass."""
    out = []
    for l, check in zip(ls, angular_sums(ls, ctx)):
        lam = _angular_closed(l, ctx)
        if abs(complex(lam) - check) > 1e-10:
            raise ArithmeticError(
                f"angular eigenvalue mismatch at l={l}: closed {lam}, sum {check}"
            )
        out.append(lam)
    return out


def eigenvalue_angular(l: int, ctx: PrimeParams):
    """The closed form at l, cross-evaluated against the defining sum to 1e-10."""
    return angular_eigenvalues((l,), ctx)[0]
