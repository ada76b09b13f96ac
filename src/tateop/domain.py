"""Balls of the domain and their Haar measure.

The atoms are multiplicative unit cosets p^v (c + p^k Z_p) with c a unit mod
p^k, and every ball integral against the multiplicative Haar measure
d*x = dx/|x| is an exact rational.  No subcommand runs this module: the
matrix holds its basis as shells times unit residues, and the ball
integrals here are what the tests and the benchmark's tracer read.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import PrimeParams, Rational, Record, TatePoint


def canonical_center(u: Rational, k: int, p: int) -> int:
    """Least positive residue of a unit rational mod p^k."""
    frac = Fraction(u)
    if frac.numerator % p == 0 or frac.denominator % p == 0:
        raise ValueError("center must be a p-adic unit")
    mod = p**k
    return frac.numerator * pow(frac.denominator, -1, mod) % mod


class Ball(Record):
    """Unit coset {p^v u : u = center mod p^k}, the atom of step functions.

    The center is canonical: the least positive integer representative of
    the unit class mod p^k, so equal balls compare and hash equal.
    """

    __slots__ = _fields = ("ctx", "v", "k", "center")
    ctx: PrimeParams
    v: int
    k: int
    center: int

    def __init__(self, ctx: PrimeParams, v: int, k: int, center: int) -> None:
        if not 0 <= v < ctx.m:
            raise ValueError(f"shell index {v} outside [0, {ctx.m})")
        if k < 1:
            raise ValueError("level k must be >= 1")
        c = center % ctx.p**k
        if c % ctx.p == 0:
            raise ValueError("ball center must be a p-adic unit")
        self._bind(ctx, v, k, c)

    def measure(self) -> Fraction:
        """Multiplicative Haar measure p^-k, independent of the shell."""
        return Fraction(1, self.ctx.p**self.k)

    def center_point(self) -> TatePoint:
        return TatePoint(Fraction(self.center * self.ctx.p**self.v), self.ctx, self.v)

    def contains(self, x: TatePoint) -> bool:
        if x.v != self.v:
            return False
        return canonical_center(x.unit_part(), self.k, self.ctx.p) == self.center
