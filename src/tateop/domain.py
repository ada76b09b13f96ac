"""Balls, Haar measure and partitions of the domain.

The atoms are multiplicative unit cosets p^v (c + p^k Z_p) with c a unit mod
p^k.  A partition of the fundamental domain into finitely many of them is
the basis of the exact Galerkin matrix, and every ball integral against the
multiplicative Haar measure d*x = dx/|x| is an exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import PrimeParams, Record, TatePoint, canonical_center


def total_volume(ctx: PrimeParams) -> Fraction:
    """Multiplicative Haar volume of the fundamental domain: m (p-1)/p."""
    return Fraction(ctx.m * (ctx.p - 1), ctx.p)


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

    def children(self) -> tuple["Ball", ...]:
        pk = self.ctx.p**self.k
        return tuple(
            Ball(self.ctx, self.v, self.k + 1, self.center + t * pk)
            for t in range(self.ctx.p)
        )

    def label(self) -> str:
        return f"v{self.v}.k{self.k}.c{self.center}"


class ShellPartition(Record):
    """Pairwise-disjoint balls whose union is the whole fundamental domain."""

    __slots__ = ("ctx", "balls", "_index", "_levels")
    _fields = ("ctx", "balls")
    ctx: PrimeParams
    balls: tuple[Ball, ...]

    def __init__(self, ctx: PrimeParams, balls) -> None:
        balls = tuple(balls)
        if not balls:
            raise ValueError("a partition needs at least one ball")
        index: dict[tuple[int, int, int], int] = {}
        by_level: dict[tuple[int, int], set[int]] = {}
        for i, b in enumerate(balls):
            if b.ctx != ctx:
                raise ValueError("mixed prime contexts in partition")
            key = (b.v, b.k, b.center)
            if key in index:
                raise ValueError(f"duplicate ball {b.label()}")
            index[key] = i
            by_level.setdefault((b.v, b.k), set()).add(b.center)
        # A finer ball sitting inside a coarser one is the only way two
        # distinct balls can meet.
        for b in balls:
            for k2 in range(1, b.k):
                centers = by_level.get((b.v, k2))
                if centers and b.center % ctx.p**k2 in centers:
                    raise ValueError(f"overlapping balls at {b.label()}")
        if sum(b.measure() for b in balls) != total_volume(ctx):
            raise ValueError("balls do not exactly cover the domain")
        self._bind(ctx, balls, index, sorted({b.k for b in balls}))

    @classmethod
    def full(cls, ctx: PrimeParams, level: int) -> "ShellPartition":
        """All level-k balls, ordered by shell then by center."""
        if level < 1:
            raise ValueError("level must be >= 1")
        balls = tuple(
            Ball(ctx, v, level, c)
            for v in range(ctx.m)
            for c in range(1, ctx.p**level)
            if c % ctx.p != 0
        )
        # Disjoint and covering by construction, so the constructor's
        # overlap scan and measure sum are skipped.
        part = object.__new__(cls)
        index = {(b.v, level, b.center): i for i, b in enumerate(balls)}
        part._bind(ctx, balls, index, [level])
        return part

    def find_index(self, x: TatePoint) -> int:
        index = self._index
        for k in self._levels:
            c = canonical_center(x.unit_part(), k, self.ctx.p)
            i = index.get((x.v, k, c))
            if i is not None:
                return i
        raise ValueError("point not covered by the partition")

    def refine_ball(self, i: int) -> "ShellPartition":
        """Replace ball i by its p children."""
        balls = self.balls
        return ShellPartition(self.ctx, balls[:i] + balls[i].children() + balls[i + 1 :])
