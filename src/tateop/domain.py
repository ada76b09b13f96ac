"""Balls, Haar measure, step functions, and the local height on the domain.

The atoms are multiplicative unit cosets p^v (c + p^k Z_p) with c a unit mod
p^k.  Every locally constant function manipulated here is a finite exact
combination of their indicators, and every integral against the
multiplicative Haar measure d*x = dx/|x| is a finite sum of rationals (plus
one geometric tail near the height singularity, which has a closed form).
"""

from __future__ import annotations

from fractions import Fraction

from .padic import (
    PrimeParams,
    Rational,
    Record,
    TatePoint,
    format_rational,
    parse_rational,
    tate_div,
    valuation,
)


def total_volume(ctx: PrimeParams) -> Fraction:
    """Multiplicative Haar volume of the fundamental domain: m (p-1)/p."""
    return Fraction(ctx.m * (ctx.p - 1), ctx.p)


def geom_sum(degree: int, start: int, ratio: Rational) -> Fraction:
    """Exact value of sum_{j >= start} j^degree ratio^j for degree 0 or 1.

    degree 0: t^J / (1 - t).
    degree 1: t^J (J (1 - t) + t) / (1 - t)^2.
    """
    t = Fraction(ratio)
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if start < 0:
        raise ValueError("start must be >= 0")
    if abs(t) >= 1:
        raise ValueError("ratio must satisfy |t| < 1")
    if degree == 0:
        return t**start / (1 - t)
    return t**start * (start * (1 - t) + t) / (1 - t) ** 2


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


class StepFunction(Record):
    """Finitely many disjoint balls covering the domain, one value per ball.

    Values are exact rationals in all the identity checks; complex values
    are admitted so multiplicative characters can be applied to the same
    machinery.
    """

    __slots__ = _fields = ("partition", "values")
    partition: ShellPartition
    values: tuple

    def __init__(self, partition: ShellPartition, values) -> None:
        vals = tuple(Fraction(v) if isinstance(v, int) else v for v in values)
        if len(vals) != len(partition.balls):
            raise ValueError("one value per ball required")
        self._bind(partition, vals)

    @property
    def ctx(self) -> PrimeParams:
        return self.partition.ctx

    def value_at(self, x: TatePoint):
        return self.values[self.partition.find_index(x)]

    def integral(self):
        """Integral against d*x: sum of value * measure over the balls."""
        return sum(val * b.measure() for b, val in zip(self.partition.balls, self.values))

    def refine_ball(self, i: int) -> "StepFunction":
        vals = self.values[:i] + (self.values[i],) * self.ctx.p + self.values[i + 1 :]
        return StepFunction(self.partition.refine_ball(i), vals)

    def dilated(self, lam: TatePoint) -> "StepFunction":
        """Precompose with multiplication: result(x) = self(lam * x)."""
        p, m = self.ctx.p, self.ctx.m
        new_balls = []
        for b in self.partition.balls:
            mod = p**b.k
            lam_c = canonical_center(lam.unit_part(), b.k, p)
            c = b.center * pow(lam_c, -1, mod) % mod
            new_balls.append(Ball(self.ctx, (b.v - lam.v) % m, b.k, c))
        return StepFunction(ShellPartition(self.ctx, tuple(new_balls)), self.values)

    def inverted(self) -> "StepFunction":
        """Precompose with the reciprocal: result(x) = self(1/x)."""
        p, m = self.ctx.p, self.ctx.m
        new_balls = [
            Ball(self.ctx, (-b.v) % m, b.k, pow(b.center, -1, p**b.k))
            for b in self.partition.balls
        ]
        return StepFunction(ShellPartition(self.ctx, tuple(new_balls)), self.values)

    @classmethod
    def constant(cls, ctx: PrimeParams, value, level: int = 1) -> "StepFunction":
        part = ShellPartition.full(ctx, level)
        return cls(part, (value,) * len(part.balls))

    @classmethod
    def indicator_shell(cls, ctx: PrimeParams, v: int, level: int = 1) -> "StepFunction":
        """Indicator of the shell p^v Z_p^x."""
        part = ShellPartition.full(ctx, level)
        return cls(part, tuple(Fraction(1 if b.v == v else 0) for b in part.balls))

    def to_json_dict(self) -> dict:
        for val in self.values:
            if not isinstance(val, Fraction):
                raise ValueError("only rational-valued step functions serialize to JSON")
        return {
            "p": self.ctx.p,
            "m": self.ctx.m,
            "balls": [
                {
                    "v": b.v,
                    "k": b.k,
                    "center": format_rational(b.center),
                    "value": format_rational(val),
                }
                for b, val in zip(self.partition.balls, self.values)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StepFunction":
        ctx = PrimeParams(data["p"], data["m"])
        balls = []
        values = []
        for item in data["balls"]:
            center = parse_rational(str(item["center"]))
            balls.append(Ball(ctx, int(item["v"]), int(item["k"]), canonical_center(center, int(item["k"]), ctx.p)))
            values.append(parse_rational(str(item["value"])))
        return cls(ShellPartition(ctx, tuple(balls)), tuple(values))


def local_height(w: TatePoint) -> Fraction:
    """h(w) = v(w - 1) + v_w (v_w - m) / (2m) + m / 12, for w != 1."""
    if w.value == 1:
        raise ValueError("the height has a logarithmic singularity at the identity")
    m = w.ctx.m
    j = valuation(w.value - 1, w.ctx.p)
    return j + Fraction(w.v * (w.v - m), 2 * m) + Fraction(m, 12)


class HeightProfile(Record):
    """The translated local height x -> h(x / base), exact away from the base."""

    __slots__ = _fields = ("base",)
    base: TatePoint

    @property
    def ctx(self) -> PrimeParams:
        return self.base.ctx

    def value_at(self, x: TatePoint) -> Fraction:
        return local_height(tate_div(x, self.base))

    def integrate_over_ball(self, b: Ball) -> Fraction:
        """Exact integral of the profile over a ball against d*x.

        The quadratic-in-valuation part of the height is constant on the
        ball.  The v(w - 1) part is zero unless the ball sits in the base
        point's shell; there it is constant unless the ball contains the
        base, in which case the stratification by v(x - base) = t >= v + k
        (each stratum of measure (1 - 1/p) p^(v - t)) leaves a geometric
        tail with a closed form.
        """
        if b.ctx != self.ctx:
            raise ValueError("mixed prime contexts")
        p, m = self.ctx.p, self.ctx.m
        y = self.base
        v_w = (b.v - y.v) % m
        out = (Fraction(v_w * (v_w - m), 2 * m) + Fraction(m, 12)) * b.measure()
        if v_w != 0:
            return out
        if b.contains(y):
            out += Fraction(p - 1, p) * geom_sum(1, b.k, Fraction(1, p))
        else:
            j = valuation(b.center_point().value - y.value, p) - y.v
            out += j * b.measure()
        return out
