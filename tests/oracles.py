"""Exact reference computations that the tests check the package against.

No subcommand runs these: they restate the operator's identities in their
direct, slower form (step functions and their dense operator action, the
weak delta identity of the Green's function, the mass-dimension relation,
the determinant's radial factor, the ``greens`` sample points drawn as
filtered candidates), so the package's closed forms have
something independent to agree with.  General partitions of the domain
into balls, the level-k basis as balls, and the character values at a
single point, live here too.  The angular characters, which the package
reads only as an index l, are records here.  Importing this module also
gives the package's classes the methods only the tests read:
``OperatorMatrix.basis``, ``entries`` and ``apply``, ``Ball.children`` and
``label``, ``TatePoint.norm``, and ``UnitCharacter.exponent`` and ``value``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from tateop.determinant import det_factors
from tateop.domain import Ball, canonical_center
from tateop.matrix import OperatorMatrix
from tateop.operator import integrate_H_over_ball
from tateop.padic import (
    PrimeParams,
    Rational,
    Record,
    TatePoint,
    _pair_valuations,
    c_p_const,
    format_rational,
    local_height,
    parse_rational,
    point,
    tate_div,
    valuation,
)
from tateop.spectral import UnitCharacter, unit_group_order, unit_log


def norm_from_valuation(v: int, p: int) -> Fraction:
    """p^(-v) as an exact rational."""
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def norm(x: Rational, p: int) -> Fraction:
    """p-adic norm |x| = p^(-v(x)), exact."""
    return norm_from_valuation(valuation(x, p), p)


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


def total_volume(ctx: PrimeParams) -> Fraction:
    """Multiplicative Haar volume of the fundamental domain: m (p-1)/p."""
    return Fraction(ctx.m * (ctx.p - 1), ctx.p)


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


def level_basis(ctx: PrimeParams, level: int) -> tuple[Ball, ...]:
    """All level-k balls, shells ascending, then centers ascending."""
    return tuple(
        Ball(ctx, v, level, c)
        for v in range(ctx.m)
        for c in range(1, ctx.p**level)
        if c % ctx.p
    )


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
        """All level-k balls, in the order of the matrix basis."""
        if level < 1:
            raise ValueError("level must be >= 1")
        return cls(ctx, level_basis(ctx, level))

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


class HeightProfile(Record):
    """The translated local height x -> h(x / base), exact away from the base."""

    __slots__ = _fields = ("base",)
    base: TatePoint

    def __init__(self, base: TatePoint) -> None:
        self._bind(base)

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


def apply_D_step(f: StepFunction, x: TatePoint) -> Fraction:
    """(Df)(x) = -c_p * integral of H(z, x) (f(z) - f(x)) d*z, exactly,
    with p and m read off x.

    x must not be a boundary case: the ball of the partition containing x
    contributes nothing when f is constant on it, so the singular part
    cancels and every remaining ball integral is finite.
    """
    fx = f.value_at(x)
    total = Fraction(0)
    for b, val in zip(f.partition.balls, f.values):
        if val == fx:
            continue
        if b.contains(x):
            raise ValueError("f must be constant near x with value f(x)")
        total += integrate_H_over_ball(b, x) * (val - fx)
    return -c_p_const(x.ctx.p) * total


def greens_function(x: TatePoint, y: TatePoint) -> Fraction:
    """Symmetric Green's function G(x, y) = h(x / y), x != y; points of
    different contexts are a ValueError of the division."""
    if x.value == y.value:
        raise ValueError("Green's function is singular on the diagonal")
    return local_height(tate_div(x, y))


def weak_delta_check(y: TatePoint, f: StepFunction) -> tuple[Fraction, Fraction]:
    """Both sides of int G(x, y) (Df)(x) d*x = f(y) - mean(f), exactly,
    with p and m read off y.

    Df of a step function is again a step function on the same partition,
    so the left side reduces to exact ball integrals of the height
    profile centred at y.
    """
    prof = HeightProfile(y)
    lhs = Fraction(0)
    for b in f.partition.balls:
        df_b = apply_D_step(f, b.center_point())
        lhs += df_b * prof.integrate_over_ball(b)
    rhs = f.value_at(y) - f.integral() / total_volume(y.ctx)
    return lhs, rhs


def height_check_points_filtered(ctx: PrimeParams, max_vdist: int) -> tuple[TatePoint, ...]:
    """The greens sample points drawn as candidates: each reduced by
    ``point``, kept only on the shell and at the v(x - 1) it was drawn for,
    and de-duplicated.  ``height_check_points`` builds the same tuple
    directly."""
    p, m = ctx.p, ctx.m
    pts: list[TatePoint] = []
    seen: set[Fraction] = set()
    for j in range(max_vdist + 1):
        for u in (1, 2, 3):
            if u % p == 0:
                continue
            x = point(Fraction(1 + u * p**j), ctx)
            if x.value == 1 or x.v != 0 or valuation(x.value - 1, p) != j:
                continue
            if x.value not in seen:
                seen.add(x.value)
                pts.append(x)
    for v in range(1, m):
        for u in (1, 2, p + 1):
            if u % p == 0:
                continue
            x = point(Fraction(u * p**v), ctx)
            if x.value not in seen:
                seen.add(x.value)
                pts.append(x)
    return tuple(pts)


class AngularCharacter(Record):
    """Character of Z/mZ acting on the valuation class: v -> e^(2 pi i l v / m)."""

    __slots__ = _fields = ("m", "l")
    m: int
    l: int

    def __init__(self, m: int, l: int) -> None:
        if m < 1:
            raise ValueError("modulus must be >= 1")
        self._bind(m, l % m)

    def exponent(self, v: int) -> Fraction:
        return Fraction(self.l * v, self.m) % 1

    def value(self, v: int):
        return root_of_unity(self.exponent(v))


def character_value(chi: UnitCharacter, u):
    """Value of a radial character at a unit; a root of unity."""
    val = Fraction(u)
    if val.numerator % chi.p == 0 or val.denominator % chi.p == 0:
        raise ValueError("character argument must be a p-adic unit")
    return chi.value(val)


def dtn_cross_check(ctx: PrimeParams, n_max: int = 6) -> list[tuple[int, Fraction, Fraction]]:
    """m = 1 comparison against the half-plane boundary operator.

    The boundary operator's eigenvalue (p+1)p^(n-2) - 2/p, corrected by
    the finite-volume term and scaled by c_p, must reproduce
    (p-1)p^(n-1) exactly.
    """
    if ctx.m != 1:
        raise ValueError("boundary-operator comparison is defined for m = 1 only")
    p = ctx.p
    cp = c_p_const(p)
    out = []
    for n in range(1, n_max + 1):
        lam_prime = Fraction(p + 1) * Fraction(p) ** (n - 2) - Fraction(2, p)
        lhs = cp * (lam_prime + Fraction(2, p - 1) * Fraction(p - 1, p))
        rhs = Fraction((p - 1) * p ** (n - 1))
        out.append((n, lhs, rhs))
    return out


class ScalingDimension(Record):
    """The two real roots of the mass relation, delta_plus + delta_minus = 1."""

    __slots__ = _fields = ("delta_plus", "delta_minus", "mass_squared")
    delta_plus: float
    delta_minus: float
    mass_squared: float

    def __init__(self, delta_plus: float, delta_minus: float, mass_squared: float) -> None:
        if abs(delta_plus + delta_minus - 1.0) > 1e-9:
            raise ValueError("scaling dimensions must sum to 1")
        self._bind(delta_plus, delta_minus, mass_squared)


def mass_from_delta(delta: float, ctx: PrimeParams) -> float:
    """Bulk mass squared: p^(1-delta) + p^delta - p - 1."""
    p = ctx.p
    return float(p) ** (1 - delta) + float(p) ** delta - p - 1


def real_dimension_threshold(ctx: PrimeParams) -> float:
    """Smallest mass squared with real dimensions: 2 sqrt(p) - p - 1."""
    return 2 * math.sqrt(ctx.p) - ctx.p - 1


def delta_from_mass(msq: float, ctx: PrimeParams) -> ScalingDimension:
    """Solve t + p/t = msq + p + 1 for t = p^delta; the two roots give
    delta_plus >= 1/2 >= delta_minus."""
    p = ctx.p
    if msq < real_dimension_threshold(ctx) - 1e-12:
        raise ValueError(
            "mass squared below 2 sqrt(p) - p - 1: complex-dimension regime"
        )
    b = msq + p + 1
    disc = max(b * b - 4 * p, 0.0)
    t_plus = (b + math.sqrt(disc)) / 2
    t_minus = p / t_plus
    lp = math.log(p)
    delta_plus = math.log(t_plus) / lp
    delta_minus = math.log(t_minus) / lp
    for d in (delta_plus, delta_minus):
        if abs(mass_from_delta(d, ctx) - msq) > 1e-12 * (1 + abs(msq)):
            raise ArithmeticError("dimension does not reproduce the mass relation")
    return ScalingDimension(delta_plus, delta_minus, msq)


def limit_finite_part(x1: TatePoint, x2: TatePoint, ctx: PrimeParams) -> float:
    """The explicit four-term finite part of the small-dimension expansion,
    assembled literally from the logarithms of the norms."""
    p, m = ctx.p, ctx.m
    v1, v2, vd = _pair_valuations(x1, x2)
    lp = math.log(p)
    log_n1 = -v1 * lp
    log_n2 = -v2 * lp
    log_nd = -vd * lp
    inner = (
        -log_nd / lp
        + (log_n1 + log_n2) / (2 * lp)
        + (log_n1 - log_n2) ** 2 / (2 * m * lp * lp)
        + m / 12
    )
    return 2 * lp * inner


def radial_det_contribution(ctx: PrimeParams) -> Fraction:
    """exp(-zeta'(0)) resummed over the radial tower: (p/(p-1))^m exactly,
    as the determinant's radial factor."""
    return det_factors(ctx)[2]


def det_D(ctx: PrimeParams) -> Fraction:
    """m^2 (1 - 1/p) / (1 - p^(-m))^2; equals angular x radial exactly."""
    return det_factors(ctx)[0]


def prolong_values(coarse: ShellPartition, fine: ShellPartition, values) -> tuple:
    """Embed a coarse step vector into a finer partition, value by ball."""
    if len(values) != len(coarse.balls):
        raise ValueError("vector length does not match the coarse partition")
    return tuple(values[coarse.find_index(b.center_point())] for b in fine.balls)


def galerkin_consistency_check(mx: OperatorMatrix, f: StepFunction) -> bool:
    """Matrix action against the direct operator action at every center."""
    if f.partition.balls != mx.basis:
        raise ValueError("step function does not live on the matrix basis")
    product = mx.apply(f.values)
    return all(
        product[i] == apply_D_step(f, b.center_point())
        for i, b in enumerate(mx.basis)
    )


class _DenseOperatorMatrix:
    """The basis balls, the dense exact matrix and product, set on
    OperatorMatrix below."""

    @property
    def basis(self) -> tuple[Ball, ...]:
        """The basis balls, built from the shells and the unit residues."""
        return tuple(
            Ball(self.ctx, v, self.level, c) for v in range(self.ctx.m) for c in self.units
        )

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense exact matrix, one value per entry."""
        return tuple(tuple(map(self.values.__getitem__, row)) for row in self.index.tolist())

    def apply(self, values) -> tuple:
        """Exact matrix-vector product on one value per basis ball."""
        if len(values) != self.dimension:
            raise ValueError("vector length does not match the basis")
        return tuple(
            sum(entry * val for entry, val in zip(row, values))
            for row in self.entries
        )


class _Ball:
    """The children and the label of a ball, set on Ball below."""

    def children(self) -> tuple[Ball, ...]:
        pk = self.ctx.p**self.k
        return tuple(
            Ball(self.ctx, self.v, self.k + 1, self.center + t * pk)
            for t in range(self.ctx.p)
        )

    def label(self) -> str:
        return f"v{self.v}.k{self.k}.c{self.center}"


class _TatePoint:
    """The norm of a point, set on TatePoint below."""

    def norm(self) -> Fraction:
        return norm_from_valuation(self.v, self.ctx.p)


class _UnitCharacter:
    """A radial character's value at one unit, set on UnitCharacter below."""

    def exponent(self, u) -> Fraction:
        """Fraction of a turn: the character value is e^(2 pi i exponent)."""
        if self.n == 0:
            return Fraction(0)
        log = unit_log(self.p, self.n, canonical_center(u, self.n, self.p))
        return Fraction(self.turns(log), unit_group_order(self.p, self.n)) % 1

    def value(self, u):
        return root_of_unity(self.exponent(u))


OperatorMatrix.basis = _DenseOperatorMatrix.basis
OperatorMatrix.entries = _DenseOperatorMatrix.entries
OperatorMatrix.apply = _DenseOperatorMatrix.apply
Ball.children = _Ball.children
Ball.label = _Ball.label
TatePoint.norm = _TatePoint.norm
UnitCharacter.exponent = _UnitCharacter.exponent
UnitCharacter.value = _UnitCharacter.value
