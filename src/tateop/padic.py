"""Exact arithmetic for rationals read p-adically, and the Tate fundamental domain.

Everything is ``fractions.Fraction`` based: valuations and the reduction
into the fundamental domain E (the union of the shells p^i Z_p^x for
0 <= i < m) are computed exactly, so the identities asserted elsewhere in
the package hold with zero tolerance.  The two number formats of every
report (exact rationals, 15-digit floats) live here too, and so do the
few functions of p, m and a point that several subcommands share: the
kernel H with its constants, and the local height.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache

Rational = int | Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality check, once per n; every prime here is desk scale."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def capped_product(head: int, p: int, n: int, cap: int) -> int:
    """head * p^n when that is at most cap, else some value over cap.

    The product is multiplied out only while it stays within the cap, so a
    huge n costs about log_p(cap / head) steps, not a p^n of n digits.
    """
    total = head
    for _ in range(n):
        if total > cap:
            break
        total *= p
    return total


def parse_rational(text: str) -> Fraction:
    """Parse a base-10 rational written as ``a`` or ``a/b``."""
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(x: Rational) -> str:
    """Serialize exactly as parsed: ``a`` for integers, ``a/b`` otherwise,
    however many digits: the int-to-str digit limit is lifted for this call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x if isinstance(x, Fraction) else Fraction(x))
    finally:
        sys.set_int_max_str_digits(limit)


def format_float(x: float) -> str:
    """The one float policy of every report: 15 significant digits."""
    return format(float(x), ".15g")


class Record:
    """Base of the package's records: an immutable value made of the slots
    named in ``_fields``.

    Equality (between records of the same class only), hashing and repr
    read the field tuple, as a frozen dataclass's do; further slots hold
    values derived from it.  Each record writes its own ``__init__``, which
    ends in one ``_bind``.  Afterwards no attribute can be assigned or
    deleted.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _bind(self, *values) -> None:
        """Set the first ``len(values)`` slots, in ``__slots__`` order; every
        constructor ends here."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor, which validates.
        return self.__class__, self._astuple()


class PrimeParams(Record):
    """Prime p and period exponent m; the curve is Q_p^* modulo powers of q = p^m."""

    __slots__ = _fields = ("p", "m")
    p: int
    m: int

    def __init__(self, p: int, m: int) -> None:
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p = {p!r} is not prime")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"m = {m!r} must be an integer >= 1")
        self._bind(p, m)

    @property
    def q(self) -> int:
        return self.p**self.m


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero undefined")
    if n % p:
        return 0
    # Strip p, p^2, p^4, ... while they divide; what is left has valuation
    # below the last square tried, and comes off those powers in reverse.
    powers = [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        powers.append(powers[-1] * powers[-1])
    v = (1 << (len(powers) - 1)) - 1
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def valuation(x: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational: v(a/b) = v(a) - v(b)."""
    frac = Fraction(x)
    if frac == 0:
        raise ValueError("valuation of zero undefined")
    return int_valuation(frac.numerator, p) - int_valuation(frac.denominator, p)


def c_p_const(p: int) -> Fraction:
    """Normalizing constant p (1 - 1/p)^2 / (1 - 1/p^2) = p (p - 1) / (p + 1)."""
    return Fraction(p * (p - 1), p + 1)


def coupling_weights(p: int, m: int):
    """w_1, ..., w_(m-1) in order, w_u = p^(m-u) + p^u: for 0 < u < m, the
    kernel between shells u apart is w_u / (q - 1).

    Each weight is formed from the last, one multiplication and one exact
    division by p, and none is kept.
    """
    low, high = p, p ** (m - 1)
    for _ in range(m - 1):
        yield high + low
        low, high = low * p, high // p


def coupling_weight(p: int, m: int, u: int) -> int:
    """w_u = p^(m-u) + p^u, one weight of ``coupling_weights``."""
    return p ** (m - u) + p**u


@lru_cache(maxsize=None)
def coupling_total(p: int, m: int) -> int:
    """w_1 + ... + w_(m-1) = 2 (p^m - p) / (p - 1): one shell's couplings to
    all the others, summed in closed form."""
    return 2 * (p**m - p) // (p - 1)


@lru_cache(maxsize=None)
def _kernel_by_valuations(p: int, m: int, vx: int, vz: int, vdiff: int) -> Fraction:
    """Kernel value as a function of the three valuations.

    Evaluates both the norm form |x||z|/|x-z|^2 + (|x/z| + |z/x|)/(q - 1)
    and its case form (equal shells: same singular term plus 2/(q - 1);
    different shells: (p^(m-u) + p^u)/(q - 1) with u the shell distance)
    and insists they agree.  The correlator passes the base p^d: at an
    integer dimension d its two-point function is this kernel.
    """
    q1 = p**m - 1
    base = Fraction(p)
    norm_form = base ** (2 * vdiff - vx - vz) + (base ** (vz - vx) + base ** (vx - vz)) / q1
    u = abs(vz - vx)
    if u == 0:
        case_form = base ** (2 * (vdiff - vx)) + Fraction(2, q1)
    else:
        if not 0 < u < m:
            raise ValueError("shell distance must lie strictly between 0 and m")
        case_form = Fraction(coupling_weight(p, m, u), q1)
    if norm_form != case_form:
        raise ArithmeticError(
            f"kernel forms disagree at p={p}, m={m}, valuations ({vx}, {vz}, {vdiff})"
        )
    return norm_form


def _pair_valuations(x1: TatePoint, x2: TatePoint) -> tuple[int, int, int]:
    """(v(x1), v(x2), v(x1 - x2)) of two distinct points of one curve."""
    if x1.ctx != x2.ctx:
        raise ValueError("mixed prime contexts")
    if x1.value == x2.value:
        raise ValueError("coincident points")
    return x1.v, x2.v, valuation(x1.value - x2.value, x1.ctx.p)


def kernel_H(z: TatePoint, x: TatePoint) -> Fraction:
    """Symmetric interaction kernel between two distinct domain points."""
    return _kernel_by_valuations(x.ctx.p, x.ctx.m, *_pair_valuations(x, z))


class TatePoint(Record):
    """Canonical representative of a curve point: nonzero rational with 0 <= v < m.

    ``v`` is the valuation of ``value``; it is computed when not given.
    Callers that pass it (reduction, ball centers, sample points) already
    know it, and it is checked by one division by p^v, where computing it
    strips powers of p one square at a time.
    """

    __slots__ = _fields = ("value", "ctx", "v")
    value: Fraction
    ctx: PrimeParams
    v: int

    def __init__(self, value: Rational, ctx: PrimeParams, v: int | None = None) -> None:
        value = Fraction(value)
        if value == 0:
            raise ValueError("zero is not a point of the multiplicative curve")
        p = ctx.p
        if v is None:
            v = valuation(value, p)
        if not 0 <= v < ctx.m:
            raise ValueError(f"representative has valuation {v}, outside [0, {ctx.m})")
        head, rest = divmod(value.numerator, p**v)
        if rest or not head % p or not value.denominator % p:
            raise ValueError(f"{value} does not have valuation {v} at p = {p}")
        self._bind(value, ctx, v)

    def unit_part(self) -> Fraction:
        """x / p^v(x), a p-adic unit."""
        return self.value / self.ctx.p**self.v


def point(x: Rational, ctx: PrimeParams) -> TatePoint:
    """Multiply by the power of q = p^m that lands the valuation in [0, m)."""
    val = Fraction(x)
    if val == 0:
        raise ValueError("zero cannot be reduced to the fundamental domain")
    v = valuation(val, ctx.p)
    shift = (v % ctx.m - v) // ctx.m
    return TatePoint(val * Fraction(ctx.q) ** shift, ctx, v % ctx.m)


def tate_mul(x: TatePoint, y: TatePoint) -> TatePoint:
    if x.ctx != y.ctx:
        raise ValueError("mixed prime contexts")
    return point(x.value * y.value, x.ctx)


def tate_inv(x: TatePoint) -> TatePoint:
    return point(1 / x.value, x.ctx)


def tate_div(x: TatePoint, y: TatePoint) -> TatePoint:
    return tate_mul(x, tate_inv(y))


def local_height(w: TatePoint) -> Fraction:
    """h(w) = v(w - 1) + v_w (v_w - m) / (2m) + m / 12, for w != 1."""
    if w.value == 1:
        raise ValueError("the height has a logarithmic singularity at the identity")
    m = w.ctx.m
    j = valuation(w.value - 1, w.ctx.p)
    return j + Fraction(w.v * (w.v - m), 2 * m) + Fraction(m, 12)
