"""Multiplicative characters of the domain and the operator's spectrum.

Radial characters (characters of the unit group mod p^n) are realized
through discrete-log tables, angular characters are characters of Z/mZ
acting on the valuation (their eigenvalues are in ``angular``).
Eigenvalues come in a closed form per conductor and are cross-checked
against the defining integrals; multiplicities and the enumerated
spectrum, the zero mode first, live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .angular import angular_square_sum, angular_trace, eigenvalue_angular, root_table
from .padic import (
    PrimeParams,
    Record,
    c_p_const,
    coupling_weights,
    int_valuation,
    is_prime,
)

# The float integrals are checked while p^n is at most the cap.  They met
# their closed forms within a relative 2.7e-15 over 305 (p, m, n), p < 72,
# m <= 8, p^n under the cap: as the eigenvalue grows to about 5000 the error
# grows to 1e-11, so the bound is relative.
INTEGRAL_CHECK_MODULUS_CAP = 5000
INTEGRAL_CHECK_REL_TOLERANCE = 1e-12
# The angular power sums met the circulant's trace and Parseval sum within a
# relative 2.0e-16 over 15 (p, m), --m at its cap at p = 2 and 999983 included.
CIRCULANT_REL_TOLERANCE = 1e-12


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p, adjusted to generate mod
    every p^n; p = 2, whose units are not cyclic, raises ArithmeticError.

    If g^(p-1) = 1 mod p^2 the lift g + p is returned; such a generator
    of (Z/p)^x generates (Z/p^n)^x for all n.
    """
    factors = []
    r = p - 1
    d = 2
    while d * d <= r:
        if r % d == 0:
            factors.append(d)
            while r % d == 0:
                r //= d
        d += 1
    if r > 1:
        factors.append(r)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            if pow(g, p - 1, p * p) == 1:
                g += p
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")


def unit_group_order(p: int, n: int) -> int:
    """|(Z/p^n)^x| = (p - 1) p^(n - 1); 1 at n = 0."""
    return 1 if n == 0 else (p - 1) * p ** (n - 1)


@lru_cache(maxsize=None)
def _unit_dlog_table(p: int, n: int) -> dict:
    """u -> t with g^t = u mod p^n, over all units u; odd p only."""
    mod = p**n
    g = primitive_root(p)
    phi = unit_group_order(p, n)
    table: dict[int, int] = {}
    cur = 1
    for t in range(phi):
        table[cur] = t
        cur = cur * g % mod
    if len(table) != phi or cur != 1:
        raise ArithmeticError(f"{g} does not generate the units mod {mod}")
    return table


@lru_cache(maxsize=None)
def _two_adic_table(n: int) -> dict:
    """u -> (s, t) with u = (-1)^s 3^t mod 2^n, for n >= 2.  At n = 2 the
    group is {1, 3} = {1, -1}: t is 0 and s is the sign bit of u mod 4."""
    mod = 2**n
    table: dict[int, tuple[int, int]] = {}
    cur = 1
    for t in range(2 ** (n - 2)):
        table[cur] = (0, t)
        table[mod - cur] = (1, t)
        cur = cur * 3 % mod
    if len(table) != 2 ** (n - 1):
        raise ArithmeticError(f"-1 and 3 do not generate the units mod {mod}")
    return table


def unit_log(p: int, n: int, u: int):
    """Discrete log of a unit residue 0 < u < p^n (n >= 1; n >= 2 for
    p = 2): t with g^t = u for odd p, (s, t) with u = (-1)^s 3^t for p = 2."""
    return (_two_adic_table(n) if p == 2 else _unit_dlog_table(p, n))[u]


class UnitCharacter(Record):
    """Character of the unit group mod p^n.

    n is the level of the defining data; n = 0 is the trivial character.
    For odd p the index a is an exponent relative to a fixed primitive
    root; for p = 2 the pair (eps, a) refers to the generators (-1, 3),
    with a taken mod 2^(n-2), so n = 2 carries only the sign bit eps.
    The stored data may be imprimitive: the true conductor follows from
    the indices (see :func:`_conductor_of`) and may be smaller than n.
    """

    __slots__ = _fields = ("p", "n", "a", "eps")
    p: int
    n: int
    a: int
    eps: int

    def __init__(self, p: int, n: int, a: int = 0, eps: int = 0) -> None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 0:
            raise ValueError("level must be >= 0")
        if p == 2 and n == 1:
            raise ValueError("the unit group mod 2 is trivial; use level 0 or >= 2")
        if n == 0:
            a, eps = 0, 0
        elif p == 2:
            eps %= 2
            a %= 2 ** (n - 2)
        else:
            eps = 0
            a %= unit_group_order(p, n)
        self._bind(p, n, a, eps)

    def turns(self, log):
        """Numerator of the exponent over unit_group_order(p, n) at a unit
        with discrete log ``log`` mod p^n (see :func:`unit_log`): a t, or
        for p = 2, eps s 2^(n-2) + 2 a t.

        Also takes integer arrays of logs, shaped (2, N) for the (s, t)
        pairs of p = 2, and then returns an array.
        """
        if self.n == 0:
            return 0
        if self.p != 2:
            return self.a * log
        s, t = log
        return self.eps * s * 2 ** (self.n - 2) + 2 * self.a * t

    @property
    def conductor(self) -> int:
        return _conductor_of(self)

    @property
    def is_trivial(self) -> bool:
        return self.conductor == 0


@lru_cache(maxsize=None)
def _conductor_of(chi: UnitCharacter) -> int:
    """Smallest f with chi trivial on 1 + p^f Z_p, read off the indices.

    For odd p, 1 + p^f Z_p is generated by g^((p-1) p^(f-1)), so chi = g^a
    dies on it exactly when p^(n-f) divides a.  For p = 2 the index a of the
    generator 3 plays that part from f = 3 on; below it the generators
    interact (5 = -3 mod 8), so that a = 2^(n-3) with the sign bit set is
    trivial on 1 + 4 Z_2 and has conductor 2, while the sign character
    (a = 0, eps = 1), the mod-4 one at n = 2, has conductor 3 from n = 3 on.
    """
    p, n, a, eps = chi.p, chi.n, chi.a, chi.eps
    if p != 2:
        return 0 if a == 0 else max(1, n - int_valuation(a, p))
    if a == 0:
        return min(n, 3) if eps else 0
    f = n - int_valuation(a, 2)
    return 2 if f == 3 and eps else f


def _level_characters(p: int, n: int):
    """Every character of level n >= 1, index a ascending, eps-major for
    p = 2; none at p = 2, n = 1, where the unit group is trivial."""
    if p != 2:
        return (UnitCharacter(p, n, a) for a in range(unit_group_order(p, n)))
    return (UnitCharacter(2, n, a, eps) for eps in (0, 1) for a in range(2**n // 4))


def enumerate_conductor(p: int, n: int) -> tuple[UnitCharacter, ...]:
    """The level-n characters whose conductor is n >= 0, in :func:`_level_characters` order."""
    if n == 0:
        return (UnitCharacter(p, 0),)
    return tuple(chi for chi in _level_characters(p, n) if chi.conductor == n)


def primitive_character(p: int, n: int) -> UnitCharacter | None:
    """The first character of :func:`enumerate_conductor` (p, n), n >= 1,
    built without the rest of the level; None at p = 2, n = 1."""
    return next((chi for chi in _level_characters(p, n) if chi.conductor == n), None)


def eigenvalue_radial_closed(n: int, ctx: PrimeParams) -> Fraction:
    """|(Z/p^n)^x| = (p - 1) p^(n - 1) for conductor n >= 1; independent of m."""
    return Fraction(unit_group_order(ctx.p, n))


@lru_cache(maxsize=None)
def _float_couplings(p: int, m: int) -> tuple[float, ...]:
    """The shell couplings w_v / (q - 1), v = 1..m-1, as floats, once per
    (p, m): an int true division is correctly rounded, so each has its
    Fraction's bits."""
    q1 = p**m - 1
    return tuple(w / q1 for w in coupling_weights(p, m))


def eigenvalue_radial_integral(chi: UnitCharacter, l: int, ctx: PrimeParams) -> complex:
    """Defining integral of the eigenvalue at a nontrivial radial character
    of ctx's prime and the angular character v -> e^(2 pi i l v / m).

    Expands -c_p * int H(z,1) (pi(z) - 1) d*z over level-N balls,
    N = level of chi: a singular-term sum over unit residues plus the
    finite-volume corrections, shell by shell.  The unit-average of the
    character (exactly zero) is kept in the formula, which is what makes
    the result visibly independent of the angular part.
    """
    if chi.is_trivial:
        raise ValueError("trivial radial character: use eigenvalue_angular")
    p, m, n = ctx.p, ctx.m, chi.n
    p_n = p**n
    phi = unit_group_order(p, n)
    # chi(u) = e^(2 pi i j / phi), j = chi.turns(log u) mod phi: one table of
    # the phi roots, indexed through the discrete logs.
    roots = root_table(phi)
    mu_units = complex(Fraction(p - 1, p))
    s_main = 0j
    s_hat = 0j
    for u in range(1, p_n):
        if u % p == 0:
            continue
        val = roots[chi.turns(unit_log(p, n, u)) % phi]
        s_hat += val / p_n
        if u != 1:
            s_main += p ** (2 * int_valuation(u - 1, p)) * (1 - val) / p_n
    total = s_main + Fraction(2, p**m - 1) * (mu_units - s_hat)
    # The angular character at v is the (l v mod m)-th of the m roots.
    angular = root_table(m)
    for v, coupling in enumerate(_float_couplings(p, m), 1):
        total += complex(coupling) * (mu_units - angular[l * v % m] * s_hat)
    return complex(c_p_const(p)) * total


def eigenvalue_radial_exact(n: int, ctx: PrimeParams) -> Fraction:
    """The defining sum of :func:`eigenvalue_radial_integral` at a character
    of conductor n >= 1, exactly, in O(n) integer steps.

    By orthogonality on U_t = 1 + p^t Z_p (U_0 the whole unit group), the
    character sums to |U_t| over U_t mod p^n when t >= n, and to 0 below
    it.  So the unit average is 0, the angular part drops out, and the
    singular sum collects p^(2t) (a_t - a_(t+1)) / p^n over the layers
    v(u - 1) = t < n, where a_t = sum over U_t of (1 - chi(u)) is |U_t|
    for t < n and 0 at t = n.
    """
    if n < 1:
        raise ValueError("radial eigenvalues require conductor >= 1")
    p = ctx.p
    # Horner's rule in p^2 from the top layer t = n - 1 down, on the integers
    # a_t = p^(n-t) for 0 < t < n; a_n = 0 and a_0 = |(Z/p^n)^x|.
    layers, above, a = 0, 0, p
    for _ in range(n - 1):
        layers = layers * p * p + a - above
        above, a = a, a * p
    layers = layers * p * p + unit_group_order(p, n) - above
    # The weight of the unit measure in the defining sums: 2/(q - 1) plus the
    # couplings to the other m - 1 shells, whose sum 2 (q - p)/(p - 1) is
    # ``coupling_total`` (the angular circulant check proves it against the
    # weights), so 2 (q - 1)/((p - 1)(q - 1)) = 2/(p - 1), whatever m is.
    # Times the unit measure (p - 1)/p it adds 2/p = 2 p^(n-1) / p^n.
    return c_p_const(p) * Fraction(layers + 2 * p ** (n - 1), p**n)


def eigenvalue_angular_sum(l: int, ctx: PrimeParams) -> complex:
    """Defining sum for one angular eigenvalue, shell by shell, in floats."""
    p, m = ctx.p, ctx.m
    mu_units = complex(Fraction(p - 1, p))
    roots = root_table(m)
    total = 0j
    for v, coupling in enumerate(_float_couplings(p, m), 1):
        total += complex(coupling) * (roots[l * v % m] - 1) * mu_units
    return -complex(c_p_const(p)) * total


def multiplicity(kind: str, index: int, ctx: PrimeParams) -> int:
    """Eigenvalue multiplicities: conjugate angular pairs at 0 < l < m, and
    m times the conductor-n characters, |(Z/p^n)^x| - |(Z/p^(n-1))^x|, at
    radial n >= 1."""
    p, m = ctx.p, ctx.m
    if kind == "radial":
        return m * (unit_group_order(p, index) - unit_group_order(p, index - 1))
    return 1 if (2 * index) % m == 0 else 2


class SpectrumEntry(Record):
    """One eigenvalue with its multiplicity and its character label data."""

    __slots__ = _fields = ("kind", "index", "eigenvalue", "multiplicity")
    kind: str
    index: int
    eigenvalue: object
    multiplicity: int

    def __init__(self, kind, index, eigenvalue, multiplicity) -> None:
        self._bind(kind, index, eigenvalue, multiplicity)

    def to_json_dict(self) -> dict:
        """The entry's fields under their report keys; the eigenvalue is
        left for the report's formatter."""
        out: dict = {"kind": self.kind}
        if self.kind == "radial":
            out["n"] = self.index
        elif self.kind == "angular":
            out["l"] = self.index
        out["lambda"] = self.eigenvalue
        out["mult"] = self.multiplicity
        return out


def enumerate_spectrum(max_conductor: int, ctx: PrimeParams) -> tuple[SpectrumEntry, ...]:
    """Zero mode, angular pairs, and radial levels up to the given conductor >= 1.

    The zero mode and the angular entries are ``eigenvalue_angular`` at
    l = 0..m/2, whose closed form one angular circulant check per (p, m)
    proves: at l = 0 it is exactly 0.  The total multiplicity is
    m (p-1) p^(N-1), the dimension of the level-N step-function space:
    ``spectrum``'s Weyl row checks it on these entries.
    """
    entries = [SpectrumEntry("zero", 0, eigenvalue_angular(0, ctx), 1)]
    for l in range(1, ctx.m // 2 + 1):
        lam = eigenvalue_angular(l, ctx)
        entries.append(SpectrumEntry("angular", l, lam, multiplicity("angular", l, ctx)))
    for n in range(1, max_conductor + 1):
        mult = multiplicity("radial", n, ctx)
        if mult == 0:
            continue
        entries.append(SpectrumEntry("radial", n, eigenvalue_radial_closed(n, ctx), mult))
    return tuple(entries)


def verify_spectrum(entries: tuple[SpectrumEntry, ...], max_conductor: int, ctx: PrimeParams) -> dict:
    """The report fields that follow ``enumerate_spectrum(max_conductor, ctx)``'s
    entries, in order: the total multiplicity, the least positive eigenvalue
    (None where only the zero mode is listed), the Weyl row, the float
    integral rows and the verdict on every check below."""
    integral_checks = []
    checks_pass = True
    for e in entries:
        if e.kind != "radial":
            continue
        n, closed = e.index, e.eigenvalue
        # The exact defining sum at every conductor; a pass adds no bytes.
        checks_pass = checks_pass and eigenvalue_radial_exact(n, ctx) == closed
        if ctx.p**n > INTEGRAL_CHECK_MODULUS_CAP:
            continue
        integral = eigenvalue_radial_integral(primitive_character(ctx.p, n), 1, ctx)
        err = abs(integral - complex(float(closed)))
        ok = err <= INTEGRAL_CHECK_REL_TOLERANCE * float(closed)
        checks_pass = checks_pass and ok
        integral_checks.append(
            {"n": n, "closed": closed, "integral": integral.real, "abs_error": err, "pass": ok}
        )
    # Every entry lies at or below lam_top (an angular eigenvalue above it,
    # or an entry past max_conductor, leaves count below total), and the
    # multiplicities add up to m lam_top.
    lam_top = eigenvalue_radial_closed(max_conductor, ctx)
    count = sum(e.multiplicity for e in entries if e.eigenvalue <= lam_top)
    total = sum(e.multiplicity for e in entries)
    weyl_ok = count == total == ctx.m * lam_top
    # The angular entries sum to the circulant's trace (l = 0 adds 0), and
    # their squares to its Parseval sum, which sees a shift the trace misses.
    circulant = [(e.multiplicity, e.eigenvalue) for e in entries if e.kind == "angular"]
    circulant_ok = all(
        math.isclose(
            math.fsum(mult * lam**k for mult, lam in circulant), target, rel_tol=CIRCULANT_REL_TOLERANCE
        )
        for k, target in ((1, angular_trace(ctx)), (2, angular_square_sum(ctx)))
    )
    # One zero mode, the constants: the kernel of D is one-dimensional.
    zero_ok = [e.multiplicity for e in entries if e.eigenvalue == 0] == [1]
    return {
        "total_multiplicity": total,
        "spectral_gap": min((e.eigenvalue for e in entries if e.eigenvalue > 0), default=None),
        "weyl": {"lambda": lam_top, "count": count, "m_lambda": ctx.m * lam_top, "pass": weyl_ok},
        "integral_checks": integral_checks,
        "all_pass": checks_pass and weyl_ok and circulant_ok and zero_ok,
    }
