"""Multiplicative characters of the domain and the operator's spectrum.

Radial characters (characters of the unit group mod p^n) are realized
through discrete-log tables, angular characters are characters of Z/mZ
acting on the valuation (their eigenvalues are in ``angular``).
Eigenvalues come in a closed form per conductor and are cross-checked
against the defining integrals; multiplicities, the spectral gap and the
eigenvalue counting function live here too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .angular import angular_eigenvalues, eigenvalue_angular, root_table
from .padic import (
    PrimeParams,
    Rational,
    Record,
    c_p_const,
    coupling_total,
    coupling_weights,
    int_valuation,
    is_prime,
)

DLOG_TABLE_LIMIT = 10**6


class OutOfRegimeError(ArithmeticError):
    """Raised when the eigenvalue counting formula is used below its range."""


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root mod p, adjusted to generate mod every p^n.

    If g^(p-1) = 1 mod p^2 the lift g + p is returned; such a generator
    of (Z/p)^x generates (Z/p^n)^x for all n.
    """
    if p == 2:
        return 1
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
    if mod > DLOG_TABLE_LIMIT:
        raise ValueError(f"discrete log table for modulus {mod} exceeds cap")
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
    """u -> (s, t) with u = (-1)^s 3^t mod 2^n, for n >= 3."""
    mod = 2**n
    if mod > DLOG_TABLE_LIMIT:
        raise ValueError(f"discrete log table for modulus {mod} exceeds cap")
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
    p = 2): t with g^t = u for odd p; for p = 2 the sign bit s
    (u = (-1)^s mod 4) at n = 2 and (s, t) with u = (-1)^s 3^t at n >= 3."""
    if p != 2:
        return _unit_dlog_table(p, n)[u]
    if n == 2:
        return 0 if u % 4 == 1 else 1
    return _two_adic_table(n)[u]


class UnitCharacter(Record):
    """Character of the unit group mod p^n.

    n is the level of the defining data; n = 0 is the trivial character.
    For odd p the index a is an exponent relative to a fixed primitive
    root; for p = 2 and n >= 3 the pair (eps, a) refers to the
    generators (-1, 3), while n = 2 carries only the sign bit eps.
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
            a = a % 2 ** (n - 2) if n >= 3 else 0
        else:
            eps = 0
            a %= unit_group_order(p, n)
        self._bind(p, n, a, eps)

    @classmethod
    def trivial(cls, p: int) -> "UnitCharacter":
        return cls(p, 0)

    def turns(self, log):
        """Numerator of the exponent over unit_group_order(p, n), at a unit
        whose discrete log mod p^n is ``log`` (see :func:`unit_log`).

        Also takes integer arrays of logs, shaped (2, N) for the (s, t)
        pairs of p = 2, and then returns an array.
        """
        if self.n == 0:
            return 0
        if self.p != 2:
            return self.a * log
        if self.n == 2:
            return self.eps * log
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
    trivial on 1 + 4 Z_2 and has conductor 2.
    """
    p, n, a, eps = chi.p, chi.n, chi.a, chi.eps
    if p != 2:
        return 0 if a == 0 else max(1, n - int_valuation(a, p))
    if n == 2:
        return 2 if eps else 0
    if a == 0:
        return 3 if eps else 0
    f = n - int_valuation(a, 2)
    return 2 if f == 3 and eps else f


def enumerate_conductor(p: int, n: int) -> tuple[UnitCharacter, ...]:
    """All characters of exact conductor n, with the count checked.

    The index sets of :func:`_conductor_of`, in a fixed order: for odd p
    the exponents a prime to p (at n = 1 that is 1..p-2); for p = 2 the
    sign character at n = 2, the pair (a, eps) = (1, 0), (0, 1) at n = 3
    (the generators interact there), and odd a for each sign bit from
    n = 4 on.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError("conductor must be >= 0")
    if n == 0:
        return (UnitCharacter.trivial(p),)
    if p == 2:
        if n == 1:
            chars = ()
        elif n == 2:
            chars = (UnitCharacter(2, 2, 0, 1),)
        elif n == 3:
            chars = (UnitCharacter(2, 3, 1), UnitCharacter(2, 3, 0, 1))
        else:
            chars = tuple(
                UnitCharacter(2, n, a, eps) for eps in (0, 1) for a in range(1, 2 ** (n - 2), 2)
            )
        expected = 0 if n == 1 else (1 if n == 2 else 2 ** (n - 2))
    else:
        chars = tuple(UnitCharacter(p, n, a) for a in range(1, unit_group_order(p, n)) if a % p)
        expected = p - 2 if n == 1 else (p - 1) ** 2 * p ** (n - 2)
    if len(chars) != expected:
        raise ArithmeticError(
            f"{len(chars)} characters of conductor {n} mod {p}^{n}, expected {expected}"
        )
    return chars


def primitive_character(p: int, n: int) -> UnitCharacter | None:
    """The first character of :func:`enumerate_conductor` (p, n), n >= 1,
    built alone; None where conductor n has no character (p = 2, n = 1)."""
    if p == 2 and n <= 2:
        return UnitCharacter(2, 2, 0, 1) if n == 2 else None
    return UnitCharacter(p, n, 1)


def eigenvalue_radial_closed(n: int, ctx: PrimeParams) -> Fraction:
    """(p - 1) p^(n - 1) for conductor n >= 1; independent of m."""
    if n < 1:
        raise ValueError("radial eigenvalues require conductor >= 1")
    return Fraction((ctx.p - 1) * ctx.p ** (n - 1))


def eigenvalue_radial_integral(chi: UnitCharacter, l: int, ctx: PrimeParams) -> complex:
    """Defining integral of the eigenvalue at a nontrivial radial character
    and the angular character v -> e^(2 pi i l v / m).

    Expands -c_p * int H(z,1) (pi(z) - 1) d*z over level-N balls,
    N = level of chi: a singular-term sum over unit residues plus the
    finite-volume corrections, shell by shell.  The unit-average of the
    character (exactly zero) is kept in the formula, which is what makes
    the result visibly independent of the angular part.
    """
    if chi.p != ctx.p:
        raise ValueError("character data does not match the prime context")
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
    q1 = p**m - 1
    total = s_main + Fraction(2, q1) * (mu_units - s_hat)
    # The angular character at v is the (l v mod m)-th of the m roots.  An
    # int true division is correctly rounded, so each coupling has its
    # Fraction's bits.
    angular = root_table(m)
    weights = coupling_weights(p, m)
    for v in range(1, m):
        total += complex(weights[v] / q1) * (mu_units - angular[l * v % m] * s_hat)
    return complex(c_p_const(p)) * total


def eigenvalue_radial_exact(chi: UnitCharacter, ctx: PrimeParams) -> Fraction:
    """The defining sum of :func:`eigenvalue_radial_integral`, exactly, in O(n).

    By orthogonality on U_t = 1 + p^t Z_p (U_0 the whole unit group), chi
    sums to |U_t| over U_t mod p^n when t >= its conductor f, and to 0
    below it.  So the unit average is 0, the angular part drops out, and
    the singular sum collects p^(2t) (A_t - A_(t+1)) / p^n over the layers
    v(u - 1) = t, where A_t = sum over U_t of (1 - chi(u)) is |U_t| for
    t < f and 0 from f on.
    """
    if chi.p != ctx.p:
        raise ValueError("character data does not match the prime context")
    if chi.is_trivial:
        raise ValueError("trivial radial character: use eigenvalue_angular")
    p, m, f = ctx.p, ctx.m, chi.conductor
    # A_t / p^n: |U_0| = (p - 1) p^(n-1), |U_t| = p^(n-t) for t >= 1.
    share = [Fraction(p - 1, p)] + [Fraction(1, p**t) for t in range(1, f)] + [Fraction(0)]
    s_main = sum(p ** (2 * t) * (share[t] - share[t + 1]) for t in range(f))
    # 2/(q - 1) plus the couplings to the other m - 1 shells: the weight of
    # the unit measure in the defining sums.
    unit_weight = Fraction(2 + coupling_total(p, m), p**m - 1)
    return c_p_const(p) * (s_main + Fraction(p - 1, p) * unit_weight)


def eigenvalue_angular_sum(l: int, ctx: PrimeParams) -> complex:
    """Defining sum for one angular eigenvalue, shell by shell, in floats."""
    p, m = ctx.p, ctx.m
    mu_units = complex(Fraction(p - 1, p))
    roots = root_table(m)
    q1 = p**m - 1
    weights = coupling_weights(p, m)
    total = 0j
    for v in range(1, m):
        total += complex(weights[v] / q1) * (roots[l * v % m] - 1) * mu_units
    return -complex(c_p_const(p)) * total


def multiplicity(kind: str, index: int, ctx: PrimeParams) -> int:
    """Eigenvalue multiplicities: conjugate angular pairs and the
    per-conductor radial counts."""
    p, m = ctx.p, ctx.m
    if kind == "radial":
        if index < 1:
            raise ValueError("radial multiplicity requires conductor >= 1")
        if index == 1:
            return m * (p - 2)
        return m * (p - 1) ** 2 * p ** (index - 2)
    if kind == "angular":
        l = index % m
        if l == 0:
            raise ValueError("l = 0 is the zero mode")
        return 1 if (2 * l) % m == 0 else 2
    raise ValueError(f"unknown spectrum kind {kind!r}")


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
    """Zero mode, angular pairs, and radial levels up to the given conductor.

    The angular closed forms are proved by one angular circulant check per
    (p, m).  The total multiplicity must equal m (p-1) p^(N-1), the
    dimension of the level-N step-function space; anything else raises.
    """
    if max_conductor < 1:
        raise ValueError("max conductor must be >= 1")
    p, m = ctx.p, ctx.m
    entries = [SpectrumEntry("zero", 0, Fraction(0), 1)]
    ls = range(1, m // 2 + 1)
    for l, lam in zip(ls, angular_eigenvalues(ls, ctx)):
        entries.append(SpectrumEntry("angular", l, lam, multiplicity("angular", l, ctx)))
    for n in range(1, max_conductor + 1):
        mult = multiplicity("radial", n, ctx)
        if mult == 0:
            continue
        entries.append(SpectrumEntry("radial", n, eigenvalue_radial_closed(n, ctx), mult))
    total = sum(e.multiplicity for e in entries)
    if total != m * (p - 1) * p ** (max_conductor - 1):
        raise ArithmeticError("spectrum multiplicities violate the count identity")
    return tuple(entries)


def spectral_gap(ctx: PrimeParams):
    """Smallest positive eigenvalue by the closed forms.

    For m >= 2 this is the fundamental angular eigenvalue, checked to lie
    below the radial floor p - 1; for m = 1 it is p - 1 itself.
    """
    p, m = ctx.p, ctx.m
    if m == 1:
        return Fraction(p - 1)
    gap = eigenvalue_angular(1, ctx)
    if not gap < p - 1:
        raise ArithmeticError("angular gap is not below the radial floor")
    return gap


def weyl_count(lam: Rational, ctx: PrimeParams) -> int:
    """Number of eigenvalues <= lam, counted with multiplicity.

    Valid once lam clears every angular eigenvalue, i.e. lam >= p - 1;
    then the count is m (p-1) p^(M-1) = m * lambda_M with M the largest
    radial level at or below lam.  Computed by the closed formula and by
    enumeration, which must agree.
    """
    p, m = ctx.p, ctx.m
    bound = Fraction(lam)
    if bound < p - 1:
        raise OutOfRegimeError(
            f"counting formula needs lam >= p - 1 = {p - 1}, got {bound}"
        )
    big_m = 1
    while Fraction((p - 1) * p**big_m) <= bound:
        big_m += 1
    formula = m * (p - 1) ** 2 * sum(p**i for i in range(big_m - 1)) + m * (p - 2) + m
    expected = m * (p - 1) * p ** (big_m - 1)
    enumerated = sum(
        e.multiplicity for e in enumerate_spectrum(big_m, ctx) if e.eigenvalue <= bound
    )
    if formula != expected or enumerated != expected:
        raise ArithmeticError("eigenvalue count mismatch between formula and enumeration")
    return formula
