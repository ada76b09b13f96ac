"""Characters, eigenvalues, spectrum enumeration, Weyl count, DtN identity."""

import cmath
import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tateop import angular, cli, determinant, spectral
from tateop.padic import PrimeParams
from tateop.spectral import (
    OutOfRegimeError,
    SpectrumEntry,
    UnitCharacter,
    angular_eigenvalues,
    eigenvalue_angular,
    eigenvalue_angular_sum,
    eigenvalue_radial_closed,
    eigenvalue_radial_exact,
    eigenvalue_radial_integral,
    enumerate_conductor,
    enumerate_spectrum,
    multiplicity,
    primitive_character,
    primitive_root,
    root_table,
    spectral_gap,
    unit_group_order,
    weyl_count,
)

from oracles import character_value, dtn_cross_check, root_of_unity


def test_root_of_unity_exact_on_axes():
    assert root_of_unity(Fraction(0)) == 1
    assert root_of_unity(Fraction(1, 2)) == -1
    assert root_of_unity(Fraction(1, 4)) == 1j
    assert root_of_unity(Fraction(3, 4)) == -1j
    z = root_of_unity(Fraction(1, 3))
    assert abs(z - cmath.exp(2j * cmath.pi / 3)) < 1e-15


def test_primitive_root_oracles():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    g = primitive_root(11)
    assert pow(g, 10, 11) == 1 and all(pow(g, k, 11) != 1 for k in range(1, 10))
    # lifted generator stays primitive mod p^2
    for p in (3, 5, 7, 11, 13):
        assert pow(primitive_root(p), p - 1, p * p) != 1


def test_trivial_character():
    chi = UnitCharacter.trivial(3)
    assert chi.n == 0 and chi.conductor == 0
    assert chi.value(2) == 1 and chi.is_trivial


def test_unit_character_values():
    chi = UnitCharacter(5, 1, a=1)
    # 2 generates (Z/5)^x; its image is a primitive 4th root of unity.
    assert chi.value(2) == 1j
    assert chi.value(4) == -1
    assert chi.value(3) == -1j
    assert chi.value(1) == 1


def test_character_imprimitive_data_has_smaller_conductor():
    chi = UnitCharacter(3, 2, a=3)
    assert chi.value(4) == 1
    assert chi.conductor == 1


def test_two_adic_characters():
    with pytest.raises(ValueError):
        UnitCharacter(2, 1)
    sign = UnitCharacter(2, 2, eps=1)
    assert sign.value(3) == -1 and sign.value(1) == 1
    assert sign.conductor == 2
    chi8 = UnitCharacter(2, 3, a=1)
    assert chi8.value(3) == -1
    assert chi8.conductor == 3


def test_enumerate_conductor_counts_frozen():
    expected = {
        (3, 1): 1,
        (3, 2): 4,
        (3, 3): 12,
        (2, 1): 0,
        (2, 2): 1,
        (2, 3): 2,
        (2, 4): 4,
        (2, 5): 8,
        (5, 1): 3,
        (5, 2): 16,
        (7, 1): 5,
    }
    for (p, n), count in expected.items():
        chars = enumerate_conductor(p, n)
        assert len(chars) == count
        assert all(c.conductor == n for c in chars)


@given(
    st.sampled_from([(3, 2), (5, 1), (5, 2), (7, 1), (2, 3), (2, 4)]),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
def test_characters_multiplicative_unimodular(cfg, u, w):
    p, n = cfg
    if u % p == 0 or w % p == 0:
        return
    for chi in enumerate_conductor(p, n)[:3]:
        zu, zw, zuw = chi.value(u), chi.value(w), chi.value(u * w)
        assert abs(zu * zw - zuw) < 1e-12
        assert abs(abs(zu) - 1) < 1e-15
        assert abs(character_value(chi, u) - zu) == 0


def test_radial_closed_form():
    assert [eigenvalue_radial_closed(n, PrimeParams(3, 2)) for n in (1, 2, 3)] == [2, 6, 18]
    assert eigenvalue_radial_closed(4, PrimeParams(2, 1)) == 8


def test_radial_integral_matches_closed_form():
    for p, m in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        ctx = PrimeParams(p, m)
        for n in range(1, 4):
            lam = eigenvalue_radial_closed(n, ctx)
            for chi in enumerate_conductor(p, n):
                for ell in range(m):
                    got = eigenvalue_radial_integral(chi, ell, ctx)
                    assert abs(got - lam) < 1e-10


def test_radial_integral_rejects_trivial():
    with pytest.raises(ValueError):
        eigenvalue_radial_integral(UnitCharacter.trivial(3), 0, PrimeParams(3, 2))


def test_angular_eigenvalue_oracles():
    assert eigenvalue_angular(1, PrimeParams(3, 2)) == Fraction(3, 2)
    assert eigenvalue_angular(2, PrimeParams(2, 4)) == Fraction(8, 9)
    assert eigenvalue_angular(1, PrimeParams(2, 4)) == Fraction(4, 5)
    assert eigenvalue_angular(3, PrimeParams(2, 6)) == Fraction(8, 9)
    got = eigenvalue_angular(1, PrimeParams(3, 5))
    assert got == pytest.approx(1.0179106138016738, abs=1e-12)


def test_angular_eigenvalue_matches_defining_sum():
    for m in range(2, 13):
        for p in (2, 3):
            ctx = PrimeParams(p, m)
            for ell in range(1, m // 2 + 1):
                closed = float(eigenvalue_angular(ell, ctx))
                assert abs(closed - eigenvalue_angular_sum(ell, ctx).real) < 1e-10


def test_angular_eigenvalues_increase_to_midpoint():
    # 2cos falls monotonically on [0, pi], and the closed form is
    # decreasing in it, so the branch up to m/2 is increasing.
    for p, m in [(2, 7), (3, 9), (5, 12)]:
        ctx = PrimeParams(p, m)
        vals = [eigenvalue_angular(ell, ctx) for ell in range(1, m // 2 + 1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0 < v < p - 1 + 1e-12 for v in map(float, vals))


def test_multiplicity_oracles():
    ctx = PrimeParams(3, 2)
    assert multiplicity("angular", 1, ctx) == 1  # 2l = 0 mod m: self-paired
    assert multiplicity("angular", 1, PrimeParams(3, 5)) == 2
    assert multiplicity("radial", 1, ctx) == 2
    assert multiplicity("radial", 2, ctx) == 8
    assert multiplicity("radial", 1, PrimeParams(2, 1)) == 0  # no conductor-1 characters


def test_enumerate_spectrum_count_identity():
    for p, m, n_max in [(3, 2, 2), (2, 1, 3), (2, 3, 2), (5, 1, 2), (5, 4, 3)]:
        ctx = PrimeParams(p, m)
        entries = enumerate_spectrum(n_max, ctx)
        total = sum(e.multiplicity for e in entries)
        assert total == m * (p - 1) * p ** (n_max - 1)
        assert sum(1 for e in entries if e.kind == "zero") == 1
        assert all(e.multiplicity > 0 for e in entries)


def test_spectrum_entry_json_shape():
    ctx = PrimeParams(3, 2)
    entries = enumerate_spectrum(2, ctx)
    dicts = [e.to_json_dict() for e in entries]
    assert {"kind": "radial", "n": 2, "lambda": Fraction(6), "mult": 8} in dicts
    assert {"kind": "angular", "l": 1, "lambda": Fraction(3, 2), "mult": 1} in dicts
    zero = next(d for d in dicts if d["kind"] == "zero")
    assert zero["lambda"] == 0 and zero["mult"] == 1 and "n" not in zero


def test_spectral_gap_oracles():
    def gap(p, m):
        return spectral_gap(PrimeParams(p, m))

    assert gap(3, 2) == Fraction(3, 2)
    assert gap(2, 1) == 1
    assert gap(3, 1) == 2
    assert gap(2, 4) == Fraction(4, 5)
    for p, m in [(2, 2), (3, 3), (5, 6)]:
        assert gap(p, m) < p - 1


def test_weyl_count_matches_enumeration():
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            ctx = PrimeParams(p, m)
            for big_m in range(2, 6):
                lam = eigenvalue_radial_closed(big_m, ctx)
                entries = enumerate_spectrum(big_m, ctx)
                count = weyl_count(lam, ctx)
                assert count == m * lam
                assert count == sum(e.multiplicity for e in entries)


def test_weyl_count_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        weyl_count(Fraction(1, 2), PrimeParams(3, 2))
    with pytest.raises(OutOfRegimeError):
        weyl_count(0, PrimeParams(5, 1))


def test_dtn_cross_check_exact():
    for p in (2, 3, 5, 7):
        rows = dtn_cross_check(PrimeParams(p, 1), n_max=6)
        assert [n for n, _, _ in rows] == list(range(1, 7))
        for n, lhs, rhs in rows:
            assert lhs == rhs == (p - 1) * p ** (n - 1)


def test_dtn_cross_check_requires_unit_period():
    with pytest.raises(ValueError):
        dtn_cross_check(PrimeParams(3, 2))


# --- Oracles for the closed-form conductor indices -------------------------


def _level_generators(p, n, f):
    """Generators of the subgroup (1 + p^f Z_p) inside (Z/p^n)^x; f = 0
    means the whole unit group."""
    if n == 0:
        return ()
    if f == 0 or (p == 2 and f == 1):
        if p != 2:
            return (primitive_root(p) % p**n,)
        return (3,) if n == 2 else (2**n - 1, 3)
    return (1 + p**f,)


def _conductor_by_evaluation(chi):
    """The smallest f with chi trivial on the generators of 1 + p^f Z_p."""
    for f in range(chi.n + 1):
        if all(chi.exponent(g) == 0 for g in _level_generators(chi.p, chi.n, f)):
            return f
    return chi.n


def _all_characters(p, n):
    """Every character data (a, eps) at level n, eps-major for p = 2."""
    if n == 0:
        return [UnitCharacter.trivial(p)]
    if p == 2:
        if n == 2:
            return [UnitCharacter(2, 2, 0, eps) for eps in (0, 1)]
        return [UnitCharacter(2, n, a, eps) for eps in (0, 1) for a in range(2 ** (n - 2))]
    return [UnitCharacter(p, n, a) for a in range(unit_group_order(p, n))]


ORACLE_LEVELS = (
    [(p, n) for p in (3, 5, 7) for n in range(5)]
    + [(11, n) for n in range(4)]
    + [(2, n) for n in (0, *range(2, 12))]
)


def test_conductor_index_rule_matches_evaluation():
    checked = 0
    for p, n in ORACLE_LEVELS:
        for chi in _all_characters(p, n):
            assert chi.conductor == _conductor_by_evaluation(chi), chi
            checked += 1
    assert checked == 6485


def test_enumerate_conductor_matches_the_evaluation_filter_in_order():
    for p, n in ORACLE_LEVELS:
        if n == 0:
            continue
        old = tuple(chi for chi in _all_characters(p, n) if _conductor_by_evaluation(chi) == n)
        assert enumerate_conductor(p, n) == old, (p, n)
        first = old[0] if old else None
        assert primitive_character(p, n) == first, (p, n)


def test_primitive_character_has_its_conductor_at_large_levels():
    for p, n in [(2, 40), (2, 3), (3, 25), (5, 12), (13, 6)]:
        chi = primitive_character(p, n)
        assert chi.conductor == n
    assert primitive_character(2, 1) is None
    assert len(enumerate_conductor(2, 16)) == 2**14


def _radial_oracle_characters():
    """Primitive and imprimitive characters of level n <= 5 with p^n small
    enough for the float integral."""
    for p, n_max in [(2, 5), (3, 5), (5, 3), (7, 3)]:
        for n in range(1, n_max + 1):
            if p == 2 and n == 1:
                continue
            chars = [chi for chi in _all_characters(p, n) if not chi.is_trivial]
            yield from chars[:: max(1, len(chars) // 10)]


def test_exact_radial_identity_matches_the_float_integral():
    chars = list(_radial_oracle_characters())
    assert len(chars) >= 120
    assert any(chi.conductor < chi.n for chi in chars)
    for chi in chars:
        for m in (1, 2, 3):
            ctx = PrimeParams(chi.p, m)
            exact = eigenvalue_radial_exact(chi, ctx)
            assert exact == eigenvalue_radial_closed(chi.conductor, ctx)
            for ell in range(m):
                got = eigenvalue_radial_integral(chi, ell, ctx)
                assert abs(got - complex(float(exact))) < 1e-10, (chi, m, ell)


def test_exact_radial_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalue_radial_exact(UnitCharacter.trivial(3), PrimeParams(3, 2))
    with pytest.raises(ValueError):
        eigenvalue_radial_exact(UnitCharacter(5, 1, 1), PrimeParams(3, 2))


def test_one_pass_angular_sums_match_the_single_sums():
    for p, m in [(2, 1), (2, 7), (3, 12), (5, 9), (7, 30)]:
        ctx = PrimeParams(p, m)
        ls = list(range(-1, m + 2))
        lams = angular_eigenvalues(ls, ctx)
        assert lams == [eigenvalue_angular(ell, ctx) for ell in ls]
        for ell, lam in zip(ls, lams):
            assert abs(complex(lam) - eigenvalue_angular_sum(ell, ctx)) < 1e-10


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_a_wrong_angular_closed_form_raises_from_the_guard(monkeypatch):
    # The certificate reads the closed form's coefficients, as the float
    # and the exact eigenvalues do, so one wrong coefficient fails it.
    coefficients = angular._closed_coefficients

    def wrong(p):
        a, b, c = coefficients(p)
        return a, b + 1, c

    monkeypatch.setattr(angular, "_closed_coefficients", wrong)
    angular.angular_circulant_check.cache_clear()
    ctx = PrimeParams(3, 7)
    with pytest.raises(ArithmeticError, match="angular circulant"):
        angular_eigenvalues(range(1, 7), ctx)
    with pytest.raises(ArithmeticError):
        determinant.angular_determinant(ctx)
    with pytest.raises(ArithmeticError):
        enumerate_spectrum(2, ctx)
    assert _cli(["det", "--p", "3", "--m", "7"])[0] == 1


def test_a_wrong_radial_closed_form_fails_the_exact_check(monkeypatch):
    # 2^13 is past the float integral's modulus cap, so only the exact
    # identity sees conductor 13; the Weyl check reads conductor 14.
    code, out = _cli(["spectrum", "--p", "2", "--m", "1", "--max-conductor", "14"])
    assert code == 0
    # One side of the identity is made wrong at conductor 13: the exact sum,
    # which `spectrum` alone reads, so the printed entries stay as they are.
    exact = spectral.eigenvalue_radial_exact

    def wrong(chi, ctx):
        return exact(chi, ctx) + (1 if chi.conductor == 13 else 0)

    monkeypatch.setattr(spectral, "eigenvalue_radial_exact", wrong)
    code, out_wrong = _cli(["spectrum", "--p", "2", "--m", "1", "--max-conductor", "14"])
    assert code == 1
    assert out_wrong == out.replace('"all_pass": true', '"all_pass": false')


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 6, 8, 12, 15, 100, 1458, 2048, 2058, 2187, 2500, 4096, 4999, 5000]
)
def test_root_table_has_the_bits_of_root_of_unity(n):
    table = root_table(n)
    assert len(table) == n
    for j, z in enumerate(table):
        assert repr(z) == repr(complex(root_of_unity(Fraction(j, n)))), (j, n)


def test_spectrum_runs_one_angular_pass():
    check = angular.angular_circulant_check
    for p, m, n in [(3, 2, 2), (2, 7, 4), (5, 12, 3), (2, 1, 3)]:
        check.cache_clear()
        code, _ = _cli(["spectrum", "--p", str(p), "--m", str(m), "--max-conductor", str(n)])
        assert code == 0
        assert check.cache_info().misses == 1


@pytest.mark.parametrize(
    "p,bumped_m", [(p, None) for p in (2, 3, 5, 7, 11, 101)] + [(3, m) for m in (2, 5, 9)]
)
def test_angular_circulant_holds_and_sees_a_bumped_weight(skew_coupling, p, bumped_m):
    # The identity holds on the grid m = 1..59; adding 1 to any one shell
    # weight w_v breaks it.
    check = angular.angular_circulant_check
    check.cache_clear()
    if bumped_m is None:
        for m in range(1, 60):
            check(p, m)
        return
    for v in range(1, bumped_m):
        skew_coupling(p, bumped_m, v)
        with pytest.raises(ArithmeticError, match="angular circulant"):
            check(p, bumped_m)
