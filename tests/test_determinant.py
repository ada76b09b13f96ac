"""Angular product, radial zeta function, and the regularized determinant."""

import math
from fractions import Fraction

import pytest

from tateop import determinant
from tateop.determinant import (
    angular_determinant,
    zeta_pi_series,
    zeta_pi_value,
    zeta_prime_at_zero,
)
from tateop.padic import PrimeParams
from tateop.spectral import angular_eigenvalues, eigenvalue_angular

from oracles import det_D, radial_det_contribution


def test_angular_determinant_oracles():
    assert angular_determinant(PrimeParams(3, 2)) == Fraction(3, 2)
    assert angular_determinant(PrimeParams(2, 1)) == 1  # empty product
    # independent oracle: the two eigenvalues at (2,3) are both 6/7
    assert angular_determinant(PrimeParams(2, 3)) == Fraction(36, 49)


def test_angular_determinant_equals_eigenvalue_product():
    # m in {2, 3, 4, 6} has rational eigenvalues: compare exactly.
    for p, m in [(2, 2), (2, 3), (3, 3), (3, 4), (5, 2), (7, 6)]:
        ctx = PrimeParams(p, m)
        prod = Fraction(1)
        for ell in range(1, m):
            prod *= Fraction(eigenvalue_angular(ell if ell <= m // 2 else m - ell, ctx))
        assert angular_determinant(ctx) == prod
    # elsewhere the cosines are irrational: float product within 1e-12
    for p, m in [(2, 5), (3, 7), (5, 9)]:
        ctx = PrimeParams(p, m)
        prod = 1.0
        for ell in range(1, m):
            prod *= float(eigenvalue_angular(ell if ell <= m // 2 else m - ell, ctx))
        assert prod == pytest.approx(float(angular_determinant(ctx)), rel=1e-12)


def test_zeta_value_oracles():
    assert zeta_pi_value(2, PrimeParams(3, 1)) == pytest.approx(5 / 12, abs=1e-15)
    assert zeta_pi_value(2, PrimeParams(3, 2)) == pytest.approx(5 / 6, abs=1e-15)
    assert zeta_pi_value(3, PrimeParams(2, 1)) == pytest.approx(1 / 6, abs=1e-15)


def test_zeta_pole_raises():
    for ctx in [PrimeParams(3, 1), PrimeParams(2, 4)]:
        with pytest.raises(ValueError):
            zeta_pi_value(1, ctx)


def test_zeta_series_matches_closed_form():
    for p in (2, 3, 5, 7):
        for m in (1, 2, 4):
            ctx = PrimeParams(p, m)
            for s in (2, 3, 4):
                assert abs(zeta_pi_series(s, ctx) - zeta_pi_value(s, ctx)) < 1e-12


def test_zeta_series_requires_convergence():
    with pytest.raises(ValueError):
        zeta_pi_series(1, PrimeParams(3, 1))


def test_zeta_dominant_term_at_large_s():
    # For p > 2 the n=1 stratum dominates as s grows.
    for p in (3, 5, 7):
        ctx = PrimeParams(p, 2)
        s = 40.0
        lead = 2 * (p - 2) * (p - 1) ** (-s)
        assert zeta_pi_value(s, ctx) / lead == pytest.approx(1.0, rel=1e-6)


def test_zeta_prime_at_zero():
    for p, m in [(2, 1), (3, 1), (3, 2), (5, 3), (7, 6)]:
        got = zeta_prime_at_zero(PrimeParams(p, m))
        assert got == pytest.approx(-m * math.log(p / (p - 1)), abs=1e-12)


def test_radial_contribution_oracles():
    assert radial_det_contribution(PrimeParams(3, 2)) == Fraction(9, 4)
    assert radial_det_contribution(PrimeParams(2, 1)) == 2
    assert radial_det_contribution(PrimeParams(5, 3)) == Fraction(125, 64)
    # (p/(p-1))^m outgrows any absolute tolerance; the bound is relative.
    assert radial_det_contribution(PrimeParams(2, 24)) == 2**24
    assert radial_det_contribution(PrimeParams(2, 100)) == 2**100
    # 2^1100 does not fit a float: the check runs in log space.
    assert radial_det_contribution(PrimeParams(2, 1100)) == 2**1100
    # The finite-difference error of zeta'(0) grows like m; its bound does too.
    assert radial_det_contribution(PrimeParams(11, 5000)) == Fraction(11, 10) ** 5000


def test_det_oracles():
    assert det_D(PrimeParams(3, 2)) == Fraction(27, 8)
    assert det_D(PrimeParams(2, 1)) == 2
    assert det_D(PrimeParams(5, 1)) == Fraction(5, 4)


def test_det_factorization_exact():
    for p in (2, 3, 5, 7):
        for m in range(1, 7):
            ctx = PrimeParams(p, m)
            assert det_D(ctx) == angular_determinant(ctx) * Fraction(p, p - 1) ** m
            closed = (
                Fraction(m * m)
                * (1 - Fraction(1, p))
                / (1 - Fraction(1, ctx.q)) ** 2
            )
            assert det_D(ctx) == closed


def test_zeta_closed_form_wrapper():
    ctx = PrimeParams(3, 1)
    assert zeta_pi_value(2, ctx) == pytest.approx(5 / 12, abs=1e-15)
    with pytest.raises(ValueError):  # the pole at s = 1
        zeta_pi_value(1, ctx)
    assert abs(zeta_pi_series(2.0, ctx) - zeta_pi_value(2, ctx)) < 1e-12


def test_angular_product_guard_past_the_float_range():
    # At p = 2 the closed form m^2 2^(m-1) / (2^m - 1)^2 is subnormal near
    # m = 1080 and 0 as a float from about m = 1085 on.
    for m in (1080, 1100):
        ctx = PrimeParams(2, m)
        assert angular_determinant(ctx) == Fraction(m * m * 2 ** (m - 1), (2**m - 1) ** 2)


def test_angular_product_guard_sees_a_wrong_factor(monkeypatch):
    def skewed(ls, ctx):
        lams = angular_eigenvalues(ls, ctx)
        return [lams[0] * (1 + 1e-7)] + lams[1:]

    monkeypatch.setattr(determinant, "angular_eigenvalues", skewed)
    for m in (5, 1100):
        with pytest.raises(ArithmeticError, match="angular product"):
            angular_determinant(PrimeParams(2, m))
