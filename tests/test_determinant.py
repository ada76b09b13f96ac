"""Angular product, radial zeta function, and the regularized determinant."""

import contextlib
import decimal
import io
import json
import math
import sys
from fractions import Fraction

import pytest

from tateop import angular, cli, determinant
from tateop.determinant import (
    angular_determinant,
    zeta_pi_series,
    zeta_pi_value,
    zeta_prime_at_zero,
)
from tateop.padic import PrimeParams, format_float
from tateop.spectral import eigenvalue_angular

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
                exact = determinant.zeta_pi_exact(s, ctx)
                assert exact == determinant.zeta_pi_series_sum(s, ctx)
                assert float(exact) == pytest.approx(zeta_pi_value(s, ctx), rel=1e-15)


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
    # (p/(p-1))^m is formed exactly, however far it outgrows a float:
    # 2^1100 does not fit one.
    assert radial_det_contribution(PrimeParams(2, 24)) == 2**24
    assert radial_det_contribution(PrimeParams(2, 100)) == 2**100
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
    # The product's closed form rests on the angular circulant check, which
    # a wrong coefficient of the eigenvalues' closed form fails.
    closed = angular._closed_coefficients

    def skewed(p):
        a, b, c = closed(p)
        return a + 1, b, c

    monkeypatch.setattr(angular, "_closed_coefficients", skewed)
    for m in (5, 1100):
        angular.angular_circulant_check.cache_clear()
        with pytest.raises(ArithmeticError, match="angular circulant"):
            angular_determinant(PrimeParams(2, m))
        assert _det_cli(2, m)[0] == 1


def _det_cli(p, m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["det", "--p", str(p), "--m", str(m)])
    return code, out.getvalue()


def _decimal(text):
    """A decimal string as an int, read in chunks under the interpreter's
    int-to-str digit limit."""
    n = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_det_prints_an_exact_value_past_the_str_digit_limit():
    # The denominator (5^4000 - 1)^2 has about 5600 digits.
    p, m = 5, 4000
    limit = sys.get_int_max_str_digits()
    code, out = _det_cli(p, m)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    num, den = json.loads(out)["det"].split("/")
    assert 0 < limit < len(den)
    closed = Fraction(m * m) * (1 - Fraction(1, p)) / (1 - Fraction(1, p**m)) ** 2
    assert Fraction(_decimal(num), _decimal(den)) == closed


def test_det_passes_where_two_minus_two_cos_cancels():
    # 2 - 2 cos(2 pi l / m) loses digits to cancellation at small l / m; at
    # m = 14002 that error alone broke the float angular-product guard that
    # det once ran.  The float eigenvalues read 4 sin^2(pi l / m), and their
    # product meets the exact one to 1e-9 in log space.
    assert _det_cli(2, 14002)[0] == 0
    ctx = PrimeParams(2, 14002)
    logs = math.fsum(math.log(float(eigenvalue_angular(ell, ctx))) for ell in range(1, ctx.m))
    exact = angular_determinant(ctx)
    assert abs(logs - math.log(exact.numerator) + math.log(exact.denominator)) <= 1e-9


def test_zeta_prime_at_zero_is_printed_to_its_digits():
    # Rounding p/(p - 1) to a float loses about log10 p digits of its log:
    # at p = 999983 the printed value was wrong from the 10th digit on.
    with decimal.localcontext() as dc:
        dc.prec = 60
        for p, m in [(999983, 3), (999983, 12247), (9973, 1)]:
            exact = -m * (decimal.Decimal(p) / (p - 1)).ln()
            code, out = _det_cli(p, m)
            assert code == 0
            assert json.loads(out)["zeta_prime_zero"] == float(format_float(float(exact))), (p, m)


def test_det_series_verdict_is_exact(monkeypatch):
    # A relative skew of 1e-15 in the exact series sum at s = 3, a thousand
    # times finer than a 1e-12 float bound, fails that row and the call.
    exact = determinant.zeta_pi_series_sum

    def skewed(s, ctx):
        return exact(s, ctx) * (1 + Fraction(1, 10**15) * (s == 3))

    monkeypatch.setattr(determinant, "zeta_pi_series_sum", skewed)
    code, out = _det_cli(3, 2)
    assert code == 1
    rows = json.loads(out)["zeta_series_checks"]
    assert [row["pass"] for row in rows] == [True, False, True]


def test_det_ties_each_printed_float_to_its_exact_value(monkeypatch):
    # Cut to two terms, the float series misses its exact sum by 0.111 at
    # s = 2 while the exact identity still holds; a closed form skewed by
    # 1e-9 is a thousand times past the relative 1e-12 bound.
    monkeypatch.setattr(determinant, "ZETA_SERIES_TERMS", 2)
    code, out = _det_cli(3, 2)
    assert code == 1
    rows = json.loads(out)["zeta_series_checks"]
    assert rows[0]["abs_error"] > 0.1 and not any(row["pass"] for row in rows)
    monkeypatch.undo()
    exact = determinant.zeta_pi_value
    monkeypatch.setattr(determinant, "zeta_pi_value", lambda s, ctx: exact(s, ctx) * (1 + 1e-9))
    code, out = _det_cli(3, 2)
    assert code == 1
    assert not any(row["pass"] for row in json.loads(out)["zeta_series_checks"])


def test_det_zeta_prime_verdict_is_exact(monkeypatch):
    # A term 1e-9 (p^s - 1) leaves zeta(0) alone and moves zeta'(0) by
    # 1e-9 log p, a thousand times inside the 1e-6 m bound that a central
    # difference needs; the dual-number derivative sees it, and det exits 1.
    exact = determinant._zeta_closed

    def skewed(m, p, ps, p1s):
        return exact(m, p, ps, p1s) + (ps - 1) * Fraction(1, 10**9)

    monkeypatch.setattr(determinant, "_zeta_closed", skewed)
    for p, m in [(2, 1), (3, 2), (101, 24)]:
        with pytest.raises(ArithmeticError, match="zeta derivative"):
            zeta_prime_at_zero(PrimeParams(p, m))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["det", "--p", "3", "--m", "2"])
    assert (code, out.getvalue()) == (1, "")
    assert "zeta derivative" in err.getvalue()
