"""Boundary two-point function, mass/dimension relation, and the height limit."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tateop.correlator import height_limit_check, two_point
from tateop.operator import KernelContext, kernel_H
from tateop.padic import PrimeParams, point, valuation

from oracles import delta_from_mass, limit_finite_part, mass_from_delta, real_dimension_threshold


def test_two_point_oracles():
    ctx = PrimeParams(3, 2)
    assert two_point(point(1, ctx), point(4, ctx), 1, ctx) == 9.25
    assert two_point(point(1, ctx), point(3, ctx), 1, ctx) == 0.75
    assert two_point(point(1, ctx), point(4, ctx), 2, ctx) == pytest.approx(81.025, abs=1e-12)


def test_two_point_validation():
    ctx = PrimeParams(3, 2)
    with pytest.raises(ValueError):
        two_point(point(4, ctx), point(4, ctx), 1, ctx)
    with pytest.raises(ValueError):
        two_point(point(4, ctx), point(1, ctx), 0, ctx)


@given(
    st.sampled_from([(2, 1), (3, 2), (2, 5), (5, 3)]),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=40),
)
def test_two_point_at_delta_one_is_kernel(cfg, a, b):
    p, m = cfg
    ctx = PrimeParams(p, m)
    x1, x2 = point(a, ctx), point(b, ctx)
    if x1.value == x2.value:
        return
    kc = KernelContext(ctx)
    assert two_point(x1, x2, 1, ctx) == float(kernel_H(x1, x2, kc))
    # and swapping the points changes nothing
    assert two_point(x1, x2, 1.7, ctx) == two_point(x2, x1, 1.7, ctx)


def _exact_two_point(x1, x2, d, ctx):
    """The integer-dimension value as one exact rational, rounded once."""
    p, m = ctx.p, ctx.m
    v1, v2, vd = x1.v, x2.v, valuation(x1.value - x2.value, p)
    base = Fraction(p)
    return float(
        base ** (d * (2 * vd - v1 - v2))
        + (base ** (d * (v2 - v1)) + base ** (d * (v1 - v2))) / (p ** (m * d) - 1)
    )


@pytest.mark.parametrize(
    "p,m,a,b,deltas",
    [
        # First term exactly 1: the sum rounds to 1 once the second is tiny.
        (3, 2, 1, 2, range(1, 40)),
        # Both terms shrink: the sum underflows to 0 near delta 680.
        (3, 2, 3, 1, range(660, 700)),
        # The first term is 2^-delta: at 1075 it sits on the tie between 0
        # and the least subnormal, and the far smaller second term decides.
        (2, 3, 1, 2, range(1065, 1085)),
    ],
)
def test_integer_dimensions_round_like_the_exact_value(p, m, a, b, deltas):
    ctx = PrimeParams(p, m)
    x1, x2 = point(a, ctx), point(b, ctx)
    for d in deltas:
        assert two_point(x1, x2, d, ctx) == _exact_two_point(x1, x2, d, ctx), d
    if p == 2:
        assert two_point(x1, x2, 1075, ctx) == 5e-324


def _float_two_point(x1, x2, delta, ctx):
    """The non-integer expression, term by term in floats."""
    p, m = ctx.p, ctx.m
    v1, v2, vd = x1.v, x2.v, valuation(x1.value - x2.value, p)
    lp = math.log(p)
    first = math.exp(delta * (2 * vd - v1 - v2) * lp)
    return first + (
        math.exp(delta * (v2 - v1) * lp) + math.exp(delta * (v1 - v2) * lp)
    ) / math.expm1(m * delta * lp)


@pytest.mark.parametrize("a,b", [("4", "1"), ("7", "1"), ("5", "2"), ("7", "4"), ("8", "5"), ("2", "5")])
def test_non_integer_dimensions_keep_the_float_expression(a, b):
    # Wherever p^(m delta) fits a float the value is the plain expression.
    ctx = PrimeParams(3, 2)
    x1, x2 = point(Fraction(a), ctx), point(Fraction(b), ctx)
    for delta in (0.25, 0.5, 1.5, 3.5, 120.5, 322.5):
        assert two_point(x1, x2, delta, ctx) == _float_two_point(x1, x2, delta, ctx), delta


@pytest.mark.parametrize(
    "p,m,a,b",
    [(3, 2, 1, 2), (3, 2, 3, 1), (2, 3, 1, 2), (2, 3, 1, 6), (5, 4, 1, 50)],
)
def test_non_integer_dimension_past_the_float_range_of_p_to_the_m_delta(p, m, a, b):
    # p^(m delta) overflows a float while the value itself does not: the
    # second term, at most 2 p^(delta (|v1 - v2| - m)), is taken in log space.
    ctx = PrimeParams(p, m)
    x1, x2 = point(a, ctx), point(b, ctx)
    v1, v2, vd = x1.v, x2.v, valuation(x1.value - x2.value, p)
    lp = math.log(p)
    for delta in (1030.5 / (m * lp), 400.5, 1e4 + 0.5, 1e7 + 0.5):
        if delta * (2 * vd - v1 - v2) * lp > 700:
            continue
        r = abs(v1 - v2) * delta * lp
        c = m * delta * lp
        first = math.exp(delta * (2 * vd - v1 - v2) * lp)
        # (p^(r) + p^(-r)) / (p^c - 1), every factor below 1 in size.
        second = math.exp(r - c) * (1 + math.exp(-2 * r)) / -math.expm1(-c)
        assert two_point(x1, x2, delta, ctx) == pytest.approx(first + second, rel=1e-12), delta


def test_mass_dimension_relation_round_trip():
    ctx = PrimeParams(3, 1)
    sd = delta_from_mass(0.0, ctx)
    assert sd.delta_plus == pytest.approx(1.0, abs=1e-12)
    assert sd.delta_minus == pytest.approx(0.0, abs=1e-12)
    sd2 = delta_from_mass(16 / 3, ctx)
    assert sd2.delta_plus == pytest.approx(2.0, abs=1e-12)
    assert sd2.delta_minus == pytest.approx(-1.0, abs=1e-12)
    for msq in (0.0, 1.0, 16 / 3, 30.0):
        sd = delta_from_mass(msq, ctx)
        assert sd.delta_plus + sd.delta_minus == pytest.approx(1.0, abs=1e-12)
        assert mass_from_delta(sd.delta_plus, ctx) == pytest.approx(msq, abs=1e-9)


def test_mass_threshold():
    ctx = PrimeParams(2, 1)
    thr = real_dimension_threshold(ctx)
    assert thr == pytest.approx(2 * math.sqrt(2) - 3, abs=1e-14)
    sd = delta_from_mass(thr, ctx)
    assert sd.delta_plus == pytest.approx(0.5, abs=1e-7)
    with pytest.raises(ValueError):
        delta_from_mass(thr - 1e-6, ctx)


def test_leading_divergence_is_constant():
    for p, m in [(3, 2), (2, 5), (5, 3)]:
        ctx = PrimeParams(p, m)
        delta = 1e-6
        got = delta * two_point(point(4, ctx), point(1, ctx), delta, ctx)
        assert got == pytest.approx(2 / (m * math.log(p)), abs=1e-6)


def test_height_limit_oracles():
    ctx = PrimeParams(3, 2)
    est, tgt = height_limit_check(point(4, ctx), point(1, ctx), ctx)
    assert tgt == pytest.approx(2 * math.log(3) * 7 / 6, abs=1e-12)
    assert abs(est - tgt) < 1e-6 * (1 + abs(tgt))
    est2, tgt2 = height_limit_check(point(3, ctx), point(1, ctx), ctx)
    assert tgt2 == pytest.approx(2 * math.log(3) * (-1 / 12), abs=1e-12)
    assert abs(est2 - tgt2) < 1e-6 * (1 + abs(tgt2))


def test_height_limit_symmetric():
    ctx = PrimeParams(2, 5)
    a, b = point(7, ctx), point(12, ctx)
    e1, t1 = height_limit_check(a, b, ctx)
    e2, t2 = height_limit_check(b, a, ctx)
    assert abs(e1 - e2) < 1e-10
    assert t1 == t2


@given(
    st.sampled_from([(3, 2), (2, 5), (5, 3)]),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=2, max_value=60),
)
def test_finite_part_assembly_matches_extrapolation(cfg, a, b):
    p, m = cfg
    ctx = PrimeParams(p, m)
    x1, x2 = point(a, ctx), point(b, ctx)
    if x1.value == x2.value:
        return
    est, tgt = height_limit_check(x1, x2, ctx)
    literal = limit_finite_part(x1, x2, ctx)
    assert literal == pytest.approx(tgt, abs=1e-9)
    assert abs(est - tgt) < 1e-6 * (1 + abs(tgt))
