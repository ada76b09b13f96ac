"""Boundary two-point function, mass/dimension relation, and the height limit."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tateop import correlator
from tateop.correlator import height_coefficient, height_limit_check, two_point
from tateop.padic import PrimeParams, _kernel_by_valuations, _pair_valuations, kernel_H, point, valuation

from oracles import delta_from_mass, limit_finite_part, mass_from_delta, real_dimension_threshold
from test_cli import run_cli


def test_two_point_oracles():
    ctx = PrimeParams(3, 2)
    assert two_point(point(1, ctx), point(4, ctx), 1) == 9.25
    assert two_point(point(1, ctx), point(3, ctx), 1) == 0.75
    assert two_point(point(1, ctx), point(4, ctx), 2) == pytest.approx(81.025, abs=1e-12)


def test_two_point_validation():
    ctx = PrimeParams(3, 2)
    with pytest.raises(ValueError):
        two_point(point(4, ctx), point(4, ctx), 1)
    with pytest.raises(ValueError):
        two_point(point(4, ctx), point(1, ctx), 0)


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
    assert two_point(x1, x2, 1) == float(kernel_H(x1, x2))
    # and swapping the points changes nothing
    assert two_point(x1, x2, 1.7) == two_point(x2, x1, 1.7)


def _exact_two_point(x1, x2, d):
    """The integer-dimension value as one exact rational, rounded once."""
    p, m = x1.ctx.p, x1.ctx.m
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
        assert two_point(x1, x2, d) == _exact_two_point(x1, x2, d), d
    if p == 2:
        assert two_point(x1, x2, 1075) == 5e-324


def _points_at_valuations(p, m, v1, v2, t):
    """Two points on shells v1 and v2; on one shell v(x1 - x2) = v1 + t."""
    ctx = PrimeParams(p, m)
    if v1 != v2:
        return point(p**v1, ctx), point((1 + p) * p**v2, ctx)
    other = 2 if t == 0 else 1 + p**t
    return point(p**v1, ctx), point(other * p**v1, ctx)


def test_integer_dimensions_build_the_exact_kernel_only_where_the_leading_power_leaves_the_float_open(
    monkeypatch,
):
    # Random small inputs, and the ties: 3^34 between two floats, and 2^-1075
    # between 0 and the least subnormal.  Wherever the leading power decides,
    # its float is the exact value's; elsewhere the kernel at base p^d is
    # built, and only within the bounds two_point states.
    from tateop import correlator

    built = []

    def record(base, m, v1, v2, vd):
        built.append(base)
        return _kernel_by_valuations(base, m, v1, v2, vd)

    monkeypatch.setattr(correlator, "_kernel_by_valuations", record)
    rng = random.Random(30)
    cases = [(3, 3, 17, 0, 0, 1), (2, 5, 1075, 0, 1, 0)]
    for _ in range(3000):
        p, m = rng.choice((2, 3, 5, 7, 101)), rng.randint(1, 60)
        v1, v2 = rng.randrange(m), rng.randrange(m)
        cases.append((p, m, rng.randint(1, 30), v1, v2, rng.randint(p == 2, 4)))
    undecided = []
    for i, (p, m, d, v1, v2, t) in enumerate(cases):
        x1, x2 = _points_at_valuations(p, m, v1, v2, t)
        built.clear()
        try:
            got = two_point(x1, x2, d)
        except OverflowError:
            got = "overflow"
        try:
            exact = _exact_two_point(x1, x2, d)
        except OverflowError:
            exact = "overflow"
        assert got == exact, (p, m, d, v1, v2, t)
        if not built:
            continue
        undecided.append(i)
        assert built == [p**d]
        bits = d * math.log2(p)
        u = min(abs(v1 - v2), m - abs(v1 - v2))
        if u == 0:
            assert m * bits <= 56
        else:
            assert (m - 3 * u) * bits <= 57 and u * bits <= 1079
        assert m * bits <= 3300
    assert 0 not in undecided and 1 not in undecided
    assert len(undecided) < len(cases) // 4


def _float_two_point(x1, x2, delta):
    """The non-integer expression, term by term in floats."""
    p, m = x1.ctx.p, x1.ctx.m
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
        assert two_point(x1, x2, delta) == _float_two_point(x1, x2, delta), delta


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_the_float_expression_next_to_delta_one_is_the_kernel(p):
    # At delta = 1 +- h the value moves from the kernel K by h times its
    # log-derivative, which is below (|e| + m) log p K; a wrong sign or
    # exponent in the float expression moves it by a multiple of that.
    h = 2.0**-30
    for m in (1, 2, 3, 7, 12):
        ctx = PrimeParams(p, m)
        values = {u * p**v for v in {0, 1 % m, m // 2, m - 1} for u in (1, 2, p + 1, 1 + p**3)}
        pts = [point(x, ctx) for x in sorted(values)]
        for i, x1 in enumerate(pts):
            for x2 in pts[i + 1 :]:
                if x1.value == x2.value:
                    continue
                kernel = float(kernel_H(x1, x2))
                e = 2 * valuation(x1.value - x2.value, p) - x1.v - x2.v
                bound = 2 * h * (abs(e) + m) * math.log(p) * kernel
                for delta in (1 + h, 1 - h):
                    assert abs(two_point(x1, x2, delta) - kernel) <= bound, (m, x1.value, x2.value, delta)


def test_a_wrong_exponent_in_the_float_expression_fails_correlator(monkeypatch):
    # The first term p^(delta e) with e negated: at delta = 1 two_point takes
    # its exact branch, so only the check next to delta = 1 sees it.
    exact = correlator.two_point

    def negated_first_term(x1, x2, delta):
        if float(delta).is_integer():
            return exact(x1, x2, delta)
        v1, v2, vd = _pair_valuations(x1, x2)
        e_lp = (2 * vd - v1 - v2) * math.log(x1.ctx.p)
        return exact(x1, x2, delta) - math.exp(delta * e_lp) + math.exp(-delta * e_lp)

    argv = ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1"]
    assert run_cli(argv)[0] == 0
    monkeypatch.setattr(correlator, "two_point", negated_first_term)
    for delta in ("1", "0.5"):
        assert run_cli([*argv, "--delta", delta])[0] == 1


@pytest.mark.parametrize("m, v, kernel", [(2200, 1100, 0.0), (2151, 1075, 5e-324)])
def test_a_kernel_at_the_bottom_of_the_float_range_passes_next_to_delta_one(m, v, kernel):
    # At 2^-1100 the kernel and its neighbours round to 0.0; at 2^1075 it is
    # the least subnormal, and the float expression at 1 + 2^-30 rounds to 0.0.
    ctx = PrimeParams(2, m)
    x1, x2 = point(1, ctx), point(2**v, ctx)
    assert float(kernel_H(x1, x2)) == kernel
    assert correlator.float_expression_check(x1, x2, kernel)
    assert run_cli(["correlator", "--p", "2", "--m", str(m), "--x1", "1", "--x2", str(2**v)])[0] == 0


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
        assert two_point(x1, x2, delta) == pytest.approx(first + second, rel=1e-12), delta


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
        got = delta * two_point(point(4, ctx), point(1, ctx), delta)
        assert got == pytest.approx(2 / (m * math.log(p)), abs=1e-6)


def test_height_limit_oracles():
    ctx = PrimeParams(3, 2)
    est, tgt = height_limit_check(point(4, ctx), point(1, ctx))
    assert tgt == pytest.approx(2 * math.log(3) * 7 / 6, abs=1e-12)
    assert abs(est - tgt) < 1e-6 * (1 + abs(tgt))
    est2, tgt2 = height_limit_check(point(3, ctx), point(1, ctx))
    assert tgt2 == pytest.approx(2 * math.log(3) * (-1 / 12), abs=1e-12)
    assert abs(est2 - tgt2) < 1e-6 * (1 + abs(tgt2))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_height_coefficient_is_twice_the_height(p):
    # e + R^2/m + m/6 == 2 h(x1 / x2) exactly, on every pair of a sample
    # that covers first, middle and last shells and deep agreement.
    for m in (1, 2, 3, 7, 12, 61, 303):
        ctx = PrimeParams(p, m)
        values = {u * p**v for v in {0, 1 % m, m // 2, m - 1} for u in (1, 2, p + 1, 1 + p**3)}
        pts = [point(x, ctx) for x in sorted(values)]
        for i, x1 in enumerate(pts):
            for x2 in pts[i + 1 :]:
                if x1.value == x2.value:
                    continue
                coefficient, twice_height = height_coefficient(x1, x2)
                assert coefficient == twice_height, (m, x1.value, x2.value)
                assert height_coefficient(x2, x1) == (coefficient, twice_height)


def test_height_limit_symmetric():
    ctx = PrimeParams(2, 5)
    a, b = point(7, ctx), point(12, ctx)
    e1, t1 = height_limit_check(a, b)
    e2, t2 = height_limit_check(b, a)
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
    est, tgt = height_limit_check(x1, x2)
    literal = limit_finite_part(x1, x2, ctx)
    assert literal == pytest.approx(tgt, abs=1e-9)
    assert abs(est - tgt) < 1e-6 * (1 + abs(tgt))
