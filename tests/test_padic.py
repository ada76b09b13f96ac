"""Valuations, norms, and reduction into the fundamental domain."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tateop.padic import (
    PrimeParams,
    capped_product,
    format_rational,
    int_valuation,
    is_prime,
    parse_rational,
    point,
    reduce_to_E,
    tate_div,
    tate_inv,
    tate_mul,
    valuation,
)

from oracles import norm

primes = st.sampled_from([2, 3, 5, 7])
nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
).filter(lambda x: x != 0)


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_parse_format_round_trip():
    for text in ["3", "-7", "22/7", "-1/12", "0"]:
        assert format_rational(parse_rational(text)) == text
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_valuation_oracles():
    assert valuation(18, 3) == 2
    assert valuation(Fraction(1, 6), 2) == -1
    assert valuation(Fraction(9, 4), 3) == 2
    assert valuation(-12, 2) == 2
    with pytest.raises(ValueError):
        valuation(0, 3)
    with pytest.raises(ValueError):
        int_valuation(0, 5)


def _int_valuation_by_division(n: int, p: int) -> int:
    """The one-factor-at-a-time loop: the reference for int_valuation."""
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(
    primes,
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=-(10**60), max_value=10**60).filter(lambda u: u != 0),
)
def test_int_valuation_matches_division_loop(p, k, u):
    n = p**k * u
    assert int_valuation(n, p) == _int_valuation_by_division(n, p)
    assert int_valuation(n, p) == k + _int_valuation_by_division(u, p)


def test_int_valuation_at_exact_powers():
    for p in (2, 3, 5, 7):
        for k in (0, 1, 2, 3, 7, 8, 63, 64, 65, 600, 1023, 1024, 4097):
            for u in (1, -1, p - 1, p + 1, -(p**3 + 1)):
                assert int_valuation(p**k * u, p) == k + _int_valuation_by_division(u, p)


def test_norm_oracles():
    assert norm(12, 3) == Fraction(1, 3)
    assert norm(Fraction(1, 6), 2) == 2
    assert norm(5, 3) == 1


@given(primes, nonzero_rationals, nonzero_rationals)
def test_valuation_is_additive(p, a, b):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@given(primes, nonzero_rationals, nonzero_rationals)
def test_valuation_ultrametric(p, a, b):
    assume(a + b != 0)
    assert valuation(a + b, p) >= min(valuation(a, p), valuation(b, p))


@given(primes, nonzero_rationals)
def test_norm_matches_valuation(p, a):
    assert norm(a, p) == Fraction(p) ** (-valuation(a, p))


def test_prime_params_validation():
    with pytest.raises(ValueError):
        PrimeParams(4, 1)
    with pytest.raises(ValueError):
        PrimeParams(3, 0)
    assert PrimeParams(3, 2).q == 9


def test_reduce_to_E_oracles():
    ctx = PrimeParams(3, 2)
    x = point(18, ctx)
    # 18 = 2 * 9 and q = 9, so one downward shift lands in the unit shell.
    assert x.value == 2 and x.v == 0
    y = point(Fraction(1, 3), ctx)
    assert y.value == 3 and y.v == 1
    assert point(6, ctx).unit_part() == 2
    assert point(5, PrimeParams(5, 1)).value == 1
    with pytest.raises(ValueError):
        point(0, ctx)


@given(primes, st.integers(min_value=1, max_value=4), nonzero_rationals)
def test_reduce_idempotent_and_periodic(p, m, a):
    ctx = PrimeParams(p, m)
    x = reduce_to_E(a, ctx)
    assert 0 <= x.v < m
    assert reduce_to_E(x).value == x.value
    assert reduce_to_E(a * ctx.q, ctx).value == x.value
    assert reduce_to_E(Fraction(a, ctx.q), ctx).value == x.value


@given(primes, st.integers(min_value=1, max_value=4), nonzero_rationals, nonzero_rationals)
def test_group_operations(p, m, a, b):
    ctx = PrimeParams(p, m)
    x, y = reduce_to_E(a, ctx), reduce_to_E(b, ctx)
    assert tate_mul(x, y).value == tate_mul(y, x).value
    assert tate_inv(tate_inv(x)).value == x.value
    assert tate_mul(tate_div(x, y), y).value == x.value
    one = point(1, ctx)
    assert tate_mul(x, tate_inv(x)).value == one.value
    with pytest.raises(ValueError):
        tate_mul(x, point(b, PrimeParams(7 if p == 5 else 5, m)))


def test_capped_product_stops_past_the_cap():
    assert capped_product(5, 2, 3, 40) == 40
    assert capped_product(5, 2, 4, 40) > 40
    assert capped_product(3, 7, 0, 2) == 3
    # A huge exponent ends after the few steps that pass the cap.
    assert 40 < capped_product(5, 2, 10**12, 40) <= 80
