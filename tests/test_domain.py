"""Balls, partitions, step functions, and the local height profile."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tateop.domain import Ball
from tateop.matrix import build_matrix
from tateop.padic import PrimeParams, local_height, point, tate_div, tate_inv, tate_mul

from oracles import HeightProfile, ShellPartition, StepFunction, geom_sum, total_volume

configs = st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 2)])
small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def test_total_volume_oracles():
    assert total_volume(PrimeParams(3, 2)) == Fraction(4, 3)
    assert total_volume(PrimeParams(2, 1)) == Fraction(1, 2)
    assert total_volume(PrimeParams(5, 3)) == Fraction(12, 5)


@given(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=6),
    st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(3, 4), max_denominator=8),
)
def test_geom_sum_against_partial_sums(degree, start, t):
    # Closed form == partial sum + exact tail shifted to the cutoff.
    cutoff = start + 25
    partial = sum(Fraction(j) ** degree * Fraction(t) ** j for j in range(start, cutoff))
    if degree == 0:
        tail = geom_sum(0, cutoff, t)
    else:
        tail = geom_sum(1, cutoff, t)
    assert geom_sum(degree, start, t) == partial + tail


def test_geom_sum_validation():
    with pytest.raises(ValueError):
        geom_sum(2, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        geom_sum(0, -1, Fraction(1, 2))
    with pytest.raises(ValueError):
        geom_sum(0, 0, 1)


def test_ball_membership_and_measure():
    ctx = PrimeParams(3, 2)
    b = Ball(ctx, 0, 1, 1)  # 1 + 3 Z_3
    assert b.contains(point(4, ctx))
    assert b.contains(point(7, ctx))
    assert not b.contains(point(2, ctx))
    assert not b.contains(point(3, ctx))
    assert b.measure() == Fraction(1, 3)
    assert Ball(ctx, 1, 2, 7).measure() == Fraction(1, 9)


def test_ball_center_canonicalized():
    ctx = PrimeParams(3, 2)
    assert Ball(ctx, 0, 1, 4).center == 1
    assert Ball(ctx, 0, 2, -2).center == 7
    with pytest.raises(ValueError):
        Ball(ctx, 0, 1, 3)  # center must be a unit


def test_ball_children_tile_parent():
    ctx = PrimeParams(3, 2)
    b = Ball(ctx, 1, 1, 2)
    kids = b.children()
    assert len(kids) == 3
    assert sum(k.measure() for k in kids) == b.measure()
    assert all(b.contains(k.center_point()) for k in kids)


@given(configs, st.integers(min_value=1, max_value=3))
def test_full_partition_counts_and_volume(cfg, level):
    p, m = cfg
    ctx = PrimeParams(p, m)
    part = ShellPartition.full(ctx, level)
    assert len(part.balls) == m * (p - 1) * p ** (level - 1)
    assert sum(b.measure() for b in part.balls) == total_volume(ctx)
    # canonical order: shell first, then center
    keys = [(b.v, b.center) for b in part.balls]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "p,m,level", [(p, m, level) for p in (2, 3, 5) for m in (1, 2, 3) for level in (1, 2, 3)]
)
def test_full_partition_equals_the_checked_constructor(p, m, level):
    # The matrix basis as the package exports it against an independent
    # construction: the level-1 balls of every shell, refined level - 1
    # times through Ball.children, then put in (shell, center) order.
    ctx = PrimeParams(p, m)
    manifest = build_matrix(level, ctx).basis_manifest()["basis"]
    refined = [Ball(ctx, v, 1, c) for v in range(m) for c in range(1, p)]
    for _ in range(level - 1):
        refined = [child for ball in refined for child in ball.children()]
    refined.sort(key=lambda b: (b.v, b.center))
    assert [(b["v"], b["k"], b["center"], b["label"]) for b in manifest] == [
        (b.v, b.k, b.center, b.label()) for b in refined
    ]
    assert ShellPartition.full(ctx, level).balls == tuple(refined)


def test_partition_find_index_and_refine():
    ctx = PrimeParams(3, 2)
    part = ShellPartition.full(ctx, 1)
    x = point(7, ctx)
    assert part.balls[part.find_index(x)].contains(x)
    finer = part.refine_ball(0)
    assert len(finer.balls) == len(part.balls) + 2
    assert sum(b.measure() for b in finer.balls) == total_volume(ctx)


def test_partition_rejects_overlap_and_gaps():
    ctx = PrimeParams(2, 1)
    shell = Ball(ctx, 0, 1, 1)
    with pytest.raises(ValueError):
        ShellPartition(ctx, (shell, shell))
    with pytest.raises(ValueError):
        ShellPartition(ctx, (shell.children()[0],))


def test_step_function_basics():
    ctx = PrimeParams(3, 2)
    part = ShellPartition.full(ctx, 1)
    f = StepFunction(part, [1, 2, 3, 4])
    assert f.value_at(point(4, ctx)) == 1
    assert f.value_at(point(2, ctx)) == 2
    assert f.value_at(point(3, ctx)) == 3
    assert f.integral() == Fraction(10, 3)
    assert StepFunction.constant(ctx, 5).integral() == 5 * total_volume(ctx)
    assert StepFunction.indicator_shell(ctx, 1).integral() == Fraction(2, 3)


@given(configs, st.lists(small_fractions, min_size=1, max_size=1))
def test_refinement_preserves_values_and_integral(cfg, seed_vals):
    p, m = cfg
    ctx = PrimeParams(p, m)
    part = ShellPartition.full(ctx, 1)
    vals = [seed_vals[0] + i for i in range(len(part.balls))]
    f = StepFunction(part, vals)
    g = f.refine_ball(0)
    assert g.integral() == f.integral()
    for b in part.balls:
        assert g.value_at(b.center_point()) == f.value_at(b.center_point())


def test_step_function_json_round_trip():
    ctx = PrimeParams(2, 3)
    part = ShellPartition.full(ctx, 2)
    f = StepFunction(part, [Fraction(i, 7) for i in range(len(part.balls))]).refine_ball(1)
    data = f.to_json_dict()
    g = StepFunction.from_json_dict(data)
    assert g.partition.balls == f.partition.balls
    assert g.values == f.values


@given(configs, small_fractions)
def test_dilation_and_inversion_preserve_haar_integral(cfg, v0):
    p, m = cfg
    ctx = PrimeParams(p, m)
    part = ShellPartition.full(ctx, 1)
    f = StepFunction(part, [v0 + i for i in range(len(part.balls))])
    for lam in (point(p, ctx), point(1 + p, ctx), point(2 * p, ctx) if p > 2 else point(3, ctx)):
        assert f.dilated(lam).integral() == f.integral()
    assert f.inverted().integral() == f.integral()


@given(configs)
def test_dilation_precomposes_with_multiplication(cfg):
    p, m = cfg
    ctx = PrimeParams(p, m)
    part = ShellPartition.full(ctx, 2)
    f = StepFunction(part, list(range(len(part.balls))))
    lam = point(2 * p if p > 2 else p, ctx)
    g = f.dilated(lam)
    for b in part.balls[:: max(1, len(part.balls) // 6)]:
        x = b.center_point()
        assert g.value_at(x) == f.value_at(tate_mul(lam, x))
        assert f.inverted().value_at(x) == f.value_at(tate_inv(x))


def test_local_height_oracles():
    ctx = PrimeParams(3, 2)
    assert local_height(point(4, ctx)) == Fraction(7, 6)
    assert local_height(point(3, ctx)) == Fraction(-1, 12)
    assert local_height(point(10, ctx)) == Fraction(13, 6)
    assert local_height(point(3, PrimeParams(2, 1))) == Fraction(13, 12)
    with pytest.raises(ValueError):
        local_height(point(1, ctx))


@given(configs, st.integers(min_value=2, max_value=40))
def test_height_symmetric_under_inversion(cfg, n):
    p, m = cfg
    ctx = PrimeParams(p, m)
    x = point(n, ctx)
    if x.value == 1:
        return
    assert local_height(x) == local_height(tate_inv(x))


def test_height_profile_matches_pointwise_values():
    ctx = PrimeParams(3, 2)
    prof = HeightProfile(point(4, ctx))
    for n in (2, 3, 5, 7):
        assert prof.value_at(point(n, ctx)) == local_height(tate_div(point(n, ctx), point(4, ctx)))


def test_height_value_oracles():
    ctx = PrimeParams(3, 2)
    at_one = HeightProfile(point(1, ctx))
    assert at_one.value_at(point(4, ctx)) == Fraction(7, 6)
    assert at_one.value_at(point(3, ctx)) == Fraction(-1, 12)
    # Rebasing at 3 and scaling the argument leaves the value unchanged.
    assert HeightProfile(point(3, ctx)).value_at(point(12, ctx)) == Fraction(7, 6)
    with pytest.raises(ValueError):
        at_one.value_at(point(1, ctx))


@given(configs, st.integers(min_value=2, max_value=30), st.integers(min_value=2, max_value=30))
def test_height_value_rebase_consistency(cfg, a, b):
    p, m = cfg
    ctx = PrimeParams(p, m)
    x, y = point(a, ctx), point(b, ctx)
    if tate_div(x, y).value == 1:
        return
    assert HeightProfile(y).value_at(x) == HeightProfile(point(1, ctx)).value_at(
        tate_div(x, y)
    )


@given(configs, st.integers(min_value=2, max_value=25))
def test_height_profile_integral_additive_under_refinement(cfg, base_val):
    # Integrating over a ball must equal the sum over its children, including
    # the singular ball where the closed-form tail does the work.
    p, m = cfg
    ctx = PrimeParams(p, m)
    prof = HeightProfile(point(base_val, ctx))
    for b in ShellPartition.full(ctx, 1).balls:
        whole = prof.integrate_over_ball(b)
        assert whole == sum(prof.integrate_over_ball(c) for c in b.children())


def test_height_profile_integral_constant_part():
    # On a ball avoiding the base's shell only the quadratic part survives,
    # so the integral is just value * measure.
    ctx = PrimeParams(3, 2)
    prof = HeightProfile(point(1, ctx))
    b = Ball(ctx, 1, 1, 1)
    assert prof.integrate_over_ball(b) == prof.value_at(b.center_point()) * b.measure()
