"""Exact operator matrices on full partitions and their verification report."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tateop import angular, matrix
from tateop.domain import PrimeParams
from tateop.matrix import OperatorMatrix, build_matrix, label_vectors, verify_matrix
from tateop.operator import integrate_H_over_ball
from tateop.padic import _kernel_by_valuations, c_p_const
from tateop.spectral import enumerate_conductor, enumerate_spectrum

from oracles import (
    AngularCharacter,
    ShellPartition,
    StepFunction,
    apply_D_step,
    galerkin_consistency_check,
    prolong_values,
    root_of_unity,
)

# Small configurations for the oracles of the fast paths: p in {2, 3, 5},
# m in {1, 2, 3}, level <= 3 (p = 2 at levels 1, 2 and 3), dimension <= 100.
ORACLE_CONFIGS = [
    (p, m, level)
    for p in (2, 3, 5)
    for m in (1, 2, 3)
    for level in (1, 2, 3)
    if m * (p - 1) * p ** (level - 1) <= 100
]


def test_matrix_dimension_formula():
    # m (p - 1) p^(level - 1) level-k balls across the shells.
    assert build_matrix(1, PrimeParams(3, 2)).dimension == 4
    assert build_matrix(2, PrimeParams(3, 2)).dimension == 12
    assert build_matrix(4, PrimeParams(2, 1)).dimension == 8


def test_matrix_oracle_3_2_level_1():
    mx = build_matrix(1, PrimeParams(3, 2))
    assert [b.label() for b in mx.basis] == ["v0.k1.c1", "v0.k1.c2", "v1.k1.c1", "v1.k1.c2"]
    assert mx.entries[0] == (
        Fraction(11, 8),
        Fraction(-5, 8),
        Fraction(-3, 8),
        Fraction(-3, 8),
    )
    eigs = sorted(mx.eigenvalues())
    assert eigs == pytest.approx([0.0, 1.5, 2.0, 2.0], abs=1e-12)


def test_matrix_oracle_2_2_level_1():
    mx = build_matrix(1, PrimeParams(2, 2))
    assert mx.entries == (
        (Fraction(4, 9), Fraction(-4, 9)),
        (Fraction(-4, 9), Fraction(4, 9)),
    )
    assert sorted(mx.eigenvalues()) == pytest.approx([0.0, 8 / 9], abs=1e-12)


def test_matrix_eigenvalues_small_cases():
    assert sorted(build_matrix(2, PrimeParams(2, 1)).eigenvalues()) == pytest.approx(
        [0.0, 2.0], abs=1e-12
    )
    assert sorted(build_matrix(1, PrimeParams(5, 1)).eigenvalues()) == pytest.approx(
        [0.0, 4.0, 4.0, 4.0], abs=1e-12
    )


@given(
    st.sampled_from(
        [(2, 1, 2), (3, 2, 1), (2, 3, 1), (5, 1, 1), (2, 2, 2), (2, 4, 1), (3, 4, 1), (2, 5, 2)]
    )
)
def test_matrix_rows_reproduce_apply_D(cfg):
    p, m, level = cfg
    ctx = PrimeParams(p, m)
    mx = build_matrix(level, ctx)
    part = ShellPartition(ctx, mx.basis)
    values = [Fraction(i * i - 3, 5) for i in range(mx.dimension)]
    f = StepFunction(part, values)
    image = mx.apply(values)
    for i, b in enumerate(mx.basis):
        assert image[i] == apply_D_step(f, b.center_point())


def test_matrix_symmetry_and_row_sums_exact():
    mx = build_matrix(2, PrimeParams(3, 2))
    n = mx.dimension
    for i in range(n):
        assert sum(mx.entries[i]) == 0
        for j in range(i):
            assert mx.entries[i][j] == mx.entries[j][i]


def test_verify_matrix_report():
    mx = build_matrix(1, PrimeParams(3, 2))
    eigs, rep = verify_matrix(mx)
    assert eigs == mx.eigenvalues()
    assert rep["passed"] is True and rep["failures"] == []
    assert rep["dimension"] == 4
    assert rep["kernel_dimension"] == 1
    assert rep["multiset_deviation"] < 1e-10
    assert rep["eigenfunction_residual"] < 1e-10


def test_character_count_matches_dimension(monkeypatch):
    for p, m, level in [(2, 1, 3), (3, 2, 2), (2, 3, 2), (5, 1, 2)]:
        ctx = PrimeParams(p, m)
        count = m * sum(len(enumerate_conductor(p, n)) for n in range(level + 1))
        assert count == m * (p - 1) * p ** (level - 1)
    # One character short of the basis is an error, not a failed check.
    mx = build_matrix(2, PrimeParams(3, 2))
    monkeypatch.setattr(matrix, "enumerate_conductor", lambda p, n: enumerate_conductor(p, n)[1:])
    with pytest.raises(ArithmeticError, match="character count does not match"):
        verify_matrix(mx)


def test_matrix_multiset_matches_spectrum_enumeration():
    ctx = PrimeParams(2, 3)
    mx = build_matrix(2, PrimeParams(2, 3))
    eigs = sorted(mx.eigenvalues())
    expected = sorted(
        float(e.eigenvalue) for e in enumerate_spectrum(2, ctx) for _ in range(e.multiplicity)
    )
    assert eigs == pytest.approx(expected, abs=1e-8)


def test_prolongation_commutes_with_operator():
    # Coarse apply then prolong == prolong then fine apply, exactly:
    # step functions on the coarse partition are also fine step functions.
    ctx = PrimeParams(3, 2)
    coarse_mx = build_matrix(1, ctx)
    fine_mx = build_matrix(2, ctx)
    coarse = ShellPartition(ctx, coarse_mx.basis)
    fine = ShellPartition(ctx, fine_mx.basis)
    values = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(7, 3)]
    lifted = prolong_values(coarse, fine, values)
    assert fine_mx.apply(lifted) == prolong_values(coarse, fine, coarse_mx.apply(values))


def test_galerkin_consistency():
    ctx = PrimeParams(2, 2)
    mx = build_matrix(2, ctx)
    part = ShellPartition(ctx, mx.basis)
    f = StepFunction(part, [Fraction(i, 3) for i in range(mx.dimension)])
    assert galerkin_consistency_check(mx, f)


def test_csv_and_manifest_round_trip():
    mx = build_matrix(1, PrimeParams(3, 2))
    text = mx.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "basis,v0.k1.c1,v0.k1.c2,v1.k1.c1,v1.k1.c2"
    assert lines[1].startswith("v0.k1.c1,11/8,-5/8")
    manifest = mx.basis_manifest()
    assert manifest["dimension"] == 4
    assert manifest["basis"][0]["label"] == "v0.k1.c1"


def test_level_one_assembly_evaluates_each_shell_distance_once():
    # A cross-shell entry depends only on the shell distance, so a level-1
    # matrix at large m takes O(m) kernel values, not one per shell pair.
    m = 256
    _kernel_by_valuations.cache_clear()
    mx = build_matrix(1, PrimeParams(2, m))
    assert mx.dimension == m
    assert _kernel_by_valuations.cache_info().currsize <= 2 * m


@pytest.mark.parametrize("p,m,level", ORACLE_CONFIGS)
def test_assembly_matches_ball_integrals(p, m, level):
    mx = build_matrix(level, PrimeParams(p, m))
    # Symmetry by index is exact only if the values are distinct and all used.
    assert len(set(mx.values)) == len(mx.values)
    assert sorted(set(mx.index.ravel().tolist())) == list(range(len(mx.values)))
    centers = [b.center_point() for b in mx.basis]
    for i, row in enumerate(mx.entries):
        for j, b in enumerate(mx.basis):
            if j != i:
                assert row[j] == -c_p_const(p) * integrate_H_over_ball(b, centers[i])
        assert row[i] == -sum(x for j, x in enumerate(row) if j != i)
    # The structure the build reads: I_m (x) A + C (x) J_n.  Every diagonal
    # block is one block A, block (v, w) off it is the constant
    # C[(w - v) mod m], read here off row 0, and C is symmetric.
    n = mx.dimension // m

    def block(v, w):
        return [row[w * n : (w + 1) * n] for row in mx.entries[v * n : (v + 1) * n]]

    circulant = [mx.entries[0][u * n] for u in range(m)]
    for v in range(m):
        assert block(v, v) == block(0, 0)
        for w in set(range(m)) - {v}:
            assert {x for row in block(v, w) for x in row} == {circulant[(w - v) % m]}
    assert circulant[1:] == circulant[:0:-1]


# The benchmark's ladder rungs: the two-adic (s, t) logs at n >= 3, and
# m > 1 at dimensions past the oracle configurations.
LADDER_RUNGS = [(3, 3, 3), (2, 1, 8), (5, 2, 3)]


@pytest.mark.parametrize("p,m,level", sorted(set(ORACLE_CONFIGS + LADDER_RUNGS)))
def test_label_vectors_match_root_of_unity(p, m, level):
    import numpy as np

    mx = build_matrix(level, PrimeParams(p, m))
    characters = [enumerate_conductor(p, n) for n in range(level + 1)]
    order = [(n, l, chi) for n, chars in enumerate(characters) for chi in chars for l in range(m)]
    assert len(order) == mx.dimension
    # One vector at a time: a list would hold dim^2 complex entries.
    vectors = label_vectors(mx, characters)
    assert inspect.isgenerator(vectors)
    previous = None
    for (n, l, vec), (n_expected, l_expected, chi) in zip(vectors, order, strict=True):
        assert (n, l) == (n_expected, l_expected)
        # The residual's bits depend on the product's path: one fresh 1-D
        # C-contiguous vector per character.
        assert vec.ndim == 1 and vec.flags.c_contiguous
        assert previous is None or not np.shares_memory(vec, previous)
        ang = AngularCharacter(m, l)
        expected = [
            complex(root_of_unity(ang.exponent(b.v) + chi.exponent(b.center)))
            for b in mx.basis
        ]
        assert vec.tolist() == expected
        previous = vec


@pytest.mark.parametrize("p,m,level", ORACLE_CONFIGS)
def test_verify_passes_on_every_oracle_config(p, m, level):
    # (2, 1, 1) is the dimension-1 matrix, whose only eigenvalue is 0, and
    # p = 2, k = 1 has its largest eigenvalue below 1.
    _, rep = verify_matrix(build_matrix(level, PrimeParams(p, m)))
    assert rep["failures"] == [] and rep["kernel_dimension"] == 1


@pytest.mark.parametrize("p,m,level", [(3, 2, 2), (2, 3, 3), (5, 1, 1)])
def test_one_eigenvalue_table_feeds_both_float_checks(monkeypatch, p, m, level):
    # The radial closed form at the top conductor, one too large, moves both
    # the expected multiset and every residual of that conductor's characters.
    mx = build_matrix(level, PrimeParams(p, m))
    closed = matrix.eigenvalue_radial_closed
    monkeypatch.setattr(
        matrix, "eigenvalue_radial_closed", lambda n, ctx: closed(n, ctx) + (n == level)
    )
    _, rep = verify_matrix(mx)
    assert rep["failures"] == ["eigenvalue multiset", "eigenfunction residuals"]
    assert rep["multiset_deviation"] > 0.5 and rep["eigenfunction_residual"] > 0.5


def test_verify_reports_a_corrupted_entry():
    mx = build_matrix(2, PrimeParams(3, 2))
    index = mx.index.copy()
    index[0, 1] = index[0, 0]
    _, rep = verify_matrix(OperatorMatrix(mx.ctx, mx.level, mx.units, mx.values, index))
    assert "symmetry" in rep["failures"] and "row sums" in rep["failures"]
    assert rep["passed"] is False


def corrupt_symmetrically(mx, i, j):
    """mx with entries (i, j) and (j, i) moved to the next value slot."""
    index = mx.index.copy()
    index[i, j] = index[j, i] = (index[i, j] + 1) % len(mx.values)
    return OperatorMatrix(mx.ctx, mx.level, mx.units, mx.values, index)


@pytest.mark.parametrize("p,m,level", ORACLE_CONFIGS)
def test_row_totals_are_the_exact_row_sums(p, m, level):
    # The verdict reads one sum per distinct row of value counts; it holds
    # exactly when every dense exact row sum is 0.
    mx = build_matrix(level, PrimeParams(p, m))
    assert not any(sum(row) for row in mx.entries)
    assert verify_matrix(mx)[1]["row_sums_zero"] is True
    if mx.dimension > 1:
        # Rows 0 and 1 leave their shell's value counts and sum to non-zero.
        bad = corrupt_symmetrically(mx, 0, 1)
        totals = [sum(row) for row in bad.entries]
        assert totals[0] != 0 and totals[1] != 0 and not any(totals[2:])
        assert verify_matrix(bad)[1]["row_sums_zero"] is False


@pytest.mark.parametrize("p,m,level", [(3, 2, 2), (2, 1, 3), (2, 3, 2), (5, 1, 2)])
def test_verify_catches_rows_that_leave_their_shell_profile(p, m, level):
    # A symmetric corruption keeps the index symmetric, so only the exact
    # row sums (and the float spectrum) can see it.
    mx = build_matrix(level, PrimeParams(p, m))
    _, rep = verify_matrix(corrupt_symmetrically(mx, 0, mx.dimension - 1))
    assert rep["symmetric"] and not rep["row_sums_zero"]
    assert rep["failures"][0] == "row sums" and "symmetry" not in rep["failures"]


def test_float_copy_holds_no_subnormal_value():
    import numpy as np

    # At m log2 p past about 2044 the far couplings lie below the smallest
    # normal float, and subnormal operands slow the eigen-solve.
    a = build_matrix(1, PrimeParams(2, 2100)).as_float()
    assert not np.any((a != 0) & (np.abs(a) < np.finfo(float).tiny))


def test_angular_trace_is_the_level_1_matrix_trace():
    # At p = 2 and level 1 the matrix is the angular circulant itself.
    for m in range(1, 7):
        ctx = PrimeParams(2, m)
        mx = build_matrix(1, ctx)
        assert m * mx.values[mx.index[0, 0]] == angular.angular_trace(ctx)


def test_verify_builds_the_float_copy_once(monkeypatch):
    calls = []
    as_float = OperatorMatrix.as_float

    def counted(self):
        calls.append(self)
        return as_float(self)

    monkeypatch.setattr(OperatorMatrix, "as_float", counted)
    _, rep = verify_matrix(build_matrix(2, PrimeParams(3, 2)))
    assert rep["passed"] and len(calls) == 1


def test_verify_takes_the_angular_eigenvalues_in_one_pass():
    # Level 1 has one label per angular index l; its eigenvalues and the
    # spectrum's angular entries are proved by one angular circulant check,
    # not one check per label.
    check = angular.angular_circulant_check
    for p, m in [(2, 64), (3, 7), (5, 4), (7, 1)]:
        ctx = PrimeParams(p, m)
        mx = build_matrix(1, ctx)
        check.cache_clear()
        assert verify_matrix(mx)[1]["passed"]
        assert check.cache_info().misses == 1


def test_residual_bound_scales_with_the_largest_eigenvalue(monkeypatch):
    ctx = PrimeParams(1009, 1)
    mx = build_matrix(1, ctx)
    lam_max = max(e.eigenvalue for e in enumerate_spectrum(1, ctx))
    assert lam_max == 1008
    bound = 1e-10 * lam_max
    as_float = OperatorMatrix.as_float
    # eigvalsh reads only the lower triangle, so moving entry (0, 1) of the
    # float copy leaves the eigenvalues as they are and moves row 0 of every
    # residual by the same amount (each label vector has unit entries).
    for factor, failures in ((0.9, []), (1.1, ["eigenfunction residuals"])):

        def perturbed(self, factor=factor):
            a = as_float(self)
            a[0, 1] += factor * bound
            return a

        monkeypatch.setattr(OperatorMatrix, "as_float", perturbed)
        _, rep = verify_matrix(OperatorMatrix(mx.ctx, mx.level, mx.units, mx.values, mx.index))
        assert 1e-10 < rep["eigenfunction_residual"]
        assert rep["failures"] == failures


def test_multiset_bound_scales_with_the_largest_eigenvalue(monkeypatch):
    ctx = PrimeParams(1009, 1)
    mx = build_matrix(1, ctx)
    bound = 1e-8 * 1008
    as_float = OperatorMatrix.as_float
    # Moving diagonal entry (0, 0) shifts one eigenvalue of the 1007-fold
    # cluster by about as much; the residuals fail at either size.
    for factor, failures in (
        (0.9, ["eigenfunction residuals"]),
        (1.1, ["eigenvalue multiset", "eigenfunction residuals"]),
    ):

        def perturbed(self, factor=factor):
            a = as_float(self)
            a[0, 0] += factor * bound
            return a

        monkeypatch.setattr(OperatorMatrix, "as_float", perturbed)
        _, rep = verify_matrix(OperatorMatrix(mx.ctx, mx.level, mx.units, mx.values, mx.index))
        assert 1e-8 < rep["multiset_deviation"]
        assert rep["failures"] == failures
