"""Exact Galerkin matrix of the operator on level-k step functions.

Entries are exact rationals; a float mirror is used only for the
eigenvalues and the eigenvector residuals.  The basis is the full level-k
partition, shells ascending and centers ascending within each shell, so
every export is deterministic.  An entry depends only on the two shells
and on how many base-p digits the two centers share, so the matrix is
assembled from a small table of exact values that its entries share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .domain import Ball, ShellPartition, StepFunction
from .operator import KernelContext, _kernel_by_valuations, apply_D_step
from .padic import PrimeParams, format_rational
from .spectral import (
    AngularCharacter,
    CharacterLabel,
    enumerate_conductor,
    enumerate_spectrum,
    eigenvalue_for_label,
    root_of_unity,
    unit_group_order,
    unit_log,
)

# Largest dimension whose `matrix` call (build and verify) finished within
# 60 s on a 2-core Xeon VM: 3072 took 54-59 s, 2048 took 11.5 s (README).
DEFAULT_DIM_CAP = 3072


def _exact_sum(values) -> Fraction:
    """Exact sum of rationals.  build_matrix shares one object per distinct
    value, so each object is added once, times its count."""
    distinct = {id(x): x for x in values}
    counts = Counter(map(id, values))
    return sum((counts[key] * x for key, x in distinct.items()), Fraction(0))


def matrix_dimension(level: int, ctx: PrimeParams) -> int:
    """Number of level-k balls across all shells: m (p-1) p^(k-1)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return ctx.m * (ctx.p - 1) * ctx.p ** (level - 1)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense exact matrix of the operator restricted to level-k steps."""

    kc: KernelContext
    level: int
    basis: tuple[Ball, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def ctx(self) -> PrimeParams:
        return self.kc.ctx

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def as_float(self) -> np.ndarray:
        """Entry-wise float copy; each shared entry object is converted once."""
        distinct = {id(x): x for row in self.entries for x in row}
        floats = {key: float(x) for key, x in distinct.items()}
        return np.array([[floats[id(x)] for x in row] for row in self.entries], dtype=float)

    @cached_property
    def float_entries(self) -> np.ndarray:
        """The float copy every float check shares, built once."""
        return self.as_float()

    def eigenvalues(self) -> list[float]:
        return [float(x) for x in np.linalg.eigvalsh(self.float_entries)]

    def apply(self, values) -> tuple:
        """Exact matrix-vector product on one value per basis ball."""
        if len(values) != self.dimension:
            raise ValueError("vector length does not match the basis")
        return tuple(
            sum(entry * val for entry, val in zip(row, values))
            for row in self.entries
        )

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(_exact_sum(row) for row in self.entries)

    def to_csv(self) -> str:
        labels = [b.label() for b in self.basis]
        lines = ["basis," + ",".join(labels)]
        for label, row in zip(labels, self.entries):
            lines.append(label + "," + ",".join(format_rational(x) for x in row))
        return "\n".join(lines) + "\n"

    def basis_manifest(self) -> dict:
        return {
            "p": self.ctx.p,
            "m": self.ctx.m,
            "level": self.level,
            "dimension": self.dimension,
            "basis": [
                {"v": b.v, "k": b.k, "center": b.center, "label": b.label()}
                for b in self.basis
            ],
        }


def _digit_agreement(units: list[int], p: int, level: int) -> np.ndarray:
    """Number of low base-p digits, up to level, that each pair of unit
    residues mod p^level shares; off the diagonal this is v_p(c_j - c_i)."""
    c = np.array(units, dtype=np.int64)
    agree = np.zeros((len(units), len(units)), dtype=np.int64)
    for t in range(1, level + 1):
        r = c % p**t
        agree += r[:, None] == r[None, :]
    return agree


def build_matrix(level: int, kc: KernelContext, dim_cap: int | None = None) -> OperatorMatrix:
    """Assemble the exact matrix: column j is the operator applied to the
    indicator of ball j, evaluated at the ball centers.

    Off the diagonal, entry (i, j) is -c_p p^-k K(v_i, v_j, vdiff), with
    vdiff = min(v_i, v_j) across shells and v + v_p(c_j - c_i) within
    shell v (what integrate_H_over_ball evaluates).  Each distinct value
    is computed once and shared; the diagonal makes the row sum zero.
    """
    ctx = kc.ctx
    p, m = ctx.p, ctx.m
    dim = matrix_dimension(level, ctx)
    cap = DEFAULT_DIM_CAP if dim_cap is None else dim_cap
    if dim > cap:
        raise ValueError(f"matrix dimension {dim} exceeds cap {cap}")
    basis = ShellPartition.full(ctx, level).balls
    n = dim // m
    agree = _digit_agreement([b.center for b in basis[:n]], p, level)
    counts = np.bincount(agree.ravel(), minlength=level + 1)
    # Only a ball's own center shares all level digits with it.
    if counts[level] != n:
        raise ValueError("singular integral: ball contains the evaluation point")
    agreements = np.flatnonzero(counts[:level]).tolist()
    scale = -kc.c_p / p**level

    def value(vx: int, vz: int, vdiff: int) -> Fraction:
        return scale * _kernel_by_valuations(p, m, vx, vz, vdiff)

    rows = []
    for v in range(m):
        # same[d] is the entry at digit agreement d; same[level] = 0 holds
        # the diagonal's place until the row sum is known.
        same = [Fraction(0)] * (level + 1)
        for d in agreements:
            same[d] = value(v, v, v + d)
        cross = [None if w == v else [value(v, w, min(v, w))] * n for w in range(m)]
        for i, drow in enumerate(agree.tolist()):
            row = []
            for block in cross:
                row.extend(block or [same[d] for d in drow])
            row[v * n + i] = -_exact_sum(row)
            rows.append(tuple(row))
    return OperatorMatrix(kc, level, basis, tuple(rows))


@dataclass(frozen=True)
class MatrixReport:
    """Structural and spectral checks of one assembled matrix, with the
    ascending eigenvalues they were made on."""

    eigenvalues: list[float]
    dimension: int
    symmetric: bool
    row_sums_zero: bool
    min_eigenvalue: float
    positive_semidefinite: bool
    kernel_dimension: int
    multiset_deviation: float
    spectrum_match: bool
    eigenfunction_residual: float
    eigenfunctions_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "symmetric": self.symmetric,
            "row_sums_zero": self.row_sums_zero,
            "min_eigenvalue": self.min_eigenvalue,
            "positive_semidefinite": self.positive_semidefinite,
            "kernel_dimension": self.kernel_dimension,
            "multiset_deviation": self.multiset_deviation,
            "spectrum_match": self.spectrum_match,
            "eigenfunction_residual": self.eigenfunction_residual,
            "eigenfunctions_ok": self.eigenfunctions_ok,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def spectrum_labels(level: int, ctx: PrimeParams) -> tuple[CharacterLabel, ...]:
    """Every character label resolved at level k: radial conductor <= k
    crossed with all m angular indices.  Exactly dim-many labels."""
    radials = []
    for n in range(level + 1):
        if ctx.p == 2 and n == 1:
            continue
        radials.extend(enumerate_conductor(ctx.p, n))
    labels = tuple(
        CharacterLabel(AngularCharacter(ctx.m, l), chi)
        for chi in radials
        for l in range(ctx.m)
    )
    if len(labels) != matrix_dimension(level, ctx):
        raise ArithmeticError("character count does not match the basis dimension")
    return labels


def label_vectors(mx: OperatorMatrix):
    """Every spectrum label with its values on the basis, as an array.

    The label (l, chi) with chi of level n takes the value
    e^(2 pi i j / N) at ball (v, c), N = m |(Z/p^n)^x| and
    j = l v |(Z/p^n)^x| + m chi.turns(log c): the same rational turn as
    its exponents, looked up in a table of the N roots built once per N.
    """
    p, m = mx.ctx.p, mx.ctx.m
    units = [b.center for b in mx.basis if b.v == 0]
    logs: dict[int, np.ndarray] = {}
    roots: dict[int, np.ndarray] = {}
    for label in spectrum_labels(mx.level, mx.ctx):
        chi, l = label.radial, label.angular.l
        n, phi = chi.n, unit_group_order(p, chi.n)
        if n not in logs:
            logs[n] = np.array([unit_log(p, n, c % p**n) if n else 0 for c in units]).T
            roots[n] = np.array(
                [complex(root_of_unity(Fraction(j, m * phi))) for j in range(m * phi)]
            )
        radial = np.broadcast_to(m * chi.turns(logs[n]), len(units))
        angular = l * phi * np.arange(m)
        yield label, roots[n][(angular[:, None] + radial).ravel() % (m * phi)]


def verify_matrix(mx: OperatorMatrix, ctx: PrimeParams) -> MatrixReport:
    """Check symmetry, row sums, positivity, kernel dimension, the
    eigenvalue multiset, and the character eigenvectors."""
    if mx.ctx != ctx:
        raise ValueError("matrix context mismatch")
    failures = []
    dim = mx.dimension
    symmetric = all(row == col for row, col in zip(mx.entries, zip(*mx.entries)))
    if not symmetric:
        failures.append("symmetry")
    row_sums_zero = all(s == 0 for s in mx.row_sums())
    if not row_sums_zero:
        failures.append("row sums")
    eigs = mx.eigenvalues()
    min_eig = min(eigs)
    psd = min_eig >= -1e-9
    if not psd:
        failures.append("positive semidefiniteness")
    kernel_dim = sum(1 for x in eigs if abs(x) < 1e-8)
    if kernel_dim != 1:
        failures.append("kernel dimension")
    expected: list[float] = []
    for entry in enumerate_spectrum(mx.level, ctx):
        expected.extend([float(entry.eigenvalue)] * entry.multiplicity)
    expected.sort()
    deviation = max(abs(a - b) for a, b in zip(eigs, expected)) if expected else 0.0
    spectrum_match = len(expected) == dim and deviation <= 1e-8
    if not spectrum_match:
        failures.append("eigenvalue multiset")
    # The product casts the float copy to complex; casting once up front
    # gives the same bits without a copy per label.
    mc = mx.float_entries.astype(complex)
    worst = 0.0
    for label, vec in label_vectors(mx):
        lam = float(eigenvalue_for_label(label, ctx))
        residual = float(np.max(np.abs(mc @ vec - lam * vec)))
        worst = max(worst, residual)
    eigenfunctions_ok = worst < 1e-10
    if not eigenfunctions_ok:
        failures.append("eigenfunction residuals")
    return MatrixReport(
        eigenvalues=eigs,
        dimension=dim,
        symmetric=symmetric,
        row_sums_zero=row_sums_zero,
        min_eigenvalue=min_eig,
        positive_semidefinite=psd,
        kernel_dimension=kernel_dim,
        multiset_deviation=deviation,
        spectrum_match=spectrum_match,
        eigenfunction_residual=worst,
        eigenfunctions_ok=eigenfunctions_ok,
        failures=tuple(failures),
    )


def prolong_values(coarse: ShellPartition, fine: ShellPartition, values) -> tuple:
    """Embed a coarse step vector into a finer partition, value by ball."""
    if len(values) != len(coarse.balls):
        raise ValueError("vector length does not match the coarse partition")
    return tuple(values[coarse.find_index(b.center_point())] for b in fine.balls)


def galerkin_consistency_check(mx: OperatorMatrix, f: StepFunction) -> bool:
    """Matrix action against the direct operator action at every center."""
    if f.partition.balls != mx.basis:
        raise ValueError("step function does not live on the matrix basis")
    product = mx.apply(f.values)
    return all(
        product[i] == apply_D_step(f, b.center_point(), mx.kc)
        for i, b in enumerate(mx.basis)
    )
