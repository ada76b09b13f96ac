"""Exact Galerkin matrix of the operator on level-k step functions.

Entries are exact rationals; a float mirror is used only for
eigendecomposition.  The basis is the full level-k partition, shells
ascending and centers ascending within each shell, so every export is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import Ball, ShellPartition, StepFunction
from .operator import KernelContext, apply_D_step, integrate_H_over_ball
from .padic import PrimeParams, format_rational
from .spectral import (
    AngularCharacter,
    CharacterLabel,
    character_step_function,
    enumerate_conductor,
    enumerate_spectrum,
    eigenvalue_for_label,
    root_of_unity,
)

DEFAULT_DIM_CAP = 20000


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
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)

    def eigenvalues(self) -> list[float]:
        return [float(x) for x in np.linalg.eigvalsh(self.as_float())]

    def apply(self, values) -> tuple:
        """Exact matrix-vector product on one value per basis ball."""
        if len(values) != self.dimension:
            raise ValueError("vector length does not match the basis")
        return tuple(
            sum(entry * val for entry, val in zip(row, values))
            for row in self.entries
        )

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.entries)

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


def build_matrix(level: int, kc: KernelContext, dim_cap: int | None = None) -> OperatorMatrix:
    """Assemble the exact matrix: column j is the operator applied to the
    indicator of ball j, evaluated at the ball centers."""
    ctx = kc.ctx
    dim = matrix_dimension(level, ctx)
    cap = DEFAULT_DIM_CAP if dim_cap is None else dim_cap
    if dim > cap:
        raise ValueError(f"matrix dimension {dim} exceeds cap {cap}")
    part = ShellPartition.full(ctx, level)
    basis = part.balls
    centers = [b.center_point() for b in basis]
    rows = []
    for i in range(dim):
        row = [Fraction(0)] * dim
        diag = Fraction(0)
        for j in range(dim):
            if j == i:
                continue
            val = -kc.c_p * integrate_H_over_ball(basis[j], centers[i], kc)
            row[j] = val
            diag -= val
        row[i] = diag
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


def verify_matrix(mx: OperatorMatrix, ctx: PrimeParams) -> MatrixReport:
    """Check symmetry, row sums, positivity, kernel dimension, the
    eigenvalue multiset, and the character eigenvectors."""
    if mx.ctx != ctx:
        raise ValueError("matrix context mismatch")
    failures = []
    dim = mx.dimension
    symmetric = all(
        mx.entries[i][j] == mx.entries[j][i] for i in range(dim) for j in range(i)
    )
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
    mf = mx.as_float()
    worst = 0.0
    for label in spectrum_labels(mx.level, ctx):
        vec = np.array(
            [
                complex(
                    root_of_unity(
                        label.angular.exponent(b.v) + label.radial.exponent(b.center)
                    )
                )
                for b in mx.basis
            ]
        )
        lam = float(eigenvalue_for_label(label, ctx))
        residual = float(np.max(np.abs(mf @ vec - lam * vec)))
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
