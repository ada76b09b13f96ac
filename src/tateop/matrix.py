"""Exact Galerkin matrix of the operator on level-k step functions.

Entries are exact rationals; a float mirror is used only for the
eigenvalues and the eigenvector residuals.  The basis is the full level-k
partition, shells ascending and centers ascending within each shell, so
every export is deterministic.  An entry depends only on the two shells
and on how many base-p digits the two centers share, so the matrix is
held as its few distinct exact values plus an integer array that says
which value each entry takes.

The work grows with the distinct pieces of that structure, not with the
rows and characters: the matrix is I_m (x) A + C (x) J_n, built from one
row of the shell block A, one row of the circulant C and one diagonal
value; the exact row sums of the check are taken once per distinct row
of value counts (how many entries take each value; an assembled matrix
has one), the eigenvalues once per (conductor, l), and the character
vectors are built from per-conductor-level tables.  Only the residual
check is per character: one matrix-vector product on each vector.

numpy is imported inside the functions that use it: no other subcommand
needs it, and importing it is most of the CLI's start-up time.
"""

from __future__ import annotations

from fractions import Fraction

from .angular import eigenvalue_angular, root_table
from .domain import Ball
from .padic import PrimeParams, Record, _kernel_by_valuations, c_p_const, coupling_total, format_rational
from .spectral import eigenvalue_radial_closed, enumerate_conductor, unit_group_order, unit_log

# The float checks' bounds, relative to max(1, the largest eigenvalue).  Over
# the 29 (p, m, level) of the test oracles, the benchmark's ladder and the
# pinned dimensions 96 and 972, one BLAS thread, the worst were: the least
# eigenvalue -5.3e-16; the zero mode 6.0e-16, the least other 3.1e-3; an
# eigenvalue off its closed form 4.6e-15; a character's residual 2.8e-15.
PSD_TOLERANCE = 1e-9
EIGENVALUE_TOLERANCE = 1e-8
RESIDUAL_TOLERANCE = 1e-10


def level_basis(ctx: PrimeParams, level: int) -> tuple[Ball, ...]:
    """All level-k balls, shells ascending, then centers ascending: the
    basis every matrix of this module is written in."""
    return tuple(
        Ball(ctx, v, level, c)
        for v in range(ctx.m)
        for c in range(1, ctx.p**level)
        if c % ctx.p
    )


class OperatorMatrix(Record):
    """Exact matrix of the operator restricted to level-k steps: entry
    (i, j) is values[index[i, j]], and the values are pairwise distinct.

    Matrices compare by identity.
    """

    __slots__ = ("ctx", "level", "basis", "values", "index")
    _fields = ("ctx", "level", "basis", "values", "index")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    ctx: PrimeParams
    level: int
    basis: tuple[Ball, ...]
    values: tuple[Fraction, ...]
    index: np.ndarray

    def __init__(self, ctx, level, basis, values, index) -> None:
        self._bind(ctx, level, basis, values, index)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def as_float(self) -> np.ndarray:
        """Entry-wise float copy; each distinct value is converted once.
        Values below the smallest normal float become 0: subnormal operands
        (m log2 p past about 2044) slow the eigen-solve about twofold."""
        import numpy as np

        floats = np.array([float(x) for x in self.values])
        floats[np.abs(floats) < np.finfo(float).tiny] = 0.0
        return floats[self.index]

    def eigenvalues(self, floats: np.ndarray | None = None) -> list[float]:
        """Ascending eigenvalues of the float copy, passed as ``floats`` if built."""
        import numpy as np

        if floats is None:
            floats = self.as_float()
        return [float(x) for x in np.linalg.eigvalsh(floats)]

    def to_csv(self) -> str:
        labels = [b.label() for b in self.basis]
        cells = [format_rational(x) for x in self.values]
        lines = ["basis," + ",".join(labels)]
        for label, row in zip(labels, self.index.tolist()):
            lines.append(label + "," + ",".join(map(cells.__getitem__, row)))
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
    import numpy as np

    c = np.array(units, dtype=np.int64)
    agree = np.zeros((len(units), len(units)), dtype=np.min_scalar_type(level))
    for t in range(1, level + 1):
        r = c % p**t
        agree += r[:, None] == r[None, :]
    return agree


def build_matrix(level: int, ctx: PrimeParams) -> OperatorMatrix:
    """Assemble the exact matrix: column j is the operator applied to the
    indicator of ball j, evaluated at the ball centers.

    Off the diagonal, entry (i, j) is -c_p p^-k K(v_i, v_j, vdiff), with
    vdiff = min(v_i, v_j) across shells and v + v_p(c_j - c_i) within
    shell v (what integrate_H_over_ball evaluates).  Either value depends
    on the shells only through their distance, so the matrix is
    I_m (x) A + C (x) J_n: the one block A on every shell, and the
    constant C[(w - v) mod m] on block (v, w), C a symmetric circulant
    with C[0] = 0.
    """
    p, m = ctx.p, ctx.m
    import numpy as np

    basis = level_basis(ctx, level)
    dim = len(basis)
    n = dim // m
    agree = _digit_agreement([b.center for b in basis[:n]], p, level)
    counts = np.bincount(agree.ravel(), minlength=level + 1).tolist()
    # Only a ball's own center shares all level digits with it.
    if counts[level] != n:
        raise ValueError("singular integral: ball contains the evaluation point")
    agreements = [d for d in range(level) if counts[d]]
    scale = -c_p_const(p) / p**level
    # A's values over the digit agreements d, taken at shell 0 (the kernel
    # is p^(2d) + 2/(q - 1) in every shell), and C's over the shell
    # distances u = 1..m-1.  A row has counts[d] / n entries at agreement d
    # (the units are a group) and n in each other shell, whose couplings
    # w_u / (q - 1) sum to coupling_total / (q - 1); the diagonal makes the
    # row sum zero.  The slots are made in that order: A's, C's, the diagonal.
    within = [scale * _kernel_by_valuations(p, m, 0, 0, d) for d in agreements]
    cross = [scale * _kernel_by_valuations(p, m, 0, u, 0) for u in range(1, m)]
    diagonal = -sum(counts[d] // n * x for d, x in zip(agreements, within))
    diagonal -= n * scale * Fraction(coupling_total(p, m), p**m - 1)
    values = tuple(dict.fromkeys(within + cross + [diagonal]))
    slots = {x: i for i, x in enumerate(values)}
    dtype = np.min_scalar_type(len(values) - 1)
    # same[d] is A's slot at agreement d, the diagonal's at d = level;
    # by_distance[u] is C's at shell distance u (u = 0 lies in A's blocks).
    same = np.zeros(level + 1, dtype=dtype)
    same[agreements + [level]] = [slots[x] for x in within + [diagonal]]
    by_distance = np.array([0] + [slots[x] for x in cross], dtype=dtype)
    shells = np.arange(m)
    index = np.empty((dim, dim), dtype=dtype)
    # blocks[v, :, w, :] is the block of shell v's rows and shell w's
    # columns; agree is level exactly on the diagonal.
    blocks = index.reshape(m, n, m, n)
    blocks[...] = by_distance[(shells - shells[:, None]) % m][:, None, :, None]
    blocks[shells, :, shells, :] = same[agree]
    return OperatorMatrix(ctx, level, basis, values, index)


def label_vectors(mx: OperatorMatrix, characters):
    """Every joint character with its values on the basis, as (n, l, vec):
    levels n ascending, the radial characters ``characters[n]`` of
    conductor n in their order, then l = 0..m-1.

    The character (l, chi) takes the value e^(2 pi i j / N) at ball (v, c),
    N = m |(Z/p^n)^x| and j = l v |(Z/p^n)^x| + m chi.turns(log c): the
    same rational turn as its exponents, looked up in a table of the N
    roots.  The logs and the roots are built once per level n, the angular
    part l v |(Z/p^n)^x| of the turn once per l as a column over the
    shells v (an m x m table of them would be dim^2 integers where m is
    about dim), and each character is one lookup into a fresh 1-D
    C-contiguous vector (a lookup per radial character would hold m
    vectors at once, dim^2 complex entries).
    """
    import numpy as np

    p, m = mx.ctx.p, mx.ctx.m
    units = [b.center for b in mx.basis if b.v == 0]
    shells = np.arange(m)[:, None]
    for n, chars in enumerate(characters):
        if not chars:
            continue
        phi = unit_group_order(p, n)
        roots = np.array(root_table(m * phi))
        logs = np.array([unit_log(p, n, c % p**n) if n else 0 for c in units]).T
        for chi in chars:
            # The trivial character's turns are a scalar 0; its logs are the zeros.
            radial = m * chi.turns(logs) if n else logs
            for l in range(m):
                yield n, l, roots[(l * phi * shells + radial) % (m * phi)].ravel()


def verify_matrix(mx: OperatorMatrix) -> tuple[list[float], dict]:
    """Check symmetry, row sums, positivity, kernel dimension, the
    eigenvalue multiset, and the character eigenvectors, both float checks
    against one table of eigenvalues per (conductor, l).

    Returns the ascending eigenvalues and the report: every check in that
    order, then the names of the failed ones and the verdict.
    """
    import numpy as np

    ctx = mx.ctx
    dim = mx.dimension
    # Exact: equal entries have equal slots, as the values are distinct.
    symmetric = np.array_equal(mx.index, mx.index.T)
    # Rows that take each value equally often have equal exact sums, so one
    # sum per distinct row of value counts decides them all: an assembled
    # matrix has one such row.
    k = len(mx.values)
    counts = np.bincount((np.arange(dim)[:, None] * k + mx.index).ravel(), minlength=dim * k)
    rows = set(map(tuple, counts.reshape(dim, k).tolist()))
    row_sums_zero = not any(sum(c * x for c, x in zip(row, mx.values) if c) for row in rows)
    # The joint characters (l, chi), chi of conductor n <= k, are the
    # eigenfunctions, and the eigenvalue depends on n and l alone: lams[n][l]
    # is the angular closed form at n = 0 and the radial one from n = 1 on.
    characters = [enumerate_conductor(ctx.p, n) for n in range(mx.level + 1)]
    if ctx.m * sum(map(len, characters)) != dim:
        raise ArithmeticError("character count does not match the basis dimension")
    lams = [[float(eigenvalue_angular(l, ctx)) for l in range(ctx.m)]]
    for n in range(1, mx.level + 1):
        lams.append([float(eigenvalue_radial_closed(n, ctx))] * ctx.m)
    expected = sorted(x for lam, chars in zip(lams, characters) for x in lam * len(chars))
    # Float rounding in the eigen-solve and the products grows with the
    # matrix norm, the largest eigenvalue, so these bounds scale with it
    # once it passes 1 (it is 0 at dimension 1, below 1 at p = 2, k = 1).
    scale = max(1.0, expected[-1])
    floats = mx.as_float()
    eigs = mx.eigenvalues(floats)
    min_eig = min(eigs)
    psd = min_eig >= -PSD_TOLERANCE * scale
    kernel_dim = sum(1 for x in eigs if abs(x) < EIGENVALUE_TOLERANCE * scale)
    deviation = max(abs(a - b) for a, b in zip(eigs, expected))
    spectrum_match = deviation <= EIGENVALUE_TOLERANCE * scale
    # The product casts the float copy to complex; casting once up front
    # gives the same bits without a copy per character.
    mc = floats.astype(complex)
    worst = 0.0
    for n, l, vec in label_vectors(mx, characters):
        residual = float(np.abs(mc @ vec - lams[n][l] * vec).max())
        worst = max(worst, residual)
    eigenfunctions_ok = worst < RESIDUAL_TOLERANCE * scale
    verdicts = (
        ("symmetry", symmetric),
        ("row sums", row_sums_zero),
        ("positive semidefiniteness", psd),
        ("kernel dimension", kernel_dim == 1),
        ("eigenvalue multiset", spectrum_match),
        ("eigenfunction residuals", eigenfunctions_ok),
    )
    failures = [name for name, ok in verdicts if not ok]
    return eigs, {
        "dimension": dim,
        "symmetric": symmetric,
        "row_sums_zero": row_sums_zero,
        "min_eigenvalue": min_eig,
        "positive_semidefinite": psd,
        "kernel_dimension": kernel_dim,
        "multiset_deviation": deviation,
        "spectrum_match": spectrum_match,
        "eigenfunction_residual": worst,
        "eigenfunctions_ok": eigenfunctions_ok,
        "failures": failures,
        "passed": not failures,
    }
