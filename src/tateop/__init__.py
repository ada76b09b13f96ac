"""Exact computations for a nonlocal operator on the multiplicative
fundamental domain of the Tate curve: heights, Green's functions,
character spectra, Galerkin matrices, regularized determinants, and
boundary correlators."""

from .correlator import (
    ScalingDimension,
    delta_from_mass,
    height_limit_check,
    limit_finite_part,
    mass_from_delta,
    two_point,
)
from .determinant import (
    angular_determinant,
    det_D,
    radial_det_contribution,
    zeta_pi_series,
    zeta_pi_value,
    zeta_prime_at_zero,
)
from .domain import (
    Ball,
    HeightProfile,
    ShellPartition,
    StepFunction,
    geom_sum,
    local_height,
    total_volume,
)
from .matrix import (
    OperatorMatrix,
    build_matrix,
    galerkin_consistency_check,
    matrix_dimension,
    prolong_values,
    verify_matrix,
)
from .operator import (
    KernelContext,
    apply_D_height,
    apply_D_step,
    c_p_const,
    greens_function,
    height_check_points,
    integrate_H_over_ball,
    kernel_H,
    weak_delta_check,
)
from .padic import (
    PrimeParams,
    TatePoint,
    norm,
    point,
    reduce_to_E,
    tate_div,
    tate_inv,
    tate_mul,
    valuation,
)
from .spectral import (
    AngularCharacter,
    CharacterLabel,
    OutOfRegimeError,
    SpectrumEntry,
    UnitCharacter,
    character_value,
    dtn_cross_check,
    eigenvalue_angular,
    eigenvalue_angular_sum,
    eigenvalue_for_label,
    eigenvalue_radial_closed,
    eigenvalue_radial_integral,
    enumerate_conductor,
    enumerate_spectrum,
    multiplicity,
    spectral_gap,
    weyl_count,
)
from .tree import tree_quotient, tree_quotient_dot

__version__ = "0.1.0"
