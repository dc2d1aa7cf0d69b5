"""distpf: distributional Laplacians of singular radial functions.

The package computes, exactly, the iterated-delta corrections that the
Laplacian and the radial Hamiltonian pick up on functions of the form
r^s * (power series) * (spherical harmonic); solves the radial eigenvalue
problem by power series; classifies whether a candidate separable state
satisfies the plain eigenvalue equation or a delta-sourced modification;
and verifies every symbolic identity numerically through Hadamard
finite-part pairings with polynomial-Gaussian test functions.
"""

from .coeffs import ExactScalar, coeff_B, coeff_C, coeff_L
from .pseudofunction import (
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    DistributionExpr,
    PseudoFunction,
    RadialSeries,
    from_u,
)
from .distlap import (
    NotRadialSolution,
    PhysicalUnits,
    PotentialModel,
    fold_y00,
    hamiltonian_apply,
    laplacian,
    laplacian_power,
    q_s,
    q_sl,
    radial_operator,
)
from .radial import (
    FreeParameterSetToZero,
    FrobeniusResult,
    LogObstruction,
    frobenius,
    indicial_roots,
    normalizable_at_origin,
    radial_residuals,
)
from .classify import (
    EquationForm,
    Verdict,
    VerdictKind,
    classify_solution,
    q_nonvanishing,
)
from .oracle import (
    EULER_GAMMA,
    TestFunction,
    angular_moment,
    finite_part_closed_form,
    finite_part_integral,
    pair_delta,
    pair_pseudofunction,
    scalar_to_float,
    solid_harmonic,
    testfn_laplacian,
    verify_laplacian_identity,
)

__version__ = "0.1.0"

__all__ = [
    "ExactScalar",
    "coeff_B",
    "coeff_C",
    "coeff_L",
    "AngularLabel",
    "DeltaSum",
    "DeltaTerm",
    "DistributionExpr",
    "PseudoFunction",
    "RadialSeries",
    "from_u",
    "NotRadialSolution",
    "PhysicalUnits",
    "PotentialModel",
    "fold_y00",
    "hamiltonian_apply",
    "laplacian",
    "laplacian_power",
    "q_s",
    "q_sl",
    "radial_operator",
    "FreeParameterSetToZero",
    "FrobeniusResult",
    "LogObstruction",
    "frobenius",
    "indicial_roots",
    "normalizable_at_origin",
    "radial_residuals",
    "EquationForm",
    "Verdict",
    "VerdictKind",
    "classify_solution",
    "q_nonvanishing",
    "EULER_GAMMA",
    "TestFunction",
    "angular_moment",
    "finite_part_closed_form",
    "finite_part_integral",
    "pair_delta",
    "pair_pseudofunction",
    "scalar_to_float",
    "solid_harmonic",
    "testfn_laplacian",
    "verify_laplacian_identity",
]
