"""Decide which equation a candidate separable state actually satisfies.

A series solution of the radial equation, substituted back into the full
three-dimensional problem, either satisfies the eigenvalue equation
H psi = E psi everywhere, or only a modification of it carrying an
explicit delta source on the right-hand side.  Which case occurs is an
exact, decidable property of the leading exponent and the series
coefficients: the regular root never produces a source, the singular root
always does (its leading term sits on a singular rung).

For l = 0 this is precisely the story of the boundary condition u(0) = 0:
a state with u(0) = a_0 != 0 satisfies not the reduced radial eigenvalue
problem's parent equation but

    H psi = E psi + (2 kappa sqrt(pi)) u(0) delta,      kappa = hbar^2/2m,

so demanding u(0) = 0 adds nothing beyond membership in the original
equation.  ``classify_solution`` reports the verdict together with the
exact source and machine-readable names of the equations satisfied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .distlap import delta_source, q_sl
from .pseudofunction import AngularLabel, DeltaSum, PseudoFunction, RadialSeries, from_u
from .radial import (
    LogObstruction,
    PhysicalUnits,
    PotentialModel,
    frobenius,
    normalizable_at_origin,
)

__all__ = [
    "VerdictKind",
    "EquationForm",
    "Verdict",
    "q_nonvanishing",
    "classify_solution",
]


class VerdictKind(enum.Enum):
    SOLVES_SE = "solves_schroedinger"
    SOLVES_MODIFIED_SE = "solves_modified_schroedinger"
    NOT_RADIAL_SOLUTION = "not_a_radial_series_solution"


class EquationForm(enum.Enum):
    """Machine-readable names for the equations a state can satisfy."""

    SCHROEDINGER = "schroedinger_eigenvalue_equation"
    MODIFIED_SCHROEDINGER = "schroedinger_with_delta_source"
    RADIAL_PSEUDOFUNCTION_SOURCED = "radial_equation_with_delta_source"
    REDUCED_POINT_SOURCED = "reduced_radial_equation_with_point_source"


EQUATION_DESCRIPTIONS = {
    EquationForm.SCHROEDINGER: "H psi = E psi in all of R^3",
    EquationForm.MODIFIED_SCHROEDINGER: (
        "H Pf.psi = E Pf.psi + source, with the listed delta source"
    ),
    EquationForm.RADIAL_PSEUDOFUNCTION_SOURCED: (
        "the radial operator equation on Pf.R acquires the delta source"
    ),
    EquationForm.REDUCED_POINT_SOURCED: (
        "the l = 0 reduced equation's parent carries the point source "
        "(2 hbar^2/2m) sqrt(pi) u(0) delta"
    ),
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of classifying one radial series solution.

    ``delta_source`` is the exact right-hand-side source (empty iff the
    state solves the unmodified equation); ``u_at_origin`` is the value of
    u(0) when defined (None when u diverges at the origin or no series
    exists).  The kind is SOLVES_SE exactly when the source is empty, and
    for l = 0 the boundary condition u(0) = 0 holds exactly in that case.
    """

    kind: VerdictKind
    delta_source: DeltaSum
    u_at_origin: object
    boundary_condition_met: bool
    normalizable: bool
    equations_cited: tuple[EquationForm, ...]
    root: int
    u_series: RadialSeries | None = None
    obstruction_order: int | None = None


def q_nonvanishing(pf: PseudoFunction) -> bool:
    """Predicate: does the Laplacian of pf pick up any delta correction?

    Every occupied singular rung has its own iteration order p and a
    nonzero weight a_k * coeff_B * coeff_C, so the correction sum is empty
    exactly when no rung is occupied.
    """
    return not q_sl(pf).is_empty


def classify_solution(
    V: PotentialModel,
    ell: int,
    mu: int,
    E,
    root: int,
    N: int,
    units: PhysicalUnits = PhysicalUnits(),
) -> Verdict:
    """Solve the radial problem for one root and report which equation holds.

    A log obstruction yields kind NOT_RADIAL_SOLUTION (no pure series
    exists for this root).  Otherwise the state solves the plain
    eigenvalue equation iff its delta source vanishes; the source, when
    present, is reported exactly, scaled by -(hbar^2/2m) and with the
    l = 0 angular normalisation folded in.
    """
    try:
        result = frobenius(V, ell, E, root, N, units)
    except LogObstruction as obs:
        return Verdict(
            kind=VerdictKind.NOT_RADIAL_SOLUTION,
            delta_source=DeltaSum.empty(),
            u_at_origin=None,
            boundary_condition_met=False,
            normalizable=normalizable_at_origin(root),
            equations_cited=(),
            root=root,
            u_series=None,
            obstruction_order=obs.order,
        )

    pf = from_u(result.series, AngularLabel(ell, mu))
    source = delta_source(pf, units)

    if root >= 0:
        u0 = Fraction(0) if result.series.is_exact else 0.0
    elif root == -1:
        u0 = result.series.coeffs[0]
    else:
        u0 = None

    if source.is_empty:
        kind = VerdictKind.SOLVES_SE
        cited = (EquationForm.SCHROEDINGER,)
    else:
        kind = VerdictKind.SOLVES_MODIFIED_SE
        cited = (
            EquationForm.MODIFIED_SCHROEDINGER,
            EquationForm.RADIAL_PSEUDOFUNCTION_SOURCED,
        )
        if ell == 0:
            cited = cited + (EquationForm.REDUCED_POINT_SOURCED,)

    return Verdict(
        kind=kind,
        delta_source=source,
        u_at_origin=u0,
        boundary_condition_met=(u0 == 0) if u0 is not None else False,
        normalizable=normalizable_at_origin(root),
        equations_cited=cited,
        root=root,
        u_series=result.series,
    )
