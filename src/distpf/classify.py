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

    Only the state is stored: the exact ``delta_source``, the ``root`` of R
    and the series ``u_series`` for u (None when a logarithm is needed at
    ``obstruction_order``).  u(0), u(0) = 0, normalizability and the cited
    equations are read off it.  ``kind`` must match the source as ``of``
    sets it; the type cannot enforce that, since a check is tested by
    replacing ``kind`` with a wrong one.
    """

    kind: VerdictKind
    delta_source: DeltaSum
    root: int
    u_series: RadialSeries | None
    obstruction_order: int | None

    @classmethod
    def of(cls, root: int, source=DeltaSum.empty(), u_series=None, obstruction_order=None) -> "Verdict":
        """The verdict on a state: no series, no radial solution; else SOLVES_SE iff no source."""
        if u_series is None:
            return cls(VerdictKind.NOT_RADIAL_SOLUTION, source, root, None, obstruction_order)
        kind = VerdictKind.SOLVES_SE if source.is_empty else VerdictKind.SOLVES_MODIFIED_SE
        return cls(kind, source, root, u_series, obstruction_order)

    @property
    def u_at_origin(self):
        """u(0): a_0 if u starts at r^0, zero if later, None if u diverges or has no series."""
        series = self.u_series
        if series is None or series.s < 0:
            return None
        if series.s == 0:
            return series.coeffs[0]
        return Fraction(0) if series.is_exact else 0.0

    @property
    def boundary_condition_met(self) -> bool:
        return self.u_at_origin == 0

    @property
    def normalizable(self) -> bool:
        return normalizable_at_origin(self.root)

    @property
    def equations_cited(self) -> tuple[EquationForm, ...]:
        if self.kind is VerdictKind.SOLVES_SE:
            return (EquationForm.SCHROEDINGER,)
        if self.kind is VerdictKind.NOT_RADIAL_SOLUTION:
            return ()
        point = (EquationForm.REDUCED_POINT_SOURCED,) if self.root == -1 else ()  # l = 0 only
        return (EquationForm.MODIFIED_SCHROEDINGER, EquationForm.RADIAL_PSEUDOFUNCTION_SOURCED, *point)


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
        return Verdict.of(root, obstruction_order=obs.order)
    pf = from_u(result.series, AngularLabel(ell, mu))
    return Verdict.of(root, delta_source(pf, units), result.series)
