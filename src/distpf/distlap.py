"""Distributional Laplacian engine for pseudofunctions r^s * series * Y.

Away from the origin the Laplacian of a single power acts termwise,

    lap(r^m Y_ell^mu) = [m(m+1) - ell(ell+1)] r^(m-2) Y_ell^mu,

and that rule extends a whole series.  Over all of R^3 the same operator
additionally produces a finite sum of iterated-delta corrections whenever
the exponent ladder s, s+1, ... crosses a singular rung: the coefficient
a_k contributes a term at iteration order p exactly when

    k + s + 1 - ell = -2p     with p an integer, p >= ell,

weighted by a_k * coeff_B(ell, p) * coeff_C(p).  A rung with p < ell
would carry r^ell Y_ell^mu lap^p(delta), the zero distribution (see
``pseudofunction.DeltaTerm``), so it is not one.  ``q_sl`` collects those
corrections for a labelled pseudofunction (a bare radial series is the
label (0, 0)); ``laplacian`` returns the full decomposition
(function-sense part plus delta sum), and ``hamiltonian_apply`` assembles
H Pf = E Pf - (hbar^2/2m) * corrections for a series solving the radial
eigenvalue problem.

Everything here is pure; batch sweeps over (s, ell, series) can run in
parallel without coordination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import is_, mul

from . import radial
from .coeffs import ExactScalar, coeff_B, coeff_C
from .pseudofunction import (
    DeltaSum,
    DeltaTerm,
    DistributionExpr,
    PseudoFunction,
    RadialSeries,
)
from .radial import PhysicalUnits, PotentialModel

__all__ = [
    "NotRadialSolution",
    "q_sl",
    "laplacian",
    "hamiltonian_apply",
    "delta_source",
]

# 1/sqrt(4*pi) as an exact scalar: the l = 0 harmonic normalisation constant.
Y00 = ExactScalar.pi_term(Fraction(1, 2), -1)


class NotRadialSolution(Exception):
    """Strict-mode failure: the series does not satisfy the radial recurrence."""

    def __init__(self, orders):
        self.orders = tuple(orders)
        super().__init__(
            f"radial recurrence residual nonzero at orders {self.orders}"
        )


def _integral_exponent(s):
    """Return s as an int when it is integral, else None (no delta channel)."""
    if isinstance(s, int):
        return s
    if isinstance(s, float) and s.is_integer():
        return int(s)
    return None


def q_sl(pf: PseudoFunction) -> DeltaSum:
    """Delta corrections of the full Laplacian on a labelled pseudofunction.

    Nonempty iff some a_k != 0 sits on a singular rung k + s - ell =
    -2p - 1 with integer p >= ell; a non-integral s has none.  At ell = 0
    (angular factor 1) s = -1 gives the point source a_0 * coeff_C(0) delta.
    A float a_k is lifted to its exact binary rational, so the weights
    stay exact; a non-finite one on a rung raises ``ValueError``.
    """
    ell, mu = pf.angular.ell, pf.angular.mu
    s = _integral_exponent(pf.radial.s)
    if s is None:
        return DeltaSum.empty()
    # Only the a_k that can sit on a rung, k <= -s-ell-1 with k = ell-s-1
    # (mod 2), are read; there p = (ell - s - 1 - k) / 2 >= ell, one k per p.
    # No weight is zero (nor is coeff_B or coeff_C): reversed, the terms are canonical.
    coeffs = pf.radial._head(-s - ell)
    terms = []
    for k in range((ell - s - 1) % 2, len(coeffs), 2):
        a = coeffs[k]
        if a == 0:
            continue
        p = (ell - s - 1 - k) // 2
        if isinstance(a, float) and not math.isfinite(a):
            raise ValueError(f"coefficient a_{k} = {a} on a singular rung has no exact weight")
        weight = Fraction(a) * coeff_B(ell, p) * coeff_C(p)
        terms.append(DeltaTerm(weight, ell, mu, p))
    return DeltaSum(tuple(reversed(terms)))


def laplacian(pf: PseudoFunction) -> DistributionExpr:
    """Distributional Laplacian of a pseudofunction, termwise plus corrections.

    The output series keeps the input truncation order with the exponent
    shifted down by two.  A float series whose finite coefficient gives a
    non-finite output coefficient raises ``ValueError``.
    """
    rad, label = pf.radial, pf.angular
    s, ell = rad.s, label.ell
    out = list(map(mul, radial._indicials(len(rad.coeffs), s, ell), rad.coeffs))
    if not rad.is_exact:
        for k, (a, b) in enumerate(zip(rad.coeffs, out)):
            if math.isfinite(a) and not math.isfinite(b):
                raise ValueError(f"float Laplacian is not finite at order {k} (coefficient {b})")
    pf_part = PseudoFunction(RadialSeries.make(s - 2, out), label)
    return DistributionExpr(pf_part, q_sl(pf))


def delta_source(pf: PseudoFunction, units: PhysicalUnits) -> DeltaSum:
    """The physical source  -(hbar^2/2m) * q_sl(pf), times Y_0^0 = 1/sqrt(4 pi) at l = 0.

    This is the delta part of H Pf for a series solving the radial
    equation, and the right-hand-side source a classified state carries.
    Every term has the label's ell, so one factor scales the whole sum.
    An empty sum (every regular state) is returned as is.
    """
    q = q_sl(pf)
    if q.is_empty:
        return q
    factor = ExactScalar.rational(-units.hbar2_over_2m)
    return q.scaled(factor * Y00 if pf.angular.ell == 0 else factor)


def hamiltonian_apply(
    pf: PseudoFunction,
    V: PotentialModel,
    E,
    units: PhysicalUnits = PhysicalUnits(),
    strict: bool = False,
) -> DistributionExpr:
    """Apply H = -(hbar^2/2m) lap + V to Pf, assuming the radial equation.

    When the series satisfies the radial recurrence at every stored order
    the result is exactly  E * Pf  plus ``delta_source(pf, units)``, the
    delta part -(hbar^2/2m) * q_sl(pf) times 1/sqrt(4 pi) at l = 0 (so an
    l = 0 state with u(0) = a_0 in natural units reports 2 sqrt(pi) a_0 delta).

    If the recurrence fails, strict mode raises ``NotRadialSolution``;
    lenient mode (the default) returns the honest function-sense series,
    which carries the residual on top of E * Pf at the shifted exponent.
    """
    resid = radial.radial_residuals(V, pf.angular.ell, E, units, pf.radial)
    # Every vanishing exact row is radial's one shared zero: test them by identity, in C.
    bad = [] if all(map(is_, resid, repeat(radial._ZERO))) else [m for m, r in enumerate(resid) if r]
    if bad and strict:
        # A caller that keeps the exception keeps this frame through its
        # traceback, until the cycle collector runs: leave no rows in it.
        del resid
        raise NotRadialSolution(bad)

    delta = delta_source(pf, units)

    rad = pf.radial
    if not bad:
        pf_part = PseudoFunction(rad.scaled(E), pf.angular)
    else:
        coeffs = resid[:2] + [r + E * a for r, a in zip(resid[2:], rad.coeffs)]
        pf_part = PseudoFunction(RadialSeries.make(rad.s - 2, coeffs), pf.angular)
    return DistributionExpr(pf_part, delta)
