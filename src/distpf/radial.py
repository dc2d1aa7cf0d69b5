"""Power-series solver for the radial eigenvalue problem.

With the kinetic scale kappa = hbar^2/2m the radial equation for
u(r) = r * R(r) reads

    -kappa u'' + [ell(ell+1) kappa / r^2 + V(r)] u = E u,

and for a potential no more singular than 1/r the substitution
u = r^(s+1) * sum a_k r^k admits exactly two leading exponents,
s = ell and s = -(ell+1).  The coefficients then satisfy

    D(k) a_k = vt_(-1) a_(k-1) + (vt_0 - Et) a_(k-2) + sum_j vt_j a_(k-2-j)

with D(k) = (k+s+1)(k+s) - ell(ell+1) and vt = v/kappa, Et = E/kappa.

D(k) vanishes at k = 0 for both roots (that is the leading-exponent
condition) and, for the lower root only, again at k = 2*ell + 1.  At that
resonant order the right-hand side either vanishes (the free parameter is
set to zero, yielding a canonical representative of the singular branch)
or it does not, in which case no pure power series exists and the solver
raises ``LogObstruction``.  Exact rows run in integers over a common
denominator (fraction-free, as in Bareiss, Math. Comp. 22, 1968) and
return reduced ``Fraction``s.

The problem data live here too: ``PotentialModel`` for V(r) and
``PhysicalUnits`` for kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from operator import mul

from .pseudofunction import RadialSeries

__all__ = [
    "PotentialModel",
    "PhysicalUnits",
    "LogObstruction",
    "FreeParameterSetToZero",
    "FrobeniusResult",
    "indicial_roots",
    "frobenius",
    "radial_residuals",
    "normalizable_at_origin",
]


@dataclass(frozen=True)
class PotentialModel:
    """Central potential v_(-1)/r + v_0 + v_1 r + ... (no stronger singularity).

    Coefficients are exact rationals or floats, never mixed.
    """

    v_minus1: object = Fraction(0)
    v: tuple = ()

    def __post_init__(self):
        vals = (self.v_minus1, *self.v)
        if any(isinstance(x, float) for x in vals):
            object.__setattr__(self, "v_minus1", float(self.v_minus1))
            object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        else:
            object.__setattr__(self, "v_minus1", Fraction(self.v_minus1))
            object.__setattr__(self, "v", tuple(Fraction(x) for x in self.v))

    @staticmethod
    def zero() -> "PotentialModel":
        return PotentialModel()

    @staticmethod
    def coulomb(strength) -> "PotentialModel":
        return PotentialModel(v_minus1=strength)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.v_minus1, Fraction)

    @property
    def is_zero(self) -> bool:
        return self.v_minus1 == 0 and all(c == 0 for c in self.v)


@dataclass(frozen=True)
class PhysicalUnits:
    """The scale hbar^2/2m in front of the kinetic term; exact and positive."""

    hbar2_over_2m: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "hbar2_over_2m", Fraction(self.hbar2_over_2m))
        if self.hbar2_over_2m <= 0:
            raise ValueError("hbar^2/2m must be positive")

    def to_float(self) -> float:
        """hbar^2/2m for the float recurrence; ValueError unless it is a positive finite float."""
        try:
            kappa = float(self.hbar2_over_2m)  # 0.0 once it underflows
        except OverflowError:
            kappa = 0.0
        if not kappa:
            raise ValueError("must convert to a positive finite float in float mode")
        return kappa


class LogObstruction(Exception):
    """No pure power series exists: a logarithmic term would be required."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(
            f"resonance at order {order} with nonzero right-hand side; "
            "the series solution would need a logarithm"
        )


@dataclass(frozen=True)
class FreeParameterSetToZero:
    """A resonant order whose free coefficient was fixed to zero."""

    order: int


@dataclass(frozen=True)
class FrobeniusResult:
    """Series for u(r) (leading exponent root+1), plus resonance bookkeeping."""

    series: RadialSeries
    root_used: int
    resonance_report: FreeParameterSetToZero | None = None


def indicial_roots(ell: int) -> tuple[int, int]:
    """Leading exponents (regular, singular) = (ell, -(ell+1)) for R(r)."""
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    return ell, -(ell + 1)


def normalizable_at_origin(s) -> bool:
    """Whether |r^s|^2 r^2 dr converges at zero, i.e. s > -3/2."""
    return s > Fraction(-3, 2)


def _indicial(m: int, s, ell: int):
    """D(m) = (m+s+1)(m+s) - ell(ell+1), the factor of a_m in recurrence row m."""
    return (m + s + 1) * (m + s) - ell * (ell + 1)


def _lag_weights(V: PotentialModel, E) -> tuple:
    """(v_(-1), v_0 - E, v_1, v_2, ...): the weights of a_(m-1), a_(m-2), ... in row m."""
    return (V.v_minus1, (V.v[0] if V.v else 0) - E, *V.v[1:])


def _row_sum(w, a, m: int, acc=None):
    """acc plus sum_d w[d-1] a_(m-d) over the lags d <= m, added left to right.

    For float rows.  Without acc the sum starts at its first term (a -0.0
    row stays -0.0); row 0 has no terms and returns acc.
    """
    for d in range(1, min(len(w), m) + 1):
        acc = w[d - 1] * a[m - d] if acc is None else acc + w[d - 1] * a[m - d]
    return acc


def _integer_row(w, kappa: Fraction):
    """(K, c, L): row m as K D(m) a_m = sum_d c[d-1] a_(m-d), scaled by L to integers."""
    L = lcm(kappa.denominator, *(x.denominator for x in w))
    c = [x.numerator * (L // x.denominator) for x in w]
    return kappa.numerator * (L // kappa.denominator), c, L


def frobenius(
    V: PotentialModel,
    ell: int,
    E,
    root: int,
    N: int,
    units: PhysicalUnits = PhysicalUnits(),
) -> FrobeniusResult:
    """Solve the radial recurrence to order N for the requested root.

    The result's series is for u(r), so its leading exponent is root + 1,
    normalised to a_0 = 1.  Exact mode (rational E and potential) produces
    rational coefficients; a float anywhere switches the whole series to
    floats.
    """
    roots = indicial_roots(ell)
    if root not in roots:
        raise ValueError(f"root {root} is not one of the indicial roots {roots}")
    if N < 1:
        raise ValueError(f"truncation order must be at least 1, got {N}")

    exact = V.is_exact and not isinstance(E, float)
    if exact:
        # a_k = b_k / Q_k with Q_k = f_1 ... f_k and f_k = K D(k) (1 where
        # D(k) = 0), so b_k = sum_d c_d b_(k-d) f_(k-d+1) ... f_(k-1).
        K, c, _ = _integer_row(_lag_weights(V, Fraction(E)), units.hbar2_over_2m)
        b, f, Q = [1], [1], 1
    else:
        kappa = units.to_float()
        vm1, *vpoly = (float(x) / kappa for x in (V.v_minus1, *V.v))
        w = (vm1, (vpoly[0] if vpoly else 0) - float(E) / kappa, *vpoly[1:])
    a = [Fraction(1) if exact else 1.0]
    resonance = None
    for k in range(1, N + 1):
        if exact:
            rhs = 0
            for d in range(min(len(c), k), 0, -1):
                rhs = rhs * f[k - d] + c[d - 1] * b[k - d]
        else:
            rhs = _row_sum(w, a, k)
            # Fail closed: an inf or nan row (float overflow) would also fake an obstruction.
            if not isfinite(rhs):
                raise ValueError(f"float recurrence is not finite at order {k} (row value {rhs})")
        D = _indicial(k, root, ell)
        if D == 0:
            if rhs != 0:
                raise LogObstruction(k)
            resonance = FreeParameterSetToZero(k)
        if exact:
            f.append(K * D or 1)
            Q *= f[k]
            b.append(rhs)
            a.append(Fraction(rhs, Q))
        else:
            a.append(rhs / D if D else 0.0)

    return FrobeniusResult(
        series=RadialSeries(root + 1, tuple(a)),
        root_used=root,
        resonance_report=resonance,
    )


# Every vanishing exact residual row is this one shared (immutable) Fraction.
_ZERO = Fraction(0)


def radial_residuals(
    V: PotentialModel,
    ell: int,
    E,
    units: PhysicalUnits,
    series: RadialSeries,
) -> list:
    """Coefficients of (H - E) applied to r^s * series, in the function sense.

    Entry m is the coefficient of r^(s+m-2); the series solves the radial
    equation to its truncation order exactly when every entry vanishes.
    These are the complete rows of the recurrence: each one only references
    stored coefficients.
    """
    kappa = units.hbar2_over_2m
    s, a = series.s, series.coeffs
    w = _lag_weights(V, E)
    if series.is_exact and V.is_exact and not isinstance(E, float):
        # Over the common denominator L*M, with n_k = a_k M in integers.
        K, c, L = _integer_row(w, kappa)
        M = lcm(*(x.denominator for x in a))
        n = [x.numerator * (M // x.denominator) for x in a]
        LM, J = L * M, len(c)
        rows = []
        for m in range(len(n)):
            lags = reversed(n[max(m - J, 0):m])  # n_(m-1), ..., n_(m-J): row m's window
            x = sum(map(mul, c, lags)) - K * _indicial(m, s, ell) * n[m]
            rows.append(Fraction(x, LM) if x else _ZERO)
        return rows
    units.to_float()  # the float range check only: the rows below keep kappa exact
    # Float rows: int / int rounds -kappa D(m) once, exactly as float(Fraction) would.
    return [
        _row_sum(w, a, m, -(kappa.numerator * _indicial(m, s, ell)) / kappa.denominator * a[m])
        for m in range(len(a))
    ]
