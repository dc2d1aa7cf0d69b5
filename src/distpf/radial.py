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
raises ``LogObstruction``.  ``frobenius`` runs both modes through one
row loop, and each row is one C-level pass over the lag weights against
the coefficients before it, newest first, ending at a_0 or the last lag
(no zero padding): an integer ``sum`` in exact mode, a left-to-right fold
from the first term in float mode.  Exact rows run in integers
(fraction-free, as in Bareiss, Math. Comp. 22, 1968): Q is the product
of the row factors K D(k) with D(k) != 0, a_0 is kept as Q, and each
later a_k as n_k = a_k Q, found by one exact division of its row sum by
K D(k).  Q is formed as K**c * P, with c the count and P the product of
the nonzero D(k); ``_products`` caches (c, P) keyed on the D table itself
(never on (n, s, ell) alone, so a table that differs, a patched one
included, never reads another table's product).  A singular root runs
its rows up to the resonance over the head product of those factors
only, so an obstruction stops before Q is built; then the numerators are
multiplied once by the tail product, cached beside the head.  The series
stores the numerators over Q and reduces no coefficient until one is
read (see ``pseudofunction``).  ``radial_residuals`` sums exact rows over the
series' own denominator, again without a ``Fraction`` per coefficient,
and returns one shared zero for every vanishing row (all of them at once
when no integer row is nonzero).  It sums its rows lag by lag: the
kinetic term of every row first, then each lag weight added to all rows
at once.  That is the order of the row-at-a-time sum (kinetic term,
lag 1, lag 2, ...), so float rows round exactly as it would.

The problem data live here too: ``PotentialModel`` for V(r) and
``PhysicalUnits`` for kappa.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from math import isfinite, lcm, prod
from operator import add, mul

from .coeffs import _Record
from .pseudofunction import RadialSeries, _one_mode

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


class PotentialModel(_Record):
    """Central potential v_(-1)/r + v_0 + v_1 r + ... (no stronger singularity).

    Coefficients are exact rationals or floats, never mixed, by the rule
    that also decides a ``RadialSeries``'s mode.  ``is_exact`` takes part
    in ``==`` and ``hash`` but not ``repr``.
    """

    _fields, _hidden = ("v_minus1", "v"), ("is_exact",)

    def __init__(self, v_minus1: object = Fraction(0), v: tuple = ()):
        (v_minus1, *v), exact = _one_mode((v_minus1, *v))
        object.__setattr__(self, "v_minus1", v_minus1)
        object.__setattr__(self, "v", tuple(v))
        object.__setattr__(self, "is_exact", exact)

    @staticmethod
    def zero() -> "PotentialModel":
        return PotentialModel()

    @staticmethod
    def coulomb(strength) -> "PotentialModel":
        return PotentialModel(v_minus1=strength)


class PhysicalUnits(_Record):
    """The scale hbar^2/2m in front of the kinetic term; exact and positive."""

    _fields = ("hbar2_over_2m",)

    def __init__(self, hbar2_over_2m: Fraction = Fraction(1)):
        hbar2_over_2m = Fraction(hbar2_over_2m)
        if hbar2_over_2m <= 0:
            raise ValueError("hbar^2/2m must be positive")
        object.__setattr__(self, "hbar2_over_2m", hbar2_over_2m)

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


class FreeParameterSetToZero(_Record):
    """A resonant order whose free coefficient was fixed to zero."""

    _fields = ("order",)

    def __init__(self, order: int):
        object.__setattr__(self, "order", order)


class FrobeniusResult(_Record):
    """Series for u(r) (leading exponent root+1), plus resonance bookkeeping."""

    _fields = ("series", "root_used", "resonance_report")

    def __init__(
        self, series: RadialSeries, root_used: int, resonance_report: FreeParameterSetToZero | None = None
    ):
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "root_used", root_used)
        object.__setattr__(self, "resonance_report", resonance_report)


def indicial_roots(ell: int) -> tuple[int, int]:
    """Leading exponents (regular, singular) = (ell, -(ell+1)) for R(r)."""
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    return ell, -(ell + 1)


def normalizable_at_origin(s) -> bool:
    """Whether |r^s|^2 r^2 dr converges at zero, i.e. s > -3/2."""
    return s > Fraction(-3, 2)


@lru_cache(maxsize=256, typed=True)
def _indicials(n: int, s, ell: int) -> tuple:
    """(D(0), ..., D(n-1)) with D(m) = (m+s+1)(m+s) - ell(ell+1), the factor of a_m in row m.

    Typed, so an int exponent's table never serves a float one.
    """
    c = ell * (ell + 1)
    return tuple([(m + s + 1) * (m + s) - c for m in range(n)])


@lru_cache(maxsize=256)
def _products(D: tuple, r: int) -> tuple:
    """((c, P), (c', P')): how many D(k) != 0 there are and their product, for k <= r and k > r.

    Keyed on the table itself, not on (n, s, ell): a table that differs
    (a patched ``_indicials``) gets its own entry.
    """
    head = [x for x in D[: r + 1] if x]
    tail = [x for x in D[r + 1 :] if x]
    return (len(head), prod(head)), (len(tail), prod(tail))


def _lag_weights(v_minus1, v, E) -> tuple:
    """(v_(-1), v_0 - E, v_1, v_2, ...): the weights of a_(m-1), a_(m-2), ... in row m."""
    return (v_minus1, (v[0] if v else 0) - E, *v[1:])


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

    The result's series is for u(r) = r R(r), so its leading exponent is
    root + 1, normalised to a_0 = 1; ``radial_residuals`` reads R instead,
    so give it ``from_u(result.series, label).radial``.  Exact mode
    (rational E and potential) produces rational coefficients; a float
    anywhere switches the whole series to floats.
    """
    roots = indicial_roots(ell)
    if root not in roots:
        raise ValueError(f"root {root} is not one of the indicial roots {roots}")
    if N < 1:
        raise ValueError(f"truncation order must be at least 1, got {N}")

    exact = V.is_exact and not isinstance(E, float)
    D = _indicials(N + 1, root, ell)
    if exact:
        # n_k = a_k Q, Q the product of the factors K D(k) with D(k) != 0: row k,
        # K D(k) n_k = sum_d w_d n_(k-d), divides exactly, as the factors up to k clear a_k.
        # A singular root runs rows 1 .. r = 2 ell + 1 over the head product first.
        K, w, _ = _integer_row(_lag_weights(V.v_minus1, V.v, E), units.hbar2_over_2m)
        r = min(2 * ell + 1, N) if root < 0 else N
        (c, P), tail = _products(D, r)
        a = [K**c * P]
    else:
        kappa = units.to_float()
        w = _lag_weights(float(V.v_minus1) / kappa, [float(x) / kappa for x in V.v], float(E) / kappa)
        r = N  # no rescale: float rows run over a_0 = 1
        a = [1.0]
    resonance = None
    for k in range(1, N + 1):
        if k == r + 1:
            c, P = tail
            rest = K**c * P
            a = [x * rest for x in a]
        # Row k: w[0] a_(k-1) + w[1] a_(k-2) + ..., cut off after a_0 or the last lag.
        if exact:
            rhs = sum(map(mul, w, reversed(a)))
        else:
            # A left fold from the first term, not ``sum``: that rounds differently from
            # Python 3.12 on, and a -0.0 row stays -0.0.
            rhs = reduce(add, map(mul, w, reversed(a)))
            # Fail closed: an inf or nan row (float overflow) would also fake an obstruction.
            if not isfinite(rhs):
                raise ValueError(f"float recurrence is not finite at order {k} (row value {rhs})")
        if D[k]:
            a.append(rhs // (K * D[k]) if exact else rhs / D[k])
        elif rhs != 0:  # D(k) = 0: a nonzero row needs a logarithm, else a_k is set to 0
            raise LogObstruction(k)
        else:
            resonance = FreeParameterSetToZero(k)
            a.append(0 if exact else 0.0)
    series = RadialSeries._over(root + 1, a, a[0]) if exact else RadialSeries(root + 1, tuple(a))
    return FrobeniusResult(series=series, root_used=root, resonance_report=resonance)


# Every vanishing exact residual row is this one shared (immutable) Fraction.
_ZERO = Fraction(0)


def radial_residuals(
    V: PotentialModel,
    ell: int,
    E,
    units: PhysicalUnits,
    series: RadialSeries,
) -> list:
    """Coefficients of (H - E) applied to R(r) = r^s * series, in the function sense.

    The series is that of R, not of u = r R as ``frobenius`` returns it:
    pass ``from_u(result.series, label).radial``.  Entry m is the
    coefficient of r^(s+m-2); the series solves the radial equation to its
    truncation order exactly when every entry vanishes.
    These are the complete rows of the recurrence: each one only references
    stored coefficients.
    """
    kappa = units.hbar2_over_2m
    s = series.s
    w = _lag_weights(V.v_minus1, V.v, E)
    if series.is_exact and V.is_exact and not isinstance(E, float):
        # Over the common denominator L*M, with the series' own n_k = a_k M.
        K, c, L = _integer_row(w, kappa)
        n, M = series._nums, series._den
        rows = [-K * d * x for d, x in zip(_indicials(len(n), s, ell), n)]
        for d, cd in enumerate(c, 1):
            if cd:
                rows[d:] = map(add, rows[d:], map(mul, repeat(cd), n))
        if not any(rows):
            return [_ZERO] * len(rows)
        LM = L * M
        return [Fraction(x, LM) if x else _ZERO for x in rows]
    units.to_float()  # the float range check only: the rows below keep kappa exact
    a = series.coeffs
    # Float rows: int / int rounds -kappa D(m) once, exactly as float(Fraction) would.
    # Every lag weight is added, zeros too: 0.0 * inf and -0.0 + 0.0 change a row.
    kn, kd = kappa.numerator, kappa.denominator
    rows = [-(kn * d) / kd * x for d, x in zip(_indicials(len(a), s, ell), a)]
    for d, wd in enumerate(w, 1):
        rows[d:] = map(add, rows[d:], map(mul, repeat(wd), a))
    return rows
