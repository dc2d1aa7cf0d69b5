"""Value types for singular radial series, delta terms, and their sums.

A ``RadialSeries`` is r^s * (a_0 + a_1 r + ... + a_N r^N) with a genuine
leading coefficient; attaching an ``AngularLabel`` gives a
``PseudoFunction``, the symbolic form of a (possibly singular) separable
function on R^3.  Applying a distributional operator to a pseudofunction
yields a ``DistributionExpr``: a pseudofunction part plus a finite
``DeltaSum`` of iterated-delta corrections.

Conventions
-----------
* Exact mode holds rational coefficients and requires an integer
  leading exponent; float mode holds floats and allows any real exponent.
  One rule, ``_one_mode``, picks the mode for a series and for a
  ``radial.PotentialModel``: a float anywhere makes every value a float.
  The mode is part of a value's identity, so an exact and a float value
  never compare equal.
* An exact ``RadialSeries`` stores integer numerators over one
  denominator, as FLINT's ``fmpq_poly`` does (Hart, ICMS 2010).  The
  denominator is a common positive one, not necessarily the least: a
  ``frobenius`` series keeps the one its recurrence built, with no gcd
  pass.  The tuple of reduced ``Fraction``s, ``coeffs``, is built and
  cached on first read (``repr``, JSON, report text, float conversion,
  and ``hash``, which stays that of ``(s, coeffs, is_exact)``);
  ``scaled``, ``from_u``, the delta rungs and the recurrence rows read
  the integers.  ``==`` compares the stored tuples first and falls back
  to the reduced coefficients, the key ``hash`` reads.  ``scaled`` takes
  one small gcd, of the denominator and the factor's numerator.  A float
  series stores its coefficients as they are, over 1.
* A ``DeltaTerm`` with ell = 0 denotes  coefficient * laplacian^p(delta)
  with no angular factor at all.  For ell >= 1 it denotes
  coefficient * r^ell * Y_ell^mu * laplacian^p(delta)  with Y the real,
  unit-L2-normalised spherical harmonic.  Any constant angular factor an
  l = 0 state carries is folded into the coefficient by the operation
  that reports physical source terms, ``distlap.delta_source``.

All types are immutable and freely shareable across threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import attrgetter, mul, neg

from .coeffs import ExactScalar, _Record

__all__ = [
    "RadialSeries",
    "AngularLabel",
    "PseudoFunction",
    "DeltaTerm",
    "DeltaSum",
    "DistributionExpr",
    "from_u",
]


def _one_mode(values: tuple) -> tuple[tuple, bool]:
    """(values, is_exact): all floats if any value is a float, else all plain Fractions."""
    # One C-level pass; a tuple of plain Fractions or plain floats is kept as is.
    kinds = set(map(type, values))
    if kinds == {Fraction} or kinds == {float}:
        return values, float not in kinds
    if any(isinstance(a, float) for a in values):
        return tuple(map(float, values)), False
    return tuple(a if type(a) is Fraction else Fraction(a) for a in values), True


class RadialSeries(_Record):
    """r^s times a truncated power series with nonzero leading coefficient.

    ``coeffs`` runs a_0 .. a_N (N is the truncation order); trailing zeros
    are meaningful (they assert the coefficient is zero up to that order),
    leading zeros are forbidden.  The unique zero series has no
    coefficients, exponent 0, and is exact.  ``is_exact`` is derived from
    the coefficients; it takes part in ``==`` and ``hash`` but not ``repr``.

    Stored are ``s``, ``is_exact`` and the numerators ``_nums`` over a
    common denominator ``_den`` (see the module Conventions); ``coeffs`` is
    derived and cached, and ``hash`` reads it.
    """

    _fields, _hidden = ("s", "coeffs"), ("is_exact",)
    _stored = attrgetter("s", "_den", "_nums", "is_exact")

    def __init__(self, s: int | float, coeffs: tuple):
        coeffs, exact = _one_mode(tuple(coeffs))
        if not coeffs:
            s = 0
        elif exact and not isinstance(s, int):
            raise ValueError("exact-mode series require an integer leading exponent")
        elif coeffs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        den, nums = 1, coeffs
        if exact:
            den = lcm(*(a.denominator for a in coeffs))
            nums = tuple(a.numerator * (den // a.denominator) for a in coeffs)
        self._set(s, nums, den, exact, coeffs)

    def _set(self, s, nums: tuple, den: int, exact: bool, coeffs: tuple | None = None):
        put = object.__setattr__
        put(self, "s", s)
        put(self, "_nums", nums)
        put(self, "_den", den)
        put(self, "is_exact", exact)
        put(self, "_coeffs", coeffs)  # None until first read
        return self

    @classmethod
    def _over(cls, s: int, nums, den: int) -> "RadialSeries":
        """The exact series r^s * sum_k nums[k] r^k / den; nums[0] nonzero, den > 0.

        The one constructor of an exact series from stored numerators:
        ``nums`` and ``den`` are kept as given, with no gcd taken.
        """
        return object.__new__(cls)._set(s, tuple(nums), den, True)

    def _with_exponent(self, s) -> "RadialSeries":
        """The same coefficients at leading exponent s, shared, not copied."""
        shared = object.__new__(RadialSeries)
        return shared._set(s, self._nums, self._den, self.is_exact, self._coeffs)

    @property
    def coeffs(self) -> tuple:
        """a_0 .. a_N; an exact series reduces each one once, on first read."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", self._head(len(self._nums)))
        return self._coeffs

    def _head(self, n: int) -> tuple:
        """a_0 .. a_(n-1), or all if fewer, without reducing the others."""
        n = max(n, 0)
        if self._coeffs is not None:
            return self._coeffs[:n]
        den = self._den
        return tuple([Fraction(x, den) for x in self._nums[:n]])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Over different common denominators the reduced coefficients decide.
        return self._stored(self) == other._stored(other) or self._key(self) == other._key(other)

    __hash__ = _Record.__hash__

    # -- constructors --------------------------------------------------

    @staticmethod
    def exact(s: int, coeffs) -> "RadialSeries":
        return RadialSeries(s, tuple(Fraction(a) for a in coeffs))

    @staticmethod
    def make(s, coeffs) -> "RadialSeries":
        """Build a series, stripping leading zeros and normalising zero."""
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            s = s + 1
        if not coeffs:
            return RadialSeries(0, ())
        return RadialSeries(s, tuple(coeffs))

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def order(self) -> int:
        """Truncation order N (number of stored coefficients minus one)."""
        return len(self._nums) - 1

    def scaled(self, factor) -> "RadialSeries":
        if self.is_zero or factor == 0:
            return RadialSeries(0, ())
        if not (self.is_exact and isinstance(factor, (int, Fraction))):
            return RadialSeries(self.s, tuple(map(mul, self.coeffs, repeat(factor))))
        # One small gcd, of den and p: the product stays over the common
        # denominator den/g * q, with no gcd over the full-width numerators.
        # A unit p/g shares the numerators (1) or negates them (-1).
        p, q = factor.numerator, factor.denominator
        g = gcd(self._den, p)
        p //= g
        if p == 1:
            nums = self._nums
        elif p == -1:
            nums = tuple(map(neg, self._nums))
        else:
            nums = tuple(map(mul, self._nums, repeat(p)))
        return RadialSeries._over(self.s, nums, self._den // g * q)


class AngularLabel(_Record):
    """Degree and order (ell, mu) of a spherical-harmonic factor."""

    _fields = ("ell", "mu")

    def __init__(self, ell: int, mu: int):
        if ell < 0:
            raise ValueError(f"ell must be nonnegative, got {ell}")
        if abs(mu) > ell:
            raise ValueError(f"|mu| <= ell violated: ell={ell}, mu={mu}")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "mu", mu)


class PseudoFunction(_Record):
    """A radial series with an angular label: the symbolic separable state."""

    _fields = ("radial", "angular")

    def __init__(self, radial: RadialSeries, angular: AngularLabel):
        object.__setattr__(self, "radial", radial)
        object.__setattr__(self, "angular", angular)


class DeltaTerm(_Record):
    """coefficient * r^ell * Y_ell^mu * laplacian^p(delta).

    For ell = 0 the angular factor is absent (a bare iterated delta).  A
    term with p < ell is identically zero and may not be stored: it pairs
    with phi as lap^p(H phi)(0), H = r^ell Y_ell^mu harmonic of degree ell,
    and H is orthogonal on the sphere to every polynomial of degree
    2p - ell < ell.  Neither may a zero coefficient be stored.
    """

    _fields = ("coefficient", "ell", "mu", "p")

    def __init__(self, coefficient: ExactScalar, ell: int, mu: int, p: int):
        if coefficient.is_zero:
            raise ValueError("delta term with zero coefficient")
        if p < 0:
            raise ValueError(f"p must be nonnegative, got {p}")
        AngularLabel(ell, mu)  # raises on a bad label
        if p < ell:
            raise ValueError(f"term with p < ell is identically zero (ell={ell}, p={p})")
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "p", p)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.ell, self.mu, self.p)


class DeltaSum(_Record):
    """A finite sum of delta terms; the empty sum is the zero distribution.

    Terms are kept sorted by (ell, mu, p) with at most one term per key, so
    equality is structural.
    """

    _fields = ("terms",)

    def __init__(self, terms: tuple[DeltaTerm, ...] = ()):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def build(terms) -> "DeltaSum":
        """Merge terms sharing a key, dropping anything that cancels."""
        acc: dict[tuple[int, int, int], ExactScalar] = {}
        for t in terms:
            acc[t.key] = acc.get(t.key, ExactScalar()) + t.coefficient
        kept = [
            DeltaTerm(c, ell, mu, p)
            for (ell, mu, p), c in sorted(acc.items())
            if not c.is_zero
        ]
        return DeltaSum(tuple(kept))

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "DeltaSum") -> "DeltaSum":
        return DeltaSum.build(self.terms + other.terms)

    def scaled(self, factor) -> "DeltaSum":
        if not factor:
            return DeltaSum()
        return DeltaSum(
            tuple(
                DeltaTerm(t.coefficient * factor, t.ell, t.mu, t.p) for t in self.terms
            )
        )


class DistributionExpr(_Record):
    """Result of a distributional operator: pseudofunction part + delta sum."""

    _fields = ("pf_part", "delta_part")

    def __init__(self, pf_part: PseudoFunction, delta_part: DeltaSum):
        object.__setattr__(self, "pf_part", pf_part)
        object.__setattr__(self, "delta_part", delta_part)


def from_u(u: RadialSeries, angular: AngularLabel) -> PseudoFunction:
    """Turn a reduced radial function u(r) into the pseudofunction u(r)/r * Y.

    The series of u carries its own leading exponent; dividing by r shifts
    the exponent down by one and leaves the coefficient list untouched.
    """
    if u.is_zero:
        return PseudoFunction(RadialSeries(0, ()), angular)
    return PseudoFunction(u._with_exponent(u.s - 1), angular)
