"""Exact scalars q*pi^(h/2) and the universal delta-correction coefficients.

Every symbolic coefficient in this package lives in the ring of finite sums
of rational multiples of half-integer powers of pi; ``ExactScalar``
implements that ring with decidable, structural equality.  Half-integer
powers are needed because the l = 0 harmonic normalisation constant
1/sqrt(4*pi) gets folded into reported source coefficients.

On top of the scalar ring sit the coefficient families that govern which
iterated-delta terms a distributional Laplacian picks up when it crosses an
r^s singularity, and with what weight:

* ``coeff_C(p)``      weight of the p-fold iterated delta contributed by a
                      bare power of r at the singular exponent -2p - 1;
                      always a rational multiple of pi.
* ``coeff_L(p)``      companion weight picked up through the radial
                      derivative of the smooth series factor.
* ``coeff_B(ell, p)`` pure-rational correction when the source term carries
                      a degree-ell solid harmonic prefactor.

All functions are pure and cache-friendly; values are exact for arbitrarily
large p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import attrgetter

__all__ = [
    "ExactScalar",
    "coeff_C",
    "coeff_L",
    "coeff_B",
]

def _double_factorial(n: int) -> int:
    """n!! with the empty-product conventions (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _fmt_pi(half_power: int) -> str:
    if half_power == 0:
        return ""
    if half_power == 1:
        return "sqrt(pi)"
    if half_power == 2:
        return "pi"
    exp = Fraction(half_power, 2)
    if exp.denominator == 1:
        return f"pi^{exp}"
    return f"pi^({exp})"


class _Record:
    """Base of the package's immutable value types, built without code generation.

    A subclass names its fields in ``_fields`` and sets each one once in
    ``__init__`` with ``object.__setattr__``.  ``==`` and ``hash`` read
    ``_fields + _hidden`` as one tuple, and only between values of the same
    class; ``repr`` shows ``_fields`` as ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises AttributeError.  This is what
    ``@dataclass(frozen=True)`` would give, without its import-time ``exec``.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()  # in == and hash, not in repr

    def __init_subclass__(cls):
        # == and hash run inside cache lookups, so the key is read by one
        # C-level getter; for a single name it returns the bare value.
        names = (*cls._fields, *cls._hidden)
        get = attrgetter(*names)
        cls._key = get if len(names) > 1 else staticmethod(lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ExactScalar(_Record):
    """A finite sum  sum_h q_h * pi^(h/2)  with rational coefficients q_h.

    ``terms`` maps the doubled pi-exponent h (an integer, so the actual
    power is h/2) to its rational coefficient.  The tuple is kept canonical:
    sorted by h, no zero coefficients stored.  Two scalars are equal exactly
    when their canonical forms coincide term by term.

    The ring is closed under +, -, * and under division by a nonzero
    scalar consisting of a single term.
    """

    _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Fraction], ...] = ()):
        object.__setattr__(self, "terms", terms)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_map(mapping: dict) -> "ExactScalar":
        items = []
        for h, q in mapping.items():
            if q.__class__ is not Fraction:
                q = Fraction(q)
            if q:
                items.append((int(h), q))
        items.sort()
        return ExactScalar(tuple(items))

    @staticmethod
    def rational(q) -> "ExactScalar":
        """The plain rational q (pi-power zero)."""
        return ExactScalar.from_map({0: q})

    @staticmethod
    def pi_term(q, half_power: int) -> "ExactScalar":
        """The single term q * pi^(half_power / 2)."""
        return ExactScalar.from_map({half_power: q})

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_single_term(self) -> tuple[int, Fraction]:
        if len(self.terms) != 1:
            raise ValueError(f"not a single-term scalar: {self}")
        return self.terms[0]

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for h, q in other.terms:
            acc[h] = acc[h] + q if h in acc else q
        return ExactScalar.from_map(acc)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(tuple((h, -q) for h, q in self.terms))

    def __sub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for h1, q1 in self.terms:
            for h2, q2 in other.terms:
                h = h1 + h2
                acc[h] = acc[h] + q1 * q2 if h in acc else q1 * q2
        return ExactScalar.from_map(acc)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        """Division by a rational or by a single-term ExactScalar."""
        if isinstance(other, ExactScalar):
            h0, q0 = other.as_single_term()
        else:
            h0, q0 = 0, Fraction(other)
        if q0 == 0:
            raise ZeroDivisionError("division of ExactScalar by zero")
        return ExactScalar(tuple((h - h0, q / q0) for h, q in self.terms))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for h, q in self.terms:
            pi = _fmt_pi(h)
            if not pi:
                parts.append(str(q))
            elif q == 1:
                parts.append(pi)
            elif q == -1:
                parts.append(f"-{pi}")
            else:
                parts.append(f"{q}*{pi}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _coerce(value) -> "ExactScalar":
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar.rational(value)
    return NotImplemented


# ---------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def coeff_C(p: int) -> ExactScalar:
    """Weight of the p-fold iterated delta created at exponent s = -2p - 1.

    Closed form: C_p = -(4p+1) * 2^(2-p) / (p! * (2p+1)!!) * pi.  In
    particular C_0 = -4*pi, the familiar weight of the point source of the
    inverse-distance potential.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    rat = Fraction(-(4 * p + 1) * 4, 2**p * factorial(p) * _double_factorial(2 * p + 1))
    return ExactScalar.pi_term(rat, 2)


def coeff_L(p: int) -> ExactScalar:
    """Companion weight C_(p-1) / (8p(2p+1)) - C_p / 4.

    The p = 0 case is taken with the first term absent (the p = -1 weight
    is zero by convention), giving L_0 = -C_0/4 = pi.  For p >= 1 the
    definition collapses to -C_p / (4p+1).
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if p == 0:
        return coeff_C(0) / (-4)
    return coeff_C(p - 1) / (8 * p * (2 * p + 1)) - coeff_C(p) / 4


def coeff_B(ell: int, p: int) -> ExactScalar:
    """Rational angular correction 1 - 2*ell/(4p+1) for degree-ell sources.

    Nonzero for every pair of nonnegative integers: 4p+1 is odd, so it can
    never equal 2*ell.
    """
    if ell < 0 or p < 0:
        raise ValueError(f"ell and p must be nonnegative, got ell={ell}, p={p}")
    return ExactScalar.rational(1 - Fraction(2 * ell, 4 * p + 1))
