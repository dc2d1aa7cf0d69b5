"""Independent numeric verification by pairing against Gaussian test functions.

The symbolic engine claims identities between distributions; this module
checks them by actually pairing both sides with test functions of the form
P(x, y, z) * exp(-alpha r^2), a class that is closed under the Laplacian
and whose pairings reduce to

    sum over monomials of  (sphere moment) x (radial finite-part integral),

both of which are computed here: the sphere moments exactly, the radial
integrals  Fp int_0^inf r^m exp(-alpha r^2) dr  as floats through a
downward recurrence (with the independent closed form in Gamma values
and harmonic numbers available as a reference).

Iterated deltas pair through Pizzetti's mean-value formula: for a
homogeneous polynomial H of degree 2p,

    lap^p H = (2p+1)! / (4 pi) * int over the unit sphere of H dOmega

(Courant-Hilbert, *Methods of Mathematical Physics* vol. II, ch. IV), and
only the degree-2p Taylor part of a smooth function survives in
lap^p(.)(0).  So  <r^ell Y lap^p delta, phi>  is one sphere moment per
monomial of core * P, exact in the rationals, with no derivative taken.

The headline check is ``verify_laplacian_identity``: for a pseudofunction
f and test function phi it compares  <f, lap(phi)>  against the pairing of
the engine's decomposition lap(f) = Pf-part + delta terms.  By definition
of the distributional Laplacian the two must agree; a nonzero residual
beyond float noise means the symbolic delta weights are wrong.

Verification is strictly one-way: the symbolic layer never consumes
anything computed here.  All functions are pure, so grids of checks can
run in any order or in parallel.  A grid pairs few distinct inputs many
times, so two bounded caches share the work between pairings.
``_sphere_terms`` keeps, per harmonic label and test function, the
monomials of core * P with a nonzero sphere moment; both pairings read
it.  ``_laplacian`` keeps the engine's decomposition per pseudofunction;
a series' mode is part of its identity, so each mode gets its own entry.

Conventions: an ell = 0 pseudofunction is paired as the bare radial
function (angular factor 1, contributing the full 4*pi sphere moment), and
an ell = 0 delta term as the bare iterated delta.  Labels with ell >= 1
use the real solid harmonic with unit-L2 normalisation, generated for any
ell by ``_solid_harmonic`` from one closed-form rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .coeffs import ExactScalar, _double_factorial, _Record
from .distlap import _integral_exponent, laplacian
from .pseudofunction import AngularLabel, DeltaTerm, PseudoFunction

__all__ = [
    "EULER_GAMMA",
    "TestFunction",
    "testfn_laplacian",
    "angular_moment",
    "finite_part_integral",
    "finite_part_closed_form",
    "pair_pseudofunction",
    "pair_delta",
    "verify_laplacian_identity",
]

# Euler-Mascheroni constant, written to well beyond float precision.
EULER_GAMMA = 0.577215664901532860606512090082402431042159335939923598805767


def _scalar_to_float(x: ExactScalar) -> float:
    """Numeric value of an exact scalar sum q * pi^(h/2)."""
    return sum(float(q) * math.pi ** (h / 2) for h, q in x.terms)


# ---------------------------------------------------------------------
# Polynomial-times-Gaussian test functions
# ---------------------------------------------------------------------

Monomial = tuple[int, int, int]


def _poly_canonical(mapping) -> tuple:
    items = []
    for mono, c in mapping.items():
        c = Fraction(c)
        if c != 0:
            items.append((tuple(int(e) for e in mono), c))
    items.sort()
    return tuple(items)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[Monomial, Fraction] = {}
    for (a1, b1, c1), u in p.items():
        for (a2, b2, c2), v in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, Fraction(0)) + u * v
    return out


def _poly_laplacian(p: dict) -> dict:
    out: dict[Monomial, Fraction] = {}
    for (a, b, c), u in p.items():
        for i, e in enumerate((a, b, c)):
            if e >= 2:
                key = [a, b, c]
                key[i] = e - 2
                key = tuple(key)
                out[key] = out.get(key, Fraction(0)) + u * e * (e - 1)
    return {k: v for k, v in out.items() if v != 0}


class TestFunction(_Record):
    """P(x, y, z) * exp(-alpha r^2) with rational polynomial and width.

    Built from a mapping {(a, b, c): coefficient} or from its pairs; stored
    ``terms`` is the canonical tuple of those pairs, zeros dropped.  The
    class is closed under the Laplacian, so arbitrarily many derivatives
    stay inside the semi-analytic pairing algebra.
    """

    __test__ = False  # not a pytest class, despite the name

    _fields = ("terms", "alpha")

    def __init__(self, terms: dict | tuple, alpha: Fraction):
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("Gaussian width alpha must be positive")
        terms = _poly_canonical(dict(terms))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "alpha", alpha)
        # Hashed once: cache lookups would otherwise rehash every Fraction.
        object.__setattr__(self, "_hash", hash((terms, alpha)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def poly(self) -> dict:
        return dict(self.terms)


@lru_cache(maxsize=256)
def testfn_laplacian(phi: TestFunction) -> TestFunction:
    """Exact Laplacian within the class:

    lap(P e^{-a r^2}) = [lap(P) - 4a (x.grad P) - 6a P + 4a^2 r^2 P] e^{-a r^2}.
    """
    a = phi.alpha
    out = _poly_laplacian(phi.poly)
    for mono, c in phi.terms:
        deg = sum(mono)
        # -4a (x.grad P) - 6a P : the Euler operator scales each monomial
        # by its degree.
        out[mono] = out.get(mono, Fraction(0)) - 4 * a * deg * c - 6 * a * c
        for i in range(3):
            key = list(mono)
            key[i] += 2
            key = tuple(key)
            out[key] = out.get(key, Fraction(0)) + 4 * a * a * c
    return TestFunction(out, a)


# ---------------------------------------------------------------------
# Exact sphere moments
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def angular_moment(a: int, b: int, c: int) -> ExactScalar:
    """int over the unit sphere of (x/r)^a (y/r)^b (z/r)^c dOmega, exact.

    Vanishes unless all exponents are even; otherwise equals
    4*pi * (a-1)!!(b-1)!!(c-1)!! / (a+b+c+1)!!.
    """
    if min(a, b, c) < 0:
        raise ValueError("exponents must be nonnegative")
    if a % 2 or b % 2 or c % 2:
        return ExactScalar()
    num = 4 * _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    return ExactScalar.pi_term(Fraction(num, _double_factorial(a + b + c + 1)), 2)


# ---------------------------------------------------------------------
# Radial finite-part integrals
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _finite_part(m: int, alpha: Fraction) -> float:
    af = float(alpha)
    if m > -1:
        h = (m + 1) / 2
        try:
            return 0.5 * af**-h * math.gamma(h)
        except OverflowError:  # a factor leaves the float range; the product may not
            return 0.5 * math.exp(math.lgamma(h) - h * math.log(af))
    # Downward recurrence F(n) = 2a/(n+1) F(n+2) + b(n) from integration by
    # parts, run as a loop from F(-1) or F(0).  The boundary term at the
    # origin, b(n) = -(-a)^j / ((n+1) j!) with n = -2j-1, is nonzero only for
    # odd n; it is kept as the exact ratio num/den and rounded once, so deep
    # rungs neither overflow nor lose the term.
    odd = m % 2
    value = -(EULER_GAMMA + math.log(alpha)) / 2 if odd else 0.5 * af**-0.5 * math.gamma(0.5)
    num, den = 1, 1  # (-a)^j / j!
    for n in range(-3 if odd else -2, m - 1, -2):
        b = 0.0
        if odd:
            j = (-n - 1) // 2
            num *= -alpha.numerator
            den *= alpha.denominator * j
            b = -num / (den * (n + 1))
        value = 2 * af / (n + 1) * value + b
    return value


def _float_or_raise(evaluate, m, alpha) -> float:
    """evaluate(m, alpha) as a float, or one ValueError if it leaves the float range."""
    try:
        value = evaluate(int(m), Fraction(alpha))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"finite part F({m}, {alpha}) overflows float arithmetic")
    return value


def finite_part_integral(m: int, alpha) -> float:
    """Fp int_0^inf r^m exp(-alpha r^2) dr.

    Convergent for m > -1 (an ordinary Gamma integral); for m <= -1 the
    Hadamard finite part: power divergences in the cutoff are discarded,
    and the logarithmic channel at m = -1 subtracts log(cutoff) with no
    scale constant, which fixes  F(-1, alpha) = -(gamma + log alpha)/2.
    """
    return _float_or_raise(_finite_part, m, alpha)


def finite_part_closed_form(m: int, alpha) -> float:
    """The same finite part from its closed form, as a reference for the recurrence.

    F(m, alpha) = Gamma((m+1)/2) alpha^(-(m+1)/2) / 2, continued analytically
    to negative even m; at the poles m = -2j-1 the finite part is
    (-alpha)^j / (2 j!) (H_j - gamma - log alpha), H_j the j-th harmonic
    number (Gel'fand-Shilov vol. 1, section I.3).  The Gamma values are
    exact rationals (times sqrt(pi) at even m), each rounded once, so deep
    rungs do not overflow.  Shares no arithmetic with ``finite_part_integral``,
    and raises the same ValueError where F leaves the float range.
    """
    return _float_or_raise(_closed_form, m, alpha)


def _closed_form(m: int, a: Fraction) -> float:
    n = (m + 1) // 2
    if m % 2 == 0:  # Gamma(n + 1/2) / sqrt(pi), with m = 2n
        k = abs(n)
        ratio = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
        ratio = ratio if n >= 0 else (-1) ** k / ratio
        return float(ratio / a**n) * math.sqrt(math.pi / a) / 2
    if n > 0:  # Gamma(n) = (n-1)!, with m = 2n - 1
        return float(math.factorial(n - 1) / a**n / 2)
    j = -n
    harmonic = math.fsum(1 / i for i in range(1, j + 1))
    return float((-a) ** j / (2 * math.factorial(j))) * (harmonic - EULER_GAMMA - math.log(a))


# ---------------------------------------------------------------------
# Real solid harmonics, unit L2 normalisation
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _solid_harmonic(ell: int, mu: int) -> tuple[Fraction | None, dict]:
    """(q, core) with the harmonic factor sqrt(q/pi) * core; ell = 0 -> (None, 1).

    The core is the primitive integer polynomial Pi(z, r^2) * Re (x + iy)^m
    for mu >= 0, or * Im (x + iy)^m for mu < 0, with m = |mu| and

        Pi = sum_k (-1)^k C(ell, k) C(2 ell - 2k, ell) (ell - 2k)! / (ell - 2k - m)!
             * r^(2k) z^(ell - 2k - m)

    (Helgaker, Jorgensen & Olsen, *Molecular Electronic-Structure Theory*,
    section 6.4.2), and q = pi / int core^2 dOmega from the exact sphere
    moments.  The ell = 0 entry is the constant 1 (bare radial convention),
    not the normalised harmonic.
    """
    AngularLabel(ell, mu)  # raises on a bad label
    m = abs(mu)
    if ell == 0:
        return None, {(0, 0, 0): 1}
    zonal: dict[Monomial, int] = {}  # Pi(z, r^2)
    r2k = {(0, 0, 0): 1}  # r^(2k)
    for k in range((ell - m) // 2 + 1):
        n = ell - 2 * k
        weight = (-1) ** k * math.comb(ell, k) * math.comb(2 * (ell - k), ell) * math.perm(n, m)
        for (a, b, c), v in r2k.items():
            zonal[(a, b, c + n - m)] = zonal.get((a, b, c + n - m), 0) + weight * v
        r2k = _poly_mul(r2k, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    # the terms C(m, j) x^(m-j) (iy)^j of (x + iy)^m with j even (Re) or odd (Im)
    sector = {(m - j, j, 0): (-1) ** (j // 2) * math.comb(m, j) for j in range(mu < 0, m + 1, 2)}
    core = {mono: int(c) for mono, c in _poly_mul(zonal, sector).items() if c}
    g = math.gcd(*core.values())
    core = {mono: c // g for mono, c in core.items()}
    square = _poly_mul(core, core)
    norm = sum((c * angular_moment(*mono) for mono, c in square.items()), ExactScalar())
    return 1 / norm.as_single_term()[1], core  # norm = pi / q


def _harmonic_scale(q: Fraction | None) -> float:
    return 1.0 if q is None else math.sqrt(float(q) / math.pi)


# ---------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------


@lru_cache(maxsize=256)
def _sphere_terms(ell: int, mu: int, phi: TestFunction) -> tuple:
    """The monomials of core * P with a nonzero sphere moment, in product order.

    Each entry is (degree, exact coefficient c, moment / pi,
    float(c) * float(moment)).
    """
    out = []
    for (a, b, c), coef in _poly_mul(_solid_harmonic(ell, mu)[1], phi.poly).items():
        moment = angular_moment(a, b, c)
        if not moment.is_zero:
            weight = float(coef) * _scalar_to_float(moment)
            out.append((a + b + c, coef, moment.as_single_term()[1], weight))
    return tuple(out)


def pair_pseudofunction(pf: PseudoFunction, phi: TestFunction) -> float:
    """<Pf.f, phi> for f = r^s series * (angular factor).

    Each series term r^(s+k) Y is split as r^(s+k-ell) times the solid
    harmonic polynomial; multiplying by phi's polynomial reduces the
    pairing to sphere moments times radial finite parts.  Only finite
    series are meaningful here (a truncated tail would dominate the
    integral); exponents must be integers.
    """
    if pf.radial.is_zero:
        return 0.0
    ell, mu = pf.angular.ell, pf.angular.mu
    s = _integral_exponent(pf.radial.s)
    if s is None:
        raise ValueError("pairing requires an integer leading exponent")

    terms = _sphere_terms(ell, mu, phi)
    radial_factors: dict[int, float] = {}
    total = 0.0
    for k, a in enumerate(pf.radial.coeffs):
        if a == 0:
            continue
        base = s + k - ell + 2
        contrib = 0.0
        for degree, _, _, weight in terms:
            power = base + degree
            if power not in radial_factors:
                radial_factors[power] = finite_part_integral(power, phi.alpha)
            contrib += weight * radial_factors[power]
        total += float(a) * contrib
    return total * _harmonic_scale(_solid_harmonic(ell, mu)[0])


def pair_delta(term: DeltaTerm, phi: TestFunction) -> float:
    """<coefficient * r^ell Y lap^p delta, phi> = coefficient * lap^p(Y-core phi)(0).

    By Pizzetti's formula, lap^p at the origin is (2p+1)! / (4 pi) times the
    sphere integral of the degree-2p Taylor part of core * P * e^{-alpha r^2}.
    There a monomial x^a y^b z^c of core * P of degree 2p - 2j meets the
    term (-alpha)^j r^(2j) / j! of the Gaussian, so each monomial costs one
    sphere moment:

        lap^p(core phi)(0) = (2p+1)! sum c (-alpha)^j / j!
                             * (a-1)!!(b-1)!!(c-1)!! / (2p-2j+1)!!

    over even a, b, c.  The sum is exact; the only float rounding is the
    final conversion (so pairing a bare delta returns phi(0) to the last bit).
    """
    p, alpha = term.p, phi.alpha
    sphere = Fraction(0)  # the sphere integral of the Taylor part, over pi
    for degree, coef, moment, _ in _sphere_terms(term.ell, term.mu, phi):
        j = p - degree // 2
        if j >= 0:
            sphere += coef * (-alpha) ** j / math.factorial(j) * moment
    exact = term.coefficient * (Fraction(math.factorial(2 * p + 1), 4) * sphere)
    return _scalar_to_float(exact) * _harmonic_scale(_solid_harmonic(term.ell, term.mu)[0])


@lru_cache(maxsize=64)
def _laplacian(pf: PseudoFunction):
    """``laplacian(pf)``, shared by the pairings of one case; see the module notes."""
    return laplacian(pf)


def verify_laplacian_identity(pf: PseudoFunction, phi: TestFunction) -> float:
    """|<f, lap phi> - <lap f as computed symbolically, phi>|.

    The defining property of the distributional Laplacian; any residual
    beyond float noise indicts the symbolic decomposition.  An exact
    coefficient or delta weight beyond the float range raises ValueError.
    """
    try:
        lhs = pair_pseudofunction(pf, testfn_laplacian(phi))
        expr = _laplacian(pf)
        rhs = pair_pseudofunction(expr.pf_part, phi)
        for term in expr.delta_part:
            rhs += pair_delta(term, phi)
    except OverflowError:  # float() of an exact value beyond the float range
        raise ValueError(
            f"pairing at s = {pf.radial.s}, alpha = {phi.alpha} overflows float arithmetic"
        ) from None
    return abs(lhs - rhs)
