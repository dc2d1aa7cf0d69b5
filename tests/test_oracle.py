"""Numeric oracle: test-function algebra, moments, finite parts, pairings."""

import math
from fractions import Fraction

import pytest
from conftest import random_pf, random_testfn
from hypothesis import given, settings
from hypothesis import strategies as st

from distpf import (
    EULER_GAMMA,
    AngularLabel,
    DeltaTerm,
    ExactScalar,
    PseudoFunction,
    RadialSeries,
    TestFunction,
    angular_moment,
    finite_part_closed_form,
    finite_part_integral,
    laplacian,
    pair_delta,
    pair_pseudofunction,
    testfn_laplacian,
    verify_laplacian_identity,
)
from distpf import oracle
from distpf.cli import main
from distpf.oracle import (
    _harmonic_scale,
    _poly_laplacian,
    _poly_mul,
    _scalar_to_float,
    _solid_harmonic,
)

PI = math.pi


def pf_of(s, coeffs, ell=0, mu=0):
    return PseudoFunction(RadialSeries.exact(s, coeffs), AngularLabel(ell, mu))


class TestTestFunction:
    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            TestFunction({(0, 0, 0): 1}, 0)
        with pytest.raises(ValueError):
            TestFunction({(0, 0, 0): 1}, -1)

    @pytest.mark.parametrize(
        "poly, alpha",
        [
            ({(0, 0, 0): 1}, 1),
            ({(0, 0, 0): Fraction(3), (2, 0, 0): 1, (0, 1, 0): 0}, Fraction(1, 2)),
            ({(1, 1, 0): -2, (0, 0, 4): 0, (0, 0, 0): Fraction(2, 3)}, "5/3"),
        ],
        ids=["gaussian", "zero-dropped", "unsorted"],
    )
    def test_built_from_a_mapping_or_its_pairs(self, poly, alpha):
        phi = TestFunction(poly, alpha)
        nonzero = {mono: Fraction(c) for mono, c in poly.items() if c}
        assert phi.terms == tuple(sorted(nonzero.items()))
        assert phi.poly == nonzero and phi.alpha == Fraction(alpha)
        for again in (TestFunction(phi.terms, alpha), TestFunction(list(poly.items()), phi.alpha)):
            assert again == phi and hash(again) == hash(phi)
        for width in (0, -phi.alpha):
            with pytest.raises(ValueError, match="alpha must be positive"):
                TestFunction(poly, width)

    def test_laplacian_of_bare_gaussian(self):
        a = Fraction(1, 2)
        out = testfn_laplacian(TestFunction({(0, 0, 0): 1}, a))
        expected = {(0, 0, 0): -6 * a}
        for i in range(3):
            mono = [0, 0, 0]
            mono[i] = 2
            expected[tuple(mono)] = 4 * a * a
        assert out.poly == {k: Fraction(v) for k, v in expected.items()}

    def test_laplacian_of_x_gaussian(self):
        out = testfn_laplacian(TestFunction({(1, 0, 0): 1}, 1))
        poly = out.poly
        assert poly[(1, 0, 0)] == -10
        assert poly[(3, 0, 0)] == 4
        assert poly[(1, 2, 0)] == 4
        assert poly[(1, 0, 2)] == 4
        assert len(poly) == 4

    def test_laplacian_is_cached_per_equal_test_function(self):
        poly = {(0, 0, 0): Fraction(2, 3), (1, 2, 0): -1}
        first = testfn_laplacian(TestFunction(poly, Fraction(5, 3)))
        again = testfn_laplacian(TestFunction(dict(poly), Fraction(5, 3)))
        assert again is first

    def test_laplacian_matches_finite_differences(self):
        # independent check of the closed form by central differences
        phi = TestFunction({(0, 0, 0): 1, (1, 1, 0): 2, (2, 0, 1): -1}, Fraction(3, 4))
        lap = testfn_laplacian(phi)

        def value(tf, x, y, z):
            poly = sum(
                float(c) * x**a * y**b * z**d for (a, b, d), c in tf.terms
            )
            return poly * math.exp(-float(tf.alpha) * (x * x + y * y + z * z))

        pt = (0.4, -0.3, 0.7)
        h = 1e-5
        num = 0.0
        for i in range(3):
            up = list(pt)
            dn = list(pt)
            up[i] += h
            dn[i] -= h
            num += value(phi, *up) + value(phi, *dn) - 2 * value(phi, *pt)
        num /= h * h
        assert value(lap, *pt) == pytest.approx(num, abs=1e-5)


class TestAngularMoment:
    @pytest.mark.parametrize(
        "abc, expected",
        [
            ((0, 0, 0), Fraction(4)),
            ((2, 0, 0), Fraction(4, 3)),
            ((4, 0, 0), Fraction(4, 5)),
            ((2, 2, 0), Fraction(4, 15)),
            ((2, 2, 2), Fraction(4, 105)),
        ],
    )
    def test_even_values(self, abc, expected):
        assert angular_moment(*abc) == ExactScalar.pi_term(expected, 2)

    @pytest.mark.parametrize("abc", [(1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 3, 1)])
    def test_odd_vanishes(self, abc):
        assert angular_moment(*abc).is_zero

    def test_symmetry(self):
        assert angular_moment(2, 4, 0) == angular_moment(0, 2, 4) == angular_moment(4, 0, 2)

    @pytest.mark.parametrize("abc", [(-1, 0, 0), (0, 0, -2)])
    def test_rejects_negative_exponents(self, abc):
        with pytest.raises(ValueError, match="nonnegative"):
            angular_moment(*abc)

    def test_contraction_with_r2(self):
        # sum of (a+2,b,c), (a,b+2,c), (a,b,c+2) moments equals (a,b,c)
        for abc in [(0, 0, 0), (2, 0, 0), (2, 2, 0)]:
            a, b, c = abc
            total = (
                angular_moment(a + 2, b, c)
                + angular_moment(a, b + 2, c)
                + angular_moment(a, b, c + 2)
            )
            assert total == angular_moment(a, b, c)


class TestFinitePartIntegral:
    def test_convergent_cases(self):
        assert finite_part_integral(1, 1) == pytest.approx(0.5, abs=1e-15)
        assert finite_part_integral(0, 1) == pytest.approx(math.sqrt(PI) / 2, abs=1e-15)
        assert finite_part_integral(4, 1) == pytest.approx(3 * math.sqrt(PI) / 8, abs=1e-15)

    def test_log_channel(self):
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            expected = -(EULER_GAMMA + math.log(alpha)) / 2
            assert finite_part_integral(-1, alpha) == pytest.approx(expected, abs=1e-15)

    def test_minus_two(self):
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(3)):
            assert finite_part_integral(-2, alpha) == pytest.approx(
                -math.sqrt(PI * float(alpha)), abs=1e-12
            )

    def test_minus_three(self):
        assert finite_part_integral(-3, 1) == pytest.approx((EULER_GAMMA - 1) / 2, abs=1e-15)

    def test_alpha_scaling_of_convergent_range(self):
        for m in range(0, 7):
            for alpha in (Fraction(1, 2), Fraction(2), Fraction(5, 3)):
                lhs = finite_part_integral(m, alpha)
                rhs = float(alpha) ** (-(m + 1) / 2) * finite_part_integral(m, 1)
                assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_against_closed_form(self):
        for m in range(-61, 20):
            for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 3)):
                a = finite_part_integral(m, alpha)
                b = finite_part_closed_form(m, alpha)
                assert a == pytest.approx(b, rel=1e-13), (m, alpha, a, b)

    @pytest.mark.parametrize("m", [-2000, -2001, -2500, -10001])
    def test_deep_rungs_neither_recurse_nor_overflow(self, m):
        assert math.isfinite(finite_part_integral(m, 1))

    @pytest.mark.parametrize("m, alpha", [(400, 1000), (380, 2)])
    def test_in_range_value_past_the_gamma_overflow(self, m, alpha):
        # Gamma((m+1)/2) alone overflows a float; F itself does not.
        assert finite_part_integral(m, alpha) == pytest.approx(
            finite_part_closed_form(m, alpha), rel=1e-11
        )

    def test_closed_form_out_of_range_raises_like_the_recurrence(self):
        with pytest.raises(ValueError) as recurrence:
            finite_part_integral(343, 1)
        with pytest.raises(ValueError) as closed_form:
            finite_part_closed_form(343, 1)
        assert str(closed_form.value) == str(recurrence.value)
        assert str(closed_form.value) == "finite part F(343, 1) overflows float arithmetic"

    @pytest.mark.parametrize("m, alpha", [(-2001, 368), (-2500, 460)])
    def test_deep_rungs_against_closed_form(self, m, alpha):
        # alpha chosen so that the value is a normal float, not an underflowed 0
        expected = finite_part_closed_form(m, alpha)
        assert abs(expected) > 1e-3
        assert finite_part_integral(m, alpha) == pytest.approx(expected, rel=1e-10)


# The hand-typed (q, core) table the oracle once used for ell <= 4, kept as
# reference data for the generator: same q, same core, same signs.
REFERENCE_HARMONICS = {
    (1, -1): (Fraction(3, 4), {(0, 1, 0): 1}),
    (1, 0): (Fraction(3, 4), {(0, 0, 1): 1}),
    (1, 1): (Fraction(3, 4), {(1, 0, 0): 1}),
    (2, -2): (Fraction(15, 4), {(1, 1, 0): 1}),
    (2, -1): (Fraction(15, 4), {(0, 1, 1): 1}),
    (2, 0): (Fraction(5, 16), {(0, 0, 2): 2, (2, 0, 0): -1, (0, 2, 0): -1}),
    (2, 1): (Fraction(15, 4), {(1, 0, 1): 1}),
    (2, 2): (Fraction(15, 16), {(2, 0, 0): 1, (0, 2, 0): -1}),
    (3, -3): (Fraction(35, 32), {(2, 1, 0): 3, (0, 3, 0): -1}),
    (3, -2): (Fraction(105, 4), {(1, 1, 1): 1}),
    (3, -1): (Fraction(21, 32), {(0, 1, 2): 4, (0, 3, 0): -1, (2, 1, 0): -1}),
    (3, 0): (Fraction(7, 16), {(0, 0, 3): 2, (2, 0, 1): -3, (0, 2, 1): -3}),
    (3, 1): (Fraction(21, 32), {(1, 0, 2): 4, (3, 0, 0): -1, (1, 2, 0): -1}),
    (3, 2): (Fraction(105, 16), {(2, 0, 1): 1, (0, 2, 1): -1}),
    (3, 3): (Fraction(35, 32), {(3, 0, 0): 1, (1, 2, 0): -3}),
    (4, -4): (Fraction(315, 16), {(3, 1, 0): 1, (1, 3, 0): -1}),
    (4, -3): (Fraction(315, 32), {(2, 1, 1): 3, (0, 3, 1): -1}),
    (4, -2): (Fraction(45, 16), {(1, 1, 2): 6, (3, 1, 0): -1, (1, 3, 0): -1}),
    (4, -1): (Fraction(45, 32), {(0, 1, 3): 4, (0, 3, 1): -3, (2, 1, 1): -3}),
    (4, 0): (
        Fraction(9, 256),
        {(0, 0, 4): 8, (2, 0, 2): -24, (0, 2, 2): -24, (4, 0, 0): 3, (2, 2, 0): 6, (0, 4, 0): 3},
    ),
    (4, 1): (Fraction(45, 32), {(1, 0, 3): 4, (3, 0, 1): -3, (1, 2, 1): -3}),
    (4, 2): (Fraction(45, 64), {(2, 0, 2): 6, (0, 2, 2): -6, (4, 0, 0): -1, (0, 4, 0): 1}),
    (4, 3): (Fraction(315, 32), {(3, 0, 1): 1, (1, 2, 1): -3}),
    (4, 4): (Fraction(315, 256), {(4, 0, 0): 1, (2, 2, 0): -6, (0, 4, 0): 1}),
}

LABELS = [(ell, mu) for ell in range(1, 9) for mu in range(-ell, ell + 1)]


def _sphere_inner(p1, p2):
    """int over the unit sphere of p1 * p2 dOmega, over pi (exact)."""
    total = ExactScalar()
    for mono, c in _poly_mul(p1, p2).items():
        total = total + c * angular_moment(*mono)
    return total / ExactScalar.pi_term(1, 2)


class TestSolidHarmonics:
    @pytest.mark.parametrize("label", sorted(REFERENCE_HARMONICS))
    def test_reproduces_reference_table(self, label):
        q, core = _solid_harmonic(*label)
        ref_q, ref_core = REFERENCE_HARMONICS[label]
        assert q == ref_q
        assert core == ref_core
        assert all(type(c) is int for c in core.values())

    def test_cores_are_harmonic_and_homogeneous(self):
        for ell, mu in LABELS:
            core = _solid_harmonic(ell, mu)[1]
            assert not _poly_laplacian(core)
            assert {sum(mono) for mono in core} == {ell}

    def test_unit_norm_exact(self):
        for ell, mu in LABELS:
            q, core = _solid_harmonic(ell, mu)
            # (q/pi) * integral of core^2 over the sphere must be 1
            assert _sphere_inner(core, core) == ExactScalar.rational(1 / q)

    def test_pairwise_orthogonal_exact(self):
        for i, k1 in enumerate(LABELS):
            for k2 in LABELS[i + 1 :]:
                core1, core2 = _solid_harmonic(*k1)[1], _solid_harmonic(*k2)[1]
                assert _sphere_inner(core1, core2).is_zero, (k1, k2)

    def test_ell_zero_is_bare_constant(self):
        q, core = _solid_harmonic(0, 0)
        assert q is None and core == {(0, 0, 0): 1}

    @pytest.mark.parametrize("ell, mu", [(0, 1), (2, -3), (-1, 0)])
    def test_label_out_of_range(self, ell, mu):
        with pytest.raises(ValueError):
            _solid_harmonic(ell, mu)

    def test_ell_five_is_generated(self):
        q, core = _solid_harmonic(5, 0)
        assert q == Fraction(11, 256)
        assert core == {
            (0, 0, 5): 8, (2, 0, 3): -40, (0, 2, 3): -40, (4, 0, 1): 15, (2, 2, 1): 30, (0, 4, 1): 15
        }


class TestPairings:
    def test_inverse_r_against_gaussian(self):
        assert pair_pseudofunction(pf_of(-1, (1,)), TestFunction({(0, 0, 0): 1}, 1)) == pytest.approx(
            2 * PI, rel=1e-14
        )

    def test_r_squared_against_gaussian(self):
        assert pair_pseudofunction(pf_of(2, (1,)), TestFunction({(0, 0, 0): 1}, 1)) == pytest.approx(
            4 * PI * 3 * math.sqrt(PI) / 8, rel=1e-14
        )

    def test_finite_part_pairing_r_minus_3(self):
        assert pair_pseudofunction(pf_of(-3, (1,)), TestFunction({(0, 0, 0): 1}, 1)) == pytest.approx(
            -2 * PI * EULER_GAMMA, rel=1e-14
        )

    def test_zero_pf(self):
        pf = PseudoFunction(RadialSeries(0, ()), AngularLabel(0, 0))
        assert pair_pseudofunction(pf, TestFunction({(0, 0, 0): 1}, 1)) == 0.0

    def test_non_integral_exponent_rejected(self):
        pf = PseudoFunction(RadialSeries(-1.5, (1.0,)), AngularLabel(0, 0))
        with pytest.raises(ValueError, match="integer leading exponent"):
            pair_pseudofunction(pf, TestFunction({(0, 0, 0): 1}, 1))

    def test_ell_five_pairs_against_its_own_core(self):
        # <r^s Y, core e^{-alpha r^2}> = sqrt(pi/q) F(s + ell + 2, alpha)
        q, core = _solid_harmonic(5, 0)
        phi = TestFunction(core, 1)
        assert pair_pseudofunction(pf_of(-6, (1,), ell=5, mu=0), phi) == pytest.approx(
            math.sqrt(PI / q) * finite_part_integral(1, 1), rel=1e-14
        )


def _pair_delta_iterated(term, phi):
    """pair_delta by p iterated Laplacians inside the test-function class."""
    q, core = _solid_harmonic(term.ell, term.mu)
    probe = TestFunction(_poly_mul(core, phi.poly), phi.alpha)
    for _ in range(term.p):
        probe = testfn_laplacian(probe)
    exact = term.coefficient * probe.poly.get((0, 0, 0), 0)
    return _scalar_to_float(exact) * _harmonic_scale(q)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@st.composite
def delta_pairings(draw):
    ell = draw(st.integers(min_value=0, max_value=4))
    mu = draw(st.integers(min_value=-ell, max_value=ell))
    p = draw(st.integers(min_value=ell, max_value=8))
    weight = ExactScalar.from_map(
        {draw(st.integers(min_value=-2, max_value=2)): draw(rationals.filter(bool))}
    )
    exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)
    if draw(st.booleans()):
        # Monomials with the parity of the harmonic core make core * P even
        # in x, y and z, so that the pairing is rarely zero.
        parity = [e % 2 for e in next(iter(_solid_harmonic(ell, mu)[1]))]
        exponents = exponents.map(lambda mono: tuple(e - e % 2 + q for e, q in zip(mono, parity)))
    monomials = exponents.filter(lambda mono: sum(mono) <= 4)
    poly = draw(st.dictionaries(monomials, rationals, min_size=1, max_size=4))
    alpha = draw(st.fractions(min_value=Fraction(1, 9), max_value=4, max_denominator=9))
    return DeltaTerm(weight, ell, mu, p), TestFunction(poly, alpha)


class TestPairDelta:
    @settings(max_examples=150, deadline=None)
    @given(delta_pairings())
    def test_closed_form_equals_iterated_laplacians(self, case):
        term, phi = case
        assert pair_delta(term, phi) == _pair_delta_iterated(term, phi)

    def test_never_takes_a_laplacian(self, monkeypatch):
        phi = TestFunction({(0, 0, 0): 1, (2, 0, 2): Fraction(-3, 7)}, Fraction(3, 4))
        term = DeltaTerm(ExactScalar.rational(1), 4, 0, 16)
        expected = _pair_delta_iterated(term, phi)
        assert expected != 0.0

        def refuse(phi):
            raise AssertionError("pair_delta took a Laplacian")

        monkeypatch.setattr(oracle, "testfn_laplacian", refuse)
        assert pair_delta(term, phi) == expected

    def test_bare_delta_is_origin_evaluation(self):
        phi = TestFunction({(0, 0, 0): Fraction(5, 7), (2, 0, 0): 3}, 1)
        term = DeltaTerm(ExactScalar.rational(1), 0, 0, 0)
        assert pair_delta(term, phi) == float(Fraction(5, 7))

    def test_bare_delta_exact_over_random_algebra(self, rng):
        term = DeltaTerm(ExactScalar.rational(1), 0, 0, 0)
        for _ in range(25):
            phi = random_testfn(rng)
            assert pair_delta(term, phi) == float(phi.poly.get((0, 0, 0), 0))

    def test_ell_five_pairs_against_its_own_core(self):
        # lap^5(core^2)(0) = 11!/(4 pi) * pi/q, by Pizzetti's formula
        q, core = _solid_harmonic(5, 0)
        phi = TestFunction(core, 1)
        term = DeltaTerm(ExactScalar.rational(1), 5, 0, 5)
        value = pair_delta(term, phi)
        assert value == _pair_delta_iterated(term, phi)
        assert value == pytest.approx(math.factorial(11) / (4 * math.sqrt(q * PI)), rel=1e-14)

    def test_iterated_delta_on_gaussian(self):
        term = DeltaTerm(ExactScalar.rational(1), 0, 0, 1)
        assert pair_delta(term, TestFunction({(0, 0, 0): 1}, 1)) == -6.0

    def test_weighted_term(self):
        term = DeltaTerm(ExactScalar.pi_term(2, 1), 0, 0, 0)  # 2 sqrt(pi) delta
        assert pair_delta(term, TestFunction({(0, 0, 0): 1}, 1)) == pytest.approx(
            2 * math.sqrt(PI), rel=1e-15
        )

    def test_harmonic_prefactor_needs_matching_derivatives(self):
        # <r Y lap(delta), x phi> is generically nonzero ...
        phi = TestFunction({(1, 0, 0): 1}, 1)
        term = DeltaTerm(ExactScalar.rational(1), 1, 1, 1)
        assert pair_delta(term, phi) != 0.0
        # ... but pairing it against a pure even function gives zero
        assert pair_delta(term, TestFunction({(0, 0, 0): 1}, 1)) == 0.0


def _pair_pseudofunction_reference(pf, phi):
    """pair_pseudofunction as one loop over core * P per call, with no cache."""
    q, core = _solid_harmonic(pf.angular.ell, pf.angular.mu)
    prod = _poly_mul(core, phi.poly)
    radial_factors = {}
    total = 0.0
    for k, a in enumerate(pf.radial.coeffs):
        if a == 0:
            continue
        base = int(pf.radial.s) + k - pf.angular.ell + 2
        contrib = 0.0
        for (ax, ay, az), c in prod.items():
            mom = angular_moment(ax, ay, az)
            if mom.is_zero:
                continue
            power = base + ax + ay + az
            if power not in radial_factors:
                radial_factors[power] = finite_part_integral(power, phi.alpha)
            contrib += float(c) * _scalar_to_float(mom) * radial_factors[power]
        total += float(a) * contrib
    return total * _harmonic_scale(q)


def _pair_delta_reference(term, phi):
    """pair_delta as one loop over core * P per call, with no cache."""
    q, core = _solid_harmonic(term.ell, term.mu)
    sphere = Fraction(0)
    for (a, b, c), coef in _poly_mul(core, phi.poly).items():
        j = term.p - (a + b + c) // 2
        if j >= 0 and (moment := angular_moment(a, b, c)):
            sphere += coef * (-phi.alpha) ** j / math.factorial(j) * moment.as_single_term()[1]
    exact = term.coefficient * (Fraction(math.factorial(2 * term.p + 1), 4) * sphere)
    return _scalar_to_float(exact) * _harmonic_scale(q)


@st.composite
def cached_pairings(draw):
    ell = draw(st.integers(min_value=0, max_value=6))
    mu = draw(st.integers(min_value=-ell, max_value=ell))
    s = draw(st.integers(min_value=-16, max_value=3))
    if draw(st.booleans()):
        coeff = rationals
    else:
        coeff = st.floats(min_value=-8, max_value=8, allow_nan=False)
        s = float(s) if draw(st.booleans()) else s
    coeffs = draw(st.lists(coeff, min_size=1, max_size=4).filter(lambda c: c[0] != 0))
    pf = PseudoFunction(RadialSeries(s, tuple(coeffs)), AngularLabel(ell, mu))
    monomials = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3).filter(
        lambda mono: sum(mono) <= 4
    )
    poly = draw(st.dictionaries(monomials, rationals, min_size=1, max_size=5))
    alpha = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 7)]))
    p = draw(st.integers(min_value=ell, max_value=ell + 4))
    term = DeltaTerm(ExactScalar.rational(draw(rationals.filter(bool))), ell, mu, p)
    return pf, TestFunction(poly, alpha), term


class TestPairingCaches:
    @settings(max_examples=200, deadline=None)
    @given(cached_pairings())
    def test_pairings_bit_identical_to_uncached_loops(self, case):
        pf, phi, term = case
        for f in (phi, testfn_laplacian(phi)):
            assert pair_pseudofunction(pf, f) == _pair_pseudofunction_reference(pf, f)
            for t in (term, *laplacian(pf).delta_part):
                assert pair_delta(t, f) == _pair_delta_reference(t, f)

    @staticmethod
    def _count_calls(monkeypatch, name, calls):
        fn = getattr(oracle, name)

        def counting(*args):
            calls.append((name, args))
            return fn(*args)

        monkeypatch.setattr(oracle, name, counting)

    def test_verify_grid_work_counts(self, monkeypatch, capsys):
        for cached in (oracle._laplacian, oracle._sphere_terms, _solid_harmonic):
            cached.cache_clear()
        calls = []
        self._count_calls(monkeypatch, "laplacian", calls)
        self._count_calls(monkeypatch, "_poly_mul", calls)
        assert main(["verify"]) == 0
        capsys.readouterr()
        names = [name for name, _ in calls]
        assert names.count("laplacian") == 36  # one per case, not one per pairing
        assert oracle._sphere_terms.cache_info().misses <= 72
        assert names.count("_poly_mul") <= 82

    def test_laplacian_cache_keeps_modes_apart(self, monkeypatch):
        label = AngularLabel(1, 1)
        exact = PseudoFunction(RadialSeries.exact(-6, (1, 1)), label)
        flt = PseudoFunction(RadialSeries(-6.0, (1.0, 1.0)), label)
        assert exact != flt
        oracle._laplacian.cache_clear()
        calls = []
        self._count_calls(monkeypatch, "laplacian", calls)
        phi = TestFunction({(0, 0, 0): 1}, 1)
        for pf in (exact, flt, exact, flt):
            verify_laplacian_identity(pf, phi)
        assert [args[0].radial.is_exact for _, args in calls] == [True, False]
        assert oracle._laplacian(flt).pf_part.radial.is_exact is False

    def test_test_function_hash_ignores_insertion_order(self):
        a = TestFunction({(0, 0, 0): 1, (2, 0, 0): Fraction(1, 3), (0, 1, 1): -1}, 1)
        b = TestFunction({(0, 1, 1): -1, (2, 0, 0): Fraction(1, 3), (0, 0, 0): 1}, 1)
        assert a == b and hash(a) == hash(b) == hash((a.terms, a.alpha))
        assert a != TestFunction(a.poly, 2)


class TestLaplacianIdentity:
    def test_inverse_r_reproduces_point_source(self, rng):
        # <1/r, lap(phi)> must equal -4*pi*phi(0)
        pf = pf_of(-1, (1,))
        for _ in range(10):
            phi = random_testfn(rng)
            lhs = pair_pseudofunction(pf, testfn_laplacian(phi))
            assert abs(lhs + 4 * PI * float(phi.poly.get((0, 0, 0), 0))) < 1e-9
            assert verify_laplacian_identity(pf, phi) < 1e-9

    def test_cubic_calibration_case(self):
        phi = TestFunction({(0, 0, 0): 1}, 1)
        pf = pf_of(-3, (1,))
        expected = 8 * PI + 12 * PI * EULER_GAMMA
        lhs = pair_pseudofunction(pf, testfn_laplacian(phi))
        assert lhs == pytest.approx(expected, abs=1e-9)
        assert verify_laplacian_identity(pf, phi) < 1e-9

    def test_harmonic_power_trivial(self):
        for ell in range(4):
            pf = pf_of(ell, (1,), ell=ell, mu=-ell)
            phi = TestFunction({(0, 0, 0): 1}, Fraction(1, 2))
            assert pair_pseudofunction(pf, testfn_laplacian(phi)) == pytest.approx(0, abs=1e-10)
            assert verify_laplacian_identity(pf, phi) < 1e-10

    def test_small_grid(self, rng):
        for s in (-4, -2, 1):
            for ell in (0, 1, 2, 3):
                pf = random_pf(rng, s, ell, max_len=3)
                for _ in range(3):
                    assert verify_laplacian_identity(pf, random_testfn(rng)) < 1e-8

    @pytest.mark.parametrize("ell", [5, 6, 7, 8])
    def test_high_ell_identity_with_nonzero_delta_pairing(self, ell):
        # A delta term r^ell Y lap^p delta pairs to zero unless p >= ell and
        # phi has a Y component; s = -ell - 1 puts a_0 on the rung p = ell.
        for mu in sorted({-ell, -1, 0, 1, ell - 1}):
            core = _solid_harmonic(ell, mu)[1]
            poly = _poly_mul(core, {(0, 0, 0): 1, (2, 0, 0): Fraction(1, 3), (0, 1, 1): -1})
            phi = TestFunction(poly, Fraction(1, 2))
            for s in (-2 * ell - 1, -2 * ell - 2, -ell - 1):
                pf = pf_of(s, (1, Fraction(-1, 2), 2), ell=ell, mu=mu)
                lhs = pair_pseudofunction(pf, testfn_laplacian(phi))
                assert lhs != 0.0
                assert verify_laplacian_identity(pf, phi) <= 1e-10 * abs(lhs), (ell, mu, s)
            deltas = laplacian(pf_of(-ell - 1, (1,), ell=ell, mu=mu)).delta_part
            assert any(pair_delta(term, phi) != 0.0 for term in deltas), (ell, mu)
