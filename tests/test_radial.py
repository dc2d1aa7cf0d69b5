"""Series solver: indicial roots, recurrence, resonances, residuals."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distpf import (
    AngularLabel,
    FreeParameterSetToZero,
    LogObstruction,
    PhysicalUnits,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    frobenius,
    hamiltonian_apply,
    indicial_roots,
    normalizable_at_origin,
    radial_residuals,
)


class TestIndicialRoots:
    @pytest.mark.parametrize("ell, expected", [(0, (0, -1)), (1, (1, -2)), (3, (3, -4))])
    def test_values(self, ell, expected):
        assert indicial_roots(ell) == expected

    def test_root_coefficient_vanishing_pattern(self):
        # D(k) = (k+s+1)(k+s) - ell(ell+1) vanishes only at k = 0 for the
        # upper root and only at k in {0, 2*ell+1} for the lower one.
        for ell in range(11):
            up, down = indicial_roots(ell)
            for k in range(1, 40):
                D_up = (k + up + 1) * (k + up) - ell * (ell + 1)
                D_down = (k + down + 1) * (k + down) - ell * (ell + 1)
                assert D_up != 0
                assert (D_down == 0) == (k == 2 * ell + 1)


class TestFrobenius:
    def test_coulomb_bound_state(self):
        res = frobenius(PotentialModel.coulomb(-2), 0, Fraction(-1), 0, 12)
        assert res.series.s == 1
        for k in range(13):
            assert res.series.coeffs[k] == Fraction((-1) ** k, factorial(k))
        assert res.resonance_report is None

    def test_free_particle_lower_root_is_cosine(self):
        E = Fraction(9)
        res = frobenius(PotentialModel.zero(), 0, E, -1, 10)
        assert res.resonance_report == FreeParameterSetToZero(1)
        for m in range(6):
            if 2 * m <= 10:
                assert res.series.coeffs[2 * m] == Fraction((-E) ** m, factorial(2 * m))
        assert all(res.series.coeffs[k] == 0 for k in range(1, 11, 2))

    def test_coulomb_lower_root_needs_logarithm(self):
        with pytest.raises(LogObstruction) as err:
            frobenius(PotentialModel.coulomb(-2), 0, Fraction(-1), -1, 8)
        assert err.value.order == 1

    def test_oscillator_ground_state(self):
        res = frobenius(PotentialModel(0, (0, 0, 1)), 0, Fraction(3), 0, 10)
        for m in range(6):
            if 2 * m <= 10:
                assert res.series.coeffs[2 * m] == Fraction(-1, 2) ** m / factorial(m)
        assert all(res.series.coeffs[k] == 0 for k in range(1, 11, 2))

    def test_lower_root_resonance_set_to_zero(self):
        for ell in range(4):
            res = frobenius(PotentialModel.zero(), ell, Fraction(2), -(ell + 1), 2 * ell + 5)
            assert res.resonance_report == FreeParameterSetToZero(2 * ell + 1)
            assert res.series.coeffs[2 * ell + 1] == 0

    def test_rejects_bad_root_and_order(self):
        with pytest.raises(ValueError):
            frobenius(PotentialModel.zero(), 1, Fraction(1), 0, 5)
        with pytest.raises(ValueError):
            frobenius(PotentialModel.zero(), 1, Fraction(1), 1, 0)

    def test_float_mode_propagates(self):
        res = frobenius(PotentialModel.zero(), 0, 2.0, -1, 6)
        assert not res.series.is_exact
        assert res.series.coeffs[2] == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "kappa, E, ell, root, N, order",
        [
            ("1e-320", 1.0, 0, 0, 10, 2),  # E / kappa overflows
            ("1e-320", 1.0, 1, -2, 6, 2),  # a nan row must not read as a log obstruction at 3
            ("1", 1e300, 0, 0, 40, 4),  # the coefficients overflow
        ],
    )
    def test_float_overflow_fails_closed(self, kappa, E, ell, root, N, order):
        with pytest.raises(ValueError, match=f"^float recurrence is not finite at order {order} "):
            frobenius(PotentialModel.zero(), ell, E, root, N, PhysicalUnits(kappa))

    def test_units_rescale_equation(self):
        # with kappa = 1/2 the free equation is u'' = -2E u
        units = PhysicalUnits(Fraction(1, 2))
        res = frobenius(PotentialModel.zero(), 0, Fraction(1), -1, 4, units)
        assert res.series.coeffs[2] == Fraction(-1)

    def test_residuals_vanish_for_solutions(self, rng):
        for _ in range(25):
            ell = rng.randint(0, 3)
            root = rng.choice(indicial_roots(ell))
            V = PotentialModel(
                Fraction(rng.randint(-2, 2)) if root == ell else 0,
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))),
            )
            E = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            units = PhysicalUnits(Fraction(rng.randint(1, 3)))
            try:
                res = frobenius(V, ell, E, root, 9, units)
            except LogObstruction:
                continue
            R = RadialSeries(res.series.s - 1, res.series.coeffs)
            assert all(v == 0 for v in radial_residuals(V, ell, E, units, R))

    @pytest.mark.parametrize("kappa", [Fraction(10**400), Fraction(1, 10**400)])
    def test_float_mode_rejects_kappa_outside_float_range(self, kappa):
        units = PhysicalUnits(kappa)
        with pytest.raises(ValueError, match="positive finite float"):
            units.to_float()
        with pytest.raises(ValueError, match="positive finite float"):
            frobenius(PotentialModel(0.5), 0, 1.0, 0, 4, units)
        with pytest.raises(ValueError, match="positive finite float"):
            radial_residuals(PotentialModel(0.5), 0, 1.0, units, RadialSeries(0.0, (1.0, 0.5)))
        pf = PseudoFunction(RadialSeries(0, (1.0, 0.5)), AngularLabel(0, 0))
        with pytest.raises(ValueError, match="positive finite float"):
            hamiltonian_apply(pf, PotentialModel(0.5), 1.0, units)
        assert frobenius(PotentialModel(Fraction(1, 2)), 0, 1, 0, 4, units).series.is_exact

    def test_residuals_flag_non_solutions(self):
        R = RadialSeries.exact(0, (1, 1))
        res = radial_residuals(PotentialModel.zero(), 0, Fraction(0), PhysicalUnits(), R)
        assert res[0] == 0 and res[1] != 0


# -- plain Fraction reference for the exact recurrence -------------------


def _reference_rhs(V, E, kappa, a, m):
    """Right-hand side of row m in Fractions, divided by kappa, term by term."""
    vm1 = V.v_minus1 / kappa
    vpoly = [c / kappa for c in V.v]
    v0_minus_e = (vpoly[0] if vpoly else 0) - Fraction(E) / kappa
    acc = vm1 * a[m - 1]
    if m >= 2:
        acc += v0_minus_e * a[m - 2]
        for j in range(1, min(len(vpoly), m - 1)):
            acc += vpoly[j] * a[m - 2 - j]
    return acc


def reference_frobenius(V, ell, E, root, N, kappa):
    """(coefficients, resonant order or None, obstruction order or None)."""
    a, resonance = [Fraction(1)], None
    for k in range(1, N + 1):
        rhs = _reference_rhs(V, E, kappa, a, k)
        D = (k + root + 1) * (k + root) - ell * (ell + 1)
        if D == 0:
            if rhs != 0:
                return a, resonance, k
            a.append(Fraction(0))
            resonance = k
        else:
            a.append(rhs / D)
    return a, resonance, None


def reference_residuals(V, ell, E, kappa, s, a):
    rows = []
    for m in range(len(a)):
        row = -kappa * ((m + s + 1) * (m + s) - ell * (ell + 1)) * a[m]
        rows.append(row + kappa * _reference_rhs(V, E, kappa, a, m) if m else row)
    return rows


rationals = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)
kappas = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7),
)


@st.composite
def exact_problems(draw, even=False):
    """(V, ell, E, root, N, kappa) with 0-3 polynomial terms; `even` keeps
    only v_0 and v_2, so the singular root's resonant row vanishes."""
    ell = draw(st.integers(min_value=0, max_value=3))
    if even:
        V = PotentialModel(0, (draw(rationals), 0, draw(rationals)))
        root = -(ell + 1)
    else:
        V = PotentialModel(draw(rationals), tuple(draw(st.lists(rationals, max_size=3))))
        root = draw(st.sampled_from(indicial_roots(ell)))
    kappa = draw(kappas)
    assume(kappa > 0)
    return V, ell, draw(rationals), root, draw(st.integers(min_value=1, max_value=60)), kappa


class TestIntegerRecurrence:
    """Exact frobenius and radial_residuals against the plain Fraction recurrence."""

    def _check_frobenius(self, V, ell, E, root, N, kappa):
        expected, resonance, obstruction = reference_frobenius(
            V, ell, E, root, N, Fraction(kappa)
        )
        units = PhysicalUnits(kappa)
        if obstruction is not None:
            with pytest.raises(LogObstruction) as err:
                frobenius(V, ell, E, root, N, units)
            assert err.value.order == obstruction
            return expected
        res = frobenius(V, ell, E, root, N, units)
        assert res.series.s == root + 1
        assert res.series.coeffs == tuple(expected)
        assert all(type(c) is Fraction for c in res.series.coeffs)
        expected_report = None if resonance is None else FreeParameterSetToZero(resonance)
        assert res.resonance_report == expected_report
        return expected

    @settings(max_examples=150, deadline=None)
    @given(exact_problems())
    def test_frobenius_matches_reference(self, problem):
        self._check_frobenius(*problem)

    @settings(max_examples=50, deadline=None)
    @given(exact_problems(even=True))
    def test_resonance_report_matches_reference(self, problem):
        V, ell, E, root, N, kappa = problem
        self._check_frobenius(*problem)
        if N >= 2 * ell + 1:
            report = frobenius(V, ell, E, root, N, PhysicalUnits(kappa)).resonance_report
            assert report == FreeParameterSetToZero(2 * ell + 1)

    def test_coulomb_singular_root_obstructs_at_resonance(self):
        for ell in range(4):
            V = PotentialModel(-2, (Fraction(1, 3),))
            self._check_frobenius(V, ell, Fraction(-1, 2), -(ell + 1), 20, Fraction(3, 2))
            with pytest.raises(LogObstruction) as err:
                frobenius(V, ell, Fraction(-1, 2), -(ell + 1), 20, PhysicalUnits("3/2"))
            assert err.value.order == 2 * ell + 1

    @settings(max_examples=150, deadline=None)
    @given(
        exact_problems(),
        st.lists(st.tuples(st.integers(min_value=0, max_value=60), rationals), max_size=3),
        st.integers(min_value=-5, max_value=4),
    )
    def test_residuals_match_reference(self, problem, perturbations, shift):
        V, ell, E, root, N, kappa = problem
        a = self._check_frobenius(*problem)
        for index, delta in perturbations:
            if index < len(a):
                a[index] += delta
        assume(a[0] != 0)
        # shift != 0 moves the exponent off the indicial roots, so row 0 is nonzero too.
        s = root + shift
        got = radial_residuals(V, ell, E, PhysicalUnits(kappa), RadialSeries(s, tuple(a)))
        assert got == reference_residuals(V, ell, E, Fraction(kappa), s, a)
        assert all(type(r) is Fraction for r in got)

    @settings(max_examples=100, deadline=None)
    @given(
        rationals,
        st.lists(rationals, min_size=4, max_size=8),
        st.integers(min_value=0, max_value=3),
        rationals,
        st.sampled_from([1, Fraction(3, 2), Fraction(2, 7)]),
        st.integers(min_value=-6, max_value=4),
        st.lists(rationals, min_size=1, max_size=4),
    )
    def test_residuals_of_series_shorter_than_the_lags(self, vm1, v, ell, E, kappa, s, a):
        # Up to 9 lag weights against at most 4 coefficients: every row's window is cut short.
        assume(a[0] != 0)
        V = PotentialModel(vm1, tuple(v))
        a = [Fraction(x) for x in a]
        got = radial_residuals(V, ell, E, PhysicalUnits(kappa), RadialSeries(s, tuple(a)))
        assert got == reference_residuals(V, ell, E, Fraction(kappa), s, a)
        assert all(type(r) is Fraction for r in got)

    @settings(max_examples=50, deadline=None)
    @given(exact_problems(), st.integers(min_value=1, max_value=60), rationals)
    def test_single_perturbation_shows_in_its_row(self, problem, index, delta):
        V, ell, E, root, N, kappa = problem
        try:
            a = list(frobenius(V, ell, E, root, N, PhysicalUnits(kappa)).series.coeffs)
        except LogObstruction:
            return
        D = (index + root + 1) * (index + root) - ell * (ell + 1)
        assume(index < len(a) and delta != 0 and D != 0)
        a[index] += delta
        got = radial_residuals(V, ell, E, PhysicalUnits(kappa), RadialSeries(root, tuple(a)))
        assert all(r == 0 for r in got[:index])
        assert got[index] == -Fraction(kappa) * D * delta

    @settings(max_examples=100, deadline=None)
    @given(exact_problems(), st.lists(st.floats(-4, 4), min_size=1, max_size=30))
    def test_float_residuals_round_like_fraction_kinetic_factor(self, problem, coeffs):
        # The float kinetic factor must equal float(-kappa * D(m)) bit for bit.
        V, ell, E, root, _, kappa = problem
        assume(coeffs[0] != 0)
        Vf = PotentialModel(float(V.v_minus1), tuple(float(c) for c in V.v))
        Ef, kappa = float(E), Fraction(kappa)
        a = tuple(coeffs)
        got = radial_residuals(Vf, ell, Ef, PhysicalUnits(kappa), RadialSeries(root, a))
        w = (Vf.v_minus1, (Vf.v[0] if Vf.v else 0) - Ef, *Vf.v[1:])
        for m, r in enumerate(got):
            row = -kappa * ((m + root + 1) * (m + root) - ell * (ell + 1)) * a[m]
            for d in range(1, min(len(w), m) + 1):
                row = row + w[d - 1] * a[m - d]
            assert repr(r) == repr(row)


class TestNormalizableAtOrigin:
    @pytest.mark.parametrize(
        "s, expected", [(-1, True), (-2, False), (0, True), (1, True), (-3, False)]
    )
    def test_values(self, s, expected):
        assert normalizable_at_origin(s) == expected

    def test_threshold_is_minus_three_halves(self):
        assert normalizable_at_origin(Fraction(-7, 5))
        assert not normalizable_at_origin(Fraction(-8, 5))
