"""Series solver: indicial roots, recurrence, resonances, residuals."""

from fractions import Fraction
from math import factorial, inf, isfinite, nan, prod
from operator import mul

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
    from_u,
    hamiltonian_apply,
    indicial_roots,
    laplacian,
    normalizable_at_origin,
    radial_residuals,
)
from distpf import radial
from distpf.radial import _indicials, _integer_row, _lag_weights


class TestIndicialRoots:
    @pytest.mark.parametrize("ell, expected", [(0, (0, -1)), (1, (1, -2)), (3, (3, -4))])
    def test_values(self, ell, expected):
        assert indicial_roots(ell) == expected

    def test_rejects_negative_ell(self):
        with pytest.raises(ValueError, match="ell must be nonnegative"):
            indicial_roots(-1)

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


class TestIndicials:
    @pytest.mark.parametrize("s", [3, -4, 2.0, -4.5, Fraction(-7, 2)])
    def test_table_values_and_type(self, s):
        # An int exponent gives int entries, a float one float entries.
        table = _indicials(9, s, 3)
        assert table == tuple((m + s + 1) * (m + s) - 12 for m in range(9))
        assert all(type(d) is type(s) for d in table)

    def test_frobenius_reads_the_cached_table(self):
        V = PotentialModel(0, (Fraction(1, 3),))
        frobenius(V, 2, Fraction(1), -3, 37)
        hits = _indicials.cache_info().hits
        frobenius(V, 2, Fraction(1), -3, 37)
        assert _indicials.cache_info().hits > hits

    def test_cache_is_bounded(self):
        assert _indicials.cache_info().maxsize == 256
        for n in range(1, 300):
            _indicials(n, -9, 4)
        assert _indicials.cache_info().currsize <= 256

    def test_float_laplacian_is_not_served_the_int_table(self):
        # float(s) == s, yet D(2) rounds differently in floats than as an exact int.
        s, ell = 1098830580546846976, 0
        assert float(s) == s and float((2 + s + 1) * (2 + s)) != (2 + float(s) + 1) * (2 + float(s))
        exact = laplacian(PseudoFunction(RadialSeries(s, (1, 1, 1)), AngularLabel(ell, 0)))
        assert all(type(a) is Fraction for a in exact.pf_part.radial.coeffs)
        got = laplacian(PseudoFunction(RadialSeries(float(s), (1.0, -1.0, 3.0)), AngularLabel(ell, 0)))
        x = float(s)
        expected = [(m + x + 1) * (m + x) * a for m, a in enumerate((1.0, -1.0, 3.0))]
        assert [a.hex() for a in got.pf_part.radial.coeffs] == [a.hex() for a in expected]


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

    def test_exact_and_float_series_of_a_dyadic_problem_differ(self):
        # Every value is dyadic, so both modes store equal numbers; only the mode differs.
        exact = frobenius(PotentialModel.zero(), 0, Fraction(0), -1, 4).series
        flt = frobenius(PotentialModel.zero(), 0, 0.0, -1, 4).series
        assert (exact.s, exact.coeffs) == (flt.s, flt.coeffs)
        assert exact != flt and len({exact, flt}) == 2

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

    def test_series_is_u_and_residuals_read_R(self):
        # frobenius returns u = r R at exponent root + 1; radial_residuals reads R.
        V, ell, E, units = PotentialModel(-2, (Fraction(1, 3),)), 1, Fraction(-1, 2), PhysicalUnits()
        u = frobenius(V, ell, E, ell, 10, units).series
        assert u.s == ell + 1
        as_u = radial_residuals(V, ell, E, units, u)
        as_R = radial_residuals(V, ell, E, units, from_u(u, AngularLabel(ell, 0)).radial)
        assert (sum(r != 0 for r in as_u), sum(r != 0 for r in as_R)) == (11, 0)

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


def reference_float_frobenius(V, ell, E, root, N, kappa):
    """(coefficients, resonant order or None, stop or None) in floats, term by term.

    The weights are float(v) / kappa and float(E) / kappa; stop is ("log", k)
    for an obstruction at row k and ("inf", k) for a row that is not finite.
    """
    kappa = float(kappa)
    vm1 = float(V.v_minus1) / kappa
    vpoly = [float(c) / kappa for c in V.v]
    v0_minus_e = (vpoly[0] if vpoly else 0) - float(E) / kappa
    a, resonance = [1.0], None
    for k in range(1, N + 1):
        rhs = vm1 * a[k - 1]
        if k >= 2:
            rhs = rhs + v0_minus_e * a[k - 2]
            for j in range(1, min(len(vpoly), k - 1)):
                rhs = rhs + vpoly[j] * a[k - 2 - j]
        if not isfinite(rhs):
            return a, resonance, ("inf", k)
        D = (k + root + 1) * (k + root) - ell * (ell + 1)
        if D == 0:
            if rhs != 0:
                return a, resonance, ("log", k)
            a.append(0.0)
            resonance = k
        else:
            a.append(rhs / D)
    return a, resonance, None


rationals = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)
kappas = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7),
)

# Signed zeros, non-finite values and extremes, which a reordered sum would round differently.
float_coeffs = st.one_of(
    st.floats(-4, 4),
    st.sampled_from([0.0, -0.0, inf, -inf, nan, 1e-300, -3.7e200]),
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
        # Stored layout: numerators over |prod of the nonzero row factors K D(k)|, unreduced.
        E = Fraction(E)
        K, _, _ = _integer_row((V.v_minus1, (V.v[0] if V.v else 0) - E, *V.v[1:]), Fraction(kappa))
        D = [(k + root + 1) * (k + root) - ell * (ell + 1) for k in range(1, N + 1)]
        den = res.series._den
        assert den == abs(prod(K * d for d in D if d))
        assert res.series._nums == tuple(den * a for a in expected)
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

    @pytest.mark.parametrize(
        "V, ell, E, root, kappa",
        [
            (PotentialModel(Fraction(-2, 3), (Fraction(1, 3), Fraction(-1, 5), Fraction(2, 7))), 1, -1, 1, 1),
            (PotentialModel(0, (Fraction(1, 3), 0, Fraction(2, 5))), 2, Fraction(-1, 7), -3, Fraction(3, 2)),
        ],
    )
    def test_deep_series_matches_reference(self, V, ell, E, root, kappa):
        self._check_frobenius(V, ell, E, root, 400, kappa)

    @pytest.mark.parametrize("ell", range(5))
    @pytest.mark.parametrize(
        "V, obstructs",
        [
            (PotentialModel(-2, (Fraction(1, 3),)), True),
            (PotentialModel(0, (Fraction(1, 3), 0, Fraction(-2, 5))), False),
        ],
        ids=["coulomb", "even"],
    )
    def test_singular_root_around_the_resonance(self, V, obstructs, ell):
        # Rows up to the resonance r = 2 ell + 1 run over f_1 ... f_r, later rows
        # after one rescale: N just below r, at r, one past r, and far past it.
        for N in (2 * ell, 2 * ell + 1, 2 * ell + 2, 400):
            if N < 1:
                continue
            self._check_frobenius(V, ell, Fraction(-1, 2), -(ell + 1), N, Fraction(3, 2))
            _, resonance, obstruction = reference_frobenius(V, ell, Fraction(-1, 2), -(ell + 1), N, Fraction(3, 2))
            stop = 2 * ell + 1 if N > 2 * ell else None
            assert (obstruction, resonance) == ((stop, None) if obstructs else (None, stop))

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

    @settings(max_examples=200, deadline=None)
    @given(
        exact_problems(),
        st.lists(st.one_of(st.just(0), rationals), max_size=6),
        st.lists(float_coeffs, min_size=1, max_size=30),
    )
    def test_float_residuals_round_like_fraction_kinetic_factor(self, problem, extra, coeffs):
        # Every row must equal the row-at-a-time sum bit for bit: the kinetic
        # factor rounded like float(-kappa * D(m)), then each lag weight added in
        # order, zero weights included.  Up to 10 weights against as few as one
        # coefficient, so some series are shorter than the lag window.
        V, ell, E, root, _, kappa = problem
        assume(coeffs[0] != 0)
        Vf = PotentialModel(float(V.v_minus1), tuple(float(c) for c in (*V.v, *extra)))
        Ef, kappa = float(E), Fraction(kappa)
        a = tuple(coeffs)
        got = radial_residuals(Vf, ell, Ef, PhysicalUnits(kappa), RadialSeries(root, a))
        w = (Vf.v_minus1, (Vf.v[0] if Vf.v else 0) - Ef, *Vf.v[1:])
        for m, r in enumerate(got):
            row = -kappa * ((m + root + 1) * (m + root) - ell * (ell + 1)) * a[m]
            for d in range(1, min(len(w), m) + 1):
                row = row + w[d - 1] * a[m - d]
            assert repr(r) == repr(row)


def row_factor_layout(V, ell, E, root, N, kappa):
    """(_den, _nums) by the row factors f_k = K D(k) or 1 and Q = prod(f); None if obstructed.

    The table is read through the module, so a patched ``_indicials`` shows here too.
    """
    K, w, _ = _integer_row(_lag_weights(V.v_minus1, V.v, Fraction(E)), Fraction(kappa))
    D = radial._indicials(N + 1, root, ell)
    f = [K * x or 1 for x in D]
    r = min(2 * ell + 1, N) if root < 0 else N
    a = [prod(f[: r + 1])]
    for k in range(1, N + 1):
        if k == r + 1:
            tail = prod(f[k:])
            a = [x * tail for x in a]
        rhs = sum(map(mul, w, reversed(a)))
        if D[k]:
            a.append(rhs // f[k])
        elif rhs:
            return None
        else:
            a.append(0)
    sign = -1 if a[0] < 0 else 1
    return a[0] * sign, tuple(x * sign for x in a)


class TestCachedRowProducts:
    """Q = K**c times the cached product of the nonzero D(k) stores what prod(K D(k) or 1) stored."""

    POTENTIALS = [
        PotentialModel(Fraction(-2, 3), (Fraction(1, 3), Fraction(-1, 5), Fraction(2, 7))),
        PotentialModel(0, (Fraction(1, 3), 0, Fraction(-2, 5))),  # even: singular roots pass the resonance
    ]

    @pytest.mark.parametrize("kappa", [Fraction(1), Fraction(1, 2), Fraction(2)])
    @pytest.mark.parametrize("ell", range(5))
    def test_stored_layout_matches_row_factor_product(self, ell, kappa):
        E = Fraction(-3, 4)
        for V in self.POTENTIALS:
            K, _, _ = _integer_row(_lag_weights(V.v_minus1, V.v, E), kappa)
            assert K > 1
            for root in indicial_roots(ell):
                for N in sorted({1, 2 * ell, 2 * ell + 1, 2 * ell + 2, 60} - {0}):
                    expected = row_factor_layout(V, ell, E, root, N, kappa)
                    if expected is None:
                        with pytest.raises(LogObstruction):
                            frobenius(V, ell, E, root, N, PhysicalUnits(kappa))
                        continue
                    series = frobenius(V, ell, E, root, N, PhysicalUnits(kappa)).series
                    assert (series._den, series._nums) == expected

    def test_patched_table_leaves_no_product_behind(self, monkeypatch):
        # The D-shift mutant of tests/test_mutants.py: under it the products come
        # from the patched table, and once it is undone no product of it is read.
        V, E, units = self.POTENTIALS[0], Fraction(-3, 4), PhysicalUnits(Fraction(1, 2))
        before = frobenius(V, 1, E, 1, 30, units).series
        with monkeypatch.context() as patched:
            patched.setattr(radial, "_indicials", lambda n, s, ell, D=radial._indicials: D(n + 1, s, ell)[1:])
            shifted = frobenius(V, 1, E, 1, 30, units).series
            assert (shifted._den, shifted._nums) == row_factor_layout(V, 1, E, 1, 30, Fraction(1, 2))
        assert shifted != before
        after = frobenius(V, 1, E, 1, 30, units).series
        assert after._stored(after) == before._stored(before)


@st.composite
def float_problems(draw):
    """(V, ell, E, root, N, kappa) in float mode; V may mix rationals into floats.

    Half the potentials have only v_0 and v_2, so a singular root reaches
    its resonant row with a zero right-hand side."""
    ell = draw(st.integers(min_value=0, max_value=3))
    coeff = st.one_of(float_coeffs, rationals)
    if draw(st.booleans()):
        V = PotentialModel(0.0, (draw(coeff), draw(st.sampled_from([0.0, -0.0])), draw(coeff)))
    else:
        V = PotentialModel(draw(coeff), tuple(draw(st.lists(coeff, max_size=3))))
    root = draw(st.sampled_from(indicial_roots(ell)))
    return V, ell, draw(float_coeffs), root, draw(st.integers(min_value=1, max_value=60)), draw(kappas)


class TestFloatRecurrence:
    """Float frobenius against the term-by-term float recurrence, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(float_problems())
    def test_frobenius_matches_reference(self, problem):
        V, ell, E, root, N, kappa = problem
        expected, resonance, stop = reference_float_frobenius(V, ell, E, root, N, Fraction(kappa))
        units = PhysicalUnits(kappa)
        if stop is not None:
            kind, order = stop
            error = LogObstruction if kind == "log" else ValueError
            with pytest.raises(error) as err:
                frobenius(V, ell, E, root, N, units)
            if kind == "log":
                assert err.value.order == order
            else:
                assert str(err.value).startswith(f"float recurrence is not finite at order {order} ")
            return
        res = frobenius(V, ell, E, root, N, units)
        assert not res.series.is_exact and res.series.s == root + 1
        assert [repr(c) for c in res.series.coeffs] == [repr(c) for c in expected]
        expected_report = None if resonance is None else FreeParameterSetToZero(resonance)
        assert res.resonance_report == expected_report


# -- closed-form solution families ----------------------------------------


def _times_exp(a, rate, step):
    """Each coefficient of (sum_k a_k r^k) e^(rate r^step) up to order len(a) - 1,
    with the sum of the absolute values of its terms."""
    out = []
    for j in range(len(a)):
        terms = [a[j - step * m] * rate**m / factorial(m) for m in range(j // step + 1)]
        out.append((sum(terms), sum(map(abs, terms))))
    return out


def _assert_degree(series, rate, step, degree):
    """The series times e^(rate r^step) is a polynomial of exactly this degree."""
    for j, (c, scale) in enumerate(_times_exp(series.coeffs, rate, step)):
        vanishes = c == 0 if series.is_exact else abs(c) <= 1e-12 * scale
        if j >= degree:
            assert vanishes == (j > degree), (j, c, scale)


def _double_factorial(n):
    return prod(range(n, 0, -2))


MODES = [pytest.param(Fraction, id="exact"), pytest.param(float, id="float")]


class TestClosedFormFamilies:
    """Known solutions, each checked without the recurrence's own weights."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, ell", [(n, ell) for n in range(1, 7) for ell in range(n)])
    def test_hydrogen_series_times_decay_is_a_polynomial(self, mode, n, ell):
        # kappa = 1, V = -2/r, E = -1/n^2: u e^(r/n) / r^(ell+1) has degree n - ell - 1.
        res = frobenius(PotentialModel.coulomb(-2), ell, mode(Fraction(-1, n * n)), ell, 30)
        assert res.series.is_exact == (mode is Fraction)
        _assert_degree(res.series, mode(Fraction(1, n)), 1, n - ell - 1)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("ell", range(4))
    def test_oscillator_series_times_gaussian_is_a_polynomial(self, mode, n, ell):
        # V = r^2, E = 4n + 2 ell + 3: u e^(r^2/2) / r^(ell+1) has degree 2n.
        res = frobenius(PotentialModel(0, (0, 0, 1)), ell, mode(4 * n + 2 * ell + 3), ell, 30)
        _assert_degree(res.series, mode(Fraction(1, 2)), 2, 2 * n)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("k2", [Fraction(1), Fraction(4), Fraction(1, 9)])
    @pytest.mark.parametrize("ell", range(5))
    @pytest.mark.parametrize("regular", [True, False], ids=["regular", "singular"])
    def test_free_particle_coefficients(self, mode, k2, ell, regular):
        # E = k^2: the regular root is the spherical Bessel j_ell, the singular one y_ell
        # with its free parameter at 2 ell + 1 set to zero.
        N = 30
        root = ell if regular else -(ell + 1)
        res = frobenius(PotentialModel.zero(), ell, mode(k2), root, N)
        expected = [Fraction(0)] * (N + 1)
        for m in range(N // 2 + 1):
            if regular:
                c = (-k2 / 2) ** m * _double_factorial(2 * ell + 1)
                c /= factorial(m) * _double_factorial(2 * ell + 2 * m + 1)
            else:
                c = (-k2) ** m / (2**m * factorial(m) * prod(2 * i - 2 * ell - 1 for i in range(1, m + 1)))
            expected[2 * m] = c
        got = res.series.coeffs
        if mode is Fraction:
            assert got == tuple(expected)
        else:
            assert all(abs(g - float(e)) <= 1e-12 * abs(float(e)) for g, e in zip(got, expected))
        report = None if regular else FreeParameterSetToZero(2 * ell + 1)
        assert res.resonance_report == report


class TestPotentialModel:
    def test_mode_is_part_of_identity(self):
        exact, flt = PotentialModel(Fraction(1, 2)), PotentialModel(0.5)
        assert exact.is_exact and not flt.is_exact
        assert exact != flt and len({exact, flt}) == 2
        assert PotentialModel(Fraction(1, 2)) == exact and hash(PotentialModel(0.5)) == hash(flt)

    def test_repr_hides_the_mode(self):
        assert repr(PotentialModel(Fraction(1, 2))) == "PotentialModel(v_minus1=Fraction(1, 2), v=())"
        assert repr(PotentialModel(0.5, (1,))) == "PotentialModel(v_minus1=0.5, v=(1.0,))"


class TestNormalizableAtOrigin:
    @pytest.mark.parametrize(
        "s, expected", [(-1, True), (-2, False), (0, True), (1, True), (-3, False)]
    )
    def test_values(self, s, expected):
        assert normalizable_at_origin(s) == expected

    def test_threshold_is_minus_three_halves(self):
        assert normalizable_at_origin(Fraction(-7, 5))
        assert not normalizable_at_origin(Fraction(-8, 5))
