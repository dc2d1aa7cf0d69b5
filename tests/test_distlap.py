"""The distributional Laplacian engine: delta sums, operators, Hamiltonian."""

import contextlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpf import (
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    ExactScalar,
    LogObstruction,
    NotRadialSolution,
    PhysicalUnits,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    classify_solution,
    coeff_B,
    coeff_C,
    delta_source,
    frobenius,
    from_u,
    hamiltonian_apply,
    indicial_roots,
    laplacian,
    q_sl,
    radial_residuals,
)

PI = ExactScalar.pi_term(1, 2)


@contextlib.contextmanager
def _counting_fractions(monkeypatch):
    """Collect the class of every Fraction built inside the block."""
    new, made = Fraction.__new__, []

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting_new))
        if "_from_coprime_ints" in vars(Fraction):  # Python >= 3.12 builds products here
            coprime = vars(Fraction)["_from_coprime_ints"].__func__
            patch.setattr(
                Fraction,
                "_from_coprime_ints",
                classmethod(lambda cls, n, d: made.append(cls) or coprime(cls, n, d)),
            )
        yield made


def pf_of(s, coeffs, ell=0, mu=0):
    return PseudoFunction(RadialSeries.exact(s, coeffs), AngularLabel(ell, mu))


class TestSinglePower:
    def test_inverse_r_is_pure_point_source(self):
        expr = laplacian(pf_of(-1, (1,)))
        assert expr.pf_part.radial.is_zero
        assert expr.delta_part.terms == (DeltaTerm(coeff_C(0), 0, 0, 0),)
        assert coeff_C(0) == PI * (-4)

    def test_r_squared(self):
        expr = laplacian(pf_of(2, (1,)))
        assert (expr.pf_part.radial.s, expr.pf_part.radial.coeffs) == (0, (6,))
        assert expr.delta_part.is_empty

    def test_r_minus_3(self):
        expr = laplacian(pf_of(-3, (1,)))
        assert (expr.pf_part.radial.s, expr.pf_part.radial.coeffs) == (-5, (6,))
        assert expr.delta_part.terms == (DeltaTerm(PI * Fraction(-10, 3), 0, 0, 1),)

    def test_harmonic_power_annihilated(self):
        for ell in range(5):
            expr = laplacian(pf_of(ell, (1,), ell, ell))
            assert expr.pf_part.radial.is_zero and expr.delta_part.is_empty

    def test_angular_weight(self):
        # single power at the singular exponent for ell = 1
        expr = laplacian(pf_of(-2, (1,), 1, 1))
        assert expr.delta_part.terms == (DeltaTerm(coeff_B(1, 1) * coeff_C(1), 1, 1, 1),)
        assert coeff_B(1, 1) * coeff_C(1) == PI * (-2)

    def test_quadrupole_over_r_has_no_delta_part(self):
        # Frahm: lap(Y_2 / r) has only the function part; r^2 Y_2 lap(delta) is zero.
        for mu in range(-2, 3):
            expr = laplacian(pf_of(-1, (1,), ell=2, mu=mu))
            assert expr.delta_part.is_empty
            assert (expr.pf_part.radial.s, expr.pf_part.radial.coeffs) == (-3, (-6,))

    def test_float_nonintegral_exponent_has_no_delta(self):
        expr = laplacian(PseudoFunction(RadialSeries(-1.5, (1.0,)), AngularLabel(0, 0)))
        assert expr.delta_part.is_empty
        assert expr.pf_part.radial.coeffs == pytest.approx((0.75,))


class TestQslEllZero:
    def test_nonnegative_exponent_empty(self, rng):
        for ell in range(7):
            for _ in range(30):
                coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 6))]
                assert q_sl(pf_of(ell, coeffs)).is_empty

    def test_inverse_r_single_term(self):
        ds = q_sl(pf_of(-1, (Fraction(5),)))
        assert ds.terms == (DeltaTerm(5 * coeff_C(0), 0, 0, 0),)

    def test_s_minus_3_parity_kills_middle(self):
        ds = q_sl(pf_of(-3, (2, 7, 3)))
        assert ds == DeltaSum.build([DeltaTerm(2 * coeff_C(1), 0, 0, 1), DeltaTerm(3 * coeff_C(0), 0, 0, 0)])
        assert len(ds) == 2

    def test_terms_only_from_opposite_parity_indices(self, rng):
        # reconstruct k = -2p - 1 - s from each stored term
        for _ in range(200):
            s = rng.randint(-8, -1)
            coeffs = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-2, 2) for _ in range(5)]
            for t in q_sl(pf_of(s, coeffs)):
                k = -2 * t.p - 1 - s
                assert (k + s) % 2 == 1
                assert 0 <= k <= -s - 1

    def test_nonvanishing_iff_occupied_odd_rung(self, rng):
        for s in range(-8, 0):
            for _ in range(40):
                coeffs = [rng.choice([-2, -1, 1, 2])] + [
                    rng.choice([0, 0, 0, 1, -1]) for _ in range(rng.randint(0, 6))
                ]
                occupied = any(
                    a != 0 and (k + s) % 2 == 1 and k + s <= -1
                    for k, a in enumerate(coeffs)
                )
                assert (not q_sl(pf_of(s, coeffs)).is_empty) == occupied

    def test_two_consecutive_nonzero_coefficients(self, rng):
        # a nonzero adjacent pair inside the singular range forces a term
        for _ in range(100):
            s = rng.randint(-8, -1)
            k0 = rng.randint(0, -s - 1)
            coeffs = [0] * (k0 + 2)
            coeffs[k0] = rng.choice([1, 2, -1])
            coeffs[k0 + 1] = rng.choice([1, 2, -1])
            if coeffs[0] == 0:
                coeffs[0] = 1
            assert not q_sl(pf_of(s, coeffs)).is_empty

    def test_float_series_nonintegral_exponent_empty(self):
        assert q_sl(PseudoFunction(RadialSeries(-1.5, (1.0, 2.0)), AngularLabel(0, 0))).is_empty

    def test_float_series_integral_exponent_lifts_exactly(self):
        ds = q_sl(PseudoFunction(RadialSeries(-1.0, (2.0,)), AngularLabel(0, 0)))
        assert ds.terms == (DeltaTerm(2 * coeff_C(0), 0, 0, 0),)


class TestQsl:
    def test_s_minus2_ell1(self):
        ds = q_sl(pf_of(-2, (1, 1), ell=1, mu=0))
        assert ds.terms == (DeltaTerm(PI * (-2), 1, 0, 1),)

    def test_leading_term_at_singular_root(self):
        # s = -(ell+1): the k = 0 rung is always occupied
        for ell in range(7):
            ds = q_sl(pf_of(-(ell + 1), (1,), ell=ell, mu=0))
            assert ds.terms == (DeltaTerm(coeff_B(ell, ell) * coeff_C(ell), ell, 0, ell),)

    def test_regular_exponent_empty_for_any_series(self, rng):
        for ell in range(7):
            for _ in range(30):
                coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 6))]
                pf = pf_of(ell, coeffs, ell=ell, mu=rng.randint(-ell, ell))
                assert q_sl(pf).is_empty

    def test_short_rung_dropped_when_harmonic_degree_too_high(self):
        # s = -2, ell = 0: k = 0 sits at even distance, k = 1 at the rung;
        # with only a_0 nonzero nothing survives
        assert q_sl(pf_of(-2, (1, 0))).is_empty
        assert not q_sl(pf_of(-2, (1, 1))).is_empty


def _delta_sum_reference(s, coeffs, ell, mu):
    """The rung test on every coefficient, as ``q_sl`` once ran it."""
    if isinstance(s, float) and not s.is_integer():
        return DeltaSum()
    s = int(s)
    terms = []
    for k, a in enumerate(coeffs):
        if a == 0:
            continue
        t = k + s + 1 - ell
        if t > 0 or t % 2 != 0:
            continue
        p = -t // 2
        if p < ell:
            continue
        if isinstance(a, float) and not math.isfinite(a):
            raise ValueError(f"coefficient a_{k} = {a} on a singular rung has no exact weight")
        terms.append(DeltaTerm(Fraction(a) * coeff_B(ell, p) * coeff_C(p), ell, mu, p))
    return DeltaSum.build(terms)


exact_coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
float_coeffs = st.one_of(
    st.sampled_from([0.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-3, max_value=3),
)


sparse_coeffs = st.one_of(
    st.lists(st.one_of(st.just(0), st.just(0), exact_coeffs), min_size=1, max_size=24),
    st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e300, 1e300, allow_nan=False)), min_size=1, max_size=24),
)


class TestQslAsBuilt:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.booleans(),
        st.integers(min_value=0, max_value=8),
        sparse_coeffs,
        st.integers(min_value=0, max_value=12),
    )
    def test_is_canonical_with_p_rising(self, ell, singular, depth, coeffs, mu):
        # The rungs are written in one pass: already the merged, sorted sum that build returns.
        exact = not isinstance(coeffs[0], float)
        coeffs[0] = coeffs[0] or (1 if exact else 1.0)
        s = indicial_roots(ell)[singular] - depth
        pf = PseudoFunction(RadialSeries(s if exact else float(s), coeffs), AngularLabel(ell, mu % (2 * ell + 1) - ell))
        q = q_sl(pf)
        built = DeltaSum.build(q.terms)
        assert q == built and repr(q) == repr(built)
        assert all(t.key[:2] == (ell, pf.angular.mu) for t in q)
        ps = [t.p for t in q]
        assert ps == sorted(set(ps))


class TestDeltaSumRungs:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.integers(min_value=-30, max_value=4),
                st.one_of(st.lists(exact_coeffs, max_size=40), st.lists(float_coeffs, max_size=40)),
            ),
            # A float exponent makes a float series: its coefficients are floats.
            st.tuples(
                st.one_of(st.integers(min_value=-30, max_value=4).map(float), st.sampled_from([-2.5, 0.5])),
                st.lists(float_coeffs, max_size=40),
            ),
        ),
        st.integers(min_value=0, max_value=6),
    )
    def test_matches_the_every_coefficient_loop(self, state, ell):
        series = RadialSeries.make(*state)  # strips leading zeros: compare on its own s and coeffs
        pf = PseudoFunction(series, AngularLabel(ell, 0))
        try:
            expected = _delta_sum_reference(series.s, series.coeffs, ell, 0)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                q_sl(pf)
            return
        assert q_sl(pf) == expected


class TestLaplacian:
    def test_harmonic_polynomial(self):
        expr = laplacian(pf_of(1, (1,), ell=1, mu=-1))
        assert expr.pf_part.radial.is_zero and expr.delta_part.is_empty

    def test_termwise_exponent_shift(self):
        expr = laplacian(pf_of(2, (1, 1), ell=0, mu=0))
        assert (expr.pf_part.radial.s, expr.pf_part.radial.coeffs) == (0, (6, 12))

    def test_inverse_r_bare_weight(self):
        expr = laplacian(pf_of(-1, (1,)))
        assert expr.delta_part.terms == (DeltaTerm(PI * (-4), 0, 0, 0),)

    def test_regular_exponent_no_delta_up_to_ell_6(self, rng):
        for ell in range(7):
            for _ in range(20):
                coeffs = [rng.choice([1, 2, -1])] + [rng.randint(-2, 2) for _ in range(3)]
                expr = laplacian(pf_of(ell, coeffs, ell=ell, mu=0))
                assert expr.delta_part.is_empty

    def test_float_overflow_of_the_exponent_factor_raises(self):
        # s(s+1) overflows for s = 1e200, past any exponent the CLI accepts.
        pf = PseudoFunction(RadialSeries(1e200, (1.0, 2.0)), AngularLabel(0, 0))
        with pytest.raises(ValueError, match=r"^float Laplacian is not finite at order 0 \(coefficient inf\)$"):
            laplacian(pf)

    def test_preserves_truncation_order(self, rng):
        pf = pf_of(-3, (1, 2, 3, 4))
        expr = laplacian(pf)
        # exponent shifted by two, same number of stored orders
        assert expr.pf_part.radial.s == -5
        assert expr.pf_part.radial.order == pf.radial.order


class TestEllZeroLaplacian:
    def test_point_source_of_u_over_r(self, rng):
        for _ in range(50):
            a0 = rng.choice([1, 2, 3, -1, -2])
            coeffs = [a0] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
            expr = laplacian(pf_of(-1, coeffs))
            assert expr.delta_part == DeltaSum.build(
                [DeltaTerm(a0 * coeff_C(0), 0, 0, 0)]
            )
            # function-sense part is u''/r: coefficient k(k-1) a_k at r^(k-3)
            expected = RadialSeries.make(-3, [k * (k - 1) * a for k, a in enumerate(coeffs)])
            assert expr.pf_part.radial == expected

    def test_smooth_power(self):
        expr = laplacian(pf_of(2, (1,)))
        assert (expr.pf_part.radial.s, expr.pf_part.radial.coeffs) == (0, (6,))
        assert expr.delta_part.is_empty

    def test_s_minus_3_delta_terms(self):
        expr = laplacian(pf_of(-3, (1, 1, 1)))
        assert expr.delta_part == DeltaSum.build([DeltaTerm(coeff_C(1), 0, 0, 1), DeltaTerm(coeff_C(0), 0, 0, 0)])
        assert len(expr.delta_part) == 2


@st.composite
def labelled_states(draw):
    """(ell, mu, root, exact) with ell <= 4 and either indicial root."""
    ell = draw(st.integers(min_value=0, max_value=4))
    root = draw(st.sampled_from(indicial_roots(ell)))
    return ell, draw(st.integers(min_value=-ell, max_value=ell)), root, draw(st.booleans())


units_values = st.sampled_from([1, Fraction(1, 2), Fraction(3, 2), Fraction(2, 7)]).map(PhysicalUnits)


class TestDeltaSource:
    @settings(max_examples=200, deadline=None)
    @given(
        labelled_states(),
        st.integers(min_value=0, max_value=6),
        st.lists(exact_coeffs, min_size=1, max_size=12),
        units_values,
    )
    def test_is_the_folded_q_sl_scaled_by_minus_kappa(self, state, depth, coeffs, units):
        # Exponents from the root down by `depth` reach deeper rungs than the root alone.
        ell, mu, root, exact = state
        if coeffs[0] == 0:
            coeffs[0] = 1
        series = RadialSeries.exact(root - depth, coeffs)
        if not exact:
            series = RadialSeries(float(series.s), tuple(map(float, series.coeffs)))
        pf = PseudoFunction(series, AngularLabel(ell, mu))
        got = delta_source(pf, units)
        # Each q_sl coefficient times -kappa, and times Y_0^0 = 1/sqrt(4 pi) at l = 0.
        factor = ExactScalar.rational(-units.hbar2_over_2m)
        if ell == 0:
            factor = factor * ExactScalar.pi_term(Fraction(1, 2), -1)
        expected = [DeltaTerm(t.coefficient * factor, t.ell, t.mu, t.p) for t in q_sl(pf)]
        assert len(got) == len(expected)
        for t, u in zip(got, expected):
            assert t == u and repr(t) == repr(u)

    @settings(max_examples=100, deadline=None)
    @given(
        labelled_states(),
        exact_coeffs,
        st.lists(exact_coeffs, max_size=3),
        exact_coeffs,
        st.integers(min_value=1, max_value=30),
        units_values,
    )
    def test_strict_apply_equals_lenient_on_a_solution(self, state, vm1, v, E, N, units):
        ell, mu, root, exact = state
        V = PotentialModel(vm1, tuple(v))
        if not exact:
            V, E = PotentialModel(float(vm1), tuple(map(float, v))), float(E)
        try:
            u = frobenius(V, ell, E, root, N, units).series
        except LogObstruction:
            return
        pf = from_u(u, AngularLabel(ell, mu))
        lenient = hamiltonian_apply(pf, V, E, units)
        bad = tuple(m for m, r in enumerate(radial_residuals(V, ell, E, units, pf.radial)) if r != 0)
        if bad:  # float round-off only: exact series always solve their rows
            assert not exact
            with pytest.raises(NotRadialSolution) as err:
                hamiltonian_apply(pf, V, E, units, strict=True)
            assert err.value.orders == bad
            return
        strict = hamiltonian_apply(pf, V, E, units, strict=True)
        assert strict == lenient and repr(strict) == repr(lenient)
        assert strict.delta_part == delta_source(pf, units)


class TestHamiltonianApply:
    def test_regular_solution_is_plain_eigenvalue(self):
        V = PotentialModel(-2)
        E = Fraction(-1)
        res = frobenius(V, 0, E, 0, 10)
        pf = from_u(res.series, AngularLabel(0, 0))
        expr = hamiltonian_apply(pf, V, E)
        assert expr.delta_part.is_empty
        assert expr.pf_part.radial == pf.radial.scaled(E)

    def test_free_particle_singular_source(self):
        E = Fraction(1)
        res = frobenius(PotentialModel(), 0, E, -1, 8)
        pf = from_u(res.series, AngularLabel(0, 0))
        expr = hamiltonian_apply(pf, PotentialModel(), E)
        assert expr.pf_part.radial == pf.radial.scaled(E)
        # source is 2 sqrt(pi) * u(0) * delta in natural units
        assert expr.delta_part == DeltaSum.build(
            [DeltaTerm(ExactScalar.pi_term(2, 1), 0, 0, 0)]
        )

    def test_singular_exponent_always_sourced(self, rng):
        for ell in range(4):
            E = Fraction(rng.randint(-3, 3))
            res = frobenius(PotentialModel(), ell, E, -(ell + 1), 2 * ell + 4)
            pf = from_u(res.series, AngularLabel(ell, 0))
            assert not hamiltonian_apply(pf, PotentialModel(), E).delta_part.is_empty

    def test_units_scale_the_source(self):
        units = PhysicalUnits(Fraction(3, 2))
        E = Fraction(1)
        res = frobenius(PotentialModel(), 0, E, -1, 6, units)
        pf = from_u(res.series, AngularLabel(0, 0))
        expr = hamiltonian_apply(pf, PotentialModel(), E, units)
        assert expr.delta_part.terms == (DeltaTerm(ExactScalar.pi_term(3, 1), 0, 0, 0),)

    def test_strict_mode_rejects_non_solution(self):
        pf = pf_of(0, (1, 1))  # r + r^2 solves nothing at E = 5
        with pytest.raises(NotRadialSolution):
            hamiltonian_apply(pf, PotentialModel(), Fraction(5), strict=True)

    def test_lenient_mode_reports_residual(self):
        # R = 1 + r is no eigenfunction: H R = -lap(1 + r) = -2/r at E = 0,
        # and lenient mode must report that function-sense series honestly.
        pf = pf_of(0, (1, 1))
        expr = hamiltonian_apply(pf, PotentialModel(), Fraction(0))
        assert (expr.pf_part.radial.s, expr.pf_part.radial.coeffs) == (-1, (-2,))
        assert expr.delta_part.is_empty

    def test_strict_apply_builds_no_fraction_per_added_coefficient(self, monkeypatch):
        # The residual rows and E * Pf run on the series' integer numerators:
        # a vanishing row is one shared zero, and E * Pf is built without a
        # Fraction, so 80 more orders cost no Fraction at all.
        V = PotentialModel(-2, (Fraction(3, 10), Fraction(7, 10)))
        E, units = Fraction(-1, 2), PhysicalUnits(Fraction(3, 2))

        def built(N):
            pf = from_u(frobenius(V, 1, E, 1, N, units).series, AngularLabel(1, 0))
            with _counting_fractions(monkeypatch) as made:
                expr = hamiltonian_apply(pf, V, E, units, strict=True)
            assert expr.pf_part.radial == pf.radial.scaled(E)
            return len(made)

        assert built(160) - built(80) == 0

    @pytest.mark.parametrize("k", [1, 3, 6, 9, 12])
    def test_strict_apply_names_the_rows_a_corrupted_numerator_feeds(self, k):
        # Lag weights (v_-1, v_0 - E, v_1, v_2) = (-2/3, 5/6, 0, 2/5): lag 3 is zero.
        V = PotentialModel(Fraction(-2, 3), (Fraction(1, 3), 0, Fraction(2, 5)))
        E, units, ell, N = Fraction(-1, 2), PhysicalUnits(Fraction(3, 2)), 1, 12
        u = frobenius(V, ell, E, ell, N, units).series
        nums = list(u._nums)
        nums[k] += 1
        pf = from_u(RadialSeries._over(u.s, nums, u._den), AngularLabel(ell, 0))
        fed = sorted(m for m in (k, k + 1, k + 2, k + 4) if m <= N)
        with pytest.raises(NotRadialSolution) as err:
            hamiltonian_apply(pf, V, E, units, strict=True)
        assert err.value.orders == tuple(fed)
        # The same rows in plain Fraction arithmetic, each reduced.
        a, s, kappa = pf.radial.coeffs, pf.radial.s, units.hbar2_over_2m
        w = (V.v_minus1, V.v[0] - E, *V.v[1:])
        expected = [
            -kappa * ((m + s + 1) * (m + s) - ell * (ell + 1)) * a[m]
            + sum((w[d - 1] * a[m - d] for d in range(1, min(len(w), m) + 1)), Fraction(0))
            for m in range(N + 1)
        ]
        rows = radial_residuals(V, ell, E, units, pf.radial)
        assert rows == expected and all(type(r) is Fraction for r in rows)
        assert [m for m, r in enumerate(rows) if r] == fed

    DEEP_STATES = [
        (PotentialModel(-2, (Fraction(3, 10), Fraction(7, 10))), 1, 1),
        (PotentialModel(0, (Fraction(3, 10), 0, Fraction(7, 10))), 1, -2),  # through the resonance
    ]

    @pytest.mark.parametrize("V, ell, root", DEEP_STATES)
    def test_classify_builds_no_fraction_per_added_order(self, monkeypatch, V, ell, root):
        # frobenius keeps its b_k / Q_k state in integers and brings it over
        # one denominator at the end: no Fraction per order.
        E, units = Fraction(-1, 2), PhysicalUnits(Fraction(3, 2))

        def built(N):
            with _counting_fractions(monkeypatch) as made:
                v = classify_solution(V, ell, 0, E, root, N, units)
            assert v.u_series.order == N
            return len(made)

        built(80)  # fills the coeff_C cache, so the test holds when run alone
        assert built(160) - built(80) == 0

    @pytest.mark.parametrize("V, ell, root", DEEP_STATES)
    def test_exact_frobenius_takes_no_gcd(self, monkeypatch, V, ell, root):
        # The series keeps the common denominator its recurrence built, so
        # no gcd runs over the full-width numerators; scaled's one small
        # gcd, of its denominator and the factor's numerator, shows that
        # the counter sees the module's calls.
        calls = []
        monkeypatch.setattr("distpf.pseudofunction.gcd", lambda *args: calls.append(args) or math.gcd(*args))
        u = frobenius(V, ell, Fraction(-1, 2), root, 160, PhysicalUnits(Fraction(3, 2))).series
        assert u.order == 160 and calls == []
        assert u.scaled(Fraction(-2, 3)) == RadialSeries.exact(u.s, [a * Fraction(-2, 3) for a in u.coeffs])
        assert len(calls) == 1
