"""Value-type invariants: series, labels, delta terms and sums."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpf import (
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    ExactScalar,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    from_u,
)


class TestRadialSeries:
    def test_exact_mode_normalises_to_fractions(self):
        s = RadialSeries.exact(-1, (1, 0, 2))
        assert s.coeffs == (Fraction(1), Fraction(0), Fraction(2))
        assert s.is_exact and not s.is_zero
        assert s.order == 2

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            RadialSeries.exact(0, (0, 1))

    def test_modes_never_mix(self):
        s = RadialSeries(0, (1, 0.5))
        assert not s.is_exact
        assert all(isinstance(a, float) for a in s.coeffs)

    def test_exact_mode_requires_integer_exponent(self):
        with pytest.raises(ValueError):
            RadialSeries(0.5, (Fraction(1),))
        RadialSeries(0.5, (1.0,))  # fine in float mode

    def test_zero_is_canonical(self):
        assert RadialSeries(0, ()) == RadialSeries(3, ())
        assert RadialSeries(0, ()).is_zero

    def test_make_strips_leading_zeros(self):
        s = RadialSeries.make(-3, (0, 0, 5, 1))
        assert (s.s, s.coeffs) == (-1, (Fraction(5), Fraction(1)))
        assert RadialSeries.make(2, (0, 0)).is_zero

    def test_trailing_zeros_are_kept(self):
        assert RadialSeries.exact(0, (1, 0)).order == 1

    def test_mode_is_part_of_identity(self):
        exact, flt = RadialSeries.exact(-6, (1, 1)), RadialSeries(-6.0, (1.0, 1.0))
        assert exact != flt and len({exact, flt}) == 2
        assert RadialSeries(-6, (1.0, 1.0)) != exact
        assert RadialSeries(0.0, ()) == RadialSeries(0, ()) and RadialSeries(0, ()).is_exact

    def test_repr_hides_the_mode(self):
        assert repr(RadialSeries.exact(-6, (1, 1))) == (
            "RadialSeries(s=-6, coeffs=(Fraction(1, 1), Fraction(1, 1)))"
        )
        assert repr(RadialSeries(-6.0, (1, 1.0))) == "RadialSeries(s=-6.0, coeffs=(1.0, 1.0))"


# -- the per-element mode rules RadialSeries and PotentialModel used before sharing one ----


def _reference_normalise(s, coeffs):
    """(coeffs, is_exact) as RadialSeries normalises a nonempty tuple, element by element."""
    exact = not any(isinstance(a, float) for a in coeffs)
    if exact:
        coeffs = tuple(a if type(a) is Fraction else Fraction(a) for a in coeffs)
        if not isinstance(s, int):
            raise ValueError("exact-mode series require an integer leading exponent")
    else:
        coeffs = tuple(float(a) for a in coeffs)
    if coeffs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return coeffs, exact


def _reference_potential(values):
    """(values, is_exact) as PotentialModel normalised (v_minus1, *v), element by element."""
    if any(isinstance(x, float) for x in values):
        return tuple(float(x) for x in values), False
    return tuple(Fraction(x) for x in values), True


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


class _Float(float):
    pass


_small = st.integers(min_value=-3, max_value=3)
# No subnormal-sized values: a product that underflows to 0 would be a leading zero.
_reals = st.floats(min_value=-3, max_value=3).filter(lambda x: x == 0 or abs(x) > 1e-6)
_elements = st.one_of(
    _small,
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.floats(min_value=-3, max_value=3),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]),
    _small.map(_Int),
    _small.map(_Fraction),
    st.floats(min_value=-3, max_value=3).map(_Float),
    st.sampled_from(["1/2", "x", None, 1j]),  # values one mode or both refuse
)


def _typed(coeffs):
    """Each element's exact type and repr, which also tells nan and -0.0 apart."""
    return [(type(a), repr(a)) for a in coeffs]


class TestRadialSeriesNormalisation:
    @settings(max_examples=300, deadline=None)
    @given(
        s=st.one_of(st.integers(min_value=-5, max_value=5), st.sampled_from([0.5, -1.5, 2.0])),
        coeffs=st.one_of(
            st.lists(_elements, min_size=1, max_size=6),
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=1, max_size=6),
            st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=6),
        ),
        as_list=st.booleans(),
    )
    def test_matches_per_element_reference(self, s, coeffs, as_list):
        given_coeffs = list(coeffs) if as_list else tuple(coeffs)
        try:
            expected, exact = _reference_normalise(s, tuple(coeffs))
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as err:
                RadialSeries(s, given_coeffs)
            assert str(err.value) == str(exc)
            return
        series = RadialSeries(s, given_coeffs)
        assert _typed(series.coeffs) == _typed(expected)
        assert series.is_exact == exact and series.s == s

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_elements, min_size=1, max_size=6), as_list=st.booleans())
    def test_potential_matches_per_element_reference(self, values, as_list):
        v = list(values[1:]) if as_list else tuple(values[1:])
        try:
            expected, exact = _reference_potential(tuple(values))
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as err:
                PotentialModel(values[0], v)
            assert str(err.value) == str(exc)
            return
        V = PotentialModel(values[0], v)
        assert _typed((V.v_minus1, *V.v)) == _typed(expected)
        assert V.is_exact == exact and type(V.v) is tuple

    @settings(max_examples=100, deadline=None)
    @given(
        coeffs=st.one_of(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=1, max_size=6),
            st.lists(_reals, min_size=1, max_size=6),
        ),
        factor=st.one_of(
            _small,
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
            _reals,
        ),
    )
    def test_scaled_is_the_per_element_product(self, coeffs, factor):
        if coeffs[0] == 0:
            coeffs[0] = type(coeffs[0])(1)
        series = RadialSeries(-2, tuple(coeffs))
        got = series.scaled(factor)
        if factor == 0:
            assert got.is_zero
            return
        expected = RadialSeries(-2, tuple(a * factor for a in series.coeffs))
        assert got == expected and _typed(got.coeffs) == _typed(expected.coeffs)


    # Over the denominator 60, factors whose reduced numerator p // gcd(60, p) is +1, -1 or neither.
    @pytest.mark.parametrize(
        "factor",
        [Fraction(1, 7), Fraction(4, 9), 12, 60, Fraction(-1, 3), Fraction(-6, 5), -60, Fraction(8, 7), -7, Fraction(9, 2)],
    )
    def test_scaled_by_a_unit_numerator_matches_the_general_product(self, factor):
        series = RadialSeries._over(-2, [6, -4, 0, 45, 1], 60)
        got = series.scaled(factor)
        p = factor.numerator // gcd(60, factor.numerator)
        general = object.__new__(RadialSeries)._set(
            -2, tuple(x * p for x in series._nums), 60 // gcd(60, factor.numerator) * factor.denominator, True
        )
        assert got._stored(got) == general._stored(general)
        assert repr(got) == repr(general) and hash(got) == hash(general)
        expected = RadialSeries(-2, tuple(a * factor for a in series.coeffs))
        assert got == expected and repr(got) == repr(expected) and hash(got) == hash(expected)


class TestAngularLabel:
    def test_validation(self):
        AngularLabel(2, -2)
        with pytest.raises(ValueError):
            AngularLabel(1, 2)
        with pytest.raises(ValueError):
            AngularLabel(-1, 0)


class TestFromU:
    def test_linear_u_over_r(self):
        u = RadialSeries.exact(1, (1,))
        pf = from_u(u, AngularLabel(0, 0))
        assert (pf.radial.s, pf.radial.coeffs) == (0, (Fraction(1),))

    def test_constant_u_gives_inverse_r(self):
        u = RadialSeries.exact(0, (1,))
        pf = from_u(u, AngularLabel(0, 0))
        assert (pf.radial.s, pf.radial.coeffs) == (-1, (Fraction(1),))

    def test_exponent_shift_keeps_coefficients(self):
        u = RadialSeries.exact(2, (1, -1))
        pf = from_u(u, AngularLabel(1, 0))
        assert (pf.radial.s, pf.radial.coeffs) == (1, (Fraction(1), Fraction(-1)))

    @given(st.integers(-5, 5), st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_multiplying_back_by_r_is_identity(self, s, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = 1
        u = RadialSeries.exact(s, coeffs)
        pf = from_u(u, AngularLabel(0, 0))
        back = RadialSeries(pf.radial.s + 1, pf.radial.coeffs)
        assert back == u


class TestDeltaTypes:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            DeltaTerm(ExactScalar(), 0, 0, 0)

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError, match="p must be nonnegative"):
            DeltaTerm(ExactScalar.rational(1), 0, 0, -1)

    def test_identically_zero_term_rejected(self):
        with pytest.raises(ValueError):
            DeltaTerm(ExactScalar.rational(1), 3, 0, 1)  # 2p < ell
        with pytest.raises(ValueError, match="p < ell"):
            DeltaTerm(ExactScalar.rational(1), 3, 0, 2)  # ell <= 2p < 2 ell: still the zero distribution

    def test_sum_merges_and_cancels(self):
        t = DeltaTerm(ExactScalar.rational(2), 0, 0, 1)
        u = DeltaTerm(ExactScalar.rational(-2), 0, 0, 1)
        v = DeltaTerm(ExactScalar.rational(1), 1, 0, 1)
        total = DeltaSum.build([t, u, v])
        assert total.terms == (v,)  # t and u cancel, so their key is absent
        # The same through +: (t + v) + (u + v) merges v's key and drops t's.
        added = DeltaSum.build([t, v]) + DeltaSum.build([u, v])
        assert added == DeltaSum.build([DeltaTerm(ExactScalar.rational(2), 1, 0, 1)])

    def test_sum_sorted_by_key(self):
        terms = [
            DeltaTerm(ExactScalar.rational(1), 1, 1, 2),
            DeltaTerm(ExactScalar.rational(1), 0, 0, 3),
            DeltaTerm(ExactScalar.rational(1), 1, -1, 1),
        ]
        ds = DeltaSum.build(terms)
        assert [t.key for t in ds] == [(0, 0, 3), (1, -1, 1), (1, 1, 2)]

    def test_empty_sum_is_zero(self):
        assert DeltaSum().is_empty
        assert DeltaSum.build([]).is_empty

    def test_scaled(self):
        ds = DeltaSum.build([DeltaTerm(ExactScalar.rational(3), 0, 0, 0)])
        assert ds.scaled(Fraction(1, 3)) == DeltaSum.build([DeltaTerm(ExactScalar.rational(1), 0, 0, 0)])
        assert ds.scaled(0).is_empty

    @pytest.mark.parametrize("zero", [0, Fraction(0), -0.0, ExactScalar()], ids=repr)
    def test_scaled_by_any_zero_is_the_empty_sum(self, zero):
        ds = DeltaSum.build([DeltaTerm(ExactScalar.rational(3), 0, 0, 0), DeltaTerm(ExactScalar.rational(1), 1, 0, 1)])
        assert ds.scaled(zero) == DeltaSum()


def test_pseudofunction_zero():
    pf = PseudoFunction(RadialSeries(0, ()), AngularLabel(2, 1))
    assert pf.radial.is_zero
