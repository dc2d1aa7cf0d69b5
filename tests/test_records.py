"""The record contract of the value types built on ``coeffs._Record``.

Every field is fixed once built, equal values hash alike (with the hash a
frozen dataclass gives, that of the field tuple), an exact value never
equals its float twin, and each ``--json`` document type parses back to the
value it was written from, in both modes.
"""

import json
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpf import (
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    DistributionExpr,
    ExactScalar,
    FreeParameterSetToZero,
    FrobeniusResult,
    LogObstruction,
    PhysicalUnits,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    TestFunction,
    classify_solution,
    frobenius,
    from_u,
    indicial_roots,
    laplacian,
)
from distpf.cli import (
    ProblemSpec,
    parse_delta_sum,
    parse_expr,
    parse_pf,
    parse_series,
    parse_verdict,
    serialize_delta_sum,
    serialize_expr,
    serialize_pf,
    serialize_series,
    serialize_verdict,
)

# Dyadic rationals: each one's float twin is numerically equal to it.
dyadics = st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-40, 40), st.integers(0, 3))
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
floats = st.floats(min_value=-5, max_value=5)
modes = st.sampled_from(["exact", "float"])


def _float_twin(values: tuple) -> tuple:
    return tuple(map(float, values))


@st.composite
def series(draw, mode=None, numbers=rationals):
    exact = (mode or draw(modes)) == "exact"
    coeffs = draw(st.lists(numbers if exact else floats, min_size=1, max_size=6).filter(lambda c: c[0] != 0))
    s = draw(st.integers(-8, 3))
    if not exact:
        s = draw(st.sampled_from([s, float(s), s + 0.5]))
    return RadialSeries(s, tuple(coeffs))


# The singular root's resonant row 2*ell + 1 is odd; with only even lags
# (no v[-1], no v[1]) every odd coefficient and so that row vanish.
even_potentials = st.builds(lambda v0, v2: PotentialModel(0, (v0, 0, v2)), rationals, rationals)
factors = st.sampled_from([0, 1, -1, 3, -2, Fraction(-5, 6), Fraction(7, 4)]) | rationals


@st.composite
def frobenius_series(draw):
    """u of an exact solution on either root.

    On the singular root of ell >= 1 the recurrence factor K*D(k) is
    negative below the resonant order and the series may run through it.
    E = 0 on a free regular root gives a series of trailing zeros.
    """
    ell = draw(st.integers(0, 3))
    regular, singular = indicial_roots(ell)
    root = draw(st.sampled_from([regular, singular]))
    V = draw(potentials("exact") if root == regular else even_potentials)
    E = draw(st.just(Fraction(0)) | rationals)
    return frobenius(V, ell, E, root, draw(st.integers(1, 2 * ell + 5)), draw(units)).series


def _json_twin(value: RadialSeries) -> RadialSeries:
    return parse_series(json.loads(json.dumps(serialize_series(value))))


# Each construction path of an exact series: the public constructor,
# frobenius, from_u, scaled and parse_series.
built_series = st.recursive(
    series("exact") | st.just(RadialSeries(0, ())) | frobenius_series(),
    lambda inner: st.one_of(
        inner.map(lambda u: from_u(u, AngularLabel(0, 0)).radial),
        st.builds(RadialSeries.scaled, inner, factors),
        inner.map(_json_twin),
    ),
    max_leaves=3,
)

labels = st.integers(0, 4).flatmap(lambda ell: st.builds(AngularLabel, st.just(ell), st.integers(-ell, ell)))
scalars = st.dictionaries(st.integers(-3, 3), rationals, max_size=3).map(ExactScalar.from_map)
nonzero_scalars = scalars.filter(bool)


@st.composite
def delta_terms(draw):
    label = draw(labels)
    p = draw(st.integers(label.ell, label.ell + 4))
    return DeltaTerm(draw(nonzero_scalars), label.ell, label.mu, p)


def pseudofunctions(mode=None):
    return st.builds(PseudoFunction, series(mode) | st.just(RadialSeries(0, ())), labels)


def potentials(mode=None, numbers=rationals):
    def build(exact):
        number = numbers if exact else floats
        return st.builds(PotentialModel, number, st.lists(number, max_size=3).map(tuple))

    return modes.flatmap(lambda m: build(m == "exact")) if mode is None else build(mode == "exact")


units = st.builds(PhysicalUnits, st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), rationals, max_size=4)
alphas = st.fractions(min_value=Fraction(1, 9), max_value=4, max_denominator=9)


@st.composite
def verdicts(draw, mode=None):
    exact = (mode or draw(modes)) == "exact"
    V = draw(potentials("exact" if exact else "float"))
    ell = draw(st.integers(0, 3))
    E = draw(rationals if exact else floats)
    root = draw(st.sampled_from(indicial_roots(ell)))
    return classify_solution(V, ell, draw(st.integers(-ell, ell)), E, root, draw(st.integers(1, 8)), draw(units))


@st.composite
def frobenius_results(draw):
    V, E = draw(potentials("exact")), draw(rationals)
    ell = draw(st.integers(0, 3))
    try:
        return frobenius(V, ell, E, draw(st.sampled_from(indicial_roots(ell))), 2 * ell + 2)
    except LogObstruction:
        return FrobeniusResult(draw(series()), ell, FreeParameterSetToZero(2 * ell + 1))


# Each converted type, a strategy for its values, and the fields == and hash
# read, in the order of the dataclass it replaced.
RECORDS = {
    ExactScalar: (scalars, ("terms",)),
    RadialSeries: (series() | built_series, ("s", "coeffs", "is_exact")),
    AngularLabel: (labels, ("ell", "mu")),
    PseudoFunction: (pseudofunctions(), ("radial", "angular")),
    DeltaTerm: (delta_terms(), ("coefficient", "ell", "mu", "p")),
    DeltaSum: (st.lists(delta_terms(), max_size=4).map(DeltaSum.build), ("terms",)),
    DistributionExpr: (pseudofunctions().map(laplacian), ("pf_part", "delta_part")),
    PotentialModel: (potentials(), ("v_minus1", "v", "is_exact")),
    PhysicalUnits: (units, ("hbar2_over_2m",)),
    FreeParameterSetToZero: (st.builds(FreeParameterSetToZero, st.integers(1, 20)), ("order",)),
    FrobeniusResult: (frobenius_results(), ("series", "root_used", "resonance_report")),
    TestFunction: (st.builds(TestFunction, polys, alphas), ("terms", "alpha")),
    ProblemSpec: (
        st.builds(
            ProblemSpec,
            potential=potentials(),
            ell=st.integers(0, 3),
            energy=rationals | floats,
            root=st.sampled_from(["regular", "singular", "both"]),
            units=units,
            verify=st.booleans(),
            s=st.none() | st.integers(-8, 3),
            coeffs=st.lists(rationals, max_size=3).map(tuple),
        ),
        (
            "potential", "ell", "mu", "energy", "root", "order",
            "units", "tol", "verify", "s", "coeffs",
        ),
    ),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fields_can_be_neither_assigned_nor_deleted(kind, data):
    strategy, fields = RECORDS[kind]
    value = data.draw(strategy)
    before = repr(value)
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equal_values_hash_alike(kind, data):
    strategy, fields = RECORDS[kind]
    value, other = data.draw(strategy), data.draw(strategy)
    key = lambda v: tuple(getattr(v, name) for name in fields)  # noqa: E731
    twin = pickle.loads(pickle.dumps(value))
    assert twin is not value and twin == value and repr(twin) == repr(value)
    assert hash(twin) == hash(value) == hash(key(value))
    assert (value == other) == (key(value) == key(other))
    if value == other:
        assert hash(value) == hash(other)
    assert value != key(value)  # a value equals only values of its own type


def _mode_twins(draw):
    """An exact value of each mode-bearing type and its float twin, numerically equal."""
    exact = draw(series("exact", numbers=dyadics))
    flt = RadialSeries(exact.s, _float_twin(exact.coeffs))
    V = draw(potentials("exact", numbers=dyadics))
    V_flt = PotentialModel(float(V.v_minus1), _float_twin(V.v))
    label = draw(labels)
    pf, pf_flt = PseudoFunction(exact, label), PseudoFunction(flt, label)
    E, ell = draw(dyadics), draw(st.integers(0, 2))
    root = indicial_roots(ell)[0]  # the regular root never meets a log obstruction
    lap, lap_flt = laplacian(pf), laplacian(pf_flt)
    return [
        (exact, flt),
        (V, V_flt),
        (pf, pf_flt),
        *([(lap, lap_flt)] if not lap.pf_part.radial.is_zero else []),  # the zero series is exact in both
        (frobenius(V, ell, E, root, 4), frobenius(V_flt, ell, float(E), root, 4)),
        (classify_solution(V, ell, 0, E, root, 4), classify_solution(V_flt, ell, 0, float(E), root, 4)),
        (ProblemSpec(potential=V), ProblemSpec(potential=V_flt)),
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_and_float_values_never_compare_equal(data):
    pairs = _mode_twins(data.draw)
    exact, flt = pairs[0]
    assert (exact.s, exact.coeffs) == (flt.s, flt.coeffs)  # numerically the same series
    for exact, flt in pairs:
        assert exact != flt and flt != exact and len({exact, flt}) == 2


ROUND_TRIPS = {
    "series": (series, serialize_series, parse_series),
    "pseudofunction": (pseudofunctions, serialize_pf, parse_pf),
    "delta sum": (
        lambda mode: pseudofunctions(mode).map(lambda pf: laplacian(pf).delta_part),
        serialize_delta_sum,
        parse_delta_sum,
    ),
    "expression": (lambda mode: pseudofunctions(mode).map(laplacian), serialize_expr, parse_expr),
    "verdict": (verdicts, serialize_verdict, parse_verdict),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("doc_type", ROUND_TRIPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_documents_parse_back_to_the_value(doc_type, mode, data):
    strategy, serialize, parse = ROUND_TRIPS[doc_type]
    value = data.draw(strategy(mode))
    text = json.dumps(serialize(value), allow_nan=False)
    assert parse(json.loads(text)) == value


def _key(value: RadialSeries) -> tuple:
    return (value.s, value.coeffs, value.is_exact)


# frobenius outputs over the denominator their recurrence built, which is
# larger than the least one: a regular root, a singular root through its
# resonant order (ell 1 and 2), and one whose product of factors K*D(k) is
# negative (ell 2, order 3).
_PAST_LEAST = [
    frobenius(V, ell, E, root, N, PhysicalUnits(Fraction(3, 2))).series
    for V, ell, E, root, N in [
        (PotentialModel(-2, (Fraction(3, 10), Fraction(7, 10))), 1, Fraction(-1, 2), 1, 12),
        (PotentialModel(0, (Fraction(1, 3), 0, Fraction(1, 5))), 1, Fraction(-1, 4), -2, 9),
        (PotentialModel(0, (Fraction(1, 3), 0, Fraction(1, 5))), 2, Fraction(1, 7), -3, 8),
        (PotentialModel(-2, (Fraction(3, 10), Fraction(7, 10))), 2, Fraction(-1, 2), -3, 3),
    ]
]


@settings(max_examples=60, deadline=None)
@given(value=built_series | st.sampled_from(_PAST_LEAST))
def test_exact_series_are_stored_over_a_common_denominator_and_read_reduced(value):
    twin = pickle.loads(pickle.dumps(value))  # before anything reads coeffs
    nums, den = value._nums, value._den
    assert value.is_exact and type(den) is int and den > 0 and all(type(n) is int for n in nums)
    assert all(type(a) is Fraction and gcd(a.numerator, a.denominator) == 1 for a in value.coeffs)
    assert den % lcm(*(a.denominator for a in value.coeffs)) == 0
    assert value.coeffs == tuple(Fraction(n, den) for n in nums)
    assert value.order == len(value.coeffs) - 1 and value.is_zero == (not value.coeffs)
    assert hash(value) == hash(_key(value))
    assert twin == value and repr(twin) == repr(value) and hash(twin) == hash(value)


@settings(max_examples=60, deadline=None)
@given(value=built_series, other=built_series, factor=factors)
def test_exact_series_equality_is_coefficientwise_across_paths(value, other, factor):
    scaled = value.scaled(factor)
    same = [
        RadialSeries(value.s, value.coeffs),
        RadialSeries.make(value.s, value.coeffs),
        _json_twin(value),
        from_u(RadialSeries.make(value.s + 1, value.coeffs), AngularLabel(0, 0)).radial,
    ]
    for twin in same:
        assert twin == value and hash(twin) == hash(value)
    assert scaled == RadialSeries.make(value.s, [a * factor for a in value.coeffs])
    shifted = from_u(value, AngularLabel(0, 0)).radial  # the same numerators at s - 1
    pairs = [(value, other), (value, scaled), (other, scaled), (scaled, _json_twin(scaled)), (value, shifted)]
    # Over a larger denominator than the least one, equal values are equal
    # by their reduced coefficients, and a numerator moved by 1 breaks it.
    for u in _PAST_LEAST:
        least = RadialSeries.exact(u.s, u.coeffs)
        moved = object.__new__(RadialSeries)._set(u.s, (*u._nums[:-1], u._nums[-1] + 1), u._den, True)
        assert least._den < u._den and u == least and least == u and hash(u) == hash(least)
        assert moved != least and least != moved and moved != u
        pairs += [(u, least), (moved, least), (least, moved), (moved, u), (value, u), (moved, value)]
    for a, b in pairs:
        assert (a == b) == (_key(a) == _key(b)) == (not a != b)


def test_zero_and_trailing_zeros_and_float_twins():
    zero = RadialSeries(0, ())
    u = frobenius(PotentialModel(), 1, Fraction(0), 1, 4).series  # 1 + 0 r + ... + 0 r^4
    assert u.coeffs == (1, 0, 0, 0, 0) and u == RadialSeries.exact(u.s, (1, 0, 0, 0, 0))
    for value in (RadialSeries(0, ()), RadialSeries.make(2, [0, 0]), u.scaled(0), _json_twin(zero)):
        assert value == zero and value._nums == () and value.s == 0 and hash(value) == hash(zero)
    assert u != RadialSeries.exact(u.s, (1, 0, 0, 0)) != RadialSeries.exact(u.s, (1,))
    resonant = frobenius(PotentialModel(0, (Fraction(1, 3), 0, Fraction(1, 5))), 1, Fraction(-1, 4), -2, 9)
    assert resonant.resonance_report is not None
    for exact in (u, resonant.series, resonant.series.scaled(Fraction(-3, 7))):
        flt = RadialSeries(exact.s, tuple(map(float, exact.coeffs)))
        assert exact != flt and flt != exact and len({exact, flt}) == 2
