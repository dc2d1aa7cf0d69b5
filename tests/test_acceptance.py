"""Acceptance suite: the contract criteria, one test each.

Each test prints a single PASS line (visible with -s or in captured
output) after its assertions succeed; tolerances and runtime budgets are
pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction
from math import factorial

from conftest import random_testfn

from distpf import (
    EULER_GAMMA,
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    ExactScalar,
    PhysicalUnits,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    TestFunction,
    VerdictKind,
    classify_solution,
    coeff_B,
    coeff_C,
    coeff_L,
    frobenius,
    from_u,
    hamiltonian_apply,
    indicial_roots,
    laplacian,
    pair_delta,
    pair_pseudofunction,
    q_nonvanishing,
    q_sl,
    testfn_laplacian,
    verify_laplacian_identity,
)

PI = math.pi


def _pass(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def pf_of(s, coeffs, ell=0, mu=0):
    return PseudoFunction(RadialSeries.exact(s, coeffs), AngularLabel(ell, mu))


def test_01_point_source_weight_and_pairing():
    t0 = time.monotonic()
    assert coeff_C(0) == ExactScalar.pi_term(-4, 2)
    rng = random.Random(101)
    pf = pf_of(-1, (1,))
    for _ in range(10):
        phi = random_testfn(rng)
        lhs = pair_pseudofunction(pf, testfn_laplacian(phi))
        assert abs(lhs + 4 * PI * float(phi.poly.get((0, 0, 0), 0))) < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(1, f"weight of the 1/r point source is -4*pi, 10 pairings agree ({elapsed:.3f}s)")


def test_02_cubic_singularity_calibration():
    t0 = time.monotonic()
    phi = TestFunction({(0, 0, 0): 1}, 1)
    pf = pf_of(-3, (1,))
    expected = 8 * PI + 12 * PI * EULER_GAMMA
    lhs = pair_pseudofunction(pf, testfn_laplacian(phi))
    expr = laplacian(pf)
    rhs = pair_pseudofunction(expr.pf_part, phi) + sum(
        pair_delta(t, phi) for t in expr.delta_part
    )
    assert abs(lhs - expected) < 1e-9
    assert abs(rhs - expected) < 1e-9
    assert verify_laplacian_identity(pf, phi) < 1e-9
    assert expr.delta_part.terms == (DeltaTerm(ExactScalar.pi_term(Fraction(-10, 3), 2), 0, 0, 1),)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(2, f"r^-3 calibration: both sides 8*pi + 12*pi*gamma ({elapsed:.3f}s)")


def test_03_regular_exponent_produces_no_corrections():
    t0 = time.monotonic()
    rng = random.Random(103)
    for _ in range(200):
        ell = rng.randint(0, 6)
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])] + [
            rng.randint(-4, 4) for _ in range(rng.randint(0, 6))
        ]
        series = RadialSeries.exact(ell, coeffs)
        assert q_sl(PseudoFunction(series, AngularLabel(0, 0))).is_empty
        assert q_sl(PseudoFunction(series, AngularLabel(ell, rng.randint(-ell, ell)))).is_empty
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(3, f"s = ell never sources a delta, 200 random series, ell <= 6 ({elapsed:.3f}s)")


def test_04_parity_rule():
    rng = random.Random(104)
    for _ in range(200):
        s = rng.randint(-8, -1)
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])] + [
            rng.randint(-4, 4) for _ in range(rng.randint(0, 7))
        ]
        series = RadialSeries.exact(s, coeffs)
        contributing = {
            -2 * t.p - 1 - s for t in q_sl(PseudoFunction(series, AngularLabel(0, 0)))
        }
        for k in contributing:
            assert (k + s) % 2 == 1  # only indices of opposite parity to s
        # and every same-parity index is absent even when its coefficient is nonzero
        for k, a in enumerate(coeffs):
            if (k + s) % 2 == 0:
                assert k not in contributing
    _pass(4, "same-parity indices never contribute to the correction sum")


def test_05_companion_weight_identity():
    for p in range(1, 26):
        assert coeff_L(p) == coeff_C(p) / (-(4 * p + 1))
    _pass(5, "L_p = -C_p/(4p+1) exactly for p = 1..25")


def test_06_point_source_of_u_over_r():
    t0 = time.monotonic()
    rng = random.Random(106)
    for _ in range(50):
        a0 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        coeffs = [a0] + [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 6))]
        expr = laplacian(PseudoFunction(RadialSeries.exact(-1, coeffs), AngularLabel(0, 0)))
        assert expr.delta_part == DeltaSum.build([DeltaTerm(a0 * coeff_C(0), 0, 0, 0)])
        expected_pf = RadialSeries.make(-3, [k * (k - 1) * a for k, a in enumerate(coeffs)])
        assert expr.pf_part.radial == expected_pf
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(6, f"radial operator on u/r yields u''/r - 4*pi*u(0)*delta, 50 cases ({elapsed:.3f}s)")


def test_07_coulomb_bound_state_series_and_verdict():
    res = frobenius(PotentialModel(-2), 0, Fraction(-1), 0, 12)
    for k in range(13):
        assert res.series.coeffs[k] == Fraction((-1) ** k, factorial(k))
    verdict = classify_solution(PotentialModel(-2), 0, 0, Fraction(-1), 0, 12)
    assert verdict.kind is VerdictKind.SOLVES_SE
    assert verdict.boundary_condition_met
    _pass(7, "hydrogen-like regular series a_k = (-1)^k/k!, plain-solution verdict")


def test_08_free_particle_singular_source():
    verdict = classify_solution(PotentialModel(), 0, 0, Fraction(1), -1, 8)
    assert verdict.kind is VerdictKind.SOLVES_MODIFIED_SE
    expected = DeltaSum.build([DeltaTerm(ExactScalar.pi_term(2, 1), 0, 0, 0)])
    assert verdict.delta_source == expected
    # cross-check against the Hamiltonian decomposition
    res = frobenius(PotentialModel(), 0, Fraction(1), -1, 8)
    pf = from_u(res.series, AngularLabel(0, 0))
    expr = hamiltonian_apply(pf, PotentialModel(), Fraction(1))
    assert expr.delta_part == expected
    assert expr.pf_part.radial == pf.radial.scaled(Fraction(1))
    _pass(8, "free-particle singular branch sources exactly 2*sqrt(pi)*u(0)*delta")


def test_09_singular_root_leading_term():
    for ell in range(5):
        res = frobenius(PotentialModel(), ell, Fraction(1), -(ell + 1), 2 * ell + 5)
        pf = from_u(res.series, AngularLabel(ell, 0))
        ds = q_sl(pf)
        assert ds.terms == (DeltaTerm(coeff_B(ell, ell) * coeff_C(ell), ell, 0, ell),)
    _pass(9, "leading correction a_0*B(ell,ell)*C_ell present for s = -(ell+1), ell <= 4")


def test_10_identity_grid():
    t0 = time.monotonic()
    rng = random.Random(110)
    checked = 0
    worst = 0.0
    for s in range(-6, 3):
        for ell in range(0, 4):
            mu = rng.randint(-ell, ell)
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])] + [
                rng.randint(-3, 3) for _ in range(rng.randint(0, 3))
            ]
            pf = pf_of(s, coeffs, ell=ell, mu=mu)
            for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
                for _ in range(5):
                    phi = random_testfn(rng, alphas=(alpha,))
                    r = verify_laplacian_identity(pf, phi)
                    worst = max(worst, r)
                    checked += 1
    assert worst < 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _pass(10, f"pairing identity over {checked} grid cases, worst residual {worst:.2e} ({elapsed:.2f}s)")


def test_11_predicate_matches_constructed_sum():
    rng = random.Random(111)
    for _ in range(500):
        s = rng.randint(-7, 2)
        ell = rng.randint(0, 4)
        coeffs = [rng.choice([-2, -1, 1, 2])]
        for _ in range(rng.randint(0, 6)):
            coeffs.append(rng.choice([0, 0, 0, 0, 1, -1, 2]))
        pf = pf_of(s, coeffs, ell=ell, mu=rng.randint(-ell, ell))
        assert q_nonvanishing(pf) == (not q_sl(pf).is_empty)
    _pass(11, "nonvanishing predicate agrees with the constructed sum, 500 sparse cases")


def test_12_boundary_condition_is_membership():
    rng = random.Random(112)
    kinds = set()
    for _ in range(100):
        root = rng.choice(indicial_roots(0))
        v_minus1 = Fraction(rng.randint(-3, 3)) if root == 0 else Fraction(0)
        V = PotentialModel(
            v_minus1, tuple(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3)))
        )
        E = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        v = classify_solution(V, 0, 0, E, root, 9)
        assert v.kind is not VerdictKind.NOT_RADIAL_SOLUTION
        assert (v.kind is VerdictKind.SOLVES_SE) == (v.u_at_origin == 0)
        kinds.add(v.kind)
    assert kinds == {VerdictKind.SOLVES_SE, VerdictKind.SOLVES_MODIFIED_SE}
    _pass(12, "for l = 0, solving the plain equation is equivalent to u(0) = 0")
