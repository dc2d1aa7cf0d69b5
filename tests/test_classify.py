"""Verdicts: which equation a radial series solution actually satisfies."""

from collections import Counter
from fractions import Fraction

import distpf.classify
import distpf.radial
from distpf import (
    AngularLabel,
    EquationForm,
    ExactScalar,
    PhysicalUnits,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    VerdictKind,
    classify_solution,
    coeff_B,
    coeff_C,
    from_u,
    frobenius,
    hamiltonian_apply,
    indicial_roots,
    normalizable_at_origin,
    q_nonvanishing,
    q_sl,
)


def pf_of(s, coeffs, ell=0, mu=0):
    return PseudoFunction(RadialSeries.exact(s, coeffs), AngularLabel(ell, mu))


class TestQNonvanishing:
    def test_regular_exponent_never_fires(self, rng):
        for ell in range(5):
            for _ in range(20):
                coeffs = [rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(4)]
                assert not q_nonvanishing(pf_of(ell, coeffs, ell=ell))

    def test_singular_exponent_always_fires(self):
        for ell in range(5):
            assert q_nonvanishing(pf_of(-(ell + 1), (1,), ell=ell))

    def test_even_distance_rung_unoccupied(self):
        assert not q_nonvanishing(pf_of(-2, (1, 0)))
        assert q_nonvanishing(pf_of(-2, (1, 1)))

    def test_agrees_with_constructed_sum(self, rng):
        for _ in range(500):
            s = rng.randint(-7, 2)
            ell = rng.randint(0, 4)
            coeffs = [rng.choice([1, -1, 2, -2])]
            for _ in range(rng.randint(0, 5)):
                coeffs.append(rng.choice([0, 0, 0, 1, -1, 2]))
            pf = pf_of(s, coeffs, ell=ell, mu=rng.randint(-ell, ell))
            assert q_nonvanishing(pf) == (not q_sl(pf).is_empty)


class TestClassifySolution:
    def test_coulomb_regular_is_plain_solution(self):
        v = classify_solution(PotentialModel.coulomb(-2), 0, 0, Fraction(-1), 0, 10)
        assert v.kind is VerdictKind.SOLVES_SE
        assert v.delta_source.is_empty
        assert v.boundary_condition_met
        assert v.u_at_origin == 0
        assert v.normalizable
        assert v.equations_cited == (EquationForm.SCHROEDINGER,)

    def test_free_particle_singular_l0(self):
        v = classify_solution(PotentialModel.zero(), 0, 0, Fraction(1), -1, 8)
        assert v.kind is VerdictKind.SOLVES_MODIFIED_SE
        assert v.delta_source.coefficient_at(0, 0, 0) == ExactScalar.pi_term(2, 1)
        assert v.u_at_origin == 1
        assert not v.boundary_condition_met
        assert v.normalizable
        assert EquationForm.REDUCED_POINT_SOURCED in v.equations_cited

    def test_free_particle_singular_l1(self):
        v = classify_solution(PotentialModel.zero(), 1, 1, Fraction(1), -2, 8)
        assert v.kind is VerdictKind.SOLVES_MODIFIED_SE
        assert v.delta_source.coefficient_at(1, 1, 1) == ExactScalar.pi_term(2, 2)
        assert not v.normalizable
        assert v.u_at_origin is None
        assert EquationForm.REDUCED_POINT_SOURCED not in v.equations_cited

    def test_obstruction_becomes_verdict(self):
        v = classify_solution(PotentialModel.coulomb(-2), 0, 0, Fraction(-1), -1, 8)
        assert v.kind is VerdictKind.NOT_RADIAL_SOLUTION
        assert v.obstruction_order == 1
        assert v.u_series is None

    def test_regular_root_sweep_always_solves(self, rng):
        for _ in range(40):
            ell = rng.randint(0, 4)
            V = PotentialModel(
                Fraction(rng.randint(-3, 3)),
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))),
            )
            E = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            v = classify_solution(V, ell, rng.randint(-ell, ell), E, ell, 8)
            assert v.kind is VerdictKind.SOLVES_SE

    def test_singular_root_leading_source_term(self, rng):
        kappa = Fraction(1)
        for ell in range(5):
            E = Fraction(rng.randint(-3, 3))
            v = classify_solution(PotentialModel.zero(), ell, 0, E, -(ell + 1), 2 * ell + 5)
            assert v.kind is VerdictKind.SOLVES_MODIFIED_SE
            expected = -kappa * coeff_B(ell, ell) * coeff_C(ell)
            if ell == 0:
                expected = expected * ExactScalar.pi_term(Fraction(1, 2), -1)
            assert v.delta_source.coefficient_at(ell, 0, ell) == expected

    def test_source_matches_hamiltonian_apply(self, rng):
        for ell in range(3):
            E = Fraction(2)
            units = PhysicalUnits(Fraction(rng.randint(1, 3)))
            root = -(ell + 1)
            v = classify_solution(PotentialModel.zero(), ell, 0, E, root, 8, units)
            res = frobenius(PotentialModel.zero(), ell, E, root, 8, units)
            pf = from_u(res.series, AngularLabel(ell, 0))
            expr = hamiltonian_apply(pf, PotentialModel.zero(), E, units)
            assert v.delta_source == expr.delta_part

    def test_boundary_condition_equivalent_to_membership(self, rng):
        # l = 0 sweep: the verdict solves the plain equation exactly when
        # u(0) = 0; the boundary condition adds nothing.
        seen_both = set()
        for _ in range(60):
            root = rng.choice(indicial_roots(0))
            if root == 0:
                V = PotentialModel(
                    Fraction(rng.randint(-3, 3)),
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))),
                )
            else:
                V = PotentialModel(
                    0, tuple(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2)))
                )
            E = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            v = classify_solution(V, 0, 0, E, root, 8)
            assert v.kind is not VerdictKind.NOT_RADIAL_SOLUTION
            assert (v.kind is VerdictKind.SOLVES_SE) == (v.u_at_origin == 0)
            assert v.boundary_condition_met == (v.u_at_origin == 0)
            seen_both.add(v.kind)
        assert seen_both == {VerdictKind.SOLVES_SE, VerdictKind.SOLVES_MODIFIED_SE}

    def test_derived_facts_follow_the_stored_state(self):
        # Reference rules for u(0), u(0) = 0, normalizability and the
        # citations, written from the root and ell, not from Verdict's own.
        cases = [
            (PotentialModel(0, (Fraction(1, 2),)), ell, E, root)
            for ell in range(4)
            for root in indicial_roots(ell)
            for E in (Fraction(1), 1.0)
        ]
        cases.append((PotentialModel.coulomb(-2), 0, Fraction(-1), -1))  # log obstruction
        kinds = set()
        for V, ell, E, root in cases:
            v = classify_solution(V, ell, 0, E, root, 8)
            kinds.add(v.kind)
            if v.u_series is None or root < -1:
                u0 = None
            elif root == -1:
                u0 = v.u_series.coeffs[0]
            else:
                u0 = Fraction(0) if v.u_series.is_exact else 0.0
            assert v.u_at_origin == u0 and type(v.u_at_origin) is type(u0)
            assert v.boundary_condition_met == ((u0 == 0) if u0 is not None else False)
            assert v.normalizable == normalizable_at_origin(root)
            if v.kind is VerdictKind.SOLVES_SE:
                cited = (EquationForm.SCHROEDINGER,)
            elif v.kind is VerdictKind.SOLVES_MODIFIED_SE:
                cited = (EquationForm.MODIFIED_SCHROEDINGER, EquationForm.RADIAL_PSEUDOFUNCTION_SOURCED)
                if ell == 0:
                    cited += (EquationForm.REDUCED_POINT_SOURCED,)
            else:
                cited = ()
            assert v.equations_cited == cited
        assert kinds == set(VerdictKind)


def test_layers_are_looked_up_where_the_benchmark_wraps_them(monkeypatch):
    # perfbench times radial_residuals and frobenius by replacing these module
    # attributes; a caller that bound them another way would read 0 there.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in ((distpf.radial, "radial_residuals"), (distpf.classify, "frobenius")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    V, E = PotentialModel(-2, (Fraction(3, 10),)), Fraction(-1, 2)
    verdict = classify_solution(V, 1, 0, E, 1, 12)
    assert calls == {"frobenius": 1}
    hamiltonian_apply(from_u(verdict.u_series, AngularLabel(1, 0)), V, E, strict=True)
    assert calls == {"frobenius": 1, "radial_residuals": 1}
