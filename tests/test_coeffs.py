"""Exact scalar ring and the coefficient families."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distpf import ExactScalar, coeff_B, coeff_C, coeff_L


def pi_times(q) -> ExactScalar:
    return ExactScalar.pi_term(Fraction(q), 2)


class TestExactScalar:
    def test_canonical_form_drops_zeros(self):
        x = ExactScalar.from_map({2: Fraction(0), 0: Fraction(3)})
        assert x.terms == ((0, Fraction(3)),)

    def test_equality_is_structural(self):
        assert ExactScalar.rational(Fraction(2, 4)) == ExactScalar.rational(Fraction(1, 2))
        assert ExactScalar.pi_term(1, 2) != ExactScalar.pi_term(1, 1)

    def test_arithmetic(self):
        pi = ExactScalar.pi_term(1, 2)
        sqrt_pi = ExactScalar.pi_term(1, 1)
        assert sqrt_pi * sqrt_pi == pi
        assert pi + pi == ExactScalar.pi_term(2, 2)
        assert pi - pi == ExactScalar()
        assert (pi * 3) / 3 == pi
        assert pi / sqrt_pi == sqrt_pi
        assert 2 * pi == pi + pi
        assert 1 - ExactScalar.rational(1) == ExactScalar()

    def test_division_requires_single_term(self):
        mixed = ExactScalar.rational(1) + ExactScalar.pi_term(1, 2)
        with pytest.raises(ValueError):
            _ = ExactScalar.rational(1) / mixed
        with pytest.raises(ZeroDivisionError):
            _ = ExactScalar.rational(1) / 0

    def test_str_forms(self):
        assert str(pi_times(-4)) == "-4*pi"
        assert str(ExactScalar.pi_term(2, 1)) == "2*sqrt(pi)"
        assert str(ExactScalar.pi_term(Fraction(1, 2), -1)) == "1/2*pi^(-1/2)"
        assert str(ExactScalar()) == "0"
        assert str(ExactScalar.pi_term(-1, 2)) == "-pi"
        assert str(ExactScalar.pi_term(1, 4)) == "pi^2"
        assert str(ExactScalar.pi_term(3, -2)) == "3*pi^-1"

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x + 1.5,
            lambda x: x - 1.5,
            lambda x: 1.5 - x,
            lambda x: x * 1.5,
        ],
    )
    def test_float_operand_is_a_type_error(self, op):
        # Each operator returns NotImplemented for a float, and float does too.
        with pytest.raises(TypeError):
            op(ExactScalar.pi_term(1, 2))

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    )
    def test_ring_laws(self, q1, q2, h1, h2):
        a = ExactScalar.pi_term(q1, h1)
        b = ExactScalar.pi_term(q2, h2)
        c = ExactScalar.rational(3) + ExactScalar.pi_term(1, 1)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero


class TestCoefficientC:
    @pytest.mark.parametrize(
        "p, expected",
        [
            (0, pi_times(-4)),
            (1, pi_times(Fraction(-10, 3))),
            (2, pi_times(Fraction(-3, 10))),
        ],
    )
    def test_small_values(self, p, expected):
        assert coeff_C(p) == expected

    def test_closed_form_to_p_50(self):
        def dfact(n):
            out = 1
            while n > 1:
                out *= n
                n -= 2
            return out

        for p in range(51):
            # recompute independently of the implementation's arrangement
            expected = Fraction(-(4 * p + 1), 1) * Fraction(4, 2**p)
            expected /= factorial(p) * dfact(2 * p + 1)
            got = coeff_C(p)
            assert len(got.terms) == 1
            h, q = got.as_single_term()
            assert h == 2 and q == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            coeff_C(-1)


class TestCoefficientL:
    def test_p0_convention(self):
        assert coeff_L(0) == pi_times(1)

    def test_p1(self):
        assert coeff_L(1) == pi_times(Fraction(2, 3))

    def test_reduction_identity(self):
        # For p >= 1 the defining combination collapses to -C_p/(4p+1).
        for p in range(1, 26):
            assert coeff_L(p) == coeff_C(p) / (-(4 * p + 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            coeff_L(-1)


class TestCoefficientB:
    def test_ell_zero_is_one(self):
        for p in range(6):
            assert coeff_B(0, p) == ExactScalar.rational(1)

    @pytest.mark.parametrize(
        "ell, p, expected",
        [(1, 1, Fraction(3, 5)), (2, 1, Fraction(1, 5)), (3, 1, Fraction(-1, 5))],
    )
    def test_values(self, ell, p, expected):
        assert coeff_B(ell, p) == ExactScalar.rational(expected)

    @pytest.mark.parametrize("ell, p", [(-1, 0), (0, -1)])
    def test_rejects_negative(self, ell, p):
        with pytest.raises(ValueError, match="must be nonnegative"):
            coeff_B(ell, p)

    def test_never_zero_on_grid(self):
        for ell in range(21):
            for p in range(21):
                assert not coeff_B(ell, p).is_zero

    def test_rung_weight_is_the_residue(self):
        # B(ell, p) C_p = (2 ell - 4p - 1) 4 pi / (2p+1)!, since 2^p p! (2p+1)!! = (2p+1)!.
        for ell in range(13):
            for p in range(25):
                residue = pi_times(Fraction((2 * ell - 4 * p - 1) * 4, factorial(2 * p + 1)))
                assert coeff_B(ell, p) * coeff_C(p) == residue
