"""Shared builders for randomized exact series and test functions."""

import random
from fractions import Fraction

import pytest

from distpf import AngularLabel, PseudoFunction, RadialSeries, TestFunction


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_exact_series(rng, s, max_len=6, sparse=False):
    """A random exact-mode series with nonzero leading coefficient."""
    length = rng.randint(1, max_len)
    coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])]
    for _ in range(length - 1):
        if sparse and rng.random() < 0.6:
            coeffs.append(0)
        else:
            coeffs.append(rng.randint(-3, 3))
    return RadialSeries.exact(s, coeffs)


def random_pf(rng, s, ell, max_len=6, sparse=False):
    mu = rng.randint(-ell, ell)
    return PseudoFunction(random_exact_series(rng, s, max_len, sparse), AngularLabel(ell, mu))


def random_testfn(rng, max_degree=3, alphas=(Fraction(1, 2), Fraction(1), Fraction(2))):
    """Random polynomial-Gaussian with a guaranteed constant term."""
    poly = {(0, 0, 0): Fraction(rng.choice([1, 2, -1]))}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(3))
        if sum(mono) <= max_degree:
            poly[mono] = poly.get(mono, Fraction(0)) + rng.randint(-2, 2)
    return TestFunction(poly, rng.choice(list(alphas)))
