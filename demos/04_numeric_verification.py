"""
Verifying the symbolic engine numerically
=========================================

Every claim the symbolic layer makes is an identity between
distributions, so it can be checked by pairing both sides with test
functions.  The pairing machinery reduces to exact sphere moments times
radial finite-part integrals; this script exercises the integrals, their
independent closed-form check, and the headline pairing identity.
"""

import math
import random
from fractions import Fraction

from distpf import (
    EULER_GAMMA,
    AngularLabel,
    PseudoFunction,
    RadialSeries,
    TestFunction,
    finite_part_closed_form,
    finite_part_integral,
    pair_pseudofunction,
    testfn_laplacian,
    verify_laplacian_identity,
)

# Finite-part integrals F(m, alpha) = Fp int r^m exp(-alpha r^2) dr.
# Convergent for m > -1; the finite part takes over below, with a log
# channel at m = -1 that brings in the Euler-Mascheroni constant.
print("m     F(m, 1)          closed-form check")
for m in range(3, -6, -1):
    a = finite_part_integral(m, 1)
    b = finite_part_closed_form(m, 1)
    print(f"{m:>3}   {a:>13.10f}    {abs(a - b):.1e}")
print(f"      (F(-1,1) = -gamma/2 = {-EULER_GAMMA / 2:.10f})")

# The classic identity in pairing form: <1/r, lap(phi)> = -4*pi*phi(0).
phi = TestFunction({(0, 0, 0): Fraction(2), (2, 0, 0): 1}, Fraction(1, 2))
pf = PseudoFunction(RadialSeries.exact(-1, (1,)), AngularLabel(0, 0))
lhs = pair_pseudofunction(pf, testfn_laplacian(phi))
print(f"\n<1/r, lap(phi)> = {lhs:.12f}")
print(f"-4*pi*phi(0)    = {-4 * math.pi * 2:.12f}")

# The pairing identity  <f, lap(phi)> = <Pf part, phi> + <delta part, phi>
# over a randomized grid of exponents, harmonics, widths and polynomials.
rng = random.Random(9)
worst = 0.0
count = 0
for s in range(-6, 3):
    for ell in range(4):
        coeffs = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-2, 2) for _ in range(2)]
        pf = PseudoFunction(
            RadialSeries.exact(s, coeffs), AngularLabel(ell, rng.randint(-ell, ell))
        )
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            poly = {(0, 0, 0): Fraction(1)}
            for _ in range(3):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                poly[mono] = poly.get(mono, Fraction(0)) + rng.randint(-2, 2)
            worst = max(
                worst,
                verify_laplacian_identity(pf, TestFunction(poly, alpha)),
            )
            count += 1
print(f"\npairing identity over {count} randomized cases: worst residual {worst:.2e}")
