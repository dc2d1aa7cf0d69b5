"""
Series solutions of the radial equation
=======================================

The radial eigenvalue problem has two power-series branches at the
origin, one regular and one singular.  The solver builds either branch
with exact rational coefficients, flags resonant orders, and refuses
(with a precise order) when the singular branch would need a logarithm.
"""

from fractions import Fraction

from distpf import LogObstruction, PotentialModel, frobenius, indicial_roots

# A Coulomb-type potential -2/r at E = -1: the regular branch is the
# classic bound state u = r * exp(-r), i.e. a_k = (-1)^k / k!.
V = PotentialModel(-2)
res = frobenius(V, ell=0, E=Fraction(-1), root=0, N=10)
print("Coulomb -2/r, E = -1, regular branch:")
print("  u(r) =", " + ".join(f"({a}) r^{res.series.s + k}" for k, a in enumerate(res.series.coeffs) if a))

# The singular branch of the same problem has no pure series at all.
try:
    frobenius(V, ell=0, E=Fraction(-1), root=-1, N=10)
except LogObstruction as obs:
    print(f"  singular branch: needs a logarithm at order {obs.order}")

# Free particle, l = 0: the singular branch exists and is cos(sqrt(E) r).
res = frobenius(PotentialModel(), ell=0, E=Fraction(4), root=-1, N=8)
print("\nFree particle E = 4, singular branch (u = cos(2r)):")
print("  coefficients:", [str(a) for a in res.series.coeffs])
print("  resonance   :", res.resonance_report)

# Harmonic-type confinement r^2 at E = 3: the regular branch reproduces
# the Gaussian ground state u = r * exp(-r^2/2).
res = frobenius(PotentialModel(0, (0, 0, 1)), ell=0, E=Fraction(3), root=0, N=10)
print("\nV = r^2, E = 3, regular branch (u = r exp(-r^2/2)):")
print("  coefficients:", [str(a) for a in res.series.coeffs])

# Both indicial roots for a few angular momenta.
print("\nIndicial roots (regular, singular):")
for ell in range(4):
    print(f"  ell = {ell}: {indicial_roots(ell)}")
