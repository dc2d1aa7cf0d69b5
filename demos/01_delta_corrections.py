"""
Delta corrections of the Laplacian on singular powers
=====================================================

Away from the origin, lap(r^s) = s(s+1) r^(s-2) and that is the whole
story.  Over all of R^3 it is not: at the odd negative exponents the
distributional Laplacian picks up an iterated-delta correction with an
exactly computable weight.  This script walks the exponent ladder and
prints what appears where.
"""

from fractions import Fraction

from distpf import (
    AngularLabel,
    PseudoFunction,
    RadialSeries,
    coeff_B,
    coeff_C,
    coeff_L,
    laplacian,
)

# The universal weights.  C_p multiplies lap^p(delta); note C_0 = -4*pi,
# the familiar point-source weight of 1/r.
print("p    C_p            L_p            B(ell=2, p)")
for p in range(6):
    print(f"{p:<4} {str(coeff_C(p)):<14} {str(coeff_L(p)):<14} {coeff_B(2, p)}")

def delta_text(term):
    body = "delta" if term.p == 0 else f"lap^{term.p}(delta)"
    return f"({term.coefficient}) {body}"


# Walking the ladder of bare powers r^s for s = 1 .. -6: a delta appears
# exactly at the odd negative exponents, with increasing iteration order.
print("\nlap(r^s) across the exponent ladder:")
for s in range(1, -7, -1):
    expr = laplacian(PseudoFunction(RadialSeries.exact(s, (1,)), AngularLabel(0, 0)))
    pf = expr.pf_part.radial
    fn_part = "0" if pf.is_zero else f"({pf.coeffs[0]}) r^{pf.s}"
    deltas = ", ".join(delta_text(t) for t in expr.delta_part) or "-"
    print(f"  s = {s:>2}:  function part {fn_part:<14} delta part: {deltas}")

# The same engine on a whole series.  Take R(r) = 1/r^3 - 2/r + 5 r^2:
# two rungs are occupied at once.
series = RadialSeries.exact(-3, (1, 0, -2, 0, 0, 5))
expr = laplacian(PseudoFunction(series, AngularLabel(0, 0)))
print("\nlap of 1/r^3 - 2/r + 5 r^2:")
print("  function part:", " + ".join(
    f"({a}) r^{expr.pf_part.radial.s + k}"
    for k, a in enumerate(expr.pf_part.radial.coeffs) if a
))
for t in expr.delta_part:
    print(f"  delta part  : {delta_text(t)}")

# At ell = 0 the Laplacian is the radial operator (1/r) d^2/dr^2 r; on u(r)/r
# it picks up -4*pi*u(0)*delta whenever u(0) != 0 -- the identity that
# makes the reduced radial equation subtle at the origin.
u0 = Fraction(3, 2)
series = RadialSeries.exact(-1, (u0, 1, Fraction(1, 2)))  # u = 3/2 + r + r^2/2
expr = laplacian(PseudoFunction(series, AngularLabel(0, 0)))
print(f"\n(1/r) d^2/dr^2 r applied to u/r with u(0) = {u0}:")
for t in expr.delta_part:
    print(f"  point source: ({t.coefficient}) delta   [= -4*pi*u(0)]")

# With an angular factor the corrections carry the solid harmonic along:
# r^-2 Y_1^mu sources a first-order term proportional to r Y_1^mu lap(delta).
expr = laplacian(PseudoFunction(RadialSeries.exact(-2, (1,)), AngularLabel(1, 1)))
for t in expr.delta_part:
    print(f"\nlap(r^-2 Y_1^1) delta part: ({t.coefficient}) r Y[1,1] lap^{t.p}(delta)")
