"""
Which equation does a radial solution actually satisfy?
=======================================================

Substituting a radial series solution back into the three-dimensional
problem, the regular branch satisfies H psi = E psi everywhere, while
the singular branch satisfies a modified equation with an explicit delta
source.  For l = 0 this replaces the ad hoc boundary condition u(0) = 0:
the condition turns out to be exactly equivalent to membership in the
unmodified equation, never an extra constraint.
"""

import random
from fractions import Fraction

from distpf import PotentialModel, VerdictKind, classify_solution, indicial_roots
from distpf.classify import EQUATION_DESCRIPTIONS


def show(title, verdict):
    print(f"\n{title}")
    print(f"  verdict      : {verdict.kind.value}")
    if verdict.kind is VerdictKind.NOT_RADIAL_SOLUTION:
        print(f"  obstruction  : logarithm needed at order {verdict.obstruction_order}")
        return
    src = ", ".join(
        f"({t.coefficient}) " + ("delta" if t.ell == 0 else f"r^{t.ell} Y[{t.ell},{t.mu}] lap^{t.p}(delta)")
        for t in verdict.delta_source
    ) or "none"
    print(f"  delta source : {src}")
    print(f"  u(0)         : {verdict.u_at_origin if verdict.u_at_origin is not None else 'divergent'}")
    print(f"  u(0) = 0     : {'yes' if verdict.boundary_condition_met else 'no'}")
    print(f"  normalizable : {'yes' if verdict.normalizable else 'no'}")
    for c in verdict.equations_cited:
        print(f"  satisfies    : {EQUATION_DESCRIPTIONS[c]}")


# Regular branch of a Coulomb bound state: a plain solution.
show(
    "Coulomb -2/r, E = -1, regular branch",
    classify_solution(PotentialModel(-2), 0, 0, Fraction(-1), 0, 10),
)

# Free particle, singular branch, l = 0: normalizable, u(0) = 1 != 0, and
# it satisfies the modified equation with source 2 sqrt(pi) u(0) delta.
show(
    "free particle, E = 1, singular branch, l = 0",
    classify_solution(PotentialModel(), 0, 0, Fraction(1), -1, 8),
)

# l = 1 singular branch: sourced as well, but not normalizable anyway.
show(
    "free particle, E = 1, singular branch, l = 1",
    classify_solution(PotentialModel(), 1, 0, Fraction(1), -2, 8),
)

# The equivalence in bulk: over a small sweep of l = 0 problems the
# verdict is 'plain solution' exactly when u(0) = 0.
rng = random.Random(3)
agree = 0
total = 0
for _ in range(40):
    root = rng.choice(indicial_roots(0))
    V = PotentialModel(
        Fraction(rng.randint(-3, 3)) if root == 0 else 0,
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))),
    )
    verdict = classify_solution(V, 0, 0, Fraction(rng.randint(-4, 4)), root, 8)
    total += 1
    agree += (verdict.kind is VerdictKind.SOLVES_SE) == (verdict.u_at_origin == 0)
print(f"\nl = 0 sweep: 'solves the plain equation' == 'u(0) = 0' in {agree}/{total} cases")
