"""distpf: distributional Laplacians of singular radial functions.

The package computes, exactly, the iterated-delta corrections that the
Laplacian and the radial Hamiltonian pick up on functions of the form
r^s * (power series) * (spherical harmonic); solves the radial eigenvalue
problem by power series; classifies whether a candidate separable state
satisfies the plain eigenvalue equation or a delta-sourced modification;
and verifies every symbolic identity numerically through Hadamard
finite-part pairings with polynomial-Gaussian test functions.
"""

import importlib

__version__ = "0.1.0"

# Each module's public names, as its own __all__ lists them, with the
# modules in import order; the package exports their union, and no name
# sits in two lists (tests/test_structure.py checks both).  A name is
# imported from its module on first lookup (PEP 562) and then bound here,
# so `import distpf` loads no submodule and a command only what it runs.
_DEFERRED = {
    "coeffs": ("ExactScalar", "coeff_C", "coeff_L", "coeff_B"),
    "pseudofunction": (
        "RadialSeries", "AngularLabel", "PseudoFunction", "DeltaTerm", "DeltaSum", "DistributionExpr", "from_u",
    ),
    "distlap": ("NotRadialSolution", "q_sl", "laplacian", "hamiltonian_apply", "delta_source"),
    "radial": (
        "PotentialModel", "PhysicalUnits", "LogObstruction", "FreeParameterSetToZero", "FrobeniusResult",
        "indicial_roots", "frobenius", "radial_residuals", "normalizable_at_origin",
    ),
    "classify": ("VerdictKind", "EquationForm", "Verdict", "q_nonvanishing", "classify_solution"),
    "oracle": (
        "EULER_GAMMA", "TestFunction", "testfn_laplacian", "angular_moment", "finite_part_integral",
        "finite_part_closed_form", "pair_pseudofunction", "pair_delta", "verify_laplacian_identity",
    ),
}

__all__ = [name for names in _DEFERRED.values() for name in names]


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
