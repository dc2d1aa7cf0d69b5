"""distpf: distributional Laplacians of singular radial functions.

The package computes, exactly, the iterated-delta corrections that the
Laplacian and the radial Hamiltonian pick up on functions of the form
r^s * (power series) * (spherical harmonic); solves the radial eigenvalue
problem by power series; classifies whether a candidate separable state
satisfies the plain eigenvalue equation or a delta-sourced modification;
and verifies every symbolic identity numerically through Hadamard
finite-part pairings with polynomial-Gaussian test functions.
"""

# Each module's __all__ is the one list of its public names; the package
# exports their union.  No name may appear in two lists (a later star
# import would shadow it silently), which tests/test_structure.py checks.
from .coeffs import *
from .pseudofunction import *
from .distlap import *
from .radial import *
from .classify import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [
    *coeffs.__all__,
    *pseudofunction.__all__,
    *distlap.__all__,
    *radial.__all__,
    *classify.__all__,
    *oracle.__all__,
]
