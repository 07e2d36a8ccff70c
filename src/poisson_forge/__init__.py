"""poisson-forge: exact computational verification of the formal Poisson
homology of the Lefschetz singularity on R^4."""

from .catalog import LefschetzCatalog, lefschetz_catalog
from .exterior import (FORM, MULTIVECTOR, GradedElement, SliceOperator,
                       WeightSliceBasis, contract, de_rham, enumerate_basis,
                       lie_derivative, star, star_inv, wedge)
from .homology import (HomologyEngine, InvariantViolation,
                       RepresentativeFamily, default_engine)
from .linalg import ExactMatrix
from .poisson import (PoissonStructure, d_pi, jacobi_poisson, modular_field,
                      schouten, verify_identity_suite)
from .polynomials import Polynomial, monomial_cmp
from .series import RationalSeries

__version__ = "0.1.0"

__all__ = [
    "FORM", "MULTIVECTOR", "ExactMatrix", "GradedElement", "HomologyEngine",
    "InvariantViolation", "LefschetzCatalog",
    "PoissonStructure", "Polynomial", "RepresentativeFamily",
    "RationalSeries", "SliceOperator", "WeightSliceBasis", "contract", "d_pi",
    "de_rham", "default_engine", "enumerate_basis",
    "jacobi_poisson", "lefschetz_catalog", "lie_derivative", "modular_field",
    "monomial_cmp", "schouten", "star",
    "star_inv", "verify_identity_suite", "wedge",
]
