"""Exact-arithmetic workbench for post-Lie structures on pairs of Lie algebras."""

from .derivations import semidirect_with_derivations
from .lie import (
    InvalidLieAlgebra,
    InvariantReport,
    LieAlgebra,
    ValidationReport,
    change_basis,
    check_hom_witness,
    direct_sum,
)
from .linalg import DimensionMismatch, Matrix, Subspace, nullspace, rat, rref
from .products import (
    BilinearProduct,
    PostLiePair,
    adz_lambda,
    check_axioms,
    check_derived_identities,
    cross_factor_family,
    embed_check,
    induce_g,
    left_multiplication_checks,
    phi_induced,
    split_construction,
)

__all__ = [
    "BilinearProduct",
    "DimensionMismatch",
    "InvalidLieAlgebra",
    "InvariantReport",
    "LieAlgebra",
    "Matrix",
    "PostLiePair",
    "Subspace",
    "ValidationReport",
    "adz_lambda",
    "change_basis",
    "check_axioms",
    "check_derived_identities",
    "check_hom_witness",
    "cross_factor_family",
    "direct_sum",
    "embed_check",
    "induce_g",
    "left_multiplication_checks",
    "nullspace",
    "phi_induced",
    "rat",
    "rref",
    "semidirect_with_derivations",
    "split_construction",
]

__version__ = "0.1.0"
