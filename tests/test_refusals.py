"""Every refusal of a bad argument raises its exception, one parametrized test per module.

A vector of the wrong length is refused by ``linalg._checked_row`` and a map of
the wrong shape by ``linalg._checked_shape``, whatever the function that takes
it, so their messages are asserted whole.  The values are immutable, and equal
values hash equal.
"""

import re

import pytest

from postlie import catalog, derivations, jsonio, products
from postlie.lie import InvalidLieAlgebra, LieAlgebra, change_basis, check_hom_witness
from postlie.linalg import DimensionMismatch, Matrix, Subspace, solve
from postlie.products import BilinearProduct

SL2 = catalog.get("sl2").algebra
# [e0, e1] = e0 and [e1, e2] = e1 break the Jacobi identity on (e0, e1, e2)
NOT_LIE = LieAlgebra.from_brackets(3, {(0, 1): {0: 1}, (1, 2): {1: 1}})


def refused(call, exc, message):
    """``call()`` raises ``exc`` whose message is exactly ``message`` when one is given."""
    with pytest.raises(exc, match=None if message is None else f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: catalog.get("abelian"), ValueError, "abelian needs the parameter n"),
        (lambda: catalog.get("abelian", -1), ValueError, "dimension must be nonnegative"),
    ],
    ids=["abelian-without-n", "abelian-negative-n"],
)
def test_catalog_refusals(call, exc, message):
    refused(call, exc, message)


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: derivations.members_verified(SL2, Subspace.zero(5)), DimensionMismatch, None),
        (lambda: derivations.is_derivation(SL2, Matrix.zero(2, 3)), DimensionMismatch,
         "candidate map must be 3x3, got 2x3"),
        (lambda: derivations.semidirect_with_derivations(NOT_LIE, [Matrix.zero(3, 3)]), InvalidLieAlgebra,
         "0 antisymmetry and 1 Jacobi violations"),
    ],
    ids=["space-of-maps-width", "derivation-shape", "extension-not-lie"],
)
def test_derivations_refusals(call, exc, message):
    refused(call, exc, message)


def _entry(v):
    return {"dim": 2, "brackets": [{"i": 0, "j": 1, "v": v}]}


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: jsonio.algebra_from_json(_entry([])), jsonio.FormatError,
         "brackets[0]: coordinate map must be an object"),
        (lambda: jsonio.algebra_from_json(_entry({"5": 1})), jsonio.FormatError,
         "brackets[0]: coordinate index 5 out of range"),
        (lambda: jsonio.pair_from_json([]), jsonio.FormatError, "pair document must be an object"),
        (lambda: jsonio.matrix_from_json({}), jsonio.FormatError,
         "matrix document must be a list of rows"),
        (lambda: jsonio.matrix_from_json([[1], 2]), jsonio.FormatError, "row 1 must be a list"),
        (lambda: jsonio.matrix_from_json([1]), jsonio.FormatError, "row 0 must be a list"),
    ],
    ids=["coordinate-map", "coordinate-range", "pair-document", "matrix-document",
         "matrix-row", "matrix-first-row"],
)
def test_jsonio_refusals(call, exc, message):
    refused(call, exc, message)


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: LieAlgebra([[[0]], [[0]]]), ValueError, "structure tensor must be n x n x n"),
        (lambda: LieAlgebra.from_brackets(2, {}, labels=("a",)), ValueError,
         "one label per basis vector"),
        (lambda: SL2.bracket([1, 0], [0, 0, 1]), DimensionMismatch, "vector needs 3 coordinates, got 2"),
        (lambda: SL2.bracket([1, 0, 0], [0, 0, 0, 1]), DimensionMismatch,
         "vector needs 3 coordinates, got 4"),
        (lambda: SL2.ad_matrix([1]), DimensionMismatch, "vector needs 3 coordinates, got 1"),
        (lambda: SL2.subspace_bracket(Subspace.zero(2), Subspace.zero(3)), DimensionMismatch, None),
        (lambda: check_hom_witness(SL2, catalog.get("sl2+sl2").algebra, Matrix.zero(3, 3)),
         DimensionMismatch, "witness must be 6x3, got 3x3"),
        (lambda: change_basis(SL2, Matrix.identity(2)), DimensionMismatch,
         "change of basis must be 3x3, got 2x2"),
    ],
    ids=["tensor-shape", "labels", "bracket-x", "bracket-y", "ad-matrix", "subspace-bracket",
         "witness-shape", "change-of-basis-shape"],
)
def test_lie_refusals(call, exc, message):
    refused(call, exc, message)


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: Matrix(2, 2, [1]), ValueError, "expected 4 entries for a 2x2 matrix, got 1"),
        (lambda: Matrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows"),
        (lambda: Matrix.identity(2).apply([1]), DimensionMismatch, "vector needs 2 coordinates, got 1"),
        (lambda: Matrix.zero(2, 3).trace(), DimensionMismatch, None),
        (lambda: Matrix.zero(2, 3).inverse(), DimensionMismatch, None),
        (lambda: Subspace.span([[1]], 2), DimensionMismatch, "vector needs 2 coordinates, got 1"),
        (lambda: solve(Matrix.identity(2), [1]), DimensionMismatch, "rhs needs 2 coordinates, got 1"),
        (lambda: Subspace.full(3).project_block(2, 1), DimensionMismatch, None),
    ],
    ids=["entry-count", "ragged", "apply", "trace", "inverse", "span", "solve-rhs", "project-block"],
)
def test_linalg_refusals(call, exc, message):
    refused(call, exc, message)


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: products.induce_g(SL2, BilinearProduct.zero(2)), DimensionMismatch, None),
        (lambda: products.cross_factor_family(SL2, 1, 1, 1, 1, 1), DimensionMismatch, None),
    ],
    ids=["induce-g-dims", "cross-factor-dim"],
)
def test_products_refusals(call, exc, message):
    refused(call, exc, message)


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda: Matrix.identity(2), "rows"),
        (lambda: Subspace.span([[1, 1]], 2), "ambient_dim"),
        (lambda: catalog.get("sl2").algebra, "dim"),
        (lambda: BilinearProduct.zero(2), "dim"),
    ],
    ids=["Matrix", "Subspace", "LieAlgebra", "BilinearProduct"],
)
def test_values_refuse_assignment_and_stay_unchanged(make, name):
    value = make()
    before = getattr(value, name)
    for attr in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 7)
    assert getattr(value, name) == before and value == make()


def test_equal_values_hash_equal():
    assert Matrix.from_rows([[1, "1/2"]]) == Matrix(1, 2, [1, "2/4"])
    assert hash(Matrix.from_rows([[1, "1/2"]])) == hash(Matrix(1, 2, [1, "2/4"]))
    span = Subspace.span([[1, 1], [2, 2]], 2)
    assert span == Subspace.span([["1/3", "1/3"]], 2) and hash(span) == hash(Subspace.span([[3, 3]], 2))
