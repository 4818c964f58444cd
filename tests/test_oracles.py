"""The residual oracles reject non-members, residual for residual.

Each oracle is compared against a reference written here with plain
``LieAlgebra.bracket`` and ``Matrix.apply``, on candidates made by perturbing
one coordinate of a computed basis vector until it leaves the space.
"""

from fractions import Fraction

import pytest

import golden
from postlie import catalog
from postlie.derivations import (
    DerivationWeights,
    dspace,
    gder_triples,
    generalized_residuals,
    matrix_from_flat,
    qder_pairs,
    quasi_residuals,
    weighted_residuals,
)
from postlie.lie import change_basis
from postlie.linalg import Subspace

W = DerivationWeights.of


ALGEBRAS = {
    "sl2": catalog.get("sl2").algebra,
    "r31": catalog.get("r31").algebra,
    "heisenberg": catalog.get("heisenberg").algebra,
    "sl3-shear": change_basis(catalog.get("sl3").algebra, golden.shear(8)),
}


def reference(l, weights, phi, sigma, tau):
    """alpha tau([e_i,e_j]) - beta [phi e_i, e_j] - gamma [e_i, sigma e_j] per ordered pair."""
    n = l.dim
    out = []
    for i in range(n):
        ei = [Fraction(int(t == i)) for t in range(n)]
        for j in range(n):
            ej = [Fraction(int(t == j)) for t in range(n)]
            lhs = tau.apply(l.c[i][j])
            rhs_b = l.bracket(phi.column(i), ej)
            rhs_g = l.bracket(ei, sigma.column(j))
            res = tuple(
                weights.alpha * lhs[k] - weights.beta * rhs_b[k] - weights.gamma * rhs_g[k]
                for k in range(n)
            )
            if any(res):
                out.append(((i, j), res))
    return out


def _outside(space: Subspace, start: int, stop: int):
    """A basis vector of ``space`` (or zero) moved off it in [start, stop)."""
    vectors = space.basis_vectors()
    base = list(vectors[0]) if vectors else [Fraction(0)] * space.ambient_dim
    for pos in range(start, stop):
        moved = base[:]
        moved[pos] += Fraction(1, 3)
        if not space.contains(moved):
            return base, moved
    pytest.fail(f"every perturbation in [{start}, {stop}) stays inside the space")


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("w", [(1, 1, 1), (1, 1, 0), (0, 1, -1), (2, 3, Fraction(-1, 3))])
def test_weighted_oracle_matches_reference(name, w):
    l = ALGEBRAS[name]
    weights = W(*w)
    n = l.dim
    space = dspace(l, weights)
    member, moved = _outside(space, 0, n * n)
    for vec, inside in ((member, True), (moved, False)):
        phi = matrix_from_flat(vec, n)
        expected = reference(l, weights, phi, phi, phi)
        assert weighted_residuals(l, weights, phi) == expected
        assert (expected == []) == inside


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("block", [0, 1])
def test_quasi_oracle_matches_reference(name, block):
    l = ALGEBRAS[name]
    n = l.dim
    nn = n * n
    space = qder_pairs(l).pair_space
    member, moved = _outside(space, block * nn, (block + 1) * nn)
    for vec, inside in ((member, True), (moved, False)):
        phi, tau = matrix_from_flat(vec[:nn], n), matrix_from_flat(vec[nn:], n)
        expected = reference(l, W(1, 1, 1), phi, phi, tau)
        assert quasi_residuals(l, phi, tau) == expected
        assert (expected == []) == inside


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("block", [0, 1, 2])
def test_generalized_oracle_matches_reference(name, block):
    l = ALGEBRAS[name]
    n = l.dim
    nn = n * n
    space = gder_triples(l).triple_space
    member, moved = _outside(space, block * nn, (block + 1) * nn)
    for vec, inside in ((member, True), (moved, False)):
        phi, sigma, tau = (matrix_from_flat(vec[b * nn : (b + 1) * nn], n) for b in range(3))
        expected = reference(l, W(1, 1, 1), phi, sigma, tau)
        assert generalized_residuals(l, phi, sigma, tau) == expected
        assert (expected == []) == inside
