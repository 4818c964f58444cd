"""Metamorphic tests: every derivation space moves with a change of basis.

For an invertible ``t`` the algebra ``l' = change_basis(l, t)`` has the
bracket ``t^-1 [t x, t y]``, so ``t`` is an isomorphism from ``l'`` onto
``l``.  A map ``D`` satisfies an identity on ``l`` exactly when
``t^-1 D t`` satisfies it on ``l'``.  Each space of ``l'`` must therefore
have the dimension of the space of ``l`` and equal its blockwise conjugate.
A rational ``t`` makes the constraint rows dense, which is where the
elimination kernel pivots off the leftmost column.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import WEIGHTS, weight_key
from postlie import catalog
from postlie.derivations import DerivationWeights, _commutant_space, dspace, gder_triples, qder_pairs
from postlie.lie import change_basis
from postlie.linalg import Matrix, Subspace

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
nonzero = small.filter(bool)


@st.composite
def invertible(draw, n: int) -> Matrix:
    """At least ``n`` elementary rational shears times a diagonal: invertible by construction."""
    diagonal = [draw(nonzero) for _ in range(n)]
    t = Matrix(n, n, [diagonal[r] if r == s else 0 for r in range(n) for s in range(n)])
    for _ in range(draw(st.integers(n, 2 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        entries = [Fraction(int(r == s)) for r in range(n) for s in range(n)]
        entries[i * n + j] = draw(nonzero)
        t = Matrix(n, n, entries) * t
    return t


def _spaces(l) -> dict[str, Subspace]:
    out = {f"dspace {weight_key(w)}": dspace(l, DerivationWeights.of(*w)) for w in WEIGHTS}
    q = qder_pairs(l)
    out["qder pairs"], out["qder phi"] = q.pair_space, q.phi_projection
    g = gder_triples(l)
    out["gder triples"], out["gder phi"] = g.triple_space, g.phi_projection
    out["commutant"] = _commutant_space(l)
    return out


def _conjugate(space: Subspace, t: Matrix, tinv: Matrix) -> Subspace:
    """Replace every n x n block M of each basis vector by t^-1 M t."""
    n = t.rows
    nn = n * n
    vectors = []
    for vec in space.basis_vectors():
        out = []
        for start in range(0, space.ambient_dim, nn):
            out.extend((tinv * Matrix(n, n, vec[start : start + nn]) * t).entries)
        vectors.append(out)
    return Subspace.span(vectors, space.ambient_dim)


@cache
def _reference(name: str):
    """The algebra and its spaces in the catalog basis, computed once."""
    l = catalog.get(name).algebra
    return l, _spaces(l)


def _check(name: str, t: Matrix) -> None:
    l, expected = _reference(name)
    moved = _spaces(change_basis(l, t))
    tinv = t.inverse()
    assert moved.keys() == expected.keys()
    for key, space in expected.items():
        assert moved[key].dim == space.dim, key
        assert moved[key] == _conjugate(space, t, tinv), key


@pytest.mark.parametrize("name", ["sl2", "r31", "heisenberg"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_spaces_follow_a_rational_change_of_basis_dim3(name, data):
    _check(name, data.draw(invertible(3)))


@settings(max_examples=6, deadline=None)
@given(t=invertible(6))
def test_spaces_follow_a_rational_change_of_basis_sl2_sl2(t):
    _check("sl2+sl2", t)


@settings(max_examples=3, deadline=None)
@given(t=invertible(8))
def test_spaces_follow_a_rational_change_of_basis_sl3(t):
    _check("sl3", t)
