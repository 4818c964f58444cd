"""Metamorphic tests: every derivation space moves with a change of basis.

For an invertible ``t`` the algebra ``l' = change_basis(l, t)`` has the
bracket ``t^-1 [t x, t y]``, so ``t`` is an isomorphism from ``l'`` onto
``l``.  A map ``D`` satisfies an identity on ``l`` exactly when
``t^-1 D t`` satisfies it on ``l'``.  Each space of ``l'`` must therefore
have the dimension of the space of ``l`` and equal its blockwise conjugate.
The spaces sliced from the triple solve are checked the same way, and
against the direct build, in every basis drawn.
A rational ``t`` makes the constraint rows dense, which is where the
elimination kernel pivots off the leftmost column.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import COMMUTANT, WEIGHTS, weight_key
from postlie import catalog
from postlie.derivations import (
    DerivationWeights,
    _slice,
    dspace,
    gder_triples,
    qder_pairs,
)
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
    out["commutant"] = dspace(l, COMMUTANT)
    # the same spaces sliced from the triple solve, which must equal the direct builds
    t = g.triple_space
    for w in WEIGHTS:
        out[f"sliced dspace {weight_key(w)}"] = _slice(t, l.dim, DerivationWeights.of(*w), 1)
    out["sliced qder pairs"] = _slice(t, l.dim, DerivationWeights.of(1, 1, 1), 2)
    out["sliced commutant"] = _slice(t, l.dim, COMMUTANT, 1)
    for key in [k for k in out if k.startswith("sliced ")]:
        assert out[key] == out[key.removeprefix("sliced ")], key
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


# -- invariants -------------------------------------------------------------------
#
# Since t is an isomorphism from l' onto l, ad'(x) = t^-1 ad(t x) t, so the
# Killing form of l' is K'(x, y) = K(t x, t y): K' = t^T K t.  The center,
# the derived and lower central series and unimodularity are isomorphism
# invariants, so their dimensions and flags do not move.


def _check_invariants(name: str, t: Matrix) -> None:
    l = catalog.get(name).algebra
    moved = change_basis(l, t)
    assert moved.killing_form() == t.transpose() * l.killing_form() * t
    before, after = l.invariants(), moved.invariants()
    assert after.center_dim == before.center_dim == moved.center().dim
    assert after.derived_series_dims == before.derived_series_dims
    assert after.lower_central_dims == before.lower_central_dims
    assert after.is_unimodular == before.is_unimodular


@pytest.mark.parametrize("name", ["sl2", "r31", "heisenberg"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_invariants_follow_a_rational_change_of_basis_dim3(name, data):
    _check_invariants(name, data.draw(invertible(3)))


@pytest.mark.parametrize("name", ["sl2+sl2", "sl3"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_invariants_follow_a_rational_change_of_basis(name, data):
    _check_invariants(name, data.draw(invertible(catalog.get(name).algebra.dim)))
