"""The mod-2 row builder ``derivations._identity_parity``.

The solves read their constraint rows mod 2 from these bitsets and never build
the integer rows when the certificate holds, so the bitsets are read against
``golden.raw_identity_rows``: the integer rows of every ordered pair, before any
normalization.  Each bitset is the parity of one of those rows, and the bitsets
span the same GF(2) space as the parities of all of them; their rank
``linalg._rank_bits`` is sympy's rank over GF(2), and never above the rank of
the integer rows over Q.  Checked on the golden fixtures for every weight of
``FLOOR_WEIGHTS`` over 1, 2 and 3 blocks, on algebras whose structure
constants are all even or all multiplied by 3, with weights that are even in
every place, and after random rational and unimodular changes of basis.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

import golden
from postlie import catalog, linalg
from postlie.derivations import DerivationWeights, _identity_parity
from postlie.lie import change_basis
from postlie.linalg import Matrix
from test_basis_change import invertible
from test_mod2_certificate import unimodular
from test_nullity_floor import FIXTURES, FLOOR_WEIGHTS


def _parity(row: dict) -> int:
    return sum(1 << c for c, v in row.items() if v & 1)


def _gf2_rank(bits: set, ncols: int) -> int:
    dense = [[x >> c & 1 for c in range(ncols)] for x in bits]
    return DomainMatrix.from_list(dense, ZZ).convert_to(GF(2)).rank() if dense and ncols else 0


def _assert_parity_rows(l, weights, blocks: int, oracle: bool) -> None:
    """The bitsets against the reference rows; with ``oracle``, the rank against sympy's."""
    weights = DerivationWeights.of(*weights)
    label = (golden.weight_key(weights), blocks)
    bits = _identity_parity(l, weights, blocks)
    raw = golden.raw_identity_rows(l, weights, blocks)
    parities = {_parity(row) for row in raw}
    assert set(bits) <= parities and 0 not in bits, label
    ones = [x for x in bits if not x & (x - 1)]
    assert len(ones) == len(set(ones)), label  # a one-bit row goes out once
    rank = linalg._rank_bits(bits)
    assert rank == linalg._rank_bits(parities) == linalg._rank_bits([*bits, *parities]), label
    assert rank <= linalg.int_rank(raw), label
    if oracle:
        assert rank == _gf2_rank(set(bits), blocks * l.dim**2), label


@pytest.mark.parametrize("name", FIXTURES)
def test_bitsets_are_the_parities_of_the_reference_rows(name):
    for weights in FLOOR_WEIGHTS:
        for blocks in (1, 2, 3):
            _assert_parity_rows(FIXTURES[name], weights, blocks, oracle=FIXTURES[name].dim <= 6)


SMALL = ["sl2", "r31", "heisenberg", "sl2+sl2"]
weights = st.tuples(*[st.integers(-4, 4)] * 3)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(SMALL), scale=st.sampled_from([2, -2, 4, 3, -6]), w=weights, blocks=st.integers(1, 3))
def test_bitsets_with_even_entries(name, scale, w, blocks):
    """Scaling a basis by c scales every structure constant by c: an even c makes
    every integer row even, and an even weight drops its mask."""
    l = catalog.get(name).algebra
    n = l.dim
    l = change_basis(l, Matrix(n, n, [scale * (r == s) for r in range(n) for s in range(n)]))
    _assert_parity_rows(l, w, blocks, oracle=True)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["sl2", "r31", "heisenberg"]), data=st.data(), w=weights, blocks=st.integers(1, 3))
def test_bitsets_after_a_rational_change_of_basis(name, data, w, blocks):
    """Denominators scale ``int_adj`` and so the parities of whole rows."""
    _assert_parity_rows(change_basis(catalog.get(name).algebra, data.draw(invertible(3))), w, blocks, oracle=True)


@settings(max_examples=5, deadline=None)
@given(data=st.data(), w=weights, blocks=st.integers(1, 3))
def test_bitsets_after_an_integer_change_of_basis_of_sl3(data, w, blocks):
    l = change_basis(catalog.get("sl3").algebra, data.draw(unimodular(8)))
    _assert_parity_rows(l, w, blocks, oracle=False)
