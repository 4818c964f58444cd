"""The packed identity checks against the dict residuals they replaced.

Every check that reports failures packs each row of its integer tables into
one integer, entry k in slot k of a width chosen from the tables
(``lie._packed``), and ``linalg.sparse_residuals`` decodes a nonzero packed
residual slot by slot.  These tests compare each check with the dict
reference in ``golden.py`` on random tables with entries up to 2^64, and
decode hand-built residuals at the edges of the slots, so that a carry
between slots can neither mask a failure nor move an entry.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from postlie import catalog, products
from postlie.lie import LieAlgebra, _adj_from_entries
from postlie.linalg import Matrix, sparse_residuals

BIG = 2**64
PROPERTY = settings(max_examples=60, deadline=None)

_VALID = {
    3: ("sl2", "heisenberg", "r31"),
    6: ("sl2+sl2",),
}

entries = st.integers(-BIG, BIG)
denominators = st.sampled_from((1, 1, 1, 2, 6))


@st.composite
def tables(draw, dim: int, antisymmetric: bool):
    """A random sparse ``_adj`` table of dimension ``dim``, entries up to 2^64 over a
    small common denominator."""
    index = st.integers(0, dim - 1)
    den = draw(denominators)
    raw = draw(st.lists(st.tuples(index, index, index, entries), max_size=3 * dim * dim))
    table: dict = {}
    for i, j, k, v in raw:
        table.setdefault((i, j), {})[k] = Fraction(v, den)
    return _adj_from_entries(dim, table, fill_antisymmetric=antisymmetric)


@st.composite
def algebras(draw, dim: int):
    """A random bracket table, or a Lie algebra of the catalog (or abelian) scaled by
    a large integer, so that both failing and passing checks are drawn."""
    if draw(st.booleans()):
        names = _VALID.get(dim, ())
        name = draw(st.sampled_from(names + ("abelian",)))
        base = catalog.get(name, dim if name == "abelian" else None).algebra
        c = draw(entries.filter(bool))
        scaled = (tuple(tuple((k, c * v) for k, v in row) for row in p) for p in base._adj)
        return LieAlgebra._from_adj(tuple(scaled))
    return LieAlgebra._from_adj(draw(tables(dim, draw(st.booleans()))))


dims = st.integers(1, 6)


@PROPERTY
@given(st.data())
def test_validate_matches_the_dict_reference(data):
    l = data.draw(dims.flatmap(algebras))
    report = l.validate()
    assert (report.antisymmetry, report.jacobi) == golden.validation_failures(l)


@PROPERTY
@given(st.data())
def test_axioms_and_derived_identities_match_the_dict_reference(data):
    dim = data.draw(dims)
    g, n = data.draw(algebras(dim)), data.draw(algebras(dim))
    prod = products.BilinearProduct._from_adj(data.draw(tables(dim, False)))
    pair = products.PostLiePair(g, n, prod)
    assert tuple(products.check_axioms(pair)) == golden.axiom_failures(pair)
    assert tuple(products.check_derived_identities(pair)) == golden.derived_failures(pair)


@PROPERTY
@given(st.data())
def test_phi_conditions_match_the_dict_reference(data):
    dim = data.draw(dims)
    n = data.draw(algebras(dim))
    den = data.draw(denominators)
    values = data.draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))
    phi = Matrix(dim, dim, [Fraction(v, den) for v in values])
    conditions = products.phi_induced(n, phi).conditions
    assert conditions[:2] == golden.phi_failures(n, phi)


@PROPERTY
@given(st.data())
def test_adz_conditions_match_the_dict_reference(data):
    dim = data.draw(dims)
    n = data.draw(algebras(dim))
    den = data.draw(denominators)
    z = [Fraction(v, den) for v in data.draw(st.lists(entries, min_size=dim, max_size=dim))]
    lam = Fraction(data.draw(entries), data.draw(denominators))
    assert tuple(products.adz_lambda(n, z, lam).conditions) == golden.adz_conditions(n, z, lam)


def _packed_vector(entries, bits: int) -> int:
    return sum(v << bits * k for k, v in enumerate(entries))


def test_full_width_entries_in_adjacent_slots_are_decoded():
    """±(2^(w-1) - 1), the widest signed digits, side by side: no borrow or carry
    between neighbours changes an entry."""
    bits = 12
    top = 2 ** (bits - 1) - 1
    for vector in ([top, -top, top, -top], [-top, top, 0, top], [top, top, -top, -top]):
        packed = _packed_vector(vector, bits)
        assert packed
        decoded = sparse_residuals(lambda: packed, [()], len(vector), 3, bits)
        assert decoded == (((), tuple(Fraction(v, 3) for v in vector)),)


def test_lowest_and_highest_slot_alone_are_reported():
    bits = 12
    for vector in ([1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, -1], [-1, 0, 0, 1]):
        packed = _packed_vector(vector, bits)
        decoded = sparse_residuals(lambda: packed, [()], len(vector), 1, bits)
        assert decoded == (((), tuple(map(Fraction, vector))),)


def test_extreme_table_entries_in_edge_slots_are_reported():
    """Commutator failures of a product with entries ±2^64 in adjacent slots, and
    with a single entry in the lowest or the highest slot, over zero brackets."""
    dim = 4
    zero = LieAlgebra.from_brackets(dim, {})
    prod = products.BilinearProduct.from_entries(
        dim, {(0, 1): {0: BIG, 1: -BIG}, (0, 2): {0: 1}, (0, 3): {3: -BIG}, (1, 2): {3: 1}}
    )
    pair = products.PostLiePair(zero, zero, prod)
    failures = products.check_axioms(pair).commutator_rule
    assert failures == golden.axiom_failures(pair)[0]
    assert dict(failures) == {
        (0, 1): (BIG, -BIG, 0, 0),
        (0, 2): (1, 0, 0, 0),
        (0, 3): (0, 0, 0, -BIG),
        (1, 2): (0, 0, 0, 1),
    }


def _constant(dim: int, value: int) -> tuple:
    """The ``_adj`` table with every entry equal to ``value``."""
    row = tuple((k, Fraction(value)) for k in range(dim))
    return ((row,) * dim,) * dim


def test_residuals_at_the_width_bound_are_decoded():
    """Constant tables attain the bounds the widths are taken from: a Jacobi entry of
    3 n A^2, and a multiplication-cycle entry of 9 n A^2 with g = -A and n = p = A."""
    dim = 3
    l = LieAlgebra._from_adj(_constant(dim, BIG))
    assert l.validate().jacobi == golden.validation_failures(l)[1]
    assert l.validate().jacobi[0][1] == (3 * dim * BIG**2,) * dim
    g = LieAlgebra._from_adj(_constant(dim, -BIG))
    pair = products.PostLiePair(g, l, products.BilinearProduct._from_adj(_constant(dim, BIG)))
    derived = products.check_derived_identities(pair)
    assert tuple(derived) == golden.derived_failures(pair)
    assert derived.multiplication_cycle[0][1] == (9 * dim * BIG**2,) * dim
