"""Differential tests of the exact solver against sympy over QQ."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postlie.linalg import (
    Matrix,
    Subspace,
    _first_pass,
    _span_by_distinct_columns,
    int_nullspace,
    int_rank,
    nullspace,
    reduce_int_rows,
    rref,
)

sympy = pytest.importorskip("sympy")

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def rational_rows(draw):
    """Small rational matrices with zero rows, repeated rows and sign flips."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "repeat", "negate"]))
        at = draw(st.integers(0, len(rows)))
        if kind == "zero":
            rows.insert(at, [Fraction(0)] * cols)
        else:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            rows.insert(at, [-x for x in src] if kind == "negate" else list(src))
    return rows


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@given(rational_rows())
@settings(max_examples=150, deadline=None)
def test_rref_rank_and_nullspace_match_sympy(rows):
    m = Matrix.from_rows(rows)
    reference, ref_pivots = _sympy(rows).rref()
    ours, rank = rref(m)
    assert rank == len(ref_pivots)
    scale = lcm(*(x.denominator for row in rows for x in row))
    assert int_rank([{j: int(x * scale) for j, x in enumerate(row) if x} for row in rows]) == rank
    assert ours.flatten() == tuple(map(_fraction, reference))
    kernel = [[_fraction(x) for x in v] for v in _sympy(rows).nullspace()]
    assert nullspace(m) == Subspace.span(kernel, m.cols)


sparse_rows = st.integers(1, 7).flatmap(
    lambda cols: st.lists(
        st.dictionaries(st.integers(0, cols - 1), st.integers(-9, 9).filter(bool), max_size=cols),
        max_size=7,
    ).map(lambda rows: (cols, rows))
)


def _dense(rows, cols):
    return [[Fraction(r.get(j, 0)) for j in range(cols)] for r in rows]


def _assert_reduce_int_rows_contract(cols, rows):
    before = [dict(r) for r in rows]
    reduced = list(rows)
    pivots = reduce_int_rows(reduced)
    assert rows == before  # the caller's dicts are left alone
    assert pivots == sorted(set(pivots)) and len(reduced) == len(pivots)
    for row, p in zip(reduced, pivots):
        assert all(row.values()) and min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert all(p not in other for other in reduced if other is not row)
    dense = _dense(rows, cols)
    reference, ref_pivots = _sympy(dense).rref() if dense else (None, ())
    assert tuple(pivots) == tuple(ref_pivots)
    for i, (row, p) in enumerate(zip(reduced, pivots)):
        assert [Fraction(row.get(j, 0), row[p]) for j in range(cols)] == [
            _fraction(x) for x in reference.row(i)
        ]


@given(sparse_rows)
@settings(max_examples=150, deadline=None)
def test_reduce_int_rows_contract(case):
    _assert_reduce_int_rows_contract(*case)


@given(sparse_rows, st.data())
@settings(max_examples=150, deadline=None)
def test_reduce_int_rows_ignores_row_order_repeats_and_signs(case, data):
    """The reduced form is unique, so the kernel may take its rows in any order,
    with repeats scaled by any nonzero factor: the row builder hands them over
    as built, neither primitive nor deduplicated."""
    cols, rows = case
    expected = list(rows)
    pivots = reduce_int_rows(expected)
    variant = [{k: -v for k, v in r.items()} if data.draw(st.booleans()) else dict(r) for r in rows]
    if rows:
        for at in data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
            factor = data.draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
            variant.append({k: factor * v for k, v in rows[at].items()})
    variant = data.draw(st.permutations(variant))
    assert int_nullspace(variant, cols) == int_nullspace(rows, cols)
    assert reduce_int_rows(variant) == pivots
    assert variant == expected


@st.composite
def rows_with_equal_columns(draw):
    """``(ncols, rows)``: sparse integer rows, with repeated and dependent rows,
    whose columns are copied to new positions left and right of the original."""
    cols, rows = draw(sparse_rows)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
        p, q = draw(st.sampled_from([1, -1, 2])), draw(st.sampled_from([0, 1, -2]))  # q = 0 repeats a
        combo = {k: p * a.get(k, 0) + q * b.get(k, 0) for k in a.keys() | b.keys()}
        rows.insert(draw(st.integers(0, len(rows))), {k: v for k, v in combo.items() if v})
    copies = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=6))
    sources = draw(st.permutations(list(range(cols)) + copies))
    return len(sources), [{j: r[s] for j, s in enumerate(sources) if s in r} for r in rows]


@given(rows_with_equal_columns())
@example((3, [{0: 1, 1: 2, 2: 1}, {0: 3, 1: 1, 2: 3}]))
@example((4, [{1: 2, 2: 1, 3: 2}, {0: 5, 1: 1, 2: 3, 3: 1}]))
@settings(max_examples=200, deadline=None)
def test_span_by_distinct_columns_equals_reduce_int_rows_and_sympy(case):
    """One leftmost pass over the distinct columns, the repeats copied back, gives
    entrywise the rows and pivots of ``reduce_int_rows``, and sympy's RREF."""
    cols, rows = case
    got = _span_by_distinct_columns(rows, cols)
    expected = Subspace._from_int_rows(rows, cols)
    assert (got._rows, got._pivots) == (expected._rows, expected._pivots)
    reference, ref_pivots = _sympy(_dense(rows, cols)).rref() if rows else (None, ())
    assert got._pivots == tuple(ref_pivots)
    assert got.basis_vectors() == [tuple(map(_fraction, reference.row(i))) for i in range(len(ref_pivots))]


@st.composite
def stripping_chains(draw):
    """A planted chain {c0: a}, {c0: b, c1: d}, {c1: e, c2: f}, ... over distinct
    columns, mixed with random rows: each round of the first pass's strip
    leaves the next link with one entry."""
    cols = draw(st.integers(2, 8))
    chain = draw(st.permutations(range(cols)))[: draw(st.integers(2, cols))]
    entry = st.integers(-9, 9).filter(bool)
    rows = [{chain[0]: draw(entry)}]
    rows += [{a: draw(entry), b: draw(entry)} for a, b in zip(chain, chain[1:])]
    rows += draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry, max_size=cols), max_size=5))
    return cols, draw(st.permutations(rows))


@given(stripping_chains())
@settings(max_examples=150, deadline=None)
def test_strip_cascades_match_sympy(case):
    _assert_reduce_int_rows_contract(*case)
    cols, rows = case
    reference = [[_fraction(x) for x in v] for v in _sympy(_dense(rows, cols)).nullspace()]
    assert int_nullspace(rows, cols) == Subspace.span(reference, cols)


def test_reduce_int_rows_off_leftmost_first_pass(monkeypatch):
    """The first pass pivots {0:1, 2:1} on column 2, which no kept row holds."""
    from postlie import linalg

    passes = []
    eliminate = linalg._eliminate

    def spy(rows, reduced, *args, **kwargs):
        eliminate(rows, reduced, *args, **kwargs)
        passes.append(dict(reduced))

    monkeypatch.setattr(linalg, "_eliminate", spy)
    rows = [{0: 1, 1: 1}, {0: 1, 2: 1}]
    before = [dict(r) for r in rows]
    reduced = list(rows)
    assert reduce_int_rows(reduced) == [0, 1]
    assert reduced == [{0: 1, 2: 1}, {1: 1, 2: -1}]
    assert rows == before
    # first pass: pivot 2 in the row {1: -1, 2: 1}; the second puts it on 1
    assert passes[0] == {0: {0: 1, 1: 1}, 2: {1: -1, 2: 1}}
    assert len(passes) == 2


@st.composite
def low_rank_rows(draw):
    """Tall integer systems: many random combinations of a few rows."""
    cols = draw(st.integers(2, 9))
    base = draw(st.lists(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(len(base), 14))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        dense = [sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(cols)]
        rows.append({j: v for j, v in enumerate(dense) if v})
    return cols, rows


@given(low_rank_rows())
@settings(max_examples=150, deadline=None)
def test_reduce_int_rows_on_tall_low_rank_systems(case):
    _assert_reduce_int_rows_contract(*case)


@given(low_rank_rows())
@settings(max_examples=150, deadline=None)
def test_int_nullspace_at_the_true_nullity_matches_sympy(case):
    """The rows are combinations of a few base rows, so the kernel is planted:
    the annihilator of the base.  At a floor of its true dimension the first
    pass stops at the system's rank, and the kernel is sympy's.  A floor one
    higher may stop it one row short: the space is then too large, never wrong
    the other way."""
    cols, rows = case
    kernel = [[_fraction(x) for x in v] for v in _sympy(_dense(rows, cols)).nullspace()]
    reference = Subspace.span(kernel, cols)
    assert int_nullspace(rows, cols, len(kernel)) == reference
    assert int_nullspace(rows, cols, len(kernel) + 1).contains_subspace(reference)


@given(low_rank_rows())
@settings(max_examples=150, deadline=None)
# a duplicate row: the first pass keeps one, so a write-back would shorten the list
@example((2, [{0: 2, 1: 4}, {0: 1, 1: 2}]))
def test_int_nullspace_is_pure_over_a_fully_reduced_first_pass(case):
    """``int_nullspace`` leaves its list and the dicts in it as they were, and
    reads the kernel's first pass: one primitive row per pivot, with a positive
    pivot entry, each pivot column zero in the other rows, spanning the row
    space of the input."""
    cols, rows = case
    before = [dict(r) for r in rows]
    passed = list(rows)
    kernel = int_nullspace(passed, cols)
    assert len(passed) == len(rows) and all(a is b for a, b in zip(passed, rows))
    assert rows == before
    reduced = _first_pass(rows)
    assert rows == before
    for p, row in reduced.items():
        assert all(row.values()) and row[p] > 0
        assert gcd(*row.values()) == 1
        assert all(p not in other for q, other in reduced.items() if q != p)
    left = [reduced[p] for p in sorted(reduced)]
    assert _sympy_rref_rows(_dense(left, cols)) == _sympy_rref_rows(_dense(rows, cols))
    reference = [[_fraction(x) for x in v] for v in _sympy(_dense(rows, cols)).nullspace()]
    assert kernel == Subspace.span(reference, cols)


# -- the subspace lattice -----------------------------------------------------


def _sympy_rref_rows(rows):
    """The nonzero rows of sympy's RREF of ``rows``, as tuples of Fractions."""
    if not rows:
        return []
    reference, pivots = _sympy(rows).rref()
    return [tuple(_fraction(x) for x in reference.row(i)) for i in range(len(pivots))]


@st.composite
def subspace_pairs(draw):
    """Two spanning sets in one ambient space, and test vectors in and out of the first."""
    cols = draw(st.integers(1, 5))
    row = st.lists(rationals, min_size=cols, max_size=cols)
    a = draw(st.lists(row, max_size=4))
    b = draw(st.lists(row, max_size=4))
    vectors = draw(st.lists(row, max_size=2))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(rationals, min_size=len(a), max_size=len(a)))
        vectors.append([sum((c * r[j] for c, r in zip(coeffs, a)), Fraction(0)) for j in range(cols)])
    return cols, a, b, vectors


def _lattice_pair(cols, a, b):
    return Subspace.span(a, cols), Subspace.span(b, cols)


@given(subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_sum_matches_sympy(case):
    cols, a, b, _ = case
    sa, sb = _lattice_pair(cols, a, b)
    assert (sa + sb).basis_vectors() == _sympy_rref_rows(a + b)


@given(subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_intersection_matches_sympy(case):
    """A meet B from the nullspace of the coefficient system sum u_i a_i - sum v_j b_j = 0."""
    cols, a, b, _ = case
    sa, sb = _lattice_pair(cols, a, b)
    base_a, base_b = _sympy_rref_rows(a), _sympy_rref_rows(b)
    meet = []
    if base_a and base_b:
        system = [list(col) for col in zip(*(base_a + [[-x for x in r] for r in base_b]))]
        for w in _sympy(system).nullspace():
            u = [_fraction(x) for x in w[: len(base_a)]]
            meet.append([sum((c * r[j] for c, r in zip(u, base_a)), Fraction(0)) for j in range(cols)])
    assert (sa & sb).basis_vectors() == _sympy_rref_rows(meet)


@given(subspace_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_project_block_matches_sympy(case, data):
    cols, a, _, _ = case
    start = data.draw(st.integers(0, cols))
    stop = data.draw(st.integers(start, cols))
    sliced = [r[start:stop] for r in a]
    got = Subspace.span(a, cols).project_block(start, stop)
    assert got.ambient_dim == stop - start
    assert got.basis_vectors() == (_sympy_rref_rows(sliced) if stop > start else [])


@given(subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_coordinates_and_membership_match_sympy(case):
    """Coordinates in the RREF basis from a sympy solve; None exactly when it has no solution."""
    cols, a, b, vectors = case
    sa, sb = _lattice_pair(cols, a, b)
    base = _sympy_rref_rows(a)
    for v in vectors:
        if base:
            try:
                sol, params = _sympy(base).T.gauss_jordan_solve(_sympy([v]).T)
            except ValueError:  # no solution
                expected = None
            else:
                assert params.shape[0] == 0  # the basis is independent
                expected = tuple(_fraction(x) for x in sol)
        else:
            expected = () if not any(v) else None
        assert sa.coordinates(v) == expected
        assert sa.contains(v) == (expected is not None)
    stacked = _sympy(a + b).rank() if a + b else 0
    own = _sympy(a).rank() if a else 0
    assert sa.contains_subspace(sb) == (stacked == own)
