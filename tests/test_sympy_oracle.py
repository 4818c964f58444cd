"""Differential tests of the exact solver against sympy over QQ."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.linalg import Matrix, Subspace, nullspace, reduce_int_rows, rref

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
    assert [[_fraction(x) for x in reference.row(i)] for i in range(m.rows)] == ours.row_list()
    kernel = [[_fraction(x) for x in v] for v in _sympy(rows).nullspace()]
    assert nullspace(m) == Subspace.span(kernel, m.cols)


sparse_rows = st.integers(1, 7).flatmap(
    lambda cols: st.lists(
        st.dictionaries(st.integers(0, cols - 1), st.integers(-9, 9).filter(bool), max_size=cols),
        max_size=7,
    ).map(lambda rows: (cols, rows))
)


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
    dense = [[Fraction(r.get(j, 0)) for j in range(cols)] for r in rows]
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
    """The reduced form is unique, so the kernel may take its rows in any order."""
    cols, rows = case
    expected = list(rows)
    pivots = reduce_int_rows(expected)
    variant = [{k: -v for k, v in r.items()} if data.draw(st.booleans()) else dict(r) for r in rows]
    if rows:
        for at in data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
            sign = data.draw(st.sampled_from([1, -1]))
            variant.append({k: sign * v for k, v in rows[at].items()})
    variant = data.draw(st.permutations(variant))
    assert reduce_int_rows(variant) == pivots
    assert variant == expected


def test_reduce_int_rows_off_leftmost_first_pass(monkeypatch):
    """The first pass pivots {0:1, 2:1} on column 2, which no kept row holds."""
    from postlie import linalg

    passes = []
    eliminate = linalg._eliminate

    def spy(rows, reduced, fewest_holders):
        eliminate(rows, reduced, fewest_holders)
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
