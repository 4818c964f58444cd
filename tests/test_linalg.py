from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from postlie import catalog, linalg
from postlie.derivations import DerivationWeights, _identity_space
from postlie.linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    nullspace,
    parse_index,
    parse_rational,
    rat,
    rational_to_json,
    rref,
    solve,
)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix.from_rows)
        )
    )


# -- rationals ---------------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational(5) == Fraction(5)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("bad", ["x", "1/2/3", "", 1.5, None, True])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# int() accepts every one of these; the serialized grammar is -?[0-9]+(/[0-9]+)?
NON_GRAMMAR_RATIONALS = ["1_0", "+3", "-1/-2", "3/ 4", "\u0663", "1 /2", "- 1", "1/+2", "\u20031", "0x10"]


@pytest.mark.parametrize("bad", NON_GRAMMAR_RATIONALS)
def test_parse_rational_rejects_non_grammar_spellings(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["", " 1", "1 ", "+1", "-1", "1_0", "\u0663", "1.0", 1, None])
def test_parse_index_rejects_non_grammar_spellings(bad):
    with pytest.raises(ValueError):
        parse_index(bad)


def test_parse_index_forms():
    assert parse_index("0") == 0
    assert parse_index("17") == 17


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_rat_rejects_bools_as_documents_do(flag):
    with pytest.raises(TypeError):
        rat(flag)
    with pytest.raises(TypeError):
        Matrix(1, 1, [flag])


def test_rational_json_round_trip():
    assert rational_to_json(Fraction(5)) == 5
    assert rational_to_json(Fraction(-7, 3)) == "-7/3"
    for q in [Fraction(5), Fraction(-7, 3), Fraction(0)]:
        assert parse_rational(rational_to_json(q)) == q


# -- rref --------------------------------------------------------------------


def test_rref_identity():
    m = Matrix.identity(3)
    out, rank = rref(m)
    assert out == m and rank == 3


def test_rref_zero():
    m = Matrix.zero(2, 4)
    out, rank = rref(m)
    assert out == m and rank == 0


def test_rref_dependent_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    out, rank = rref(m)
    assert rank == 1
    assert out == Matrix.from_rows([[1, 2], [0, 0]])


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    first, rank = rref(m)
    second, rank2 = rref(first)
    assert first == second and rank == rank2


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    _, rank = rref(m)
    assert rank + nullspace(m).dim == m.cols


# -- nullspace ----------------------------------------------------------------


def test_nullspace_identity_trivial():
    assert nullspace(Matrix.identity(4)).dim == 0


def test_nullspace_zero_full():
    ns = nullspace(Matrix.zero(3, 5))
    assert ns.dim == 5
    assert ns == Subspace.full(5)


def test_nullspace_hand_example():
    ns = nullspace(Matrix.from_rows([[1, 1, 0], [0, 0, 1]]))
    assert ns.dim == 1
    assert ns == Subspace.span([[1, -1, 0]], 3)


def _clears(row: dict, reduced: dict) -> bool:
    """``row`` minus its multiple of each kept row, in ``Fraction``s, is zero."""
    rest = {k: Fraction(v) for k, v in row.items()}
    for p, kept in reduced.items():
        if p in row:
            f = Fraction(row[p], kept[p])
            for k, v in kept.items():
                rest[k] = rest.get(k, 0) - f * v
    return not any(rest.values())


def _assert_fully_reduces(rows: list, reduced: dict) -> None:
    """``reduced`` is a fully reduced system of primitive rows with positive
    pivot entries that clears every row of ``rows``."""
    for p, row in reduced.items():
        assert gcd(*row.values()) == 1 and row[p] > 0
        assert all(p not in other for q, other in reduced.items() if q != p)
    assert all(_clears(row, reduced) for row in rows)


def test_first_pass_on_a_dense_triple_system():
    """The sheared sl3 triple system pivots off the leftmost column and
    re-reduces kept rows over two thousand times, so the holders index must
    follow every update: a stale or missing holder leaves a pivot in another
    row or re-reduces a row that no longer holds it."""
    l = golden.fixtures()["sl3-shear"]
    rows = _identity_space(l, DerivationWeights.of(1, 1, 1), 3)
    reduced = linalg._first_pass(rows)
    assert any(p != min(row) for p, row in reduced.items())
    _assert_fully_reduces(rows, reduced)
    kernel = linalg.int_nullspace(rows, 3 * l.dim * l.dim)
    assert golden.encode(kernel) == golden.load()["sl3-shear / gder triples"]


def test_first_pass_strips_one_entry_rows_in_rounds(monkeypatch):
    """40 of the 426 rows of the standard sl3 triple system have one entry, a
    unit row for each of 40 columns: the builder emits each such column once.
    A scaled repeat of each is put back, so the strip also meets repeats.
    Stripping the 40 columns leaves new one-entry rows, whose 20 columns a
    second round strips; only the 262 rows left reach the elimination loop,
    none of them with one entry, and the 60 columns go in as unit rows."""
    l = golden.fixtures()["sl3"]
    built = _identity_space(l, DerivationWeights.of(1, 1, 1), 3)
    units = [r for r in built if len(r) == 1]
    assert (len(built), len(units), len({c for r in units for c in r})) == (426, 40, 40)
    assert all(set(r.values()) == {1} for r in units)
    rows = built + [{c: -2 for c in r} for r in units]
    before = [dict(r) for r in rows]
    taken = []
    eliminate = linalg._eliminate

    def spy(rows, reduced, *args, **kwargs):
        rows = list(rows)
        taken.append((rows, dict(reduced)))
        eliminate(rows, reduced, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    reduced = linalg._first_pass(rows)
    assert rows == before
    ((eliminated, seeded),) = taken
    assert all(len(r) > 1 for r in eliminated) and len(eliminated) == 262
    assert len(seeded) == 60 and all(row == {c: 1} for c, row in seeded.items())
    _assert_fully_reduces(rows, reduced)
    kernel = linalg.int_nullspace(rows, 3 * l.dim * l.dim)
    assert golden.encode(kernel) == golden.load()["sl3 / gder triples"]


def test_rank_is_one_first_pass(monkeypatch):
    """``Matrix.rank`` reads the size of the first pass: it neither runs the
    second pass nor builds a canonical ``Subspace``."""
    killing = catalog.get("sln", 4).algebra.killing_form()

    def trap(*args, **kwargs):
        raise AssertionError("the rank built a reduced row-echelon form")

    monkeypatch.setattr(linalg, "reduce_int_rows", trap)
    monkeypatch.setattr(Subspace, "_from_int_rows", trap)
    assert killing.rank() == 15


def test_solve_consistent_and_inconsistent():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    x = solve(a, [5, 6])
    assert a.apply(x) == (Fraction(5), Fraction(6))
    singular = Matrix.from_rows([[1, 1], [2, 2]])
    assert solve(singular, [1, 3]) is None


# -- matrices ------------------------------------------------------------------


def test_matrix_inverse():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_matrix_shape_errors():
    a = Matrix.from_rows([[1, 2]])
    b = Matrix.from_rows([[1], [2], [3]])
    with pytest.raises(DimensionMismatch):
        a + Matrix.identity(2)
    with pytest.raises(DimensionMismatch):
        a * b


# -- subspaces ------------------------------------------------------------------


def test_sum_and_intersection_trivial():
    a = Subspace.span([[1, 0]], 2)
    b = Subspace.span([[0, 1]], 2)
    assert (a + b).dim == 2
    assert (a & b).dim == 0


def test_sum_intersection_idempotent():
    a = Subspace.span([[1, 2, 0], [0, 0, 1]], 3)
    assert a + a == a
    assert (a & a) == a


E3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "n, a, b, meet",
    [
        pytest.param(3, E3[:2], E3[1:], [E3[1]], id="hand-example"),
        pytest.param(3, [[1, 2, 3], [0, 1, 1]], [[1, 3, 4], [1, 0, 0]], [[1, 3, 4]], id="planes"),
        pytest.param(3, [], E3, [], id="zero-side"),
        pytest.param(3, [[1, 1, 0]], E3[:2], [[1, 1, 0]], id="subset"),
        pytest.param(
            3, [[1, 2, 0], [0, 0, 1]], [[1, 2, 1], [0, 0, 2]], [[1, 2, 0], [0, 0, 1]], id="equal"
        ),
        pytest.param(3, E3[:2], [[1, 1, 1]], [], id="complement"),
        pytest.param(0, [], [], [], id="ambient-0"),
    ],
)
def test_intersection_hand_example(n, a, b, meet):
    a, b, meet = (Subspace.span(v, n) for v in (a, b, meet))
    assert (a & b) == meet
    assert (b & a) == meet


def test_intersection_never_calls_the_solver_nullspace(monkeypatch):
    """The meet is one Zassenhaus reduction, not ann(ann A + ann B)."""

    def trap(*args):
        raise AssertionError("the meet called int_nullspace")

    monkeypatch.setattr(linalg, "int_nullspace", trap)
    a = Subspace.span([[1, 2, 3], [0, 1, 1]], 3)
    b = Subspace.span([[1, 3, 4], [1, 0, 0]], 3)
    assert (a & b) == Subspace.span([[1, 3, 4]], 3)
    assert (a & Subspace.zero(3)) == Subspace.zero(3)


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        Subspace.full(2) + Subspace.full(3)
    with pytest.raises(DimensionMismatch):
        Subspace.full(2) & Subspace.full(3)


def test_project_block():
    s = Subspace.span([[1, 0, 2, 0], [0, 1, 0, 3]], 4)
    assert s.project_block(2, 4) == Subspace.full(2)
    assert s.project_block(0, 2) == Subspace.full(2)
    line = Subspace.span([[1, 0, 2, 4]], 4)
    assert line.project_block(2, 4) == Subspace.span([[1, 2]], 2)


def test_coordinates():
    s = Subspace.span([[1, 0, 1], [0, 1, 2]], 3)
    coords = s.coordinates([2, 3, 8])
    assert coords == (Fraction(2), Fraction(3))
    assert s.coordinates([0, 0, 1]) is None


subspace_inputs = st.lists(
    st.lists(rationals, min_size=3, max_size=3), min_size=0, max_size=4
)


@given(subspace_inputs, subspace_inputs)
@settings(max_examples=60, deadline=None)
def test_grassmann_identity(va, vb):
    a = Subspace.span(va, 3)
    b = Subspace.span(vb, 3)
    assert a.dim + b.dim == (a + b).dim + (a & b).dim


@given(subspace_inputs, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_tail_is_the_meet_with_the_last_coordinates(vectors, k):
    s = Subspace.span(vectors, 3)
    last = Subspace.span(E3[k:], 3)
    assert s._tail(k) == (s & last).project_block(k, 3)


@given(subspace_inputs, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
@example([[1, 2, 3], [0, 0, 1]], 1)
def test_tail_keeps_the_canonical_rows_with_shifted_pivots(vectors, k):
    """``_tail`` and the meet store rows without a kernel call, so their pivots
    must be the leading columns of those rows, shifted with them: ``__eq__``
    compares rows only and would not see a stale pivot."""
    s = Subspace.span(vectors, 3)
    tail = s._tail(k)
    shifted = [{c - k: v for c, v in row.items()} for row in s._rows if min(row) >= k]
    expected = Subspace._from_int_rows(shifted, 3 - k)
    assert tail == expected and tail._pivots == expected._pivots
    assert tail._pivots == tuple(min(row) for row in tail._rows)
    meet = s & Subspace.span(E3[k:], 3)
    assert meet._pivots == tuple(min(row) for row in meet._rows)


@given(
    subspace_inputs,
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_canonical_under_respanning(vectors, mixes):
    """Row operations on the spanning set never change the Subspace value."""
    base = Subspace.span(vectors, 3)
    mixed = [list(v) for v in vectors]
    for i, j, c in mixes:
        if i < len(mixed) and j < len(mixed) and i != j:
            mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
    assert Subspace.span(mixed, 3) == base


def test_contains_subspace_and_ordering():
    big = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    small = Subspace.span([[1, 1, 0]], 3)
    assert big.contains_subspace(small)
    assert small <= big
    assert not small.contains_subspace(big)


def test_public_constructor_reduces_its_basis():
    """``Subspace.span`` stores dependent and unscaled spanning rows in canonical form."""
    doubled = Subspace.span([[2, 0], [-6, 0]], 2)
    assert doubled == Subspace.span([[1, 0]], 2)
    assert doubled.contains([1, 0]) and doubled.basis_vectors() == [(1, 0)]
    assert Subspace.span([[1, 1], [0, 1], [3, 4]], 2) == Subspace.full(2)
