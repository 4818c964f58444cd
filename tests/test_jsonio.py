import json
from fractions import Fraction

import pytest

from postlie import catalog, jsonio
from postlie.lie import LieAlgebra
from postlie.linalg import Matrix, rational_to_json
from postlie.products import check_axioms, phi_induced

from tables import ANTISYMMETRY_CASES


@pytest.mark.parametrize(
    "name,n",
    [("sl2", None), ("sl3", None), ("sl2+sl2", None), ("r31", None),
     ("heisenberg", None), ("sln", 4), ("abelian", 3)],
)
def test_algebra_round_trip(name, n):
    alg = catalog.get(name, n=n).algebra
    doc = jsonio.algebra_to_json(alg)
    # the document survives an actual serialize/parse cycle
    reloaded = jsonio.algebra_from_json(json.loads(json.dumps(doc)))
    assert reloaded == alg
    assert reloaded.labels == alg.labels


def test_antisymmetric_completion():
    doc = {"dim": 2, "brackets": [{"i": 0, "j": 1, "v": {"0": "1/2"}}]}
    alg = jsonio.algebra_from_json(doc)
    assert alg.c[1][0][0] == -alg.c[0][1][0]


def test_inconsistent_orientations_survive_loading():
    doc = {
        "dim": 2,
        "brackets": [
            {"i": 0, "j": 1, "v": {"0": 1}},
            {"i": 1, "j": 0, "v": {"0": 1}},
        ],
    }
    alg = jsonio.algebra_from_json(doc)
    assert not alg.validate().ok
    # and the defect round-trips
    assert jsonio.algebra_from_json(jsonio.algebra_to_json(alg)) == alg


@pytest.mark.parametrize("case", list(ANTISYMMETRY_CASES))
def test_inconsistent_orientation_edge_cases_survive_loading(case):
    brackets, expected = ANTISYMMETRY_CASES[case]
    doc = {
        "dim": 3,
        "brackets": [
            {"i": i, "j": j, "v": {str(k): rational_to_json(Fraction(v)) for k, v in coords.items()}}
            for (i, j), coords in brackets.items()
        ],
    }
    alg = jsonio.algebra_from_json(json.loads(json.dumps(doc)))
    assert list(alg.validate().antisymmetry) == expected
    written = jsonio.algebra_to_json(alg)
    reloaded = jsonio.algebra_from_json(json.loads(json.dumps(written)))
    assert reloaded == alg
    assert list(reloaded.validate().antisymmetry) == expected
    assert jsonio.algebra_to_json(reloaded) == written


def test_pair_round_trip_with_induced_bracket():
    pair = phi_induced(catalog.get("sl2+sl2").algebra, catalog.cross_factor_phi()).pair
    doc = jsonio.pair_to_json(pair)
    del doc["g"]
    reloaded = jsonio.pair_from_json(json.loads(json.dumps(doc)))
    assert reloaded.g == pair.g
    assert reloaded.prod == pair.prod
    assert check_axioms(reloaded).ok


def test_pair_round_trip_with_explicit_bracket():
    pair = phi_induced(catalog.get("sl2+sl2").algebra, catalog.cross_factor_phi()).pair
    doc = jsonio.pair_to_json(pair)
    reloaded = jsonio.pair_from_json(doc)
    assert reloaded.g == pair.g


def test_pair_requires_base_algebra():
    with pytest.raises(jsonio.FormatError):
        jsonio.pair_from_json({"product": []})


def test_matrix_round_trip():
    m = Matrix.from_rows([[1, "1/2"], ["-3/4", 0]])
    doc = jsonio.matrix_to_json(m)
    assert doc == [[1, "1/2"], ["-3/4", 0]]
    assert jsonio.matrix_from_json(doc) == m


def test_matrix_rejects_ragged_rows():
    with pytest.raises(jsonio.FormatError):
        jsonio.matrix_from_json([[1, 2], [3]])


def test_empty_matrix_round_trips_as_the_0x0_map():
    """``matrix_to_json`` writes the 0x0 map as ``[]``, and the loader reads it back."""
    empty = Matrix(0, 0, [])
    assert jsonio.matrix_to_json(empty) == []
    assert jsonio.matrix_from_json(jsonio.matrix_to_json(empty)) == empty


def test_entry_without_v_is_a_zero_bracket():
    """``v`` keeps its default, the empty map: only ``i`` and ``j`` are required."""
    alg = jsonio.algebra_from_json({"dim": 2, "brackets": [{"i": 0, "j": 1}]})
    assert alg == LieAlgebra.from_brackets(2, {})
    with pytest.raises(jsonio.FormatError, match=r"^brackets\[0\]: entry needs 'i' and 'j'$"):
        jsonio.algebra_from_json({"dim": 2, "brackets": [{"i": 0, "v": {}}]})


def test_duplicate_bracket_pair_rejected():
    doc = {
        "dim": 2,
        "brackets": [
            {"i": 0, "j": 1, "v": {"0": 1}},
            {"i": 0, "j": 1, "v": {"0": 2}},
        ],
    }
    with pytest.raises(jsonio.FormatError):
        jsonio.algebra_from_json(doc)


@pytest.mark.parametrize("key", [" 1", "1 ", "+1", "-1", "1_0", "\u0661", "1.0", ""])
def test_coordinate_key_outside_grammar_rejected(key):
    # dim 11, so that "1_0", read by int() as 10, would be in range
    doc = {"dim": 11, "brackets": [{"i": 0, "j": 1, "v": {key: 1}}]}
    with pytest.raises(jsonio.FormatError, match="coordinate index"):
        jsonio.algebra_from_json(doc)


@pytest.mark.parametrize("value", ["1_0", "+3", "-1/-2", "3/ 4", "\u0663"])
def test_coordinate_value_outside_grammar_rejected(value):
    doc = {"dim": 2, "brackets": [{"i": 0, "j": 1, "v": {"0": value}}]}
    with pytest.raises(jsonio.FormatError, match="malformed rational"):
        jsonio.algebra_from_json(doc)
    with pytest.raises(jsonio.FormatError, match="malformed rational"):
        jsonio.matrix_from_json([[value]])


def test_dim_limit_admits_desk_scale_algebras():
    assert jsonio.MAX_DIM >= 64


SL2 = catalog.get("sl2").algebra


@pytest.fixture()
def low_limit(monkeypatch):
    """Lower the dimension limit to 2 and fail any allocation above it."""
    monkeypatch.setattr(jsonio, "MAX_DIM", 2)
    allocate = jsonio.LieAlgebra.from_brackets

    def guarded(dim, *args, **kwargs):
        assert dim <= 2, "tensor allocated for an over-limit document"
        return allocate(dim, *args, **kwargs)

    monkeypatch.setattr(jsonio.LieAlgebra, "from_brackets", guarded)


def test_dim_over_limit_refused_before_allocation(low_limit):
    with pytest.raises(jsonio.FormatError, match="exceeds the limit of 2"):
        jsonio.algebra_from_json(jsonio.algebra_to_json(SL2))


@pytest.mark.parametrize("part", ["n", "g"])
def test_pair_dim_over_limit_refused_before_allocation(low_limit, part):
    small = {"dim": 2, "brackets": []}
    doc = {"n": small, "g": small, "product": []}
    doc[part] = jsonio.algebra_to_json(SL2)
    with pytest.raises(jsonio.FormatError, match="exceeds the limit of 2"):
        jsonio.pair_from_json(doc)


@pytest.fixture()
def entry_trap(monkeypatch):
    """Lower the dimension limit to 2 and fail the test if any matrix entry is parsed."""
    monkeypatch.setattr(jsonio, "MAX_DIM", 2)

    def trap(raw):
        raise AssertionError("entry parsed for an over-limit matrix")

    monkeypatch.setattr(jsonio, "parse_rational", trap)


@pytest.mark.parametrize("rows, cols", [(3, 1), (1, 3), (3, 3)])
def test_matrix_over_limit_refused_before_parsing(entry_trap, rows, cols):
    with pytest.raises(jsonio.FormatError, match="exceeds the limit of 2"):
        jsonio.matrix_from_json([[1] * cols] * rows)


def test_matrix_at_limit_loads(monkeypatch):
    monkeypatch.setattr(jsonio, "MAX_DIM", 2)
    assert jsonio.matrix_from_json([[1, 2], [3, 4]]) == Matrix.from_rows([[1, 2], [3, 4]])
