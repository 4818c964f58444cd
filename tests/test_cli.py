import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import golden
import postlie
from postlie import catalog, cli, derivations, jsonio, lie, products
from postlie.cli import main
from postlie.lie import LieAlgebra, change_basis
from postlie.linalg import Matrix, Subspace
from postlie.products import BilinearProduct


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


@pytest.fixture()
def sl3_file(tmp_path):
    path = tmp_path / "sl3.json"
    jsonio.dump_json(str(path), jsonio.algebra_to_json(catalog.get("sl3").algebra))
    return str(path)


@pytest.fixture()
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    jsonio.dump_json(str(path), jsonio.algebra_to_json(catalog.get("sl2").algebra))
    return str(path)


# -- lie group ------------------------------------------------------------------


def test_info_reports_invariants(capsys, sl3_file):
    code, doc, _ = run_json(capsys, "lie", "info", sl3_file)
    assert code == 0 and doc["verified"]
    assert doc["results"]["is_semisimple"] and doc["results"]["killing_rank"] == 8


def test_validate_ok(capsys, sl3_file):
    code, doc, _ = run_json(capsys, "lie", "validate", sl3_file)
    assert code == 0 and doc["results"]["ok"]


def test_validate_surfaces_file_inconsistency(capsys, tmp_path):
    doc = {
        "dim": 2,
        "brackets": [
            {"i": 0, "j": 1, "v": {"0": 1}},
            {"i": 1, "j": 0, "v": {}},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "lie", "validate", str(path))
    assert code == 1
    assert out["results"]["antisymmetry_violations"] == [[0, 1, 0]]


def test_dspace_scalar_case(capsys, sl3_file):
    code, doc, _ = run_json(
        capsys, "lie", "dspace", sl3_file, "--alpha", "2", "--beta", "1", "--gamma", "1"
    )
    assert code == 0
    assert doc["results"]["dim"] == 1
    assert doc["verified"]


def test_dspace_empty_case_exits_zero(capsys, sl3_file):
    code, doc, _ = run_json(
        capsys, "lie", "dspace", sl3_file, "--alpha", "5", "--beta", "1", "--gamma", "1"
    )
    assert code == 0 and doc["results"]["dim"] == 0


def test_dspace_with_basis(capsys, sl2_file):
    code, doc, _ = run_json(
        capsys, "lie", "dspace", sl2_file, "--alpha", "-1", "--beta", "1",
        "--gamma", "1", "--basis",
    )
    assert code == 0
    assert doc["results"]["dim"] == 5
    assert len(doc["results"]["basis"]) == 5
    assert all(len(m) == 3 and len(m[0]) == 3 for m in doc["results"]["basis"])


def test_qder_and_gder(capsys, sl2_file):
    code, doc, _ = run_json(capsys, "lie", "qder", sl2_file)
    assert code == 0 and doc["results"]["phi_dim"] == 9
    code, doc, _ = run_json(capsys, "lie", "gder", sl2_file)
    assert code == 0 and doc["results"]["phi_dim"] == 9


def test_chain(capsys, sl3_file):
    code, doc, _ = run_json(capsys, "lie", "chain", sl3_file)
    assert code == 0 and doc["results"]["all_ok"]


def test_chain_exits_one_when_a_relation_fails(capsys, monkeypatch, sl3_file):
    failing = derivations.ChainReport(True, True, True, True, False, True)
    monkeypatch.setattr(derivations, "verify_chain", lambda alg: failing)
    code, doc, _ = run_json(capsys, "lie", "chain", sl3_file)
    assert code == 1
    assert doc["results"] == failing.as_dict() and doc["results"]["all_ok"] is False


def test_catalog_round_trip(capsys, tmp_path):
    out_file = tmp_path / "out.json"
    code, emitted, _ = run_json(capsys, "lie", "catalog", "sl3", "-o", str(out_file))
    assert code == 0
    on_disk = json.loads(out_file.read_text())
    assert on_disk == emitted
    reloaded = jsonio.algebra_from_json(on_disk)
    assert reloaded == catalog.get("sl3").algebra
    # a command on the emitted file matches the in-memory fixture
    code, doc, _ = run_json(capsys, "lie", "info", str(out_file))
    assert doc["results"] == catalog.get("sl3").algebra.invariants().as_dict()


def test_catalog_with_param(capsys):
    code, doc, _ = run_json(capsys, "lie", "catalog", "sln", "--n", "4")
    assert code == 0 and doc["dim"] == 15


@pytest.mark.parametrize("n", ["+3", "\u0663", " 3", "0_3", "x"])
def test_catalog_n_is_ascii_digits(capsys, n):
    """``--n`` is an index like ``--left``: ``int()`` took a sign, spaces, ``_`` and non-ASCII digits."""
    code, out, err = run(capsys, "lie", "catalog", "sln", "--n", n)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --n: malformed index {n!r}"]


def test_unknown_catalog_name_exits_two(capsys):
    code, out, err = run(capsys, "lie", "catalog", "nosuch")
    assert code == 2 and "unknown catalog entry" in err and not out


def test_byte_identical_reports(capsys, sl3_file):
    _, out1, _ = run(capsys, "lie", "qder", sl3_file)
    _, out2, _ = run(capsys, "lie", "qder", sl3_file)
    assert out1 == out2


# -- error handling --------------------------------------------------------------


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "lie", "info", str(path))
    assert code == 2 and "invalid JSON" in err


def test_bad_rational_weight_exits_two(capsys, sl3_file):
    code, out, err = run(
        capsys, "lie", "dspace", sl3_file, "--alpha", "x", "--beta", "1", "--gamma", "1"
    )
    assert code == 2 and "--alpha" in err


@pytest.mark.parametrize("bad", ["1_0", "+3", "-1/-2", "3/ 4", "\u0663"])
def test_rational_option_outside_grammar_exits_two(capsys, sl3_file, sl2_file, bad):
    code, out, err = run(
        capsys, "lie", "dspace", sl3_file, "--alpha", bad, "--beta", "1", "--gamma", "1"
    )
    assert code == 2 and "--alpha" in err and out == ""
    code, out, err = run(capsys, "postlie", "adz", sl2_file, "--z", f"0,0,{bad}", "--lambda", "0")
    assert code == 2 and "--z" in err and out == ""
    code, out, err = run(capsys, "postlie", "adz", sl2_file, "--z", "0,0,0", f"--lambda={bad}")
    assert code == 2 and "--lambda" in err and out == ""


@pytest.mark.parametrize("bad", ["1_0", "+3", "-1/-2", "3/ 4", "\u0663"])
def test_rational_in_file_outside_grammar_exits_two(capsys, tmp_path, sl2_file, bad):
    path = tmp_path / "bad_value.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [{"i": 0, "j": 1, "v": {"0": bad}}]}))
    code, out, err = run(capsys, "lie", "validate", str(path))
    assert code == 2 and "malformed rational" in err and out == ""
    phi = tmp_path / "bad_phi.json"
    phi.write_text(json.dumps([[bad, 0, 0], [0, 0, 0], [0, 0, 0]]))
    code, out, err = run(capsys, "postlie", "phi", sl2_file, str(phi))
    assert code == 2 and "malformed rational" in err and out == ""


@pytest.mark.parametrize("key", [" 1", "+1", "1_0", "\u0661"])
def test_coordinate_key_outside_grammar_exits_two(capsys, tmp_path, key):
    path = tmp_path / "bad_key.json"
    # dim 11, so that "1_0", read by int() as 10, would be in range
    path.write_text(json.dumps({"dim": 11, "brackets": [{"i": 0, "j": 1, "v": {key: 1}}]}))
    code, out, err = run(capsys, "lie", "validate", str(path))
    assert code == 2 and "coordinate index" in err and out == ""


@pytest.mark.parametrize("bad", ["+0", "1_0", " 2", "\u0661", ""])
def test_split_index_outside_grammar_exits_two(capsys, sl2_file, bad):
    code, out, err = run(capsys, "postlie", "split", sl2_file, "--left", f"2,{bad}", "--right", "1")
    assert code == 2 and "--left" in err and out == ""


def test_zero_denominator_in_file_exits_two(capsys, tmp_path):
    doc = {"dim": 1, "brackets": [{"i": 0, "j": 0, "v": {"0": "1/0"}}]}
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lie", "validate", str(path))
    assert code == 2


def test_index_out_of_range_exits_two(capsys, tmp_path):
    doc = {"dim": 2, "brackets": [{"i": 0, "j": 5, "v": {"0": 1}}]}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lie", "validate", str(path))
    assert code == 2 and "out of range" in err


def test_boolean_dim_exits_two(capsys, tmp_path):
    path = tmp_path / "bool_dim.json"
    path.write_text(json.dumps({"dim": True, "brackets": []}))
    code, out, err = run(capsys, "lie", "info", str(path))
    assert code == 2 and "'dim'" in err and out == ""


@pytest.mark.parametrize("labels", [[1, None, {"a": 2}], ["e0", "e1", 2]])
def test_non_string_labels_exit_two(capsys, tmp_path, labels):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [], "labels": labels}))
    code, out, err = run(capsys, "lie", "info", str(path))
    assert code == 2 and "'labels' must be strings" in err and out == ""


@pytest.mark.parametrize("argv", [("lie", "info"), ("lie", "validate"), ("postlie", "verify")])
def test_dim_over_limit_exits_two(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(jsonio, "MAX_DIM", 2)
    doc = jsonio.algebra_to_json(catalog.get("sl2").algebra)
    if argv[0] == "postlie":
        doc = {"n": doc, "product": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and "exceeds the limit" in err and out == ""


@pytest.fixture()
def catalog_trap(monkeypatch):
    """Lower the dimension limit to 8 and fail the test if an algebra or subspace is built.

    sln and abelian both fill their tables with ``from_brackets``, and sln lists
    its triangular subspaces first, so trapping these shows nothing was allocated.
    """
    monkeypatch.setattr(jsonio, "MAX_DIM", 8)

    def trap(*args, **kwargs):
        raise AssertionError("algebra built for an over-limit catalog request")

    monkeypatch.setattr(catalog, "_special_linear", trap)
    monkeypatch.setattr(catalog, "_triangular_subspaces", trap)
    monkeypatch.setattr(catalog.LieAlgebra, "from_brackets", trap)


@pytest.mark.parametrize("name, n, dim", [("sln", 4, 15), ("abelian", 9, 9), ("sln", 10**6, 10**12 - 1)])
def test_catalog_dim_over_limit_exits_two(capsys, catalog_trap, name, n, dim):
    code, out, err = run(capsys, "lie", "catalog", name, "--n", str(n))
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"dimension {dim}, which exceeds the limit of 8" in err


@pytest.mark.parametrize("name, n", [("sln", 3), ("abelian", 8)])
def test_catalog_dim_at_limit_is_built(capsys, monkeypatch, name, n):
    monkeypatch.setattr(jsonio, "MAX_DIM", 8)
    code, doc, _ = run_json(capsys, "lie", "catalog", name, "--n", str(n))
    assert code == 0 and doc["dim"] == 8


SOLVES = [
    ("dspace", "--alpha", "1", "--beta", "1", "--gamma", "0"),
    ("qder",),
    ("gder",),
    ("chain",),
]


def _system_entries(alg) -> int:
    """3 n nnz: the entries of the gder system, a bound on every entry the row build stores."""
    return 3 * alg.dim * sum(len(terms) for plane in alg._adj for terms in plane)


@pytest.mark.parametrize("argv", SOLVES)
def test_oversized_system_exits_two_before_any_row(capsys, monkeypatch, sl3_file, argv):
    entries = _system_entries(catalog.get("sl3").algebra)
    monkeypatch.setattr(derivations, "MAX_SYSTEM_ENTRIES", entries - 1)

    def trap(*args):
        raise AssertionError("a constraint row was built")

    monkeypatch.setattr(derivations, "_identity_pairs", trap)  # the row loop's first call
    code, out, err = run(capsys, "lie", argv[0], sl3_file, *argv[1:])
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"would hold {entries} entries, over the limit of {entries - 1}" in err


def test_system_at_the_budget_is_solved_within_it(capsys, monkeypatch, sl3_file):
    """At the budget gder runs, and the rows it builds hold no more entries than counted."""
    entries = _system_entries(catalog.get("sl3").algebra)
    monkeypatch.setattr(derivations, "MAX_SYSTEM_ENTRIES", entries)
    built = []
    solve = derivations.int_nullspace

    def spy(rows, *args, **kwargs):
        built.append(sum(len(row) for row in rows))
        return solve(rows, *args, **kwargs)

    monkeypatch.setattr(derivations, "int_nullspace", spy)
    code, _, _ = run(capsys, "lie", "gder", sl3_file)
    assert code == 0 and 0 < built[0] <= entries


@pytest.mark.parametrize(
    "name, n", [("sln", -3), ("sln", 1), ("abelian", -1), ("sl3", 7), ("heisenberg", 2)]
)
def test_catalog_bad_parameter_exits_two(capsys, name, n):
    code, out, err = run(capsys, "lie", "catalog", name, f"--n={n}")
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("key", ["i", "j"])
def test_boolean_bracket_index_exits_two(capsys, tmp_path, key):
    entry = {"i": 0, "j": 1, "v": {"0": 1}}
    entry[key] = True
    path = tmp_path / "bool_index.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [entry]}))
    code, out, err = run(capsys, "lie", "validate", str(path))
    assert code == 2 and "indices must be integers" in err and out == ""


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"dim": 3, "brakets": [{"i": 0, "j": 1, "v": {"2": 1}}]}, "brakets"),
        ({"dim": 3, "brackets": [{"i": 0, "j": 1, "w": {"2": 1}}]}, "w"),
    ],
)
def test_unknown_algebra_key_exits_two(capsys, tmp_path, doc, key):
    """A misspelt key is refused, not read as its default (the abelian algebra)."""
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lie", "info", str(path))
    assert code == 2 and out == "" and f"unknown key {key!r}" in err


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "lie", "info", "/nonexistent/nowhere.json")
    assert code == 2


MALFORMED_JSON = {
    "not utf-8": b'{"dim": 3, "labels": ["\xff", "f", "h"]}',
    "5000-digit integer": b'{"dim": 1' + b"0" * 4999 + b"}",
    "100000 nested arrays": b"[" * 100_000,
    "repeated key": b'{"dim": 3, "brackets": [{"i": 0, "j": 1, "v": {"2": 1, "2": 5}}]}',
}


@pytest.mark.parametrize(
    "command", [("lie", "info"), ("postlie", "verify")], ids=["lie info", "postlie verify"]
)
@pytest.mark.parametrize("kind", list(MALFORMED_JSON))
def test_unreadable_json_exits_two(capsys, tmp_path, command, kind):
    doc = MALFORMED_JSON[kind]
    if kind == "repeated key" and command[0] == "postlie":
        doc = b'{"n": ' + doc + b', "product": []}'
    path = tmp_path / "malformed.json"
    path.write_bytes(doc)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2 and out == "" and "error:" in err and "Traceback" not in err


# -- postlie group ------------------------------------------------------------------


@pytest.fixture()
def pair_file(capsys, tmp_path, sl3_file):
    path = tmp_path / "pair.json"
    code, _, _ = run(
        capsys, "postlie", "split", sl3_file,
        "--left", "6,7,0,1,3", "--right", "2,4,5", "-o", str(path),
    )
    assert code == 0
    return str(path)


def test_split_report(capsys, tmp_path, sl3_file):
    code, doc, _ = run_json(
        capsys, "postlie", "split", sl3_file, "--left", "6,7,0,1,3", "--right", "2,4,5"
    )
    assert code == 0 and doc["verified"]
    inv = doc["results"]["g_invariants"]
    assert inv["derived_series_dims"] == [8, 4, 1, 0]
    assert inv["center_dim"] == 1
    phi_diag = [doc["results"]["phi"][i][i] for i in range(8)]
    assert phi_diag == [0, 0, -1, 0, -1, -1, 0, 0]


@pytest.mark.parametrize("left, right, phi", [("0,1,2", "", 0), ("", "0,1,2", -1)])
def test_split_with_an_empty_side(capsys, sl2_file, left, right, phi):
    """An empty side is the zero subalgebra: the zero product with g = n, or x.y = -{x,y}."""
    code, doc, _ = run_json(
        capsys, "postlie", "split", sl2_file, f"--left={left}", f"--right={right}"
    )
    assert code == 0 and doc["verified"]
    assert doc["results"]["phi"] == [[phi if i == j else 0 for j in range(3)] for i in range(3)]
    assert doc["inputs"]["left"] == ([0, 1, 2] if left else [])


def test_split_bad_spans_exit_two(capsys, sl2_file):
    code, out, err = run(
        capsys, "postlie", "split", sl2_file, "--left", "0,1", "--right", "2"
    )
    assert code == 2 and "subalgebra" in err
    code, out, err = run(capsys, "postlie", "split", sl2_file, "--left=", "--right=")
    assert code == 2 and "summands must split the space" in err and out == ""


def test_split_index_out_of_range_exits_two(capsys, sl2_file):
    code, out, err = run(capsys, "postlie", "split", sl2_file, "--left", "0,3", "--right", "1")
    assert code == 2 and "out of range" in err and out == ""


@pytest.mark.parametrize("left, right, message", [("0,0", "1,2", "--left: index 0"), ("0", "1,2,2", "--right: index 2")])
def test_split_repeated_index_exits_two(capsys, sl2_file, left, right, message):
    """A repeated index is refused, not read as one: the report would echo it as input."""
    code, out, err = run(capsys, "postlie", "split", sl2_file, "--left", left, "--right", right)
    assert code == 2 and out == "" and err.startswith("error:") and f"{message} is repeated" in err


def test_split_of_a_non_lie_algebra_names_its_violations(capsys, tmp_path):
    """[e0, e1] = e0 stored in both orientations with one sign: the split fails to
    verify, and the error names the input's violations, as every solve command does."""
    doc = {
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "v": {"0": 1}}, {"i": 1, "j": 0, "v": {"0": 1}}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "postlie", "split", str(path), "--left", "0", "--right", "1,2")
    assert code == 2 and out == "" and "Traceback" not in err
    assert "1 antisymmetry and 0 Jacobi violations" in err


def test_verify_split_pair(capsys, pair_file):
    code, doc, _ = run_json(capsys, "postlie", "verify", pair_file)
    assert code == 0 and doc["verified"]
    assert doc["results"]["axioms"]["ok"]
    assert doc["results"]["embedding"]["ok"]


def test_unknown_pair_key_exits_two(capsys, tmp_path, pair_file):
    """A misspelt 'product' is refused, not read as the zero product with g = n."""
    doc = json.loads(Path(pair_file).read_text())
    doc["prodcut"] = doc.pop("product")
    del doc["g"]
    path = tmp_path / "misspelt_pair.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "postlie", "verify", str(path))
    assert code == 2 and out == "" and "unknown key 'prodcut'" in err


def test_verify_doctored_pair_exits_one(capsys, tmp_path, pair_file):
    doc = json.loads(Path(pair_file).read_text())
    for entry in doc["product"]:
        if entry["i"] == 2 and entry["j"] == 0:
            entry["v"]["6"] = 2  # perturb one product coefficient
    bad = tmp_path / "doctored.json"
    bad.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "postlie", "verify", str(bad))
    assert code == 1 and not report["verified"]
    failures = report["results"]["axioms"]["commutator_rule_failures"]
    assert failures and failures[0]["indices"] == [0, 2]


RESIDUALS = ("_commutator_residual", "_left_action_residual", "_derivation_residual", "_cyclic")


def _recorder(monkeypatch, modules, name, record):
    """Replace ``name`` in each of ``modules`` by a wrapper that calls ``record(args)`` first."""
    real = getattr(modules[0], name)

    def recorded(*args, **kwargs):
        record(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, recorded)


def test_each_identity_is_evaluated_once_per_pair(capsys, monkeypatch, tmp_path, sl3_file):
    """verify, and split with its built-in verification, evaluate each packed residual
    once per tuple, and scale and pack each set of tables once.

    The three axioms run over their pairs and triples; ``_cyclic`` serves the
    Jacobi checks of g and n (one call per triple each) and the two derived
    identities (two and three calls per triple)."""
    split = products.split_construction(
        catalog.get("sln", 4).algebra, *catalog.triangular_split(4, "b+|n-")
    )
    sl4_pair = tmp_path / "sl4-pair.json"
    jsonio.dump_json(str(sl4_pair), jsonio.pair_to_json(split.pair))
    calls = Counter()
    for name in RESIDUALS:
        owners = (products, lie) if name == "_cyclic" else (products,)
        _recorder(monkeypatch, owners, name, lambda args, name=name: calls.update([name]))
    scaled, packed = [], []
    _recorder(monkeypatch, (lie, products), "_int_tables", scaled.append)
    _recorder(monkeypatch, (lie, products), "_packed", lambda args: packed.append(args[2:]))
    for dim, argv in (
        (15, ("verify", str(sl4_pair))),
        (8, ("split", sl3_file, "--left", "6,7,0,1,3", "--right", "2,4,5")),
    ):
        calls.clear()
        scaled.clear()
        packed.clear()
        code, _, _ = run(capsys, "postlie", *argv)
        pairs = math.comb(dim, 2)
        assert code == 0
        expected = (pairs, pairs * dim, dim * pairs, 7 * math.comb(dim, 3))
        assert [calls[name] for name in RESIDUALS] == list(expected), argv[0]
        # g, n and the pair (g, n, p); the split also builds from n with phi, and n with the product
        assert len(packed) == 3 and len(scaled) == (3 if argv[0] == "verify" else 5), argv[0]
        assert len(set(scaled)) == len(scaled) and len(set(packed)) == len(packed), argv[0]


def test_phi_command(capsys, tmp_path, sl2_file):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    code, doc, _ = run_json(capsys, "postlie", "phi", sl2_file, str(phi_path))
    assert code == 0 and doc["verified"]
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    code, doc, _ = run_json(capsys, "postlie", "phi", sl2_file, str(neg))
    assert code == 0 and doc["verified"]


def test_phi_wrong_shape_exits_two(capsys, tmp_path, sl2_file):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, err = run(capsys, "postlie", "phi", sl2_file, str(phi_path))
    assert code == 2 and "3x3" in err and "2x2" in err and out == ""


def test_adz_command(capsys, sl2_file):
    code, doc, _ = run_json(
        capsys, "postlie", "adz", sl2_file, "--z", "0,0,1/4", "--lambda", "-1/2"
    )
    assert code == 0 and doc["verified"]
    code, doc, _ = run_json(
        capsys, "postlie", "adz", sl2_file, "--z", "0,0,4", "--lambda", "-1/2"
    )
    assert code == 1 and not doc["verified"]


def test_adz_on_a_non_lie_bracket_is_unverified(capsys, tmp_path):
    """The adz conditions hold, but the induced bracket fails antisymmetry at (0, 0)."""
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [{"i": 0, "j": 0, "v": {"1": 1}}]}))
    code, doc, _ = run_json(capsys, "postlie", "adz", str(path), "--z", "1,1", "--lambda", "0")
    results = doc["results"]
    assert results["conditions"]["ok"] and not results["phi_conditions"]["ok"]
    assert code == 1 and not doc["verified"]


def test_adz_bad_vector_exits_two(capsys, sl2_file):
    code, out, err = run(
        capsys, "postlie", "adz", sl2_file, "--z", "0,0", "--lambda", "0"
    )
    assert code == 2 and "coordinates" in err


def test_adz_reads_an_empty_z_as_no_coordinates(capsys, tmp_path, sl2_file):
    """``--z=`` is the zero vector of a 0-dimensional algebra, as an empty split side is
    the zero subalgebra; on sl2 it is a vector of the wrong length."""
    path = tmp_path / "zero.json"
    jsonio.dump_json(str(path), jsonio.algebra_to_json(catalog.get("abelian", 0).algebra))
    code, doc, _ = run_json(capsys, "postlie", "adz", str(path), "--z=", "--lambda", "0")
    assert code == 0 and doc["verified"] and doc["inputs"]["z"] == []
    code, out, err = run(capsys, "postlie", "adz", sl2_file, "--z=", "--lambda", "0")
    assert code == 2 and "z needs 3 coordinates, got 0" in err and out == ""


@pytest.fixture()
def abelian0_file(tmp_path):
    path = tmp_path / "a0.json"
    jsonio.dump_json(str(path), jsonio.algebra_to_json(catalog.get("abelian", 0).algebra))
    return str(path)


@pytest.fixture()
def empty_map_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]\n")
    return str(path)


def test_phi_verifies_the_0x0_map_on_the_0_dimensional_algebra(capsys, tmp_path, empty_map_file):
    path = str(tmp_path / "catalog_a0.json")
    assert run(capsys, "lie", "catalog", "abelian", "--n", "0", "-o", path)[0] == 0
    code, doc, err = run_json(capsys, "postlie", "phi", path, empty_map_file)
    assert code == 0 and doc["verified"] and doc["inputs"]["phi"] == [] and err == ""


def test_phi_reads_back_the_split_phi_of_the_0_dimensional_algebra(capsys, tmp_path, abelian0_file):
    code, split, _ = run_json(capsys, "postlie", "split", abelian0_file, "--left=", "--right=")
    assert code == 0 and split["results"]["phi"] == []
    phi = str(tmp_path / "split_phi.json")
    jsonio.dump_json(phi, split["results"]["phi"])
    code, doc, _ = run_json(capsys, "postlie", "phi", abelian0_file, phi)
    assert code == 0 and doc["verified"] and doc["inputs"]["phi"] == split["results"]["phi"]


def test_phi_refuses_the_0x0_map_on_sl2_by_its_shape(capsys, sl2_file, empty_map_file):
    code, out, err = run(capsys, "postlie", "phi", sl2_file, empty_map_file)
    assert code == 2 and out == "" and err == "error: phi must be 3x3, got 0x0\n"


def test_catalog_abelian_without_n_exits_two(capsys):
    code, out, err = run(capsys, "lie", "catalog", "abelian")
    assert code == 2 and out == "" and err == "error: abelian needs the parameter n\n"


def test_phi_and_adz_scale_each_table_set_once(capsys, monkeypatch, tmp_path):
    """Four integer scalings: the induced product, ``induce_g``, g's validation
    (read by ``phi_induced``) and then the pair's tables for phi's axioms, or
    adz's own conditions; the phi conditions reuse the product's scaling."""
    calls = []

    def counted(*tables, _scale=products._int_tables):
        calls.append(len(tables))
        return _scale(*tables)

    monkeypatch.setattr(lie, "_int_tables", counted)
    monkeypatch.setattr(products, "_int_tables", counted)
    files = {}
    for name, doc in (
        ("sl2+sl2", jsonio.algebra_to_json(catalog.get("sl2+sl2").algebra)),
        ("sl4", jsonio.algebra_to_json(catalog.get("sln", 4).algebra)),
        ("phi", jsonio.matrix_to_json(catalog.cross_factor_phi())),
    ):
        files[name] = str(tmp_path / f"{name}.json")
        jsonio.dump_json(files[name], doc)
    for argv in (
        ("phi", files["sl2+sl2"], files["phi"]),
        ("adz", files["sl4"], "--z", ",".join(["0"] * 15), "--lambda", "-1"),
    ):
        calls.clear()
        code, _, _ = run(capsys, "postlie", *argv)
        assert code == 0 and len(calls) == 4, argv[0]


# -- the process surface ----------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def process_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_process(*argv):
    """``python -m postlie.cli`` in a fresh interpreter, with this checkout's package."""
    proc = subprocess.run(
        [sys.executable, "-m", "postlie.cli", *argv],
        capture_output=True,
        text=True,
        env=process_env(),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_separate_processes(capsys, sl3_file, tmp_path):
    # an argparse error (exit 2) and a load error in between good commands:
    # one process running them in turn prints what fresh processes print
    sequence = [
        ("lie", "info", sl3_file),
        ("lie", "nosuch", sl3_file),
        ("lie", "info", sl3_file),
        ("lie", "validate", sl3_file),
        ("lie", "info", str(tmp_path / "missing.json")),
        ("lie", "info", sl3_file),
    ]
    in_process = [run(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 2, 0]
    assert in_process[0] == in_process[2] == in_process[5]
    for argv, result in zip(sequence, in_process):
        assert run_process(*argv) == result, argv


def test_a_reader_that_stops_early_ends_the_command_quietly(tmp_path):
    """The sl5 report overfills the pipe buffer, so the reader's close breaks a write:
    the command ends with its own exit code and nothing on stderr, not a traceback."""
    path = tmp_path / "sl5.json"
    jsonio.dump_json(str(path), jsonio.algebra_to_json(catalog.get("sln", 5).algebra))
    argv = ["lie", "dspace", str(path), "--alpha", "1", "--beta", "1", "--gamma", "1", "--basis"]
    with subprocess.Popen(
        [sys.executable, "-m", "postlie.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=process_env(),
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0 and err == b""


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    sequence = (("lie", "nosuch"), ("lie", "catalog", "sl2"), ("lie", "catalog", "r31"))
    codes = [run(capsys, *argv)[0] for argv in sequence]
    assert codes == [2, 0, 0]
    assert built == [1]


@pytest.mark.parametrize(
    "entry, argv",
    [
        (cli.lie_main, ("info", "{sl3}")),
        (cli.lie_main, ("info",)),
        (cli.postlie_main, ("adz", "{sl2}", "--z=0,0,1/4", "--lambda", "-1/2")),
        (cli.postlie_main, ("split", "{sl2}", "--left", "0", "--right", "0")),
    ],
)
def test_console_entry_points_match_main(capsys, monkeypatch, sl3_file, sl2_file, entry, argv):
    argv = [a.format(sl3=sl3_file, sl2=sl2_file) for a in argv]
    group = "lie" if entry is cli.lie_main else "postlie"
    expected = run(capsys, group, *argv)
    monkeypatch.setattr(sys, "argv", [group, *argv])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out, captured.err) == expected


def test_commands_do_not_read_the_dense_views(capsys, monkeypatch, tmp_path):
    """Every report comes from the sparse tables: with the dense ``c`` and ``p``
    views replaced by traps, the commands print what they print without them."""
    sl3 = catalog.get("sl3").algebra
    files = {}
    for name, alg in (
        ("sl3", sl3),
        ("sheared", change_basis(sl3, golden.shear(8))),
        ("double", catalog.get("sl2+sl2").algebra),
        ("sl4", catalog.get("sln", n=4).algebra),
    ):
        files[name] = str(tmp_path / f"{name}.json")
        jsonio.dump_json(files[name], jsonio.algebra_to_json(alg))
    phi = str(tmp_path / "phi.json")
    jsonio.dump_json(phi, jsonio.matrix_to_json(catalog.cross_factor_phi()))

    def commands(pair):
        for name in ("sl3", "sheared"):
            for cmd in ("info", "validate", "qder", "gder", "chain"):
                yield ("lie", cmd, files[name])
            yield ("lie", "dspace", files[name], "--alpha", "1", "--beta", "1", "--gamma", "0", "--basis")
        yield ("postlie", "split", files["sl3"], "--left", "6,7,0,1,3", "--right", "2,4,5", "-o", pair)
        yield ("postlie", "verify", pair)
        yield ("postlie", "phi", files["double"], phi)
        yield ("postlie", "adz", files["sl4"], "--z", ",".join(["0"] * 15), "--lambda", "-1")

    free_pair, trapped_pair = str(tmp_path / "free.json"), str(tmp_path / "trapped.json")
    expected = [run(capsys, *argv)[:2] for argv in commands(free_pair)]
    assert all(code == 0 for code, _ in expected)

    def trap(self):
        raise AssertionError("a command read a dense tensor view")

    monkeypatch.setattr(LieAlgebra, "c", property(trap))
    monkeypatch.setattr(BilinearProduct, "p", property(trap))
    with pytest.raises(AssertionError, match="dense tensor view"):
        sl3.c
    assert [run(capsys, *argv)[:2] for argv in commands(trapped_pair)] == expected
    with open(free_pair) as free, open(trapped_pair) as trapped:
        assert free.read() == trapped.read()


def test_solves_build_no_dense_subspace_rows(capsys, monkeypatch, tmp_path):
    """``lie chain``, ``lie info``, ``lie qder``, ``lie gder`` and ``lie dspace``
    without ``--basis`` work on the kernel's integer rows alone, their oracle too:
    with the dense basis view and the dense identity replaced by traps, they print
    the same."""
    files = []
    for name, alg in (
        ("sl3", catalog.get("sl3").algebra),
        ("heisenberg", catalog.get("heisenberg").algebra),
        ("double", catalog.get("sl2+sl2").algebra),
        ("sheared", change_basis(catalog.get("sl3").algebra, golden.shear(8))),
    ):
        files.append(str(tmp_path / f"{name}.json"))
        jsonio.dump_json(files[-1], jsonio.algebra_to_json(alg))
    commands = [("lie", cmd, path) for path in files for cmd in ("chain", "info", "qder", "gder")]
    for path in files:
        commands.append(("lie", "dspace", path, "--alpha", "1", "--beta", "1", "--gamma", "1"))
        commands.append(("lie", "dspace", path, "--alpha", "1/2", "--beta", "1", "--gamma", "-1/3"))
    expected = [run(capsys, *argv)[:2] for argv in commands]
    assert all(code == 0 for code, _ in expected)

    def trap(*args):
        raise AssertionError("a solve built a dense view")

    monkeypatch.setattr(Subspace, "basis_vectors", trap)
    monkeypatch.setattr(Matrix, "identity", trap)
    with pytest.raises(AssertionError, match="dense view"):
        Subspace.full(2).basis_vectors()
    assert [run(capsys, *argv)[:2] for argv in commands] == expected


def test_a_doctored_space_is_reported_unverified(capsys, monkeypatch, tmp_path):
    """``verified`` comes from substituting the space the solve returns: with the
    solves patched to return the true space with one stored row changed, ``lie
    dspace``, ``lie qder`` and ``lie gder`` report ``verified: false`` and exit 1."""
    W = derivations.DerivationWeights.of
    weight_sets = ((1, 1, 1), (Fraction(1, 2), 1, 1), (1, 1, 0))
    for name, alg in (
        ("sl3", catalog.get("sl3").algebra),
        ("sheared", change_basis(catalog.get("sl3").algebra, golden.shear(8))),
    ):
        path = str(tmp_path / f"{name}.json")
        jsonio.dump_json(path, jsonio.algebra_to_json(alg))
        commands = [("lie", "qder", path), ("lie", "gder", path)]
        for a, b, g in weight_sets:
            commands.append(("lie", "dspace", path, "--alpha", str(a), "--beta", str(b), "--gamma", str(g)))
        assert [run(capsys, *argv)[0] for argv in commands] == [0] * len(commands)

        bad = {W(*w): golden.doctored(derivations.dspace(alg, W(*w))) for w in weight_sets}
        q, t = derivations.qder_pairs(alg), derivations.gder_triples(alg)
        q_bad = derivations.QuasiDerivationResult(golden.doctored(q.pair_space), q.phi_projection)
        t_bad = derivations.GeneralizedDerivationResult(golden.doctored(t.triple_space), t.phi_projection)
        with monkeypatch.context() as m:
            m.setattr(derivations, "dspace", lambda l, weights: bad[weights])
            m.setattr(derivations, "qder_pairs", lambda l: q_bad)
            m.setattr(derivations, "gder_triples", lambda l: t_bad)
            for argv in commands:
                code, doc, _ = run_json(capsys, *argv)
                assert (code, doc["verified"]) == (1, False), argv


def test_an_unprintable_result_exits_2(capsys, sl2_file):
    """An output integer past the interpreter's digit limit for printing is a clean
    exit 2 with empty stdout, not a traceback."""
    big = "9" * 4200
    code, out, err = run(capsys, "postlie", "adz", sl2_file, f"--z={big},{big},{big}", "--lambda", f"{big}/7")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"over {sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lam", ["N/17", "1/N"])
def test_an_unprintable_fraction_exits_2(capsys, sl3_file, lam):
    """A result whose p/q string passes the digit limit is formatted inside the
    handler, before the dump; it is the same clean exit 2."""
    big = "9" * 4200
    z = ",".join([big] + ["0"] * 7)
    code, out, err = run(capsys, "postlie", "adz", sl3_file, f"--z={z}", "--lambda", lam.replace("N", big))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"over {sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err


def test_other_value_errors_are_not_caught(monkeypatch, sl2_file):
    """Only the digit-limit ValueError is mapped to exit 2; any other one is a bug."""

    def broken(*args):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(products, "adz_lambda", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["postlie", "adz", sl2_file, "--z=0,0,1", "--lambda", "0"])


def _readme_command_lines() -> list[list[str]]:
    """The ``lie`` and ``postlie`` lines of the README's "Command line" block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith(("lie ", "postlie "))
    ]


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    """Every documented command line exits 0 in a fresh interpreter, on the files it names."""
    monkeypatch.chdir(tmp_path)
    for name in ("sl2", "sl3"):
        assert run(capsys, "lie", "catalog", name, "-o", f"{name}.json")[0] == 0
    (tmp_path / "phi.json").write_text(json.dumps([[0] * 8] * 8))
    lines = _readme_command_lines()
    assert len(lines) == 11
    for argv in lines:
        code, _, err = run_process(*argv)
        assert code == 0, (argv, err)


# roots of backticked README names that are not postlie's: the standard library, and
# the variables of a formula
_FOREIGN_ROOTS = {"fractions", "os", "typing", "g", "pair"}


def test_readme_names_resolve():
    """Every ``module.name`` or ``Class.attr`` of postlie that README cites in backticks
    exists, so a deletion cannot leave README naming what is gone."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\(\w*\))?`", readme)
    cited = {(root, name) for root, name in names if root not in _FOREIGN_ROOTS}
    for root, name in sorted(cited):
        if root == "postlie":
            importlib.import_module(f"postlie.{name}")
        else:
            owner = importlib.import_module(f"postlie.{root}") if root.islower() else getattr(postlie, root)
            assert hasattr(owner, name), f"README cites {root}.{name}"
    assert sum(root.islower() and root != "postlie" for root, _ in cited) >= 20
