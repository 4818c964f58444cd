import json

import pytest

from postlie import catalog, jsonio
from postlie.cli import main


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


@pytest.mark.parametrize("bad", ["+0", "1_0", " 2", "\u0661"])
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
    """Lower the dimension limit to 8 and fail the test if an algebra is built.

    sln and abelian fill their tensors without ``from_brackets``; both are
    built inside ``catalog.get``, so trapping it shows nothing was allocated.
    """
    monkeypatch.setattr(jsonio, "MAX_DIM", 8)

    def trap(*args, **kwargs):
        raise AssertionError("algebra built for an over-limit catalog request")

    monkeypatch.setattr(catalog, "get", trap)
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


@pytest.mark.parametrize("name, n", [("sln", -3), ("sln", 1), ("abelian", -1)])
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


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "lie", "info", "/nonexistent/nowhere.json")
    assert code == 2


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


def test_split_bad_spans_exit_two(capsys, sl2_file):
    code, out, err = run(
        capsys, "postlie", "split", sl2_file, "--left", "0,1", "--right", "2"
    )
    assert code == 2 and "subalgebra" in err


def test_verify_split_pair(capsys, pair_file):
    code, doc, _ = run_json(capsys, "postlie", "verify", pair_file)
    assert code == 0 and doc["verified"]
    assert doc["results"]["axioms"]["ok"]
    assert doc["results"]["embedding"]["ok"]


def test_verify_doctored_pair_exits_one(capsys, tmp_path, pair_file):
    doc = json.loads(open(pair_file).read())
    for entry in doc["product"]:
        if entry["i"] == 2 and entry["j"] == 0:
            entry["v"]["6"] = 2  # perturb one product coefficient
    bad = tmp_path / "doctored.json"
    bad.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "postlie", "verify", str(bad))
    assert code == 1 and not report["verified"]
    failures = report["results"]["axioms"]["commutator_rule_failures"]
    assert failures and failures[0]["indices"] == [0, 2]


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
    assert code == 2


def test_adz_command(capsys, sl2_file):
    code, doc, _ = run_json(
        capsys, "postlie", "adz", sl2_file, "--z", "0,0,1/4", "--lambda", "-1/2"
    )
    assert code == 0 and doc["verified"]
    code, doc, _ = run_json(
        capsys, "postlie", "adz", sl2_file, "--z", "0,0,4", "--lambda", "-1/2"
    )
    assert code == 1 and not doc["verified"]


def test_adz_bad_vector_exits_two(capsys, sl2_file):
    code, out, err = run(
        capsys, "postlie", "adz", sl2_file, "--z", "0,0", "--lambda", "0"
    )
    assert code == 2 and "coordinates" in err
