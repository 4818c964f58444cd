"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402
from postlie import catalog, cli, jsonio  # noqa: E402


def _span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, "0:x", attrs]


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert spans.union_length([], 0, 10) == 0
    assert spans.union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_children_only():
    synthetic = [
        _span("cli.main", 0.0, 10.0),
        _span("derivations.dspace", 1.0, 3.0, parent=0),
        _span("linalg.nullspace", 2.0, 5.0, parent=0),  # overlaps its sibling
        _span("kernel.reduce_int_rows", 2.5, 4.0, parent=2),
        _span("lie.LieAlgebra.bracket", 8.0, 12.0, parent=0),  # runs past its parent
    ]
    selfs = spans.self_times(synthetic)
    # children of cli.main cover [1, 5] and [8, 10]; the grandchild is not subtracted
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(1.5)


def test_scope_metrics_layers_and_uncovered_time():
    synthetic = [
        _span("cli.main", 0.0, 10.0),
        _span("derivations.dspace", 1.0, 6.0, parent=0, attrs={"n": 2}),
        _span("linalg.nullspace", 2.0, 5.0, parent=1, attrs={"rows": 4, "cols": 4, "nnz": 4}),
        _span("kernel.reduce_int_rows", 3.0, 4.0, parent=2,
              attrs={"rows": 4, "nnz": 4, "rank": 3, "max_bits": 5}),
    ]
    selfs = spans.self_times(synthetic)
    m = spans.scope_metrics(synthetic, selfs, range(len(synthetic)), wall=12.0)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["derivations.self_s"] == pytest.approx(2.0)
    assert m["derivations.build_self_s"] == pytest.approx(2.0)
    assert m["linalg.nullspace_self_s"] == pytest.approx(2.0)
    assert m["kernel.self_s"] == pytest.approx(1.0)
    assert m["trace.uncovered_s"] == pytest.approx(2.0)
    assert m["derivations.rows_kept_ratio"] == pytest.approx(4 / 8)
    assert m["linalg.nullspace_density"] == pytest.approx(4 / 16)
    assert m["kernel.rank_per_row"] == pytest.approx(3 / 4)
    assert m["kernel.max_bits_out"] == 5


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_recorded_fingerprint_passes_and_corrupted_one_fails(tmp_path):
    path = str(tmp_path / "heisenberg.json")
    jsonio.dump_json(path, jsonio.algebra_to_json(catalog.get("heisenberg").algebra))
    code, out = _run_cli(["lie", "chain", path])
    expected = workloads.load_expected()["derive-std"]["chain-heisenberg"]
    assert workloads.check(expected, code, out) is None

    digest = expected["sha256"]
    corrupted = dict(expected, sha256=("0" if digest[0] != "0" else "1") + digest[1:])
    assert "sha256" in workloads.check(corrupted, code, out)
    assert "exit code" in workloads.check(dict(expected, exit=1), code, out)


def test_sheared_results_check_holds_and_detects_changed_results(tmp_path):
    commands = workloads.setup("kernel-dense", str(tmp_path), seed=5)
    cid, argv = next(c for c in commands if c[0] == "gder")
    code, out = _run_cli(argv)
    expected = workloads.load_expected()["kernel-dense"][cid]
    assert workloads.check(expected, code, out) is None

    changed = dict(expected, results=dict(expected["results"], phi_dim=8))
    assert "results" in workloads.check(changed, code, out)


def test_sign_flips_keep_magnitudes_of_the_shear():
    a = catalog.get("sl3").algebra
    t = workloads.shear_matrix(a.dim)
    one = workloads.lie.change_basis(a, t * workloads.sign_matrix(a.dim, 1))
    two = workloads.lie.change_basis(a, t * workloads.sign_matrix(a.dim, 2))
    mags = [sorted(abs(x) for plane in alg.c for row in plane for x in row) for alg in (one, two)]
    assert mags[0] == mags[1]
