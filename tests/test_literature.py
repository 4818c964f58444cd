"""Dimensions and spaces known from the literature, on sl4 and sl5.

For a simple Lie algebra over a field of characteristic zero every
derivation is inner and the centroid is the scalars.  For sl_n with n >= 3,
Leger and Luks (Generalized derivations of Lie algebras, J. Algebra 228,
2000) show that generalized derivations and quasiderivations both reduce to
Der + C, so the phi projections of the two spaces agree and have dimension
n^2.
"""

import json

import pytest

from golden import identity_span
from postlie import catalog, jsonio
from postlie.cli import main
from postlie.derivations import (
    DerivationWeights,
    ad_span,
    dspace,
    gder_triples,
    qder_pairs,
)

W = DerivationWeights.of
SIZES = (4, 5)


@pytest.fixture(scope="module", params=SIZES, ids=[f"sl{n}" for n in SIZES])
def sln(request):
    return request.param, catalog.get("sln", n=request.param).algebra


def test_derivations_are_inner(sln):
    n, alg = sln
    der = dspace(alg, W(1, 1, 1))
    assert der.dim == n * n - 1
    assert der == ad_span(alg)


def test_centroid_is_the_scalars(sln):
    n, alg = sln
    centroid = dspace(alg, W(1, 1, 0))
    assert centroid.dim == 1
    assert centroid == identity_span(n * n - 1)


def test_generalized_and_quasi_phi_parts_agree(sln):
    n, alg = sln
    quasi = qder_pairs(alg).phi_projection
    general = gder_triples(alg).phi_projection
    assert general == quasi
    assert quasi.dim == n * n
    assert quasi == ad_span(alg) + identity_span(n * n - 1)


def _indices(space) -> str:
    return ",".join(str(next(i for i, x in enumerate(v) if x)) for v in space.basis_vectors())


def test_cli_split_and_verify_sl5(capsys, tmp_path):
    alg_path = tmp_path / "sl5.json"
    pair_path = tmp_path / "sl5-pair.json"
    jsonio.dump_json(str(alg_path), jsonio.algebra_to_json(catalog.get("sln", n=5).algebra))
    left, right = catalog.triangular_split(5, "b+|n-")
    code = main(
        ["postlie", "split", str(alg_path), "--left", _indices(left), "--right", _indices(right),
         "-o", str(pair_path)]
    )
    split_report = json.loads(capsys.readouterr().out)
    assert code == 0 and split_report["verified"]
    code = main(["postlie", "verify", str(pair_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verified"] is True
    assert report["inputs"] == {"dim": 24}
    assert report["results"]["embedding"]["ok"]
