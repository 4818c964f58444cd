"""Pinned canonical bases of the named spaces, for entrywise regression checks.

``golden_bases.json`` holds, for every catalog fixture and for sl3 under a
fixed integer shear and under a fixed rational change of basis:

- the weighted derivation space ``dspace`` for every weight set in ``WEIGHTS``
- the quasiderivation pair space and its phi projection
- the generalized derivation triple space and its phi projection
- the commutant of the adjoint operators

Each space is stored as its ambient dimension and its reduced row-echelon
basis, one sparse row per basis vector: a list of ``[column, value]`` pairs
with values in the serialized rational form.  Regenerate the file only when a
change of the canonical bases is intended:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from postlie import catalog
from postlie.derivations import (
    DerivationWeights,
    _commutant_space,
    dspace,
    gder_triples,
    qder_pairs,
)
from postlie.lie import LieAlgebra, change_basis
from postlie.linalg import Matrix, Subspace, rational_to_json

PATH = Path(__file__).with_name("golden_bases.json")

WEIGHTS = (
    (1, 1, 1),
    (1, 1, 0),
    (0, 1, -1),
    (1, 1, -1),
    (1, 0, 0),
    (0, 0, 0),
    (Fraction(1, 2), 1, 1),
    (2, 3, Fraction(-1, 3)),
)

# elementary operations (i, j, c): add c times basis column j to column i
_SHEAR_STEPS = ((0, 3, 1), (2, 5, -2), (4, 1, 1), (7, 0, 2), (5, 6, -1), (1, 7, 1), (3, 2, 2), (6, 4, -1))
_RATIONAL_STEPS = ((1, 0, Fraction(1, 2)), (3, 6, Fraction(-2, 3)), (7, 2, Fraction(3, 4)), (5, 4, 2))
_RATIONAL_DIAGONAL = (1, Fraction(1, 2), 2, -1, Fraction(3, 2), 1, Fraction(-2, 3), 1)


def _elementary(n: int, steps) -> Matrix:
    t = Matrix.identity(n)
    for i, j, c in steps:
        entries = [Fraction(int(r == s)) for r in range(n) for s in range(n)]
        entries[j * n + i] = Fraction(c)
        t = t * Matrix(n, n, entries)
    return t


def shear(n: int) -> Matrix:
    """A fixed unimodular integer matrix: products of elementary shears."""
    return _elementary(n, _SHEAR_STEPS)


def rational_basis_change(n: int) -> Matrix:
    """A fixed invertible rational matrix: rational shears times a diagonal."""
    diagonal = Matrix(
        n, n, [Fraction(_RATIONAL_DIAGONAL[r]) if r == s else 0 for r in range(n) for s in range(n)]
    )
    return _elementary(n, _RATIONAL_STEPS) * diagonal


def fixtures() -> dict[str, LieAlgebra]:
    sl3 = catalog.get("sl3").algebra
    return {
        "sl2": catalog.get("sl2").algebra,
        "sl3": sl3,
        "sl4": catalog.get("sln", n=4).algebra,
        "sl2+sl2": catalog.get("sl2+sl2").algebra,
        "r31": catalog.get("r31").algebra,
        "heisenberg": catalog.get("heisenberg").algebra,
        "abelian3": catalog.get("abelian", n=3).algebra,
        "sl3-shear": change_basis(sl3, shear(8)),
        "sl3-rational": change_basis(sl3, rational_basis_change(8)),
    }


def weight_key(weights) -> str:
    return ",".join(str(Fraction(w)) for w in weights)


def encode(space: Subspace) -> list:
    rows = [
        [[j, rational_to_json(x)] for j, x in enumerate(row) if x]
        for row in space.basis_vectors()
    ]
    return [space.ambient_dim, rows]


def named_bases(l: LieAlgebra) -> dict[str, list]:
    out = {}
    for w in WEIGHTS:
        out[f"dspace {weight_key(w)}"] = encode(dspace(l, DerivationWeights.of(*w)))
    q = qder_pairs(l)
    out["qder pairs"] = encode(q.pair_space)
    out["qder phi"] = encode(q.phi_projection)
    g = gder_triples(l)
    out["gder triples"] = encode(g.triple_space)
    out["gder phi"] = encode(g.phi_projection)
    out["commutant"] = encode(_commutant_space(l))
    return out


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> None:
    lines = []
    for name, alg in fixtures().items():
        for space, value in named_bases(alg).items():
            lines.append(f"{json.dumps(name + ' / ' + space)}: {json.dumps(value, separators=(',', ':'))}")
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
