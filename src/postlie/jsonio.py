"""On-disk JSON formats for algebras, products and matrices.

Rationals serialize as bare integers or "p/q" strings.  Algebra files list
bracket entries per basis pair; a pair given in only one orientation is
completed antisymmetrically, a pair given in both orientations is loaded
verbatim so that inconsistent files remain visible to validation instead of
being silently repaired.
"""

from __future__ import annotations

import json
from typing import Mapping

from .lie import LieAlgebra
from .linalg import Matrix, parse_index, parse_rational, rational_to_json
from .products import BilinearProduct, PostLiePair, induce_g


# Largest algebra dimension a document, or `lie catalog sln|abelian --n`, may
# declare.  Building an algebra allocates the dense n^3 structure tensor, so a
# larger dimension is refused before that.
MAX_DIM = 64


class FormatError(ValueError):
    """Malformed input file."""


def _is_index(value) -> bool:
    """A JSON integer; booleans are ints in Python but not indices here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _entry_map(value, dim: int, where: str) -> dict[int, object]:
    if not isinstance(value, Mapping):
        raise FormatError(f"{where}: coordinate map must be an object")
    out = {}
    for key, raw in value.items():
        try:
            k = parse_index(key)
        except ValueError as exc:
            raise FormatError(f"{where}: bad coordinate index {key!r}") from exc
        if not 0 <= k < dim:
            raise FormatError(f"{where}: coordinate index {k} out of range")
        try:
            out[k] = parse_rational(raw)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return out


def _bracket_entries(raw, dim: int, what: str) -> dict[tuple[int, int], dict]:
    if not isinstance(raw, list):
        raise FormatError(f"{what} must be a list of entries")
    entries: dict[tuple[int, int], dict] = {}
    for pos, item in enumerate(raw):
        where = f"{what}[{pos}]"
        if not isinstance(item, Mapping) or "i" not in item or "j" not in item:
            raise FormatError(f"{where}: entry needs 'i', 'j' and 'v'")
        i, j = item["i"], item["j"]
        if not _is_index(i) or not _is_index(j):
            raise FormatError(f"{where}: indices must be integers")
        if not (0 <= i < dim and 0 <= j < dim):
            raise FormatError(f"{where}: pair ({i}, {j}) out of range for dim {dim}")
        if (i, j) in entries:
            raise FormatError(f"{where}: duplicate pair ({i}, {j})")
        entries[(i, j)] = _entry_map(item.get("v", {}), dim, where)
    return entries


def algebra_from_json(obj) -> LieAlgebra:
    if not isinstance(obj, Mapping):
        raise FormatError("algebra document must be an object")
    dim = obj.get("dim")
    if not _is_index(dim) or dim < 0:
        raise FormatError("'dim' must be a nonnegative integer")
    if dim > MAX_DIM:
        raise FormatError(f"'dim' {dim} exceeds the limit of {MAX_DIM}")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim:
            raise FormatError("'labels' must list one name per basis vector")
        labels = [str(x) for x in labels]
    entries = _bracket_entries(obj.get("brackets", []), dim, "brackets")
    return LieAlgebra.from_brackets(dim, entries, labels=labels, fill_antisymmetric=True)


def algebra_to_json(l: LieAlgebra) -> dict:
    """Emit bracket entries; orientations beyond i < j appear only when needed."""
    entries = []
    for i in range(l.dim):
        row = {k: v for k, v in enumerate(l.c[i][i]) if v}
        if row:
            entries.append((i, i, row))
    for i in range(l.dim):
        for j in range(i + 1, l.dim):
            forward = {k: v for k, v in enumerate(l.c[i][j]) if v}
            mirrored = all(
                l.c[j][i][k] == -l.c[i][j][k] for k in range(l.dim)
            )
            if forward or not mirrored:
                entries.append((i, j, forward))
            if not mirrored:
                backward = {k: v for k, v in enumerate(l.c[j][i]) if v}
                entries.append((j, i, backward))
    doc = {
        "dim": l.dim,
        "brackets": [
            {"i": i, "j": j, "v": {str(k): rational_to_json(v) for k, v in sorted(vals.items())}}
            for i, j, vals in entries
        ],
    }
    if l.labels is not None:
        doc["labels"] = list(l.labels)
    return doc


def pair_from_json(obj) -> PostLiePair:
    if not isinstance(obj, Mapping):
        raise FormatError("pair document must be an object")
    if "n" not in obj:
        raise FormatError("pair document needs the base algebra under 'n'")
    n = algebra_from_json(obj["n"])
    entries = _bracket_entries(obj.get("product", []), n.dim, "product")
    prod = BilinearProduct.from_entries(n.dim, entries)
    if "g" in obj and obj["g"] is not None:
        g = algebra_from_json(obj["g"])
    else:
        g, _ = induce_g(n, prod)
    if g.dim != n.dim:
        raise FormatError("'g' and 'n' must have the same dimension")
    return PostLiePair(g=g, n=n, prod=prod)


def pair_to_json(pair: PostLiePair, include_g: bool = True) -> dict:
    product_entries = []
    for i in range(pair.dim):
        for j in range(pair.dim):
            coords = {k: v for k, v in enumerate(pair.prod.p[i][j]) if v}
            if coords:
                product_entries.append(
                    {
                        "i": i,
                        "j": j,
                        "v": {str(k): rational_to_json(v) for k, v in sorted(coords.items())},
                    }
                )
    doc = {"n": algebra_to_json(pair.n), "product": product_entries}
    if include_g:
        doc["g"] = algebra_to_json(pair.g)
    return doc


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, list) or not obj:
        raise FormatError("matrix document must be a non-empty list of rows")
    rows = []
    width = None
    for pos, raw_row in enumerate(obj):
        if not isinstance(raw_row, list):
            raise FormatError(f"row {pos} must be a list")
        if width is None:
            width = len(raw_row)
        elif len(raw_row) != width:
            raise FormatError(f"row {pos} has {len(raw_row)} entries, expected {width}")
        try:
            rows.append([parse_rational(x) for x in raw_row])
        except ValueError as exc:
            raise FormatError(f"row {pos}: {exc}") from exc
    return Matrix.from_rows(rows)


def matrix_to_json(m: Matrix) -> list:
    return [[rational_to_json(x) for x in m.row(i)] for i in range(m.rows)]


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def dump_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
