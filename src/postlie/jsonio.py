"""On-disk JSON formats for algebras, products and matrices.

Rationals serialize as bare integers or "p/q" strings.  Algebra files list
bracket entries per basis pair; a pair given in only one orientation is
completed antisymmetrically, a pair given in both orientations is loaded
verbatim so that inconsistent files remain visible to validation instead of
being silently repaired.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import combinations

from .lie import LieAlgebra
from .linalg import Matrix, parse_index, parse_rational, rational_to_json
from .products import BilinearProduct, PostLiePair, induce_g


# Largest algebra dimension a document, or `lie catalog sln|abelian --n`, may
# declare, and the most rows or columns of a matrix document.  The derivation
# solvers build constraint systems of up to n^3 rows, and the dense `c`/`p`
# views of a tensor hold n^3 entries, so a larger dimension is refused before
# anything is built.
MAX_DIM = 64


class FormatError(ValueError):
    """Malformed input file."""


def _is_index(value) -> bool:
    """A JSON integer; booleans are ints in Python but not indices here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _known_keys(obj: Mapping, keys: tuple, where: str) -> None:
    """Refuse a key the format does not define: a misspelt key would leave its default."""
    for key in obj:
        if key not in keys:
            raise FormatError(f"{where}: unknown key {key!r}")


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
        if len(item) > 2 + ("v" in item):  # a key besides 'i', 'j' and 'v'
            _known_keys(item, ("i", "j", "v"), where)
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
    _known_keys(obj, ("dim", "labels", "brackets"), "algebra document")
    dim = obj.get("dim")
    if not _is_index(dim) or dim < 0:
        raise FormatError("'dim' must be a nonnegative integer")
    if dim > MAX_DIM:
        raise FormatError(f"'dim' {dim} exceeds the limit of {MAX_DIM}")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim:
            raise FormatError("'labels' must list one name per basis vector")
        if not all(isinstance(x, str) for x in labels):
            raise FormatError("'labels' must be strings")
    entries = _bracket_entries(obj.get("brackets", []), dim, "brackets")
    return LieAlgebra.from_brackets(dim, entries, labels=labels)


def _coords_to_json(terms) -> dict:
    return {str(k): rational_to_json(v) for k, v in terms}


def algebra_to_json(l: LieAlgebra) -> dict:
    """Emit bracket entries; orientations beyond i < j appear only when needed."""
    adj = l._adj
    entries = [(i, i, adj[i][i]) for i in range(l.dim) if adj[i][i]]
    for i, j in combinations(range(l.dim), 2):
        forward = adj[i][j]
        mirrored = adj[j][i] == tuple((k, -v) for k, v in forward)
        if forward or not mirrored:
            entries.append((i, j, forward))
        if not mirrored:
            entries.append((j, i, adj[j][i]))
    doc = {
        "dim": l.dim,
        "brackets": [{"i": i, "j": j, "v": _coords_to_json(terms)} for i, j, terms in entries],
    }
    if l.labels is not None:
        doc["labels"] = list(l.labels)
    return doc


def pair_from_json(obj) -> PostLiePair:
    if not isinstance(obj, Mapping):
        raise FormatError("pair document must be an object")
    _known_keys(obj, ("n", "product", "g"), "pair document")
    if "n" not in obj:
        raise FormatError("pair document needs the base algebra under 'n'")
    n = algebra_from_json(obj["n"])
    entries = _bracket_entries(obj.get("product", []), n.dim, "product")
    prod = BilinearProduct.from_entries(n.dim, entries)
    if "g" in obj and obj["g"] is not None:
        g = algebra_from_json(obj["g"])
    else:
        g = induce_g(n, prod)
    if g.dim != n.dim:
        raise FormatError("'g' and 'n' must have the same dimension")
    return PostLiePair(g=g, n=n, prod=prod)


def pair_to_json(pair: PostLiePair) -> dict:
    product_entries = [
        {"i": i, "j": j, "v": _coords_to_json(terms)}
        for i, plane in enumerate(pair.prod._adj)
        for j, terms in enumerate(plane)
        if terms
    ]
    return {"n": algebra_to_json(pair.n), "product": product_entries, "g": algebra_to_json(pair.g)}


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, list) or not obj:
        raise FormatError("matrix document must be a non-empty list of rows")
    # every later row must match the first, so this bounds the entries parsed
    if len(obj) > MAX_DIM or (isinstance(obj[0], list) and len(obj[0]) > MAX_DIM):
        raise FormatError(f"matrix exceeds the limit of {MAX_DIM} rows and columns")
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


def _unique_keys(pairs: list) -> dict:
    """An object's members as a dict; a repeated key is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise FormatError("an object repeats a key")
    return obj


def load_json(path: str):
    """Parse a JSON file; bad syntax or UTF-8, an integer over Python's digit
    limit, too deep nesting and a repeated key all raise ``FormatError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def dump_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
