"""Fuzzed JSON documents through the command line.

Algebra and pair documents, well formed or not, are written to a file and run
through ``lie info``, ``lie validate`` and ``postlie verify``.  Whatever the
document, ``main`` must return an exit code in {0, 1, 2} and raise nothing.
The dimension limit is lowered for the run, so that some documents exceed it
without a large tensor ever being allocated; those must exit with code 2.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie import jsonio
from postlie.cli import main

LIMIT = 4

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
rationals = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
        lambda q: f"{q.numerator}/{q.denominator}"
    ),
)
bad_rationals = st.one_of(st.sampled_from(["1/0", "+1", "1_0", "-1/-2", "3/ 4", "x", ""]), junk)
bad_keys = st.one_of(st.sampled_from(["-1", " 1", "+1", "a", "", "1.0"]), st.integers(LIMIT + 1, 9).map(str))
bad_indices = st.one_of(st.integers(-2, -1), st.integers(LIMIT + 1, LIMIT + 2), junk)


def entries(dim: int):
    """Well-formed bracket or product entries for dimension ``dim``."""
    if dim == 0:
        return st.just([])
    index = st.integers(0, dim - 1)
    coords = st.dictionaries(index.map(str), rationals, max_size=2)
    entry = st.builds(lambda i, j, v: {"i": i, "j": j, "v": v}, index, index, coords)
    return st.lists(entry, max_size=6, unique_by=lambda e: (e["i"], e["j"]))


@st.composite
def broken(draw, doc: dict, field: str):
    """``doc`` with one defect in ``field`` (a list of entries), or unchanged."""
    kind = draw(st.sampled_from(["none"] * 5 + ["entry", "index", "key", "value", "list"]))
    if kind == "list":
        doc[field] = draw(junk)
    elif kind != "none":
        entry = {"i": 0, "j": 0, "v": {"0": 1}}
        if kind == "entry":
            entry = draw(st.one_of(junk, st.just({"i": 0}), st.just({"i": 0, "j": 0, "v": []})))
        elif kind == "index":
            entry[draw(st.sampled_from("ij"))] = draw(bad_indices)
        elif kind == "key":
            entry["v"] = {draw(bad_keys): 1}
        else:
            entry["v"] = {"0": draw(bad_rationals)}
        doc[field] = doc[field] + [entry]
    return doc


@st.composite
def algebra_documents(draw, dim=None):
    """Mostly well-formed algebras of dimension at most LIMIT, some with one defect."""
    if dim is None:
        dim = draw(st.integers(0, LIMIT))
    doc = {"dim": dim, "brackets": draw(entries(dim))}
    if draw(st.booleans()):
        doc["labels"] = [f"e{t}" for t in range(dim)]
    kind = draw(st.sampled_from(["none"] * 6 + ["brackets", "over", "dim", "no dim", "labels", "junk"]))
    if kind == "brackets":
        doc = draw(broken(doc, "brackets"))
    elif kind == "over":
        doc["dim"] = draw(st.integers(LIMIT + 1, LIMIT + 3))
    elif kind == "dim":
        doc["dim"] = draw(st.one_of(st.just(-1), junk))
    elif kind == "no dim":
        del doc["dim"]
    elif kind == "labels":
        doc["labels"] = draw(st.one_of(junk, st.just(["x"] * (dim + 1))))
    elif kind == "junk":
        return draw(junk)
    return doc


@st.composite
def pair_documents(draw):
    """Pairs over a mostly well-formed base algebra, with or without 'g'."""
    dim = draw(st.integers(0, LIMIT))
    n = draw(algebra_documents(dim))
    doc = draw(broken({"n": n, "product": draw(entries(dim))}, "product"))
    g = draw(st.sampled_from(["induced", "same", "other", "null"]))
    if g == "same":
        doc["g"] = draw(algebra_documents(dim))
    elif g == "other":
        doc["g"] = draw(algebra_documents())
    elif g == "null":
        doc["g"] = None
    kind = draw(st.sampled_from(["none"] * 10 + ["n", "product", "junk"]))
    if kind == "junk":
        return draw(junk)
    if kind != "none":
        del doc[kind]
    return doc


def _over_limit(doc) -> bool:
    dim = doc.get("dim") if isinstance(doc, dict) else None
    return isinstance(dim, int) and not isinstance(dim, bool) and dim > LIMIT


@pytest.fixture(scope="module")
def docfile(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _run(path, doc, *argv) -> int:
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "MAX_DIM", LIMIT)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        json.loads(out.getvalue())
    return code


@given(algebra_documents())
@settings(max_examples=100, deadline=None)
def test_algebra_documents(docfile, doc):
    for command in ("info", "validate"):
        code = _run(docfile, doc, "lie", command)
        if _over_limit(doc):
            assert code == 2


@given(pair_documents())
@settings(max_examples=100, deadline=None)
def test_pair_documents(docfile, doc):
    code = _run(docfile, doc, "postlie", "verify")
    if isinstance(doc, dict) and (_over_limit(doc.get("n")) or _over_limit(doc.get("g"))):
        assert code == 2
