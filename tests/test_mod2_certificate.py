"""The mod-2 certificate of ``linalg.int_nullspace``.

A derivation solve hands the kernel its nullity floor and the known maps that
the floor counts.  When those maps read mod 2 have rank ``floor`` and the rows
read mod 2 have rank ``ncols - floor``, the kernel is the span of the maps and
the rows are never eliminated.  The GF(2) rank is checked against sympy's; each
certified space against a solve with no floor and no maps; the gate, which
reads the maps first, against the even sl_n, whose rows it must never read;
and a wrong known map against the substitution check of ``lie gder``.  The
reports of the dense sl5, whose solves it certifies, are pinned by sha256.
"""

import hashlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

import golden
from postlie import catalog, cli, derivations, jsonio, linalg
from postlie.derivations import gder_triples, qder_pairs
from postlie.lie import change_basis
from postlie.linalg import Matrix
from test_basis_change import invertible
from test_nullity_floor import ABELIAN, FIXTURES, _floored_solves

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@st.composite
def sparse_rows(draw):
    """``(ncols, rows)``: sparse integer rows with small entries, some of them even."""
    ncols = draw(st.integers(0, 12))
    entries = st.dictionaries(st.integers(0, ncols - 1), st.integers(-4, 4).filter(bool), max_size=ncols)
    return ncols, draw(st.lists(entries if ncols else st.just({}), max_size=14))


@settings(max_examples=200, deadline=None)
@given(case=sparse_rows())
def test_rank_mod2_is_the_rank_over_gf2_and_never_above_the_rank(case):
    ncols, rows = case
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    gf2 = DomainMatrix.from_list(dense, ZZ).convert_to(GF(2)).rank() if rows and ncols else 0
    assert linalg._rank_mod2(rows) == gf2 <= linalg.int_rank(rows)


def _certified_solves(l) -> list:
    """``(label, rows, ncols, space, certified)`` of each solve of ``_floored_solves``;
    a solve is certified when no first pass took its rows."""
    passes = []
    first_pass = linalg._first_pass

    def spy(rows, *args, **kwargs):
        passes.append(rows)
        return first_pass(rows, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_first_pass", spy)
        solves = _floored_solves(l)
    return [
        (f"{golden.weight_key(weights)}/{blocks}", rows, ncols, space, all(p is not rows for p in passes))
        for weights, blocks, rows, ncols, _, _, space in solves
    ]


def _assert_certified_spaces_are_exact(l) -> set:
    """Every space, certified or not, is entrywise the kernel of a solve with no
    floor; a certified one has rows of rank ``ncols - dim`` mod 2.  Returns the
    labels of the certified solves."""
    certified = set()
    for label, rows, ncols, space, closed in _certified_solves(l):
        assert space == linalg.int_nullspace(rows, ncols), label
        if closed:
            assert linalg._rank_mod2(rows) == ncols - space.dim, label
            certified.add(label)
    return certified


# The solves each fixture certifies, labelled weights/blocks: T is 1,1,1/3 and
# the qder pairs 1,1,1/2.  Even n fails the gate wherever ad z is known; on n = 0
# every solve with a known map, though empty, is certified.
_ODD = {"1,1,1/3", "1,1,1/2", "1,1,1/1", "3,3,3/1", "1,1,0/1", "0,1,-1/1", "1,0,1/1", "2,1,1/1"}
_EMPTY = {"1,1,0/1", "0,1,-1/1", "1,0,1/1", "2,1,1/1", "0,0,0/1"}
CERTIFIED = {
    "sl2": {"1,1,0/1", "1,0,1/1"},
    "sl3": _ODD,
    "sl4": {"1,1,0/1", "1,0,1/1"},
    "r31": {"1,1,0/1", "0,1,-1/1", "1,0,1/1"},
    "sl3-shear": _ODD,
    "abelian0": _EMPTY | {"1,1,1/3", "1,1,1/2"},
    "abelian1": _EMPTY,
}


@pytest.mark.parametrize("name", [*FIXTURES, *ABELIAN])
def test_certified_spaces_equal_the_exact_kernel(name):
    certified = _assert_certified_spaces_are_exact({**FIXTURES, **ABELIAN}[name])
    assert certified == CERTIFIED.get(name, set())


@st.composite
def unimodular(draw, n: int) -> Matrix:
    """Integer elementary shears times a diagonal of signs: the inverse is integral too."""
    t = Matrix(n, n, [draw(st.sampled_from([-1, 1])) if r == s else 0 for r in range(n) for s in range(n)])
    for _ in range(draw(st.integers(n, 2 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        entries = [int(r == s) for r in range(n) for s in range(n)]
        entries[i * n + j] = draw(st.sampled_from([-2, -1, 1, 2]))
        t = Matrix(n, n, entries) * t
    return t


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_certified_spaces_equal_the_exact_kernel_after_a_rational_change_of_basis(data):
    """A rational basis scales the rows by its denominators, which reach the exact path."""
    _assert_certified_spaces_are_exact(change_basis(catalog.get("sl3").algebra, data.draw(invertible(8))))


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_an_integer_change_of_basis_keeps_what_sl3_certifies(data):
    """Over Z, and so mod 2, such a basis is an isomorphism: the certificate
    closes the same solves as in the standard basis, each to the exact kernel."""
    l = change_basis(catalog.get("sl3").algebra, data.draw(unimodular(8)))
    assert _assert_certified_spaces_are_exact(l) == CERTIFIED["sl3"]


@pytest.mark.parametrize("n", [4, 6])
def test_the_gate_keeps_even_sln_rows_from_being_read_mod_2(monkeypatch, n):
    """The scalars of sl_n are traceless mod 2 for even n, so the ad rows have
    a smaller rank mod 2 than over Q: only the known maps are read mod 2."""
    l = catalog.get("sln", n=n).algebra
    reads = []
    rank_mod2 = linalg._rank_mod2

    def spy(rows):
        reads.append(len(rows))
        return rank_mod2(rows)

    monkeypatch.setattr(linalg, "_rank_mod2", spy)
    gder_triples(l)
    qder_pairs(l)
    assert reads == [l.dim + 2, l.dim + 1]


def _write(tmp_path, name: str, l) -> str:
    path = str(tmp_path / f"{name}.json")
    jsonio.dump_json(path, jsonio.algebra_to_json(l))
    return path


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_lie_gder_on_sheared_sl3_never_eliminates_its_triple_system(tmp_path, monkeypatch):
    path = _write(tmp_path, "sl3-shear", FIXTURES["sl3-shear"])
    built, passes = [], []
    build, first_pass = derivations._identity_space, linalg._first_pass

    def build_spy(*args):
        built.append(build(*args))
        return built[-1]

    def pass_spy(rows, *args, **kwargs):
        passes.append(rows)
        return first_pass(rows, *args, **kwargs)

    monkeypatch.setattr(derivations, "_identity_space", build_spy)
    monkeypatch.setattr(linalg, "_first_pass", pass_spy)
    assert _run("lie", "gder", path)[0] == 0
    (system,) = built
    assert len(system) == 512 and all(p is not system for p in passes)


def test_a_known_map_that_is_no_solution_fails_lie_gder(tmp_path, monkeypatch):
    """2 added at entry (0, 0) of phi in ad e_0 leaves every map the same mod 2,
    so the certificate still holds and returns a wrong T of the right
    dimension; the substitution check of ``lie gder`` rejects it: exit 1."""
    path = _write(tmp_path, "sl3-shear", FIXTURES["sl3-shear"])
    solve = derivations.int_nullspace

    def mutant(rows, ncols, floor=0, known=()):
        first, *rest = known
        return solve(rows, ncols, floor, [{**first, 0: first.get(0, 0) + 2}, *rest])

    monkeypatch.setattr(derivations, "int_nullspace", mutant)
    code, out = _run("lie", "gder", path)
    assert code == 1 and '"triple_space_dim": 10' in out


def _sheared(n: int):
    """sl_n after the fixed integer shear of the ``kernel-dense`` benchmark workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    l = catalog.get("sln", n=n).algebra
    return change_basis(l, workloads.shear_matrix(l.dim))


# the reports before the certificate: exit code and sha256 of stdout
SHEARED_SL5_PINS = {
    "gder": (0, "5dbf0419819c1d55ac0b96c5f16db0116dea11bf3cba8a4932c16412ba7cc73f"),
    "chain": (0, "e482cf37af262ab7217b46cce97ede2e02afc97064a727cfc0eccdf9c61c88f2"),
}


def test_sheared_sl5_reports_are_pinned(tmp_path):
    path = _write(tmp_path, "sl5-shear", _sheared(5))
    for command, (code, digest) in SHEARED_SL5_PINS.items():
        got, out = _run("lie", command, path)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), command
