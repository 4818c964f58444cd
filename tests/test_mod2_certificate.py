"""The mod-2 certificate of the derivation solves.

A derivation solve counts its nullity floor and the known maps that the floor
counts.  When those maps read mod 2 have rank ``floor`` and the rows read mod 2
have rank ``ncols - floor``, the kernel is the span of the maps and the rows are
never eliminated.  ``derivations._solve`` reads the rows mod 2 as the bitsets of
``_identity_parity``, and reads the integer rows mod 2 only where they alone can
reach the rank.  The GF(2) rank is checked against sympy's; each
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
from test_nullity_floor import ABELIAN, FIXTURES, FLOOR_WEIGHTS, _floored_solves

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
    a solve is certified when no first pass took the integer rows it built, if any."""
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
        for weights, blocks, rows, ncols, _, _, space, _ in solves
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
    a smaller rank mod 2 than over Q: only the ad rows, for the floor, and the
    known maps are read mod 2, and no bitset of the constraint rows is built."""
    l = catalog.get("sln", n=n).algebra
    reads, parities = [], []
    rank_mod2, parity = linalg._rank_mod2, derivations._identity_parity

    def spy(rows):
        reads.append(len(rows))
        return rank_mod2(rows)

    def parity_spy(*args):
        parities.append(args)
        return parity(*args)

    monkeypatch.setattr(derivations, "_rank_mod2", spy)
    monkeypatch.setattr(linalg, "_rank_mod2", spy)
    monkeypatch.setattr(derivations, "_identity_parity", parity_spy)
    gder_triples(l)
    qder_pairs(l)
    assert reads == [l.dim, l.dim + 2, l.dim, l.dim + 1] and parities == []


@pytest.mark.parametrize("n", [4, 6])
def test_an_even_alpha_keeps_a_centre_mod_2_from_building_bitsets(monkeypatch, n):
    """The scalar matrix is central in sl_n mod 2 for even n, and with alpha even every map
    into its line solves the rows mod 2: n of them against a floor of 1, so the one-block
    spaces whose only known map is id never build their bitsets."""
    l = catalog.get("sln", n=n).algebra
    parities = []
    parity = derivations._identity_parity
    monkeypatch.setattr(derivations, "_identity_parity", lambda *args: parities.append(args) or parity(*args))
    for w in [(0, 1, -1), (2, 1, 1)]:
        weights = derivations.DerivationWeights.of(*w)
        floor, known = derivations._known_maps(l, weights, 1)
        assert floor == len(known) == 1 and linalg._rank_mod2(known) == 1
        derivations.dspace(l, weights)
    assert parities == []


@pytest.mark.parametrize("name", [*FIXTURES, *ABELIAN])
def test_a_centre_mod_2_skips_only_what_the_bitsets_cannot_certify(name):
    """Where alpha is even and n has a centre mod 2, the bitsets of every solve whose
    blocks n exceed its floor fall short of ``ncols - floor``, and so do its integer rows
    read mod 2, whose even units are {c: 1}: the skip of both loses nothing."""
    l = {**FIXTURES, **ABELIAN}[name]
    n = l.dim
    ad = [[row.get(c, 0) for c in range(n * n)] for row in derivations._ad_rows(l)]
    centre = n > 0 and DomainMatrix.from_list(ad, ZZ).convert_to(GF(2)).rank() < n
    for w in FLOOR_WEIGHTS:
        weights = derivations.DerivationWeights.of(*w)
        for blocks in (1, 2, 3):
            floor, _ = derivations._known_maps(l, weights, blocks)
            if derivations._integer_weights(weights)[0] % 2 or blocks * n <= floor or not centre:
                continue
            rank = linalg._rank_bits(derivations._identity_parity(l, weights, blocks))
            assert rank < blocks * n * n - floor, (golden.weight_key(weights), blocks)
            rank = linalg._rank_mod2(derivations._identity_space(l, weights, blocks)[0])
            assert rank < blocks * n * n - floor, (golden.weight_key(weights), blocks)


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
    """The triple system is read mod 2 straight from the tensor: of its 512 rows
    30 are even and left out, no integer row is built, and no pass takes it."""
    path = _write(tmp_path, "sl3-shear", FIXTURES["sl3-shear"])
    built, passes = [], []
    parity, first_pass = derivations._identity_parity, linalg._first_pass

    def build_spy(*args):
        built.append(parity(*args))
        return built[-1]

    def exact_trap(*args):
        raise AssertionError("an integer constraint row was built")

    def pass_spy(rows, *args, **kwargs):
        passes.append(rows)
        return first_pass(rows, *args, **kwargs)

    monkeypatch.setattr(derivations, "_identity_parity", build_spy)
    monkeypatch.setattr(derivations, "_identity_space", exact_trap)
    monkeypatch.setattr(linalg, "_first_pass", pass_spy)
    assert _run("lie", "gder", path)[0] == 0
    (system,) = built
    assert len(system) == 512 - 30 and all(p is not system for p in passes)


def test_a_known_map_that_is_no_solution_fails_lie_gder(tmp_path, monkeypatch):
    """2 added at entry (0, 0) of phi in ad e_0 leaves every map the same mod 2,
    so the certificate still holds and returns a wrong T of the right
    dimension; the substitution check of ``lie gder`` rejects it: exit 1."""
    path = _write(tmp_path, "sl3-shear", FIXTURES["sl3-shear"])
    known_maps = derivations._known_maps

    def mutant(*args):
        floor, (first, *rest) = known_maps(*args)
        return floor, [{**first, 0: first.get(0, 0) + 2}, *rest]

    monkeypatch.setattr(derivations, "_known_maps", mutant)
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
