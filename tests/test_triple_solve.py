"""The one generalized-derivation solve per report, and the spaces sliced from it.

``named_spaces``, ``verify_chain`` and ``case_table`` solve the triple system
once and slice every other space they need from the stored basis of its
solution T, each distinct space once (``_slicer``).  A sliced space must
equal, entrywise, the space solved from its own constraint rows (``dspace``,
``qder_pairs`` and ``_identity_space``), which stay the reference, and must
pass the residual oracle ``members_verified``, which shares no code with the
slice.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd

import pytest

from golden import COMMUTANT, WEIGHTS, fixtures, identity_rows, weight_key
from postlie import catalog, cli, derivations, jsonio, linalg
from postlie.derivations import (
    DerivationWeights,
    SystemTooLarge,
    _identity_space,
    _slice,
    case_table,
    dspace,
    gder_triples,
    members_verified,
    named_spaces,
    qder_pairs,
    verify_chain,
)
from postlie.lie import LieAlgebra
from postlie.linalg import Subspace
from test_mod2_certificate import _sheared

FIXTURES = fixtures()
UNIT = DerivationWeights.of(1, 1, 1)
ODD = (Fraction(1, 2), 1, Fraction(-1, 3))
FOLD_WEIGHTS = WEIGHTS + (ODD,)


# -- slice equals direct build ---------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fold_equals_the_direct_build(name):
    l = FIXTURES[name]
    nn = l.dim * l.dim
    triples = gder_triples(l)
    t = triples.triple_space
    for w in FOLD_WEIGHTS:
        weights = DerivationWeights.of(*w)
        assert _slice(t, l.dim, weights, 1) == dspace(l, weights), weight_key(w)
    assert _slice(t, l.dim, COMMUTANT, 1) == dspace(l, COMMUTANT)
    assert _slice(t, l.dim, UNIT, 2) == qder_pairs(l).pair_space
    # the unit slice over three blocks has no condition and no scale: it is T
    assert _slice(t, l.dim, UNIT, 3) == t
    assert triples == gder_triples(l)
    # weighted pairs and triples: the layout of ``_roles`` on both sides
    odd = DerivationWeights.of(*ODD)
    for blocks in (2, 3):
        direct = linalg.int_nullspace(_identity_space(l, odd, blocks)[0], blocks * nn)
        assert _slice(t, l.dim, odd, blocks) == direct, blocks


@pytest.mark.parametrize("name", ["sl2", "heisenberg", "sl3"])
def test_a_free_block_joins_the_one_elimination(monkeypatch, name):
    """D(0,0,0) has no weighted role, so its one block is free: End(n), from one
    kernel call on the conditions, the image and the unit rows together."""
    l = catalog.get(name).algebra
    t = gder_triples(l).triple_space
    calls = []
    kernel = linalg.reduce_int_rows
    monkeypatch.setattr(linalg, "reduce_int_rows", lambda rows: calls.append(1) or kernel(rows))
    assert _slice(t, l.dim, DerivationWeights.of(0, 0, 0), 1) == Subspace.full(l.dim * l.dim)
    assert len(calls) == 1


def _canonical_first_occurrences(rows: list) -> list:
    """Each row divided by its content with a positive leading entry, repeats dropped."""
    seen, out = set(), []
    for row in rows:
        content = gcd(*row.values())
        if row[min(row)] < 0:
            content = -content
        key = tuple((c, v // content) for c, v in sorted(row.items()))
        if key not in seen:
            seen.add(key)
            out.append(dict(key))
    return out


@pytest.mark.parametrize("name", FIXTURES)
def test_row_builder_emits_the_reference_rows(name):
    """The builder's rows hold no zero entry; made primitive with a positive leading
    entry and kept at their first occurrence, they are, in order, the rows of the
    reference builder in ``golden``."""
    l = FIXTURES[name]
    for w in FOLD_WEIGHTS + ((1, 0, 1), (0, 1, 1), (1, 1, 1)):
        weights = DerivationWeights.of(*w)
        for blocks in (1, 2, 3):
            rows, _ = _identity_space(l, weights, blocks)
            assert all(row and all(row.values()) for row in rows), w
            assert _canonical_first_occurrences(rows) == identity_rows(l, weights, blocks), w


# -- slices against the residual oracle -------------------------------------------------

CASE_DELTAS = (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)
# the chain's spaces, the commutant of ``named_spaces`` and every space of a nine-delta case table
ORACLE_WEIGHTS = tuple(
    dict.fromkeys(
        [(1, 1, 1), (1, 1, 0), (0, 1, -1), (1, 0, 1)]
        + [(0, 0, 0), (1, 0, 0), (1, 1, -1), (0, 1, 0), (0, 1, 1)]
        + [w for d in CASE_DELTAS for w in ((d, 1, 1), (d, 1, 0), (2 * d, 1, 1))]
    )
)


@pytest.mark.parametrize("name", FIXTURES)
def test_every_slice_passes_the_oracle(name):
    l = FIXTURES[name]
    t = gder_triples(l).triple_space
    for w in ORACLE_WEIGHTS:
        weights = DerivationWeights.of(*w)
        assert members_verified(l, _slice(t, l.dim, weights, 1), weights), weight_key(w)
    assert members_verified(l, _slice(t, l.dim, UNIT, 2), UNIT)


def _swap_sigma_tau(t: Subspace, nn: int) -> Subspace:
    """T with its sigma and tau blocks exchanged."""
    block = (0, 2, 1)  # where phi, sigma and tau go
    rows = [{block[c // nn] * nn + c % nn: v for c, v in row.items()} for row in t._rows]
    return Subspace._from_int_rows(rows, 3 * nn)


@pytest.mark.parametrize("name", ["sl3", "heisenberg"])
def test_the_oracle_rejects_mutated_slices(name):
    """A slice taken with one weight and checked with another, and a slice of T
    with its sigma and tau blocks swapped, differ from the true space and fail."""
    l = FIXTURES[name]
    n = l.dim
    t = gder_triples(l).triple_space
    der, centroid = (DerivationWeights.of(*w) for w in ((1, 1, 1), (1, 1, 0)))
    wrong_weight = _slice(t, n, centroid, 1)
    assert wrong_weight != _slice(t, n, der, 1)
    assert members_verified(l, wrong_weight, centroid)
    assert not members_verified(l, wrong_weight, der)
    # over the swapped T, weights (alpha, beta, gamma) read D(gamma, beta, alpha)
    swapped = _swap_sigma_tau(t, n * n)
    assert swapped != t and not members_verified(l, swapped, UNIT)
    weights = DerivationWeights.of(0, 1, 1)
    mutant = _slice(swapped, n, weights, 1)
    assert mutant == _slice(t, n, centroid, 1) != _slice(t, n, weights, 1)
    assert not members_verified(l, mutant, weights)


def test_named_spaces_and_chain_match_direct_builds():
    for name in ("sl3", "sl3-rational", "r31"):
        l = FIXTURES[name]
        spaces = named_spaces(l)
        assert spaces.derivations == dspace(l, DerivationWeights.of(1, 1, 1))
        assert spaces.centroid == dspace(l, DerivationWeights.of(1, 1, 0))
        assert spaces.quasicentroid == dspace(l, DerivationWeights.of(0, 1, -1))
        assert spaces.centroid_matches_commutant == (spaces.centroid == dspace(l, COMMUTANT))
        assert verify_chain(l).all_ok


def _direct_case_table(l: LieAlgebra, deltas) -> dict:
    """The case table report from one direct ``dspace`` build per weight set."""

    def d(a, b, g):
        return dspace(l, DerivationWeights.of(a, b, g))

    keys = ("D(0,0,0)", "D(1,0,0)", "D(0,1,-1)", "D(1,1,-1)", "D(0,1,0)", "D(0,1,1)")
    weights = ((0, 0, 0), (1, 0, 0), (0, 1, -1), (1, 1, -1), (0, 1, 0), (0, 1, 1))
    deltas = [Fraction(x) for x in deltas]
    return {
        "dims": {k: d(*w).dim for k, w in zip(keys, weights)},
        "sweep_dims": {str(x): d(x, 1, 1).dim for x in deltas},
        "one_sided_dims": {str(x): d(x, 1, 0).dim for x in deltas},
        "antisymmetric_reduction_holds": d(1, 1, -1) == (d(0, 1, -1) & d(1, 0, 0)),
        "one_sided_reductions": {
            str(x): d(x, 1, 0) == (d(0, 1, -1) & d(2 * x, 1, 1)) for x in deltas
        },
    }


def test_case_table_matches_direct_builds(sl3):
    deltas = [1, 2, Fraction(1, 2), Fraction(-1, 3)]
    assert case_table(sl3, deltas).as_dict() == _direct_case_table(sl3, deltas)


# -- one constraint system per algebra ------------------------------------------------------


@pytest.fixture()
def builds(monkeypatch):
    """The weights of every constraint system a solve builds: ``_solve`` builds one,
    as bitsets or integer rows or both, and every solve goes through it."""
    made = []
    solve = derivations._solve

    def spy(l, weights, blocks):
        made.append(weights)
        return solve(l, weights, blocks)

    monkeypatch.setattr(derivations, "_solve", spy)
    return made


def _cli(*argv) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _write(tmp_path, name: str) -> str:
    path = str(tmp_path / f"{name}.json")
    jsonio.dump_json(path, jsonio.algebra_to_json(FIXTURES[name]))
    return path


@pytest.mark.parametrize("name", ["sl3", "sl3-shear"])
def test_chain_builds_one_system(tmp_path, builds, name):
    assert _cli("lie", "chain", _write(tmp_path, name)) == 0
    assert len(builds) == 1  # six before the spaces came from one solve


@pytest.fixture()
def slices(monkeypatch):
    """The (weights, blocks) of every space sliced from T."""
    made = []
    take = derivations._slice

    def spy(triples, n, weights, blocks):
        made.append((weights, blocks))
        return take(triples, n, weights, blocks)

    monkeypatch.setattr(derivations, "_slice", spy)
    return made


def test_chain_folds_only_what_it_reports(tmp_path, slices):
    """D(1,1,1), D(1,1,0), D(0,1,-1) and the qder pairs; not the commutant."""
    assert _cli("lie", "chain", _write(tmp_path, "sl3")) == 0
    assert len(slices) == 4


def test_each_distinct_slice_is_taken_once(slices, sl3):
    verify_chain(sl3)
    W = DerivationWeights.of
    assert slices == [(W(1, 1, 1), 1), (W(1, 1, 0), 1), (W(0, 1, -1), 1), (UNIT, 2)]
    slices.clear()
    # a repeated delta, given once as 2/2; the reductions ask again for D(0,1,-1),
    # D(1,0,0), D(1,1,-1), D(delta,1,0) and D(2,1,1), and newly for D(4,1,1)
    table = case_table(sl3, [1, Fraction(2, 2), 2])
    assert table.sweep_dims.keys() == {"1", "2"}
    assert len(slices) == len(set(slices)) == 6 + 2 + 2 + 1


def test_slicer_keys_on_the_weights_not_on_how_they_are_written(slices, sl3):
    """The default ``blocks``, spelled out or not, and an equal weight written as a
    string give one key: one slice, and the same object each time."""
    _, d = derivations._slicer(sl3)
    der = d(1, 1, 1)
    assert d(1, 1, 1, blocks=1) is der and d("2/2", 1, 1) is der
    assert slices == [(UNIT, 1)]


def test_case_table_builds_one_system(builds, sl3):
    case_table(sl3, [0, 1, 2, Fraction(-1, 3)])
    assert len(builds) == 1
    named_spaces(sl3)
    assert len(builds) == 2


# Eliminations of ``lie gder`` on sheared sl3, which slices nothing.  One is a
# first pass, the phi projection: the ad rows are independent mod 2, which gives
# the rank of ad(n) for the solve's floor with no pass.  The mod-2 certificate
# closes the solve (``test_mod2_certificate.py`` checks that no pass takes the
# triple system), and the span of the known maps
# is one leftmost pass over their distinct columns: the 192 columns of
# (ad z, ad z, ad z) and the two id maps hold 80 distinct ones under the shear
# of the ``kernel-dense`` benchmark workload, and 77 under the fixture's.
GDER_FIRST_PASSES = 1
GDER_SPAN_COLUMNS = {"sl3-shear": 77, "kernel-dense": 80}


def test_gder_does_no_more_kernel_work(tmp_path, monkeypatch, builds):
    calls = []
    eliminate = linalg._eliminate

    def spy(rows, reduced, fewest_holders, *args):
        rows = list(rows)
        calls.append((fewest_holders, len(set().union(*rows))))
        return eliminate(rows, reduced, fewest_holders, *args)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    for name, l in {"sl3-shear": FIXTURES["sl3-shear"], "kernel-dense": _sheared(3)}.items():
        path = str(tmp_path / f"{name}.json")
        jsonio.dump_json(path, jsonio.algebra_to_json(l))
        calls.clear()
        assert _cli("lie", "gder", path) == 0
        leftmost = [cols for fewest_holders, cols in calls if not fewest_holders]
        assert len(calls) - len(leftmost) == GDER_FIRST_PASSES, name
        assert leftmost == [GDER_SPAN_COLUMNS[name]], name
    assert len(builds) == 2


# -- the size guard on the library paths ------------------------------------------------


@pytest.mark.parametrize(
    "solve",
    [named_spaces, verify_chain, lambda l: case_table(l, [1, 2])],
    ids=["named_spaces", "verify_chain", "case_table"],
)
def test_oversized_system_is_refused_before_any_row(monkeypatch, solve):
    l = catalog.get("sl3").algebra
    entries = 3 * l.dim * sum(len(terms) for plane in l._adj for terms in plane)
    monkeypatch.setattr(derivations, "MAX_SYSTEM_ENTRIES", entries - 1)

    def trap(*args):
        raise AssertionError("a constraint row was built")

    with monkeypatch.context() as m:
        m.setattr(derivations, "_identity_pairs", trap)  # the row loop's first call
        with pytest.raises(SystemTooLarge, match=f"would hold {entries} entries"):
            solve(l)
    monkeypatch.setattr(derivations, "MAX_SYSTEM_ENTRIES", entries)
    solve(l)

