"""The nullity floor that each derivation solve hands the kernel.

``gder_triples``, ``qder_pairs`` and ``dspace`` count maps known to solve
their identity on any valid bracket, ad z and id (``golden.known_solutions``),
and pass that count to ``int_nullspace`` as a floor on the nullity, with the
maps it counts.  The first pass stops once its rank reaches ``ncols - floor``,
unless the maps certify the space mod 2 (``test_mod2_certificate.py``).  This
is exact only if the known maps do lie in the space and the floor counts no
more than their span, so both are checked on every golden fixture, on abelian
algebras of dimension 0, 1 and 2, and under random changes of basis, for the
maps the solves hand over too.  A floor one too high must be caught by the
substitution check of ``lie gder``.
"""

import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from golden import COMMUTANT, WEIGHTS, fixtures
from postlie import catalog, cli, derivations, jsonio, linalg
from postlie.derivations import DerivationWeights, _identity_space, dspace, gder_triples, qder_pairs
from postlie.lie import change_basis
from postlie.linalg import Subspace
from test_basis_change import invertible

FIXTURES = fixtures()
UNIT = DerivationWeights.of(1, 1, 1)
# WEIGHTS, plus alpha = beta + gamma and alpha = beta = gamma away from 0 and 1
FLOOR_WEIGHTS = WEIGHTS + (tuple(COMMUTANT), (2, 1, 1), (3, 3, 3))
ABELIAN = {f"abelian{n}": catalog.get("abelian", n=n).algebra for n in (0, 1, 2)}


def _floored_solves(l) -> list:
    """``(weights, blocks, rows, ncols, floor, known, space)`` of each kernel call of
    ``gder_triples``, ``qder_pairs`` and ``dspace`` over ``FLOOR_WEIGHTS``."""
    cases = [(UNIT, 3), (UNIT, 2)] + [(DerivationWeights.of(*w), 1) for w in FLOOR_WEIGHTS]
    calls = []
    solve = derivations.int_nullspace

    def spy(rows, ncols, floor=0, known=(), *args, **kwargs):
        known = list(known)  # read once
        space = solve(rows, ncols, floor, known, *args, **kwargs)
        calls.append((rows, ncols, floor, known, space))
        return space

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derivations, "int_nullspace", spy)
        gder_triples(l)
        qder_pairs(l)
        for weights, _ in cases[2:]:
            dspace(l, weights)
    assert len(calls) == len(cases)
    return [case + call for case, call in zip(cases, calls)]


def _assert_floors_hold(l) -> None:
    """Each known solution lies in the space solved with the floor; the floor is
    the dimension of their span, at most the nullity of a solve with no floor,
    which returns the same space.  The maps the solve hands over with the floor
    span the same space as the known solutions."""
    for weights, blocks, rows, ncols, floor, handed, space in _floored_solves(l):
        label = (golden.weight_key(weights), blocks)
        known = Subspace.span(golden.known_solutions(l, weights, blocks), ncols)
        assert space.contains_subspace(known), label
        assert floor == known.dim and known == Subspace._from_int_rows(handed, ncols), label
        unfloored = linalg.int_nullspace(rows, ncols)
        assert floor <= unfloored.dim and space == unfloored, label


@pytest.mark.parametrize("name", [*FIXTURES, *ABELIAN])
def test_known_solutions_bound_every_floor(name):
    _assert_floors_hold({**FIXTURES, **ABELIAN}[name])


def test_the_zero_algebra_has_floor_zero():
    """With n = 0 there are no columns, and id is the zero map: it counts for nothing."""
    solves = _floored_solves(ABELIAN["abelian0"])
    assert all(ncols == 0 and floor == 0 and space.dim == 0 for *_, ncols, floor, _, space in solves)


@pytest.mark.parametrize("name", ["sl2", "r31", "heisenberg"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_floors_hold_after_a_rational_change_of_basis(name, data):
    _assert_floors_hold(change_basis(catalog.get(name).algebra, data.draw(invertible(3))))


def test_the_first_pass_stops_at_the_floor_and_changes_nothing(monkeypatch):
    """The sl3 centroid D(1,1,0) in a rational basis is the line of id: of its
    84 rows left after the strip the first pass needs only those that reach
    rank 63, and it takes no more.  Its rows read mod 2 have rank 33, short of
    63, so this solve takes the exact path; in the sheared basis the mod-2
    certificate of ``int_nullspace`` skips it."""
    l = FIXTURES["sl3-rational"]
    weights = DerivationWeights.of(1, 1, 0)
    runs = []
    eliminate = linalg._eliminate

    def spy(rows, reduced, *args, **kwargs):
        rows, pulled = list(rows), []
        eliminate((pulled.append(r) or r for r in rows), reduced, *args, **kwargs)
        runs.append((len(rows), len(pulled), len(reduced)))

    monkeypatch.setattr(linalg, "_eliminate", spy)
    space = dspace(l, weights)
    (given_rows, pulled, rank), *_ = runs
    assert pulled < given_rows and rank == 63 and space.dim == 1
    monkeypatch.undo()
    assert space == linalg.int_nullspace(_identity_space(l, weights, 1), 64)
    assert golden.encode(space) == golden.load()["sl3-rational / dspace 1,1,0"]


def test_a_floor_one_too_high_fails_lie_gder(tmp_path, monkeypatch):
    """The stop then leaves T one dimension too large, 11 for the 10 of sl3, and
    the substitution check of ``lie gder`` rejects it: exit 1, not a wrong answer."""
    path = str(tmp_path / "sl3-shear.json")
    jsonio.dump_json(path, jsonio.algebra_to_json(FIXTURES["sl3-shear"]))
    solve = derivations.int_nullspace
    monkeypatch.setattr(
        derivations, "int_nullspace", lambda rows, ncols, floor=0, *a, **kw: solve(rows, ncols, floor + 1, *a, **kw)
    )
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["lie", "gder", path])
    assert code == 1 and '"triple_space_dim": 11' in out.getvalue()
