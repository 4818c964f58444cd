"""The case table of generalized (alpha, beta, gamma)-derivations on semisimple algebras.

Burde and Dekimpe, "Post-Lie algebra structures and generalized derivations
of semisimple Lie algebras" (arXiv:1108.5950), determine these spaces for
semisimple n.  The dimensions pinned here were computed with ``case_table``
and are checked again three ways: against sympy nullspaces of the defining
linear system, built here from the dense tensor ``.c``; entrywise against the
sliced spaces; and in random rational bases, where no dimension may move.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from postlie import catalog
from postlie.derivations import DerivationWeights, _slice, case_table, gder_triples
from postlie.lie import change_basis
from postlie.linalg import Subspace
from test_basis_change import invertible

sympy = pytest.importorskip("sympy")

DELTAS = [-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3]

ALGEBRAS = {
    "sl2": ("sl2", None),
    "sl3": ("sl3", None),
    "sl4": ("sln", 4),
    "sl2+sl2": ("sl2+sl2", None),
}

# the nonzero dimensions of D(delta,1,1) and D(delta,1,0), by delta, and D(0,1,-1);
# D(0,0,0) is all of End(n), and D(1,0,0), D(1,1,-1), D(0,1,0) and D(0,1,1) vanish
EXPECTED = {
    "sl2": ({-1: 5, 1: 3, 2: 1}, {1: 1}, 1),
    "sl3": ({1: 8, 2: 1}, {1: 1}, 1),
    "sl4": ({1: 15, 2: 1}, {1: 1}, 1),
    "sl2+sl2": ({-1: 10, 1: 6, 2: 2}, {1: 2}, 2),
}

FIXED_CASES = {
    "D(0,0,0)": (0, 0, 0),
    "D(1,0,0)": (1, 0, 0),
    "D(0,1,-1)": (0, 1, -1),
    "D(1,1,-1)": (1, 1, -1),
    "D(0,1,0)": (0, 1, 0),
    "D(0,1,1)": (0, 1, 1),
}


@cache
def algebra(name):
    return catalog.get(*ALGEBRAS[name]).algebra


def expected_report(name, dim):
    sweep, one_sided, quasicentroid = EXPECTED[name]
    dims = dict.fromkeys(FIXED_CASES, 0)
    dims["D(0,0,0)"] = dim * dim
    dims["D(0,1,-1)"] = quasicentroid
    return {
        "dims": dims,
        "sweep_dims": {str(Fraction(d)): sweep.get(d, 0) for d in DELTAS},
        "one_sided_dims": {str(Fraction(d)): one_sided.get(d, 0) for d in DELTAS},
        "antisymmetric_reduction_holds": True,
        "one_sided_reductions": {str(Fraction(d)): True for d in DELTAS},
    }


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_case_table_is_pinned(name):
    l = algebra(name)
    assert case_table(l, DELTAS).as_dict() == expected_report(name, l.dim)


def weight_cases():
    """Every (alpha, beta, gamma) the case table reads, keyed as in its report."""
    cases = {key: tuple(map(Fraction, w)) for key, w in FIXED_CASES.items()}
    for d in map(Fraction, DELTAS):
        cases[f"D({d},1,1)"] = (d, Fraction(1), Fraction(1))
        cases[f"D({d},1,0)"] = (d, Fraction(1), Fraction(0))
    return cases


def sympy_space(l, alpha, beta, gamma) -> Subspace:
    """{phi : alpha phi[x,y] = beta [phi x, y] + gamma [x, phi y]} by sympy over QQ.

    Unknown r * n + m is the entry phi[r][m], the row-major layout of the
    package's maps, and column m of phi is phi e_m.
    """
    c, n = l.c, l.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [0] * (n * n)
                for s in range(n):
                    row[k * n + s] += alpha * c[i][j][s]
                for r in range(n):
                    row[r * n + i] -= beta * c[r][j][k]
                    row[r * n + j] -= gamma * c[i][r][k]
                if any(row):
                    rows.append([sympy.Rational(str(x)) for x in row])
    # D(0,0,0) has no nonzero row: its kernel is all of End(n)
    kernel = sympy.Matrix(rows or [[0] * (n * n)]).nullspace()
    vectors = [[Fraction(int(x.p), int(x.q)) for x in v] for v in kernel]
    return Subspace.span(vectors, n * n)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl2+sl2"])
def test_case_table_matches_sympy_nullspaces(name):
    l = algebra(name)
    report = case_table(l, DELTAS)
    dims = {**report.dims}
    dims.update({f"D({d},1,1)": v for d, v in report.sweep_dims.items()})
    dims.update({f"D({d},1,0)": v for d, v in report.one_sided_dims.items()})
    triples = gder_triples(l).triple_space
    for key, weights in weight_cases().items():
        reference = sympy_space(l, *weights)
        assert dims[key] == reference.dim, key
        assert _slice(triples, l.dim, DerivationWeights.of(*weights), 1) == reference, key


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl2+sl2"])
@given(data=st.data())
# no shrinking: each try is a change of basis and a case table, so shrinking a
# failure took minutes, and an unshrunk basis shows the fault as well
@settings(max_examples=4, deadline=None, phases=[Phase.explicit, Phase.generate])
def test_case_table_dimensions_survive_a_change_of_basis(name, data):
    l = algebra(name)
    t = data.draw(invertible(l.dim))
    moved = case_table(change_basis(l, t), DELTAS).as_dict()
    assert moved == expected_report(name, l.dim)
