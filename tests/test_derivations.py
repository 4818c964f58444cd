from fractions import Fraction

import pytest

from golden import identity_span
from postlie import catalog
from postlie.derivations import (
    ChainReport,
    DerivationWeights,
    ad_span,
    case_table,
    dspace,
    gder_triples,
    generalized_residuals,
    matrix_from_flat,
    named_spaces,
    qder_pairs,
    quasi_residuals,
    verify_chain,
    weighted_residuals,
)
from postlie.lie import InvalidLieAlgebra, LieAlgebra
from postlie.linalg import Matrix, Subspace, nullspace

from tables import D_MINUS_ONE_BASIS, tau_witness_sl2

W = DerivationWeights.of


# -- the weighted spaces --------------------------------------------------------


def test_derivations_of_sl3_are_inner(sl3):
    space = dspace(sl3, W(1, 1, 1))
    assert space.dim == 8
    assert space == ad_span(sl3)


def test_zero_weights_give_all_endomorphisms(sl2, r31):
    for alg in (sl2, r31):
        nn = alg.dim * alg.dim
        assert dspace(alg, W(0, 0, 0)) == Subspace.full(nn)


def test_sl2_minus_one_space(sl2):
    space = dspace(sl2, W(-1, 1, 1))
    assert space.dim == 5
    for rows in D_MINUS_ONE_BASIS:
        m = Matrix.from_rows(rows)
        assert space.contains(m.flatten())
        assert not weighted_residuals(sl2, W(-1, 1, 1), m)
    spanned = Subspace.span(
        [Matrix.from_rows(rows).flatten() for rows in D_MINUS_ONE_BASIS], 9
    )
    assert spanned == space


def test_sl3_scalar_and_vanishing_cases(sl3):
    assert dspace(sl3, W(2, 1, 1)) == identity_span(8)
    assert dspace(sl3, W(3, 1, 1)).dim == 0
    assert dspace(sl3, W(Fraction(1, 2), 1, 1)).dim == 0


def test_r31_annihilating_space_dimension(r31):
    # maps killing the derived algebra: dim (g/[g,g]) * dim g = 1 * 3
    assert dspace(r31, W(1, 0, 0)).dim == 3


def test_center_valued_space_dimensions(sl2, heisenberg):
    # maps into the center: dim Z(g) * dim g
    assert dspace(sl2, W(0, 1, 0)).dim == 0
    assert dspace(heisenberg, W(0, 1, 0)).dim == 3


def test_invalid_algebra_rejected():
    broken = LieAlgebra.from_brackets(
        3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}
    )
    with pytest.raises(InvalidLieAlgebra):
        dspace(broken, W(1, 1, 1))


# -- named spaces ----------------------------------------------------------------


def test_named_spaces_on_sl2(sl2):
    spaces = named_spaces(sl2)
    assert spaces.centroid == identity_span(3)
    assert spaces.quasicentroid == identity_span(3)
    assert spaces.centroid_matches_commutant


def test_named_spaces_on_sl3(sl3):
    spaces = named_spaces(sl3)
    assert spaces.quasicentroid == identity_span(8)
    assert spaces.centroid == identity_span(8)
    assert spaces.derivations == spaces.ad_space
    assert spaces.centroid_matches_commutant


def test_inner_derivations_always_included(sl2, sl3, double, r31, heisenberg):
    for alg in (sl2, sl3, double, r31, heisenberg):
        spaces = named_spaces(alg)
        assert spaces.derivations.contains_subspace(spaces.ad_space)


# -- quasiderivations ---------------------------------------------------------------


def test_qder_sl2_is_everything(sl2):
    result = qder_pairs(sl2)
    assert result.phi_projection.dim == 9
    assert result.phi_projection == Subspace.full(9)


def test_qder_sl2_tau_witness(sl2):
    result = qder_pairs(sl2)
    phi = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])  # e_13
    tau = tau_witness_sl2(phi)
    assert tau.at(2, 1) == Fraction(-1, 2)
    assert result.pair_space.contains(phi.flatten() + tau.flatten())
    assert not quasi_residuals(sl2, phi, tau)


def test_qder_sl3_is_inner_plus_scalars(sl3):
    result = qder_pairs(sl3)
    assert result.phi_projection.dim == 9
    assert result.phi_projection == ad_span(sl3) + identity_span(8)


# -- generalized derivations -----------------------------------------------------------


def test_gder_sl2_full(sl2):
    result = gder_triples(sl2)
    assert result.phi_projection.dim == 9


def test_gder_equals_qder_on_sl3(sl3):
    assert gder_triples(sl3).phi_projection == qder_pairs(sl3).phi_projection


def test_gder_abelian_everything():
    ab2 = catalog.get("abelian", n=2).algebra
    assert gder_triples(ab2).phi_projection == Subspace.full(4)


# -- inclusion chain ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["sl2", "sl3", "r31"])
def test_chain_holds(name):
    alg = catalog.get(name).algebra
    report = verify_chain(alg)
    assert report.all_ok, report.as_dict()


def test_chain_report_reads_its_own_fields():
    names = list(ChainReport._fields)
    assert len(names) == 6
    holds = ChainReport(*[True] * 6)
    assert holds.all_ok
    assert list(holds.as_dict()) == names + ["all_ok"]
    assert holds.as_dict() == {**dict.fromkeys(names, True), "all_ok": True}
    for name in names:
        broken = holds._replace(**{name: False})
        assert not broken.all_ok, name
        assert broken.as_dict() == {**holds.as_dict(), name: False, "all_ok": False}


# -- case table ------------------------------------------------------------------------


def test_case_table_sl3(sl3):
    report = case_table(sl3, [-1, 0, 1, 2, 3])
    assert report.sweep_dims == {"-1": 0, "0": 0, "1": 8, "2": 1, "3": 0}
    assert report.dims["D(0,0,0)"] == 64
    assert report.dims["D(1,0,0)"] == 0
    assert report.dims["D(1,1,-1)"] == 0
    assert report.one_sided_dims == {"-1": 0, "0": 0, "1": 1, "2": 0, "3": 0}
    assert report.antisymmetric_reduction_holds
    assert all(report.one_sided_reductions.values())


def test_case_table_reductions_on_mixed_fixtures(r31, heisenberg):
    for alg in (r31, heisenberg):
        report = case_table(alg, [0, 1, 2])
        assert report.antisymmetric_reduction_holds
        assert all(report.one_sided_reductions.values())


# -- algebraic properties of the computed spaces ------------------------------------------


def test_scaling_invariance(sl2):
    for c in (2, -1, Fraction(3, 7)):
        assert dspace(sl2, W(-1, 1, 1)) == dspace(sl2, W(-c, c, c))
        assert dspace(sl2, W(1, 1, 0)) == dspace(sl2, W(c, c, 0))


@pytest.mark.parametrize(
    "weights",
    [(1, 1, 0), (0, 1, -1), (1, 2, 3), (-1, 1, 1), (1, 0, 0)],
)
def test_swap_symmetry(sl2, r31, weights):
    a, b, g = weights
    for alg in (sl2, r31):
        assert dspace(alg, W(a, b, g)) == dspace(alg, W(a, g, b))


def test_filippov_normalization(sl2, sl3):
    for alg in (sl2, sl3):
        for delta in (2, -1, Fraction(1, 2)):
            inv = Fraction(1, 1) / delta
            assert dspace(alg, W(delta, 1, 1)) == dspace(alg, W(1, inv, inv))


def _halfpair_rows(alg, weights):
    """Constraint rows over unordered pairs i<j only (no diagonal)."""
    n = alg.dim
    nn = n * n
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = alg.c[i][j]
            for k in range(n):
                row = [Fraction(0)] * nn
                for m in range(n):
                    if cij[m]:
                        row[k * n + m] += weights.alpha * cij[m]
                    v = alg.c[m][j][k]
                    if v:
                        row[m * n + i] -= weights.beta * v
                    v = alg.c[i][m][k]
                    if v:
                        row[m * n + j] -= weights.gamma * v
                rows.append(row)
    return Matrix.from_rows(rows)


@pytest.mark.parametrize("delta", [0, 1, 2, -1])
def test_symmetric_weights_need_only_unordered_pairs(sl2, sl3, delta):
    """For beta = gamma the two orientations of a pair give one equation, so
    the half system computes the same space; this is why the full-system
    assembly is only *needed* for asymmetric weights."""
    for alg in (sl2, sl3):
        w = W(delta, 1, 1)
        assert nullspace(_halfpair_rows(alg, w)) == dspace(alg, w)


def test_membership_oracle_on_all_computed_spaces(sl2, sl3, r31, heisenberg, double):
    weight_list = [W(1, 1, 1), W(1, 1, 0), W(0, 1, -1), W(-1, 1, 1), W(2, 1, 1)]
    for alg in (sl2, sl3, r31, heisenberg, double):
        n = alg.dim
        for w in weight_list:
            for row in dspace(alg, w).basis_vectors():
                assert not weighted_residuals(alg, w, matrix_from_flat(row, n))


def test_pair_and_triple_oracles(sl2, r31):
    for alg in (sl2, r31):
        n = alg.dim
        nn = n * n
        for row in qder_pairs(alg).pair_space.basis_vectors():
            phi = matrix_from_flat(row[:nn], n)
            tau = matrix_from_flat(row[nn:], n)
            assert not quasi_residuals(alg, phi, tau)
        for row in gder_triples(alg).triple_space.basis_vectors():
            phi = matrix_from_flat(row[:nn], n)
            sigma = matrix_from_flat(row[nn : 2 * nn], n)
            tau = matrix_from_flat(row[2 * nn :], n)
            assert not generalized_residuals(alg, phi, sigma, tau)


def test_sweep_agrees_with_adjoint_family_route(sl3):
    """Independent route for the sweep dims: every weighted derivation of the
    rank-two algebra is ad(z) + lambda id, and substituting that form reduces
    the defining identity to (delta-1)[z,[x,y]] = (2-delta) lambda [x,y].
    Solving that small system in (z, lambda) must reproduce the directly
    computed spaces."""
    n = sl3.dim
    ads = [sl3.ad_matrix(Matrix.identity(n).row(m)) for m in range(n)]
    for delta in (Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)):
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                cij = sl3.c[i][j]
                for k in range(n):
                    row = [Fraction(0)] * (n + 1)
                    for m in range(n):
                        row[m] += (delta - 1) * ads[m].apply(cij)[k]
                    row[n] = -(2 - delta) * cij[k]
                    rows.append(row)
        solutions = nullspace(Matrix.from_rows(rows))
        images = []
        for sol in solutions.basis_vectors():
            phi = sl3.ad_matrix(sol[:n]) + sol[n] * Matrix.identity(n)
            images.append(phi.flatten())
        assert Subspace.span(images, n * n) == dspace(sl3, DerivationWeights.of(delta, 1, 1))
