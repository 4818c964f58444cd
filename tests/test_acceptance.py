"""Acceptance checklist.

One test per numbered criterion; each prints a single pass/fail line (run
with ``pytest -s`` to see the lines also when everything is green).  All
comparisons are exact: every scalar in the system is a rational in canonical
form, so tolerances would be meaningless.
"""

import random
from fractions import Fraction

import pytest

from golden import identity_span
from postlie import catalog
from postlie.derivations import (
    DerivationWeights,
    ad_span,
    case_table,
    dspace,
    gder_triples,
    generalized_residuals,
    matrix_from_flat,
    qder_pairs,
    quasi_residuals,
    weighted_residuals,
)
from postlie.lie import LieAlgebra, change_basis, check_hom_witness
from postlie.linalg import Matrix, Subspace
from postlie.products import (
    BilinearProduct,
    adz_lambda,
    check_axioms,
    check_derived_identities,
    cross_factor_family,
    embed_check,
    left_multiplication_checks,
    phi_induced,
    split_construction,
)

from tables import (
    D_MINUS_ONE_BASIS,
    CROSS_BLOCK_BRACKETS,
    CROSS_BLOCK_PRODUCTS,
    SL3_SPLIT_BRACKETS,
    SL3_SPLIT_PRODUCTS,
    tau_witness_sl2,
)

W = DerivationWeights.of


def _run(num, label, checks):
    try:
        checks()
    except BaseException:
        print(f"acceptance {num:02d} [FAIL] {label}")
        raise
    print(f"acceptance {num:02d} [PASS] {label}")


@pytest.fixture(scope="module")
def cross_example():
    phi = catalog.cross_factor_phi()
    return phi, phi_induced(catalog.get("sl2+sl2").algebra, phi).pair


@pytest.fixture(scope="module")
def sl3_split(sl3):
    a, b = catalog.triangular_split(3, "b+|n-")
    return split_construction(sl3, a, b)


def test_criterion_01_delta_sweep_on_sl3(sl3):
    def checks():
        dims = [
            dspace(sl3, W(d, 1, 1)).dim
            for d in (-1, 0, 1, 2, 3, Fraction(1, 2))
        ]
        assert dims == [0, 0, 8, 1, 0, 0]
        assert dspace(sl3, W(1, 1, 1)) == ad_span(sl3)
        assert dspace(sl3, W(2, 1, 1)) == identity_span(8)

    _run(1, "delta sweep dims (0,0,8,1,0,0); inner derivations; scalar line", checks)


def test_criterion_02_quasiderivations_of_sl2_fill_end(sl2):
    def checks():
        result = qder_pairs(sl2)
        assert result.phi_projection.dim == 9
        samples = [
            Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
            Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
            Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ]
        for phi in samples:
            tau = tau_witness_sl2(phi)
            assert result.pair_space.contains(phi.flatten() + tau.flatten())
            assert not quasi_residuals(sl2, phi, tau)

    _run(2, "quasiderivations of sl2 = all endomorphisms, with closing witnesses", checks)


def test_criterion_03_quasiderivations_of_sl3(sl3):
    def checks():
        result = qder_pairs(sl3)
        assert result.phi_projection.dim == 9
        assert result.phi_projection == ad_span(sl3) + identity_span(8)

    _run(3, "quasiderivations of sl3 = inner + scalars", checks)


def test_criterion_04_generalized_equals_quasi(sl2, sl3):
    def checks():
        for alg in (sl2, sl3):
            quasi = qder_pairs(alg).phi_projection
            general = gder_triples(alg).phi_projection
            qc = dspace(alg, W(0, 1, -1))
            assert quasi + qc == general
        assert gder_triples(sl3).phi_projection == qder_pairs(sl3).phi_projection

    _run(4, "generalized = quasi on sl3; quasi + quasicentroid = generalized", checks)


def test_criterion_05_minus_one_space_on_sl2(sl2):
    def checks():
        space = dspace(sl2, W(-1, 1, 1))
        assert space.dim == 5
        mats = [Matrix.from_rows(rows) for rows in D_MINUS_ONE_BASIS]
        for m in mats:
            assert space.contains(m.flatten())
        assert Subspace.span([m.flatten() for m in mats], 9) == space
        inner_plus_scalars = ad_span(sl2) + identity_span(3)
        assert inner_plus_scalars.dim == 4
        assert space + inner_plus_scalars == Subspace.full(9)

    _run(5, "weight (-1,1,1) space on sl2: dim 5 complement of inner+scalars", checks)


def test_criterion_06_centroid_and_quasicentroid(sl2, sl3, double):
    def checks():
        for alg in (sl2, sl3):
            nn = alg.dim * alg.dim
            assert dspace(alg, W(1, 1, 0)) == identity_span(alg.dim)
            assert dspace(alg, W(0, 1, -1)) == identity_span(alg.dim)
        qc = dspace(double, W(0, 1, -1))
        centroid = dspace(double, W(1, 1, 0))
        blocks = [
            Matrix(6, 6, [Fraction(int(i == j and i < 3)) for i in range(6) for j in range(6)]),
            Matrix(6, 6, [Fraction(int(i == j and i >= 3)) for i in range(6) for j in range(6)]),
        ]
        for b in blocks:
            assert not weighted_residuals(double, W(0, 1, -1), b)
            assert qc.contains(b.flatten())
        assert qc.dim == 2
        assert qc == Subspace.span([b.flatten() for b in blocks], 36)
        assert centroid == qc
        assert dspace(double, W(0, 1, 1)).dim == 0

    _run(6, "centroid = quasicentroid: scalars on simple, block scalars on the double", checks)


def test_criterion_07_case_reductions(sl2, sl3, r31, heisenberg):
    def checks():
        for alg in (sl2, sl3, r31, heisenberg):
            report = case_table(alg, [0, 1, 2])
            assert report.antisymmetric_reduction_holds, alg
            assert all(report.one_sided_reductions.values()), alg

    _run(7, "reduction identities for weights (1,1,-1) and (delta,1,0)", checks)


def test_criterion_08_distinguished_structure_end_to_end(cross_example, double):
    def checks():
        phi, pair = cross_example
        assert pair.prod == BilinearProduct.from_entries(6, CROSS_BLOCK_PRODUCTS)
        assert pair.g == LieAlgebra.from_brackets(6, CROSS_BLOCK_BRACKETS)
        assert check_axioms(pair).ok
        assert check_derived_identities(pair).ok
        assert left_multiplication_checks(pair).ok
        assert embed_check(pair).ok
        assert pair.g.killing_form().rank() == 6

    _run(8, "block-map structure on the double: tables, axioms, embedding, Killing rank", checks)


def test_criterion_09_parameter_family(double):
    def checks():
        fam = cross_factor_family(double, 4, -4, -1, 2, 4)
        assert fam.constraints_hold and fam.result.conditions.ok
        assert fam.block == Matrix.from_rows([[4, -1, -4], [-1, 1, 2], [-2, 1, 3]])
        violating = [(1, 2, -1, 2, 4), (4, -4, -1, 2, 3), (2, 1, 1, 1, 1)]
        for params in violating:
            check = cross_factor_family(double, *params)
            assert not check.constraints_hold
            assert not check.result.conditions.ok

    _run(9, "five-parameter family: reference point reproduces the block, violations fail", checks)


def test_criterion_10_split_structure_on_sl3(sl3, sl3_split):
    def checks():
        split = sl3_split
        assert split.pair.g == LieAlgebra.from_brackets(8, SL3_SPLIT_BRACKETS)
        assert split.pair.prod == BilinearProduct.from_entries(8, SL3_SPLIT_PRODUCTS)
        inv = split.pair.g.invariants()
        assert inv.dim == 8
        assert inv.derived_series_dims == (8, 4, 1, 0)  # three steps to zero
        assert inv.is_solvable and not inv.is_nilpotent
        assert inv.center_dim == 1
        diag = [0, 0, -1, 0, -1, -1, 0, 0]
        expected_phi = Matrix(
            8, 8, [Fraction(diag[i]) if i == j else Fraction(0) for i in range(8) for j in range(8)]
        )
        assert split.phi == expected_phi
        adjoint_family = ad_span(sl3) + identity_span(8)
        assert not adjoint_family.contains(expected_phi.flatten())

    _run(10, "split structure on sl3: tables, 3-step solvable g, phi outside ad(z)+scalar", checks)


def test_criterion_11_trivial_structures(sl2, sl3, double):
    def checks():
        for alg in (sl2, sl3, double):
            zero = phi_induced(alg, Matrix.zero(alg.dim, alg.dim))
            assert zero.conditions.ok and check_axioms(zero.pair).ok
            assert zero.pair.g == alg
            negid = phi_induced(alg, -Matrix.identity(alg.dim))
            assert negid.conditions.ok and check_axioms(negid.pair).ok
            negated = LieAlgebra([[[-x for x in row] for row in plane] for plane in alg.c])
            assert negid.pair.g == negated

    _run(11, "zero map and negated identity give the two trivial structures", checks)


def test_criterion_12_adjoint_family_on_sl2(sl2, r31):
    def checks():
        # constraint resolution: products from z = gamma h close exactly for
        # gamma = 1/4 (quadratic form value 1/16), not for gamma = 4
        assert adz_lambda(sl2, [0, 0, Fraction(1, 4)], Fraction(-1, 2)).conditions.ok
        assert not adz_lambda(sl2, [0, 0, 4], Fraction(-1, 2)).conditions.ok

        valid = [
            ([0, 0, Fraction(1, 4)], Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])),
            (
                [Fraction(1, 16), 1, 0],
                Matrix.from_rows([[Fraction(1, 2), 1, 0], [0, -16, 0], [0, 0, 1]]),
            ),
        ]
        for z, witness in valid:
            res = adz_lambda(sl2, z, Fraction(-1, 2))
            assert res.conditions.ok
            assert check_axioms(res.pair).ok
            inv = res.pair.g.invariants()
            assert inv.is_solvable and len(inv.derived_series_dims) - 1 == 2
            assert not inv.is_nilpotent
            assert inv.center_dim == 0
            assert inv.derived_series_dims[1] == 2
            assert inv.derived_series_dims[2] == 0  # derived algebra abelian
            assert check_hom_witness(r31, res.pair.g, witness).is_iso
        for z in ([0, 0, 4], [1, 1, 1]):
            assert not adz_lambda(sl2, z, Fraction(-1, 2)).conditions.ok

    _run(12, "adjoint family on sl2: quadratic constraint 1/16, solvable target algebra", checks)


def test_criterion_13_annihilating_polynomial(sl2, double):
    def checks():
        rng = random.Random(41)
        non_vacuous = 0
        for alg in (sl2, double):
            for _ in range(50):
                z = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)]
                lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                res = adz_lambda(alg, z, lam)
                if res.conditions.ok:
                    non_vacuous += 1
                    assert res.conditions.annihilating_poly_ok
        for alg, z in [
            (sl2, [0, 0, Fraction(1, 4)]),
            (double, [0, 0, Fraction(1, 4), 0, 0, Fraction(1, 4)]),
            (double, [0, 0, Fraction(-1, 4), 0, 0, Fraction(1, 4)]),
        ]:
            res = adz_lambda(alg, z, Fraction(-1, 2))
            assert res.conditions.ok and res.conditions.annihilating_poly_ok
            non_vacuous += 1
        assert non_vacuous >= 3

    _run(13, "cubic operator identity follows whenever the family conditions hold", checks)


def test_criterion_14_solvable_partners_of_semisimple_are_not_unimodular(sl2):
    def checks():
        produced = []
        for n_param in (2, 3, 4):
            alg = catalog.get("sln", n=n_param).algebra
            for choice in ("b+|n-", "n-|b+", "b-|n+", "n+|b-"):
                a, b = catalog.triangular_split(n_param, choice)
                produced.append(split_construction(alg, a, b).pair.g)
        for z in ([0, 0, Fraction(1, 4)], [Fraction(1, 16), 1, 0]):
            produced.append(adz_lambda(sl2, z, Fraction(-1, 2)).pair.g)
        assert len(produced) == 14
        for g in produced:
            inv = g.invariants()
            assert inv.is_solvable
            assert not inv.is_unimodular

    _run(14, "every solvable partner algebra produced against a semisimple base is non-unimodular", checks)


def test_criterion_15_axiom_consequences(sl2, sl3, double, cross_example, sl3_split):
    def checks():
        pairs = [cross_example[1], sl3_split.pair]
        for alg in (sl2, sl3, double):
            pairs.append(phi_induced(alg, Matrix.zero(alg.dim, alg.dim)).pair)
            pairs.append(phi_induced(alg, -Matrix.identity(alg.dim)).pair)
        a2, b2 = catalog.triangular_split(2, "b+|n-")
        pairs.append(split_construction(sl2, a2, b2).pair)
        rng = random.Random(59)
        while len(pairs) < 109:  # 100 random family members on top of the fixed nine
            beta = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            gamma = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            alpha = (Fraction(1, 16) - gamma * gamma) / beta
            res = adz_lambda(sl2, [alpha, beta, gamma], Fraction(-1, 2))
            assert res.conditions.ok
            pairs.append(res.pair)
        for pair in pairs:
            assert check_axioms(pair).ok
            assert check_derived_identities(pair).ok
            assert left_multiplication_checks(pair).ok
            assert embed_check(pair).ok

    _run(15, "cyclic identities, representation property and embedding on 100+ verified pairs", checks)


def _random_rational_basis_change(alg, rng):
    n = alg.dim
    while True:
        t = Matrix(
            n,
            n,
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n * n)],
        )
        try:
            t.inverse()
        except ValueError:
            continue
        return t


def _shear_basis_change(alg, rng):
    n = alg.dim
    t = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        entries = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        entries[i][j] = Fraction(rng.choice([-2, -1, 1, 2]))
        t = t * Matrix.from_rows(entries)
    return t


def test_criterion_16_solver_vs_oracle_and_covariance(sl2, sl3, r31, heisenberg, double):
    def checks():
        weight_list = [
            W(1, 1, 1), W(1, 1, 0), W(0, 1, -1), W(-1, 1, 1),
            W(2, 1, 1), W(0, 1, 1), W(1, 0, 0), W(0, 1, 0),
        ]
        for alg in (sl2, sl3, r31, heisenberg, double):
            n = alg.dim
            nn = n * n
            for w in weight_list:
                for row in dspace(alg, w).basis_vectors():
                    assert not weighted_residuals(alg, w, matrix_from_flat(row, n))
            for row in qder_pairs(alg).pair_space.basis_vectors():
                assert not quasi_residuals(
                    alg,
                    matrix_from_flat(row[:nn], n),
                    matrix_from_flat(row[nn:], n),
                )
            for row in gder_triples(alg).triple_space.basis_vectors():
                assert not generalized_residuals(
                    alg,
                    matrix_from_flat(row[:nn], n),
                    matrix_from_flat(row[nn : 2 * nn], n),
                    matrix_from_flat(row[2 * nn :], n),
                )
        rng = random.Random(67)
        moved_sl2 = change_basis(sl2, _random_rational_basis_change(sl2, rng))
        for w in weight_list:
            assert dspace(moved_sl2, w).dim == dspace(sl2, w).dim
        assert qder_pairs(moved_sl2).phi_projection.dim == 9
        assert gder_triples(moved_sl2).phi_projection.dim == 9
        moved_sl3 = change_basis(sl3, _shear_basis_change(sl3, rng))
        for w in (W(1, 1, 1), W(2, 1, 1), W(1, 1, 0), W(0, 1, -1), W(-1, 1, 1)):
            assert dspace(moved_sl3, w).dim == dspace(sl3, w).dim
        assert qder_pairs(moved_sl3).phi_projection.dim == 9
        assert gder_triples(moved_sl3).phi_projection.dim == 9
        assert (
            gder_triples(moved_sl3).triple_space.dim
            == gder_triples(sl3).triple_space.dim
        )

    _run(16, "substitution oracle on every computed basis; dims stable under change of basis", checks)
