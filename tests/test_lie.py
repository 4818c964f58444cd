import random
from fractions import Fraction

import pytest

from postlie import catalog
from postlie.derivations import is_derivation, semidirect_with_derivations
from postlie.lie import InvalidLieAlgebra, LieAlgebra, change_basis, check_hom_witness, direct_sum
from postlie.linalg import Matrix, Subspace
from postlie.products import BilinearProduct

from tables import ANTISYMMETRY_CASES, unit_subspace


def unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


# -- bracket -------------------------------------------------------------------


def test_sl2_bracket_table(sl2):
    e, f, h = unit(3, 0), unit(3, 1), unit(3, 2)
    assert sl2.bracket(e, f) == (0, 0, 1)
    assert sl2.bracket(h, e) == (2, 0, 0)
    assert sl2.bracket(h, f) == (0, -2, 0)


def test_bracket_alternating(sl2, sl3):
    rng = random.Random(3)
    for alg in (sl2, sl3):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(alg.dim)]
        assert not any(alg.bracket(x, x))


def test_double_bracket(double):
    e1, f1 = unit(6, 0), unit(6, 1)
    assert double.bracket(e1, f1) == (0, 0, 1, 0, 0, 0)
    e2, f2 = unit(6, 3), unit(6, 4)
    assert double.bracket(e2, f2) == (0, 0, 0, 0, 0, 1)


# -- validation ------------------------------------------------------------------


def test_catalog_algebras_validate(sl2, sl3, double, r31, heisenberg):
    for alg in (sl2, sl3, double, r31, heisenberg):
        assert alg.validate().ok


def test_antisymmetry_violation_reported():
    c = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    report = LieAlgebra(c).validate()
    assert (0, 1, 0) in report.antisymmetry


def _dense(dim, brackets):
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coords in brackets.items():
        for k, v in coords.items():
            c[i][j][k] = v
    for (i, j), coords in brackets.items():
        if (j, i) not in brackets:
            for k, v in coords.items():
                c[j][i][k] = -v
    return c


@pytest.mark.parametrize("case", list(ANTISYMMETRY_CASES))
def test_antisymmetry_edge_cases_from_both_inputs(case):
    brackets, expected = ANTISYMMETRY_CASES[case]
    sparse = LieAlgebra.from_brackets(3, brackets)
    dense = LieAlgebra(_dense(3, brackets))
    assert sparse == dense
    for alg in (sparse, dense):
        report = alg.validate()
        assert list(report.antisymmetry) == expected
        assert not report.ok


def test_jacobi_violation_reported():
    # [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e2: the single triple fails
    alg = LieAlgebra.from_brackets(
        3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}
    )
    report = alg.validate()
    assert not report.antisymmetry
    assert [idx for idx, _ in report.jacobi] == [(0, 1, 2)]
    assert alg.validate() is report  # computed once per algebra


def test_invariants_requires_validity():
    alg = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})
    with pytest.raises(InvalidLieAlgebra):
        alg.invariants()


# -- adjoint and Killing form ------------------------------------------------------


def test_ad_of_zero(sl3):
    assert sl3.ad_matrix([0] * 8) == Matrix.zero(8, 8)


def test_sl2_ad_h(sl2):
    assert sl2.ad_matrix(unit(3, 2)) == Matrix.from_rows(
        [[2, 0, 0], [0, -2, 0], [0, 0, 0]]
    )


def test_sl2_ad_e_columns(sl2):
    ad_e = sl2.ad_matrix(unit(3, 0))
    assert ad_e.column(1) == (0, 0, 1)   # ad(e) f = h
    assert ad_e.column(2) == (-2, 0, 0)  # ad(e) h = -2e


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sln_killing_form_is_2n_times_the_trace_form(n):
    # the catalog basis: the units E_ij (i != j) in lexicographic order, then
    # the differences E_ii - E_{i+1,i+1}
    basis = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    basis += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]

    def trace_of_product(x, y):
        return sum(v * y.get((b, a), 0) for (a, b), v in x.items())

    k = catalog.get("sln", n=n).algebra.killing_form()
    dim = n * n - 1
    assert k == Matrix(dim, dim, [2 * n * trace_of_product(x, y) for x in basis for y in basis])


def test_abelian_killing_is_zero():
    alg = catalog.get("abelian", n=4).algebra
    assert alg.killing_form() == Matrix.zero(4, 4)


def test_sl2_killing_entries(sl2):
    k = sl2.killing_form()
    assert k.at(0, 1) == 4
    assert k.at(2, 2) == 8
    assert k.at(0, 0) == 0
    assert k == k.transpose()


def test_sl3_killing_rank_matches_sympy(sl3):
    sympy = pytest.importorskip("sympy")
    k = sl3.killing_form()
    exact = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in map(k.row, range(k.rows))]
    )
    assert exact.rank() == 8
    assert k.rank() == 8


# -- invariants ---------------------------------------------------------------------


def test_sl3_invariants(sl3):
    inv = sl3.invariants()
    assert inv.is_semisimple and inv.is_perfect and inv.is_unimodular
    assert inv.center_dim == 0 and not inv.is_solvable
    assert inv.killing_rank == 8


def test_r31_invariants(r31):
    inv = r31.invariants()
    assert inv.is_solvable and not inv.is_nilpotent
    assert inv.center_dim == 0
    assert not inv.is_unimodular  # tr ad e1 = 2
    assert r31.ad_matrix(unit(3, 0)).trace() == 2


def test_heisenberg_invariants(heisenberg):
    inv = heisenberg.invariants()
    assert inv.is_nilpotent and inv.is_solvable and inv.is_unimodular
    assert inv.center_dim == 1


def test_zero_dim_algebra_conventions():
    inv = catalog.get("abelian", n=0).algebra.invariants()
    assert inv.is_solvable and inv.is_nilpotent and not inv.is_semisimple


def test_perfect_algebras_have_traceless_adjoints(sl2, sl3, double):
    rng = random.Random(11)
    for alg in (sl2, sl3, double):
        assert alg.invariants().is_perfect
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim)]
        assert alg.ad_matrix(x).trace() == 0


def test_ad_is_a_homomorphism(sl2, sl3):
    rng = random.Random(5)
    for alg in (sl2, sl3):
        for _ in range(10):
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim)]
            y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim)]
            lhs = alg.ad_matrix(alg.bracket(x, y))
            ax, ay = alg.ad_matrix(x), alg.ad_matrix(y)
            assert lhs == ax * ay - ay * ax


# -- subspace bracket and subalgebras -----------------------------------------------


def test_bracket_with_zero_subspace(sl3):
    assert sl3.subspace_bracket(Subspace.full(8), Subspace.zero(8)).dim == 0


def test_sl2_is_perfect_via_subspace_bracket(sl2):
    full = Subspace.full(3)
    assert sl2.subspace_bracket(full, full) == full


def test_sl3_upper_triangular_bracket(sl3):
    nplus = unit_subspace([0, 1, 3], 8)
    assert sl3.subspace_bracket(nplus, nplus) == unit_subspace([1], 8)


def test_full_space_is_subalgebra_and_ideal(sl3):
    full = Subspace.full(8)
    assert sl3.is_subalgebra(full) and full.contains_subspace(sl3.subspace_bracket(full, full))


def test_sl3_lower_part_subalgebra_not_ideal(sl3):
    nminus = unit_subspace([2, 4, 5], 8)
    assert sl3.is_subalgebra(nminus)
    assert not nminus.contains_subspace(sl3.subspace_bracket(Subspace.full(8), nminus))


def test_one_dim_span_is_subalgebra(sl2):
    assert sl2.is_subalgebra(unit_subspace([0], 3))


# -- direct sums ---------------------------------------------------------------------


def test_direct_sum_matches_catalog_double(sl2, double):
    assert direct_sum(sl2, sl2) == double


def test_direct_sum_with_zero(sl2):
    zero = catalog.get("abelian", n=0).algebra
    assert direct_sum(sl2, zero) == sl2


def test_direct_sum_invariants_add(sl2, r31):
    s = direct_sum(sl2, r31)
    inv = s.invariants()
    inv_a, inv_b = sl2.invariants(), r31.invariants()
    assert inv.killing_rank == inv_a.killing_rank + inv_b.killing_rank
    assert inv.center_dim == inv_a.center_dim + inv_b.center_dim
    assert inv.is_solvable == (inv_a.is_solvable and inv_b.is_solvable)
    assert direct_sum(sl2, sl2).invariants().killing_rank == 6


# -- semidirect extensions --------------------------------------------------------------


def test_semidirect_empty_returns_base(sl2):
    assert semidirect_with_derivations(sl2, []) is sl2


def test_semidirect_with_inner_derivations(sl2):
    ads = [sl2.ad_matrix(unit(3, i)) for i in range(3)]
    ext = semidirect_with_derivations(sl2, ads)
    assert ext.dim == 6
    assert ext.validate().ok
    # the base stays a subalgebra and the extension acts back on it
    base = unit_subspace([0, 1, 2], 6)
    assert ext.is_subalgebra(base)
    assert base.contains_subspace(ext.subspace_bracket(Subspace.full(6), base))


def test_semidirect_with_a_dependent_derivation_list(sl2):
    """[ad e0, ad e0, 2 ad e0] commute, so on the Lie algebra sl2 their extension is one."""
    ad = sl2.ad_matrix(unit(3, 0))
    ext = semidirect_with_derivations(sl2, [ad, ad, 2 * ad])
    assert ext.dim == 6 and ext.validate().ok


@pytest.mark.parametrize("build", [LieAlgebra.from_brackets, BilinearProduct.from_entries])
@pytest.mark.parametrize("bad", [{(0, 1): {1.7: 1}}, {(0.5, 1): {2: 1}}, {(True, 1): {2: 1}},
                                 {(0, 1): {True: 1}}, {(0, "1"): {2: 1}}, {(0, 3): {2: 1}}])
def test_tables_refuse_indices_that_are_not_ints_in_range(build, bad):
    """A float or bool index was coerced, or passed the range check and never read."""
    with pytest.raises(ValueError, match="is not an int in"):
        build(3, bad)


def test_semidirect_rejects_non_derivation(sl2):
    e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert not is_derivation(sl2, e12)
    with pytest.raises(ValueError, match="not a derivation"):
        semidirect_with_derivations(sl2, [e12])


def test_semidirect_rejects_escaping_commutator(sl2):
    # ad(e) and ad(f) alone: their commutator is ad(h), outside the span
    ads = [sl2.ad_matrix(unit(3, 0)), sl2.ad_matrix(unit(3, 1))]
    with pytest.raises(ValueError):
        semidirect_with_derivations(sl2, ads)


# -- homomorphism witnesses ----------------------------------------------------------


def test_identity_witness_is_iso(sl2):
    rep = check_hom_witness(sl2, sl2, Matrix.identity(3))
    assert rep.is_hom and rep.is_injective and rep.is_iso


def test_witness_checks_every_ordered_pair():
    # [e_0, e_0] = e_1 is not antisymmetric; the pairs i < j alone see no bracket
    square = LieAlgebra.from_brackets(2, {(0, 0): {1: 1}})
    abelian = LieAlgebra.from_brackets(2, {})
    for src, dst in ((square, abelian), (abelian, square)):
        rep = check_hom_witness(src, dst, Matrix.identity(2))
        assert not rep.is_hom and rep.is_injective and not rep.is_iso
    assert check_hom_witness(square, square, Matrix.identity(2)).is_iso


def test_zero_witness_is_hom_not_injective(sl2):
    rep = check_hom_witness(sl2, sl2, Matrix.zero(3, 3))
    assert rep.is_hom and not rep.is_injective and not rep.is_iso


def test_sln2_to_sl2_evident_witness():
    sl2 = catalog.get("sl2").algebra
    sln2 = catalog.get("sln", n=2).algebra
    rep = check_hom_witness(sln2, sl2, Matrix.identity(3))
    assert rep.is_iso


def test_split_flip_witness_to_direct_sum(sl3):
    """Flipping the sign of one summand turns the split bracket into the
    direct Lie-algebra sum of the two subalgebras."""
    from postlie.products import split_construction

    first, second = catalog.triangular_split(3, "b+|n-")
    split = split_construction(sl3, first, second)
    pa, pb = split.projection_first, split.projection_second
    n = sl3.dim
    dsum = LieAlgebra(
        [
            [
                list(
                    tuple(
                        x + y
                        for x, y in zip(
                            sl3.bracket(pa.column(i), pa.column(j)),
                            sl3.bracket(pb.column(i), pb.column(j)),
                        )
                    )
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    assert dsum.validate().ok
    flip = pa - pb
    rep = check_hom_witness(split.pair.g, dsum, flip)
    assert rep.is_iso


def test_change_basis_gives_isomorphic_copy(sl2):
    t = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    moved = change_basis(sl2, t)
    assert moved.validate().ok
    assert check_hom_witness(moved, sl2, t).is_iso
