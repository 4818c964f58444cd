import random
from fractions import Fraction

import pytest

import golden
from postlie import catalog
from postlie.lie import LieAlgebra, ValidationReport, check_hom_witness
from postlie.linalg import DimensionMismatch, Matrix, Subspace, _FAILURE_REPORTS, failures_to_json
from postlie.products import (
    AdjointFamilyConditions,
    AxiomReport,
    BilinearProduct,
    DerivedIdentityReport,
    EmbeddingReport,
    LeftMultiplicationReport,
    PhiConditions,
    PostLiePair,
    adz_lambda,
    check_axioms,
    check_derived_identities,
    cross_factor_block,
    cross_factor_family,
    embed_check,
    induce_g,
    left_multiplication_checks,
    phi_induced,
    split_construction,
)

from tables import (
    CROSS_BLOCK_BRACKETS,
    CROSS_BLOCK_PRODUCTS,
    SL3_SPLIT_BRACKETS,
    SL3_SPLIT_PRODUCTS,
    unit_subspace,
)


@pytest.fixture(scope="module")
def cross_pair():
    return phi_induced(catalog.get("sl2+sl2").algebra, catalog.cross_factor_phi()).pair


@pytest.fixture(scope="module")
def sl3_split():
    sl3 = catalog.get("sl3").algebra
    a, b = catalog.triangular_split(3, "b+|n-")
    return split_construction(sl3, a, b)


# -- axioms ----------------------------------------------------------------------


def test_cross_pair_satisfies_axioms(cross_pair):
    assert check_axioms(cross_pair).ok


def test_zero_product_same_bracket_is_post_lie(sl2):
    pair = PostLiePair(g=sl2, n=sl2, prod=BilinearProduct.zero(3))
    assert check_axioms(pair).ok


def test_zero_product_mismatched_brackets_fails(sl2):
    abelian = catalog.get("abelian", n=3).algebra
    pair = PostLiePair(g=sl2, n=abelian, prod=BilinearProduct.zero(3))
    report = check_axioms(pair)
    assert not report.ok
    assert report.commutator_rule[0][0] == (0, 1)


def test_dimension_mismatch_rejected(sl2):
    with pytest.raises(DimensionMismatch):
        PostLiePair(g=sl2, n=catalog.get("abelian", n=4).algebra, prod=BilinearProduct.zero(3))
    pair = PostLiePair(g=sl2, n=sl2, prod=BilinearProduct.zero(3))
    with pytest.raises(DimensionMismatch):
        pair._replace(prod=BilinearProduct.zero(2))


def test_phi_and_z_of_the_wrong_shape_name_both_shapes(sl2):
    with pytest.raises(DimensionMismatch, match="^phi must be 3x3, got 2x3$"):
        phi_induced(sl2, Matrix.zero(2, 3))
    with pytest.raises(DimensionMismatch, match="^z needs 3 coordinates, got 2$"):
        adz_lambda(sl2, [0, 1], 0)


# -- derived identities ----------------------------------------------------------------


def test_cross_pair_derived_identities(cross_pair):
    assert check_derived_identities(cross_pair).ok


def test_split_derived_identities(sl3_split):
    assert check_derived_identities(sl3_split.pair).ok


def test_axioms_imply_derived_for_random_verified_pairs(sl2):
    rng = random.Random(23)
    for _ in range(20):
        beta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        gamma = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        alpha = (Fraction(1, 16) - gamma * gamma) / beta
        result = adz_lambda(sl2, [alpha, beta, gamma], Fraction(-1, 2))
        assert result.conditions.ok
        pair = result.pair
        assert check_axioms(pair).ok
        assert check_derived_identities(pair).ok
        assert left_multiplication_checks(pair).ok
        assert embed_check(pair).ok


# -- left multiplications ----------------------------------------------------------------


def test_cross_pair_left_multiplications(cross_pair):
    assert left_multiplication_checks(cross_pair).ok


def test_zero_product_left_multiplications(sl2):
    pair = PostLiePair(g=sl2, n=sl2, prod=BilinearProduct.zero(3))
    assert left_multiplication_checks(pair).ok
    assert all(pair.prod.left_matrix_basis(i) == Matrix.zero(3, 3) for i in range(3))


def test_split_left_multiplication_action(sl3_split):
    assert left_multiplication_checks(sl3_split.pair).ok
    # x = e3 acts by y -> e3 . y, sending e1 to e7
    l_e3 = sl3_split.pair.prod.left_matrix_basis(2)
    assert l_e3.column(0) == (0, 0, 0, 0, 0, 0, 1, 0)


# -- the kept axiom report ----------------------------------------------------------------


def _fresh(pair):
    return PostLiePair(pair.g, pair.n, pair.prod)


def test_axiom_report_is_kept_and_invisible_to_equality(sl3_split):
    pair = _fresh(sl3_split.pair)
    assert check_axioms(pair) is check_axioms(pair)
    fresh = _fresh(pair)
    assert fresh._axioms is None
    assert pair == fresh and hash(pair) == hash(fresh) and repr(pair) == repr(fresh)


def _restated(pair):
    try:
        embedding = embed_check(pair).as_dict()
    except ValueError:
        embedding = "raises"
    return left_multiplication_checks(pair).as_dict(), embedding


def test_restated_reports_do_not_depend_on_call_order():
    both_fail = 0
    for name, case in golden.product_cases().items():
        late, early = _fresh(case), _fresh(case)
        restated = _restated(late)
        axioms = check_axioms(early).as_dict()
        assert _restated(early) == restated, name
        assert check_axioms(late).as_dict() == axioms, name
        lmult = restated[0]
        both_fail += bool(lmult["representation_failures"] and lmult["derivation_failures"])
    assert both_fail


# -- inducing the second bracket ----------------------------------------------------------


def test_induce_with_zero_product_returns_base(sl2):
    g = induce_g(sl2, BilinearProduct.zero(3))
    assert g.validate().ok and g == sl2


def test_induce_with_negated_bracket(double):
    neg = BilinearProduct([[[-x for x in row] for row in plane] for plane in double.c])
    g = induce_g(double, neg)
    assert g.validate().ok
    assert g == LieAlgebra([[[-x for x in row] for row in plane] for plane in double.c])


def test_induce_reports_jacobi_failure(sl2):
    bad = BilinearProduct.from_entries(3, {(0, 1): {0: 1}})  # e.f = e
    report = induce_g(sl2, bad).validate()
    assert not report.ok
    assert report.jacobi and not report.antisymmetry


def test_cross_pair_bracket_table(cross_pair, double):
    expected = LieAlgebra.from_brackets(6, CROSS_BLOCK_BRACKETS)
    assert cross_pair.g == expected
    assert cross_pair.prod == BilinearProduct.from_entries(6, CROSS_BLOCK_PRODUCTS)
    assert cross_pair.n == double


# -- structures induced by an endomorphism ------------------------------------------------


def test_phi_zero_gives_trivial_structure(sl3):
    result = phi_induced(sl3, Matrix.zero(8, 8))
    assert result.conditions.ok
    assert result.pair.g == sl3
    assert result.pair.prod == BilinearProduct.zero(8)


def test_phi_minus_identity(double):
    result = phi_induced(double, -Matrix.identity(6))
    assert result.conditions.ok
    negated = LieAlgebra([[[-x for x in row] for row in plane] for plane in double.c])
    assert result.pair.g == negated
    assert check_axioms(result.pair).ok


def test_phi_conditions_match_axioms_on_random_maps(sl2):
    """The conditions report and the raw axiom check must agree in both
    directions; random integer maps cover the failing side, the zero map and
    the negated identity the succeeding one."""
    rng = random.Random(7)
    candidates = [Matrix.zero(3, 3), -Matrix.identity(3)]
    candidates += [
        Matrix(3, 3, [Fraction(rng.randint(-2, 2)) for _ in range(9)]) for _ in range(100)
    ]
    passed = 0
    for phi in candidates:
        result = phi_induced(sl2, phi)
        axioms_ok = check_axioms(result.pair).ok and result.pair.g.validate().ok
        assert result.conditions.ok == axioms_ok
        passed += result.conditions.ok
    assert passed >= 2


def test_cross_block_reproduces_distinguished_example(double):
    block = cross_factor_block(4, -4, -1, 2, 4)
    assert block == Matrix.from_rows([[4, -1, -4], [-1, 1, 2], [-2, 1, 3]])
    fam = cross_factor_family(double, 4, -4, -1, 2, 4)
    assert fam.constraints_hold and fam.result.conditions.ok
    assert fam.result.pair.prod == BilinearProduct.from_entries(6, CROSS_BLOCK_PRODUCTS)


@pytest.mark.parametrize(
    "params",
    [(1, 2, -1, 2, 4), (4, -4, -1, 2, 3), (2, 1, 1, 1, 1)],
)
def test_cross_family_constraint_violations_fail(double, params):
    fam = cross_factor_family(double, *params)
    assert not fam.constraints_hold
    assert not fam.result.conditions.ok


def test_cross_family_agreement_on_valid_points(double):
    # alpha free, gamma = -eps^2/(4 alpha), delta from eps = alpha delta - beta gamma
    rng = random.Random(31)
    hits = 0
    for _ in range(12):
        alpha = Fraction(rng.randint(1, 5))
        eps = Fraction(rng.randint(1, 5))
        beta = Fraction(rng.randint(-3, 3))
        gamma = -eps * eps / (4 * alpha)
        delta = (eps + beta * gamma) / alpha
        fam = cross_factor_family(double, alpha, beta, gamma, delta, eps)
        assert fam.constraints_hold
        assert fam.result.conditions.ok
        hits += 1
    assert hits == 12


def test_cross_family_rejects_zero_denominators(double):
    with pytest.raises(ValueError):
        cross_factor_family(double, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        cross_factor_family(double, 1, 1, 1, 1, 0)


# -- split construction ---------------------------------------------------------------------


def test_split_trivial_decomposition(sl2):
    full = Subspace.full(3)
    zero = Subspace.zero(3)
    result = split_construction(sl2, full, zero)
    assert result.pair.g == sl2
    assert result.pair.prod == BilinearProduct.zero(3)


def test_split_tables_on_sl3(sl3_split):
    expected_g = LieAlgebra.from_brackets(8, SL3_SPLIT_BRACKETS)
    assert sl3_split.pair.g == expected_g
    assert sl3_split.pair.prod == BilinearProduct.from_entries(8, SL3_SPLIT_PRODUCTS)
    diag = [0, 0, -1, 0, -1, -1, 0, 0]
    assert sl3_split.phi == Matrix.from_rows(
        [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(8)] for i in range(8)]
    )


def test_split_on_sl2_gives_solvable_non_nilpotent(sl2):
    a, b = catalog.triangular_split(2, "b+|n-")
    result = split_construction(sl2, a, b)
    inv = result.pair.g.invariants()
    assert inv.is_solvable and not inv.is_nilpotent


def test_split_rejects_non_subalgebra(sl2):
    plane = unit_subspace([0, 1], 3)  # [e,f] = h escapes the span
    line = unit_subspace([2], 3)
    assert not sl2.is_subalgebra(plane)
    with pytest.raises(ValueError):
        split_construction(sl2, plane, line)


def test_split_rejects_overlapping_summands(sl3):
    a = unit_subspace([6, 7, 0, 1, 3], 8)
    with pytest.raises(ValueError):
        split_construction(sl3, a, a)


@pytest.mark.parametrize(
    "left, right",
    [("b+", "n+"), ("n+", "n-"), ("b+", "b-")],
    ids=["overlap", "too few dimensions", "too many dimensions"],
)
def test_split_refuses_a_sum_that_is_not_direct(monkeypatch, left, right):
    """The refusal is read off the split's own reduction, not off an intersection."""
    entry = catalog.get("sl3")

    def trap(*args):
        raise AssertionError("the direct-sum check intersected the summands")

    monkeypatch.setattr(Subspace, "__and__", trap)
    with pytest.raises(ValueError, match="^summands must split the space as a direct sum$"):
        split_construction(entry.algebra, entry.subspaces[left], entry.subspaces[right])


# -- the adjoint-plus-scalar family ------------------------------------------------------------


def test_adz_trivial_points(sl2):
    res = adz_lambda(sl2, [0, 0, 0], 0)
    assert res.conditions.ok and res.pair.g == sl2
    res = adz_lambda(sl2, [0, 0, 0], -1)
    negated = LieAlgebra([[[-x for x in row] for row in plane] for plane in sl2.c])
    assert res.conditions.ok and res.pair.g == negated


def test_adz_constraint_constant_is_one_sixteenth(sl2):
    """Substitution picks between the two candidate normalizations: products
    from z = gamma h verify exactly when (2 gamma)^2 = 1/4."""
    ok = adz_lambda(sl2, [0, 0, Fraction(1, 4)], Fraction(-1, 2))
    assert ok.conditions.ok and ok.phi_conditions.ok
    bad = adz_lambda(sl2, [0, 0, 4], Fraction(-1, 2))
    assert not bad.conditions.ok
    assert not bad.phi_conditions.ok


def test_adz_valid_point_matches_bracket_family(sl2):
    # z = alpha e + beta f + gamma h gives [e,f] = -2 alpha e + 2 beta f,
    # [e,h] = -4 gamma e + 2 beta h, [f,h] = -4 gamma f + 2 alpha h
    alpha, beta, gamma = Fraction(1, 16), Fraction(1), Fraction(0)
    res = adz_lambda(sl2, [alpha, beta, gamma], Fraction(-1, 2))
    assert res.conditions.ok
    g = res.pair.g
    assert g.c[0][1] == (-2 * alpha, 2 * beta, 0)
    assert g.c[0][2] == (-4 * gamma, 0, 2 * beta)
    assert g.c[1][2] == (0, -4 * gamma, 2 * alpha)


def test_adz_annihilating_polynomial_follows(sl2, double):
    """Whenever the two defining condition groups hold, the cubic operator
    identity must hold as well; sampled over many random points with the
    verified family points mixed in for non-vacuity."""
    rng = random.Random(17)
    non_vacuous = 0
    for alg in (sl2, double):
        for _ in range(50):
            z = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)]
            lam = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            res = adz_lambda(alg, z, lam)
            if res.conditions.ok:
                non_vacuous += 1
                assert res.conditions.annihilating_poly_ok
    for z, lam in [
        ([0, 0, Fraction(1, 4)], Fraction(-1, 2)),
        ([Fraction(1, 16), 1, 0], Fraction(-1, 2)),
        ([0, 0, 0], 0),
        ([0, 0, 0], -1),
    ]:
        res = adz_lambda(sl2, z, lam)
        assert res.conditions.ok and res.conditions.annihilating_poly_ok
        non_vacuous += 1
    assert non_vacuous >= 4


def test_adz_r31_profile_and_witness(sl2):
    r31 = catalog.get("r31").algebra
    res = adz_lambda(sl2, [0, 0, Fraction(1, 4)], Fraction(-1, 2))
    inv = res.pair.g.invariants()
    assert inv.is_solvable and len(inv.derived_series_dims) - 1 == 2
    assert not inv.is_nilpotent and inv.center_dim == 0
    assert inv.derived_series_dims[1] == 2
    witness = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert check_hom_witness(r31, res.pair.g, witness).is_iso


# -- embedding ---------------------------------------------------------------------------------


def test_embed_checks_on_verified_pairs(cross_pair, sl3_split, sl2):
    assert embed_check(cross_pair).ok
    assert embed_check(sl3_split.pair).ok
    trivial = PostLiePair(g=sl2, n=sl2, prod=BilinearProduct.zero(3))
    assert embed_check(trivial).ok


def test_embed_requires_verified_pair(sl2):
    abelian = catalog.get("abelian", n=3).algebra
    broken = PostLiePair(g=sl2, n=abelian, prod=BilinearProduct.zero(3))
    with pytest.raises(ValueError):
        embed_check(broken)


# -- reports -------------------------------------------------------------------------------------

# every registered report type with its lists empty, and its JSON keys: one per list, in
# field order, then the keys of its other written fields
CLEAN_REPORTS = (
    (
        AxiomReport((), (), ()),
        ("commutator_rule_failures", "left_action_rule_failures", "derivation_rule_failures"),
        (),
    ),
    (DerivedIdentityReport((), ()), ("action_cycle_failures", "multiplication_cycle_failures"), ()),
    (
        LeftMultiplicationReport((), ()),
        ("representation_failures", "derivation_failures"),
        (),
    ),
    (
        PhiConditions((), (), ValidationReport()),
        ("difference_rule_failures", "homomorphism_rule_failures"),
        ("induced_bracket_validation",),
    ),
    (
        AdjointFamilyConditions((), (), annihilating_poly_ok=True),
        ("bracket_formula_failures", "composition_failures"),
        ("annihilating_poly_ok",),
    ),
    (EmbeddingReport((), injective=True), ("failures",), ("injective",)),
    (ValidationReport(), ("antisymmetry_violations", "jacobi_violations"), ()),
)
FAILURE = ((0, 1), (Fraction(1, 2), Fraction(0), Fraction(-3)))


def test_every_report_subclass_is_covered():
    assert {type(r) for r, _, _ in CLEAN_REPORTS} == set(_FAILURE_REPORTS)


@pytest.mark.parametrize(
    "report, list_keys, other_keys", CLEAN_REPORTS, ids=[type(c[0]).__name__ for c in CLEAN_REPORTS]
)
def test_report_verdict_and_json_follow_its_fields(report, list_keys, other_keys):
    assert report.ok
    doc = report.as_dict()
    assert set(doc) == {"ok", *list_keys, *other_keys}
    assert doc["ok"] is True and all(doc[key] == [] for key in list_keys)
    # a nested report is a tuple too, told apart by its _fields
    lists = [
        name
        for name, v in zip(report._fields, report)
        if isinstance(v, tuple) and not hasattr(v, "_fields")
    ]
    assert len(lists) == len(list_keys)
    for name, key in zip(lists, list_keys):
        # an antisymmetry failure is a bare (i, j, k)
        bare = name == "antisymmetry"
        failure = (0, 1, 2) if bare else FAILURE
        failing = report._replace(**{name: (failure,)})
        doc = failing.as_dict()
        assert not failing.ok and doc["ok"] is False
        assert doc[key] == ([list(failure)] if bare else failures_to_json((failure,)))
        assert all(doc[other] == [] for other in list_keys if other != key)


def test_report_flags_and_nested_reports():
    adz = AdjointFamilyConditions((), (), annihilating_poly_ok=False)
    assert adz.ok and adz.as_dict()["annihilating_poly_ok"] is False
    embedding = EmbeddingReport((), injective=False)
    assert not embedding.ok
    assert embedding.as_dict() == {"ok": False, "failures": [], "injective": False}
    inner = ValidationReport(jacobi=(((0, 1, 2), (Fraction(0), Fraction(1), Fraction(0))),))
    phi = PhiConditions((), (), inner)
    assert not phi.ok and phi.as_dict()["induced_bracket_validation"] == inner.as_dict()
    assert phi.as_dict()["induced_bracket_validation"]["ok"] is False
