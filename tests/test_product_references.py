"""The integer contractions of ``products`` against dense ``Fraction`` references.

Every check and construction of ``products`` scales its tables to integers
over one common denominator and divides back only what it reports.  The
references here evaluate the same identities directly, in ``Fraction``
arithmetic on the dense ``c``/``p`` views and dense vectors, and must give the
same reports entry for entry.  Besides every golden case there is a pair, a
phi, a split and two adz points whose inputs carry different denominators
(1/2, 1/3, 1/5, 1/7), so a wrong common denominator or a wrong power of it
shows.
"""

from fractions import Fraction
from functools import cache

import pytest

import golden
from postlie import catalog, products
from postlie.lie import LieAlgebra
from postlie.linalg import Matrix, Subspace

_ZERO = Fraction(0)


def _scaled(l: LieAlgebra, t) -> LieAlgebra:
    """The bracket t[x, y]: a Lie algebra again, with its denominators times t's."""
    return LieAlgebra([[[t * x for x in row] for row in plane] for plane in l.c], l.labels)


def _mixed_sl2() -> LieAlgebra:
    return _scaled(catalog.get("sl2").algebra, Fraction(1, 2))


def _mixed_pair() -> products.PostLiePair:
    sl2 = catalog.get("sl2").algebra
    prod = golden.random_product(3, 21, 0.5)
    fifth = products.BilinearProduct([[[x / 5 for x in row] for row in plane] for plane in prod.p])
    return products.PostLiePair(_scaled(sl2, Fraction(1, 3)), _mixed_sl2(), fifth)


def _mixed_phi() -> products.PhiInducedResult:
    phi = Matrix(3, 3, [Fraction(1, 5), 0, 1, 0, Fraction(-1, 3), 0, 2, 0, Fraction(3, 5)])
    return products.phi_induced(_mixed_sl2(), phi)


# the bracket formula holds by construction on a Lie algebra: the non-Jacobi
# point makes it fail
MIXED_ADZ = {
    "mixed denominators": (_mixed_sl2(), (Fraction(1, 5), 0, Fraction(1, 3)), Fraction(-1, 7)),
    "mixed denominators, non-Jacobi": (
        _scaled(golden.non_jacobi_sl3(), Fraction(1, 2)),
        (0, Fraction(1, 5), 0, 0, 0, 0, Fraction(2, 3), 0),
        Fraction(1, 3),
    ),
}


@cache
def pair_cases() -> dict[str, products.PostLiePair]:
    """Built once: each test checks a fresh pair of the same members."""
    cases = golden.product_cases()
    cases["mixed denominators"] = _mixed_pair()
    cases["mixed denominators, phi induced"] = _mixed_phi().pair
    return cases


@cache
def phi_cases() -> dict[str, products.PhiInducedResult]:
    cases = golden.phi_cases()
    cases["mixed denominators"] = _mixed_phi()
    return cases


@cache
def split_cases() -> dict[str, products.SplitResult]:
    cases = golden.split_cases()
    # sl2 in the basis (e, f, h), scaled by 1/3, split as span(e, h) + span(f + e/2)
    borel = Subspace.span([[1, 0, 0], [0, 0, 1]], 3)
    line = Subspace.span([[Fraction(1, 2), 1, 0]], 3)
    cases["mixed denominators"] = products.split_construction(
        _scaled(catalog.get("sl2").algebra, Fraction(1, 3)), borel, line
    )
    return cases


@cache
def adz_points() -> dict[str, tuple]:
    points = golden.adz_points()
    points.update(MIXED_ADZ)
    return points


# -- dense references --------------------------------------------------------------


def unit(dim: int, i: int) -> list:
    return [Fraction(int(k == i)) for k in range(dim)]


def mul(t, x, y) -> list:
    """x * y under the dense tensor t, for dense vectors x and y."""
    out = [_ZERO] * len(t)
    for a, xa in enumerate(x):
        if xa:
            for b, yb in enumerate(y):
                if yb:
                    for k, c in enumerate(t[a][b]):
                        out[k] += xa * yb * c
    return out


def comb(*terms) -> list:
    """The sum of s * v over (s, v) terms of dense vectors."""
    out = [_ZERO] * len(terms[0][1])
    for s, v in terms:
        for k, x in enumerate(v):
            out[k] += s * x
    return out


def failures(residual, indices) -> tuple:
    out = []
    for idx in indices:
        res = residual(*idx)
        if any(res):
            out.append((idx, tuple(res)))
    return tuple(out)


def square(dim: int, entry) -> list:
    """The dense table [[entry(i, j) for j] for i]."""
    return [[entry(i, j) for j in range(dim)] for i in range(dim)]


def pairs(dim: int) -> list:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def reference_axioms(pair: products.PostLiePair) -> products.AxiomReport:
    g, n, p, dim = pair.g.c, pair.n.c, pair.prod.p, pair.dim
    e = [unit(dim, i) for i in range(dim)]

    def commutator(i, j):
        return comb((1, p[i][j]), (-1, p[j][i]), (-1, g[i][j]), (1, n[i][j]))

    def left_action(i, j, k):
        # [x,y].z - x.(y.z) + y.(x.z)
        return comb(
            (1, mul(p, g[i][j], e[k])),
            (-1, mul(p, e[i], p[j][k])),
            (1, mul(p, e[j], p[i][k])),
        )

    def derivation(i, j, k):
        # x.{y,z} - {x.y, z} - {y, x.z}
        return comb(
            (1, mul(p, e[i], n[j][k])),
            (-1, mul(n, p[i][j], e[k])),
            (-1, mul(n, e[j], p[i][k])),
        )

    ij = pairs(dim)
    return products.AxiomReport(
        failures(commutator, ij),
        failures(left_action, [(i, j, k) for i, j in ij for k in range(dim)]),
        failures(derivation, [(i, j, k) for i in range(dim) for j, k in ij]),
    )


def reference_derived(pair: products.PostLiePair) -> products.DerivedIdentityReport:
    g, n, p, dim = pair.g.c, pair.n.c, pair.prod.p, pair.dim
    e = [unit(dim, i) for i in range(dim)]

    def cyclic(term, i, j, k):
        return comb(*((1, term(x, y, z)) for x, y, z in ((i, j, k), (j, k, i), (k, i, j))))

    def action(i, j, k):
        # z.{x,y} - {[x,y], z}, cyclically
        def term(x, y, z):
            return comb((1, mul(p, e[z], n[x][y])), (-1, mul(n, g[x][y], e[z])))

        return cyclic(term, i, j, k)

    def multiplication(i, j, k):
        # {x,y}.z - [{x,y}, z] - {[x,y], z}, cyclically
        def term(x, y, z):
            nxy, gxy = n[x][y], g[x][y]
            return comb((1, mul(p, nxy, e[z])), (-1, mul(g, nxy, e[z])), (-1, mul(n, gxy, e[z])))

        return cyclic(term, i, j, k)

    triples = [(i, j, k) for i, j in pairs(dim) for k in range(j + 1, dim)]
    return products.DerivedIdentityReport(
        failures(action, triples), failures(multiplication, triples)
    )


def reference_phi(n: LieAlgebra, phi: Matrix, g: LieAlgebra) -> tuple:
    """(product tensor, induced bracket tensor, difference failures, homomorphism failures)."""
    c, gc, dim = n.c, g.c, n.dim
    e = [unit(dim, i) for i in range(dim)]
    cols = [list(phi.column(i)) for i in range(dim)]
    prod = square(dim, lambda i, j: mul(c, cols[i], e[j]))
    induced = square(dim, lambda i, j: comb((1, prod[i][j]), (-1, prod[j][i]), (1, c[i][j])))

    def difference(i, j):
        return comb(
            (1, mul(c, cols[i], e[j])), (1, mul(c, e[i], cols[j])), (-1, gc[i][j]), (1, c[i][j])
        )

    def homomorphism(i, j):
        return comb((1, list(phi.apply(gc[i][j]))), (-1, mul(c, cols[i], cols[j])))

    ij = pairs(dim)
    return prod, induced, failures(difference, ij), failures(homomorphism, ij)


def reference_adz(n: LieAlgebra, z, lam, g: LieAlgebra) -> products.AdjointFamilyConditions:
    c, gc, dim = n.c, g.c, n.dim
    z = [Fraction(v) for v in z]
    lam = Fraction(lam)
    e = [unit(dim, i) for i in range(dim)]
    two_lam_one, lam_sq = 2 * lam + 1, lam * lam + lam

    def bracket_formula(i, j):
        return comb((1, gc[i][j]), (-1, mul(c, z, c[i][j])), (-two_lam_one, c[i][j]))

    def composition(i, j):
        z_nij = mul(c, z, c[i][j])
        return comb(
            (1, mul(c, mul(c, z, e[i]), mul(c, z, e[j]))),
            (-1, mul(c, z, z_nij)),
            (-two_lam_one, z_nij),
            (-lam_sq, c[i][j]),
        )

    adz = Matrix.from_rows([mul(c, z, e[j]) for j in range(dim)]).transpose()
    poly = adz * adz * adz + two_lam_one * (adz * adz) + lam_sq * adz
    ij = pairs(dim)
    return products.AdjointFamilyConditions(
        failures(bracket_formula, ij), failures(composition, ij), poly == Matrix.zero(dim, dim)
    )


def residual_entries(*reports):
    for report in reports:
        for group in report:
            if isinstance(group, tuple) and not hasattr(group, "_fields"):
                for _, res in group:
                    yield from res


def tensor(table) -> list:
    return [[list(row) for row in plane] for plane in table]


# -- the comparisons ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(pair_cases()))
def test_pair_checks_match_the_dense_reference(name):
    pair = pair_cases()[name]
    fresh = products.PostLiePair(pair.g, pair.n, pair.prod)
    axioms = products.check_axioms(fresh)
    derived = products.check_derived_identities(fresh)
    assert axioms == reference_axioms(pair)
    assert derived == reference_derived(pair)
    assert all(type(x) is Fraction for x in residual_entries(axioms, derived))


@pytest.mark.parametrize("name", list(phi_cases()))
def test_phi_induced_matches_the_dense_reference(name):
    result = phi_cases()[name]
    n, g = result.pair.n, result.pair.g
    prod, induced, difference, homomorphism = reference_phi(n, result.phi, g)
    assert tensor(result.pair.prod.p) == prod
    assert tensor(g.c) == induced
    assert result.conditions.difference_rule == difference
    assert result.conditions.homomorphism_rule == homomorphism
    assert all(type(x) is Fraction for x in residual_entries(result.conditions))


@pytest.mark.parametrize("name", list(adz_points()))
def test_adz_conditions_match_the_dense_reference(name):
    n, z, lam = adz_points()[name]
    result = products.adz_lambda(n, z, lam)
    assert result.conditions == reference_adz(n, z, lam, result.pair.g)
    assert type(result.conditions.annihilating_poly_ok) is bool
    assert all(type(x) is Fraction for x in residual_entries(result.conditions))


def test_the_mixed_cases_carry_nonzero_residuals():
    """The mixed-denominator cases report failures, so their values are compared."""
    assert not products.check_axioms(_mixed_pair()).ok
    assert not _mixed_phi().conditions.ok
    for point in MIXED_ADZ.values():
        conditions = products.adz_lambda(*point).conditions
        assert conditions.composition_failures and not conditions.annihilating_poly_ok
    non_jacobi = products.adz_lambda(*MIXED_ADZ["mixed denominators, non-Jacobi"])
    assert non_jacobi.conditions.bracket_formula_failures


@pytest.mark.parametrize("name", list(split_cases()))
def test_split_tables_match_the_dense_reference(name):
    split = split_cases()[name]
    n = split.pair.n
    c, dim = n.c, n.dim
    e = [unit(dim, i) for i in range(dim)]
    a = [list(split.projection_first.column(i)) for i in range(dim)]
    b = [list(split.projection_second.column(i)) for i in range(dim)]
    prod = square(dim, lambda i, j: comb((-1, mul(c, b[i], e[j]))))
    bracket = square(dim, lambda i, j: comb((1, mul(c, a[i], a[j])), (-1, mul(c, b[i], b[j]))))
    assert tensor(split.pair.prod.p) == prod
    assert tensor(split.pair.g.c) == bracket


@pytest.mark.parametrize("name", ["sl2 random product, induced g", "mixed denominators"])
def test_induce_g_matches_the_dense_reference(name):
    pair = pair_cases()[name]
    c, p, dim = pair.n.c, pair.prod.p, pair.dim
    g = products.induce_g(pair.n, pair.prod)
    assert tensor(g.c) == square(dim, lambda i, j: comb((1, p[i][j]), (-1, p[j][i]), (1, c[i][j])))


@pytest.mark.parametrize("name", list(pair_cases()))
def test_left_and_right_matrices_match_the_dense_reference(name):
    """L_i and R_i of every golden pair and of the two mixed-denominator pairs."""
    pair = pair_cases()[name]
    p, dim = pair.prod.p, pair.dim
    for i in range(dim):
        # column j of L_i is e_i . e_j, column j of R_i is e_j . e_i
        left = Matrix.from_rows(square(dim, lambda k, j: p[i][j][k]))
        right = Matrix.from_rows(square(dim, lambda k, j: p[j][i][k]))
        assert (pair.prod.left_matrix_basis(i), pair.prod.right_matrix_basis(i)) == (left, right)
