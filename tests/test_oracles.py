"""The residual oracles reject non-members, residual for residual.

Each oracle is compared against a reference written here with plain
``LieAlgebra.bracket`` and ``Matrix.apply``, on candidates made by perturbing
one coordinate of a computed basis vector until it leaves the space.

The oracles, the Jacobi check of ``LieAlgebra.validate`` and
``is_derivation`` contract an integer-scaled tensor and divide the scale back
out of a nonzero residual.  Rational tensors, weights and candidates check
that scale-back entry for entry, and a test runs the checks with the row
builder and the elimination kernel disabled.  ``members_verified``, which
reads a solved space's stored integer rows, must give the verdict of the
``Matrix`` oracles on every fixture and weight set, for the solved space and
for a copy with one row changed.  It packs the rows into one integer per
coordinate, so it is also checked slot by slot: with the first, a middle or
the last row changed, and on two rows whose residuals would cancel in a slot
too narrow for a sum of 3 n terms.  ``is_derivation``, the weighted
oracle's verdict with unit weights, is checked against the reference on
non-Lie brackets too, and the last two tests check that it agrees with the
post-Lie derivation rule and with the weighted oracle.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golden
from postlie import catalog, derivations, linalg
from postlie.derivations import (
    DerivationWeights,
    dspace,
    gder_triples,
    generalized_residuals,
    is_derivation,
    matrix_from_flat,
    members_verified,
    qder_pairs,
    quasi_residuals,
    weighted_residuals,
)
from postlie.lie import LieAlgebra, change_basis
from postlie.linalg import Matrix, Subspace
from postlie.products import BilinearProduct, PostLiePair, check_axioms

W = DerivationWeights.of


ALGEBRAS = {
    "sl2": catalog.get("sl2").algebra,
    "r31": catalog.get("r31").algebra,
    "heisenberg": catalog.get("heisenberg").algebra,
    "sl3-shear": change_basis(catalog.get("sl3").algebra, golden.shear(8)),
    # structure constants with denominators
    "sl3-rational": change_basis(catalog.get("sl3").algebra, golden.rational_basis_change(8)),
}


def assert_exact(actual, expected):
    """Equal residual for residual, and every returned entry a ``Fraction``."""
    assert actual == expected
    assert all(type(x) is Fraction for _, res in actual for x in res)


def reference(l, weights, phi, sigma, tau):
    """alpha tau([e_i,e_j]) - beta [phi e_i, e_j] - gamma [e_i, sigma e_j] per ordered pair."""
    n = l.dim
    out = []
    for i in range(n):
        ei = [Fraction(int(t == i)) for t in range(n)]
        for j in range(n):
            ej = [Fraction(int(t == j)) for t in range(n)]
            lhs = tau.apply(l.c[i][j])
            rhs_b = l.bracket(phi.column(i), ej)
            rhs_g = l.bracket(ei, sigma.column(j))
            res = tuple(
                weights.alpha * lhs[k] - weights.beta * rhs_b[k] - weights.gamma * rhs_g[k]
                for k in range(n)
            )
            if any(res):
                out.append(((i, j), res))
    return out


def _outside(space: Subspace, start: int, stop: int):
    """A basis vector of ``space`` (or zero) moved off it in [start, stop)."""
    vectors = space.basis_vectors()
    base = list(vectors[0]) if vectors else [Fraction(0)] * space.ambient_dim
    for pos in range(start, stop):
        moved = base[:]
        moved[pos] += Fraction(1, 3)
        if not space.contains(moved):
            return base, moved
    pytest.fail(f"every perturbation in [{start}, {stop}) stays inside the space")


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize(
    "w", [(1, 1, 1), (1, 1, 0), (0, 1, -1), (2, 3, Fraction(-1, 3)), (Fraction(1, 2), 1, Fraction(-1, 3))]
)
def test_weighted_oracle_matches_reference(name, w):
    l = ALGEBRAS[name]
    weights = W(*w)
    n = l.dim
    space = dspace(l, weights)
    member, moved = _outside(space, 0, n * n)
    for vec, inside in ((member, True), (moved, False)):
        phi = matrix_from_flat(vec, n)
        expected = reference(l, weights, phi, phi, phi)
        assert_exact(weighted_residuals(l, weights, phi), expected)
        assert (expected == []) == inside


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("block", [0, 1])
def test_quasi_oracle_matches_reference(name, block):
    l = ALGEBRAS[name]
    n = l.dim
    nn = n * n
    space = qder_pairs(l).pair_space
    member, moved = _outside(space, block * nn, (block + 1) * nn)
    for vec, inside in ((member, True), (moved, False)):
        phi, tau = matrix_from_flat(vec[:nn], n), matrix_from_flat(vec[nn:], n)
        expected = reference(l, W(1, 1, 1), phi, phi, tau)
        assert_exact(quasi_residuals(l, phi, tau), expected)
        assert (expected == []) == inside


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("block", [0, 1, 2])
def test_generalized_oracle_matches_reference(name, block):
    l = ALGEBRAS[name]
    n = l.dim
    nn = n * n
    space = gder_triples(l).triple_space
    member, moved = _outside(space, block * nn, (block + 1) * nn)
    for vec, inside in ((member, True), (moved, False)):
        phi, sigma, tau = (matrix_from_flat(vec[b * nn : (b + 1) * nn], n) for b in range(3))
        expected = reference(l, W(1, 1, 1), phi, sigma, tau)
        assert_exact(generalized_residuals(l, phi, sigma, tau), expected)
        assert (expected == []) == inside


def _unit(n, i):
    return [Fraction(int(t == i)) for t in range(n)]


def jacobi_reference(l):
    """[[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j] over i < j < l, by ``bracket``."""
    n = l.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                e = {t: _unit(n, t) for t in (i, j, k)}
                terms = [l.bracket(l.bracket(e[a], e[b]), e[c]) for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
                res = tuple(sum(col) for col in zip(*terms))
                if any(res):
                    out.append(((i, j, k), res))
    return out


def derivation_reference(l, d):
    """d[e_i,e_j] - [d e_i, e_j] - [e_i, d e_j] is zero on every ordered pair, by ``apply``."""
    n = l.dim
    for i in range(n):
        for j in range(n):
            lhs = d.apply(l.c[i][j])
            first = l.bracket(d.column(i), _unit(n, j))
            second = l.bracket(_unit(n, i), d.column(j))
            if any(a - b - c for a, b, c in zip(lhs, first, second)):
                return False
    return True


def _broken(l, i, j, k, delta):
    """The tensor of ``l`` with [e_i, e_j] moved by delta e_k, still antisymmetric."""
    c = [[list(row) for row in plane] for plane in l.c]
    c[i][j][k] += delta
    c[j][i][k] -= delta
    return LieAlgebra(c)


@pytest.mark.parametrize("name", ["sl3-shear", "sl3-rational"])
@pytest.mark.parametrize("delta", [Fraction(2, 7), Fraction(-5, 3)])
def test_validate_scale_back_on_a_rational_non_lie_tensor(name, delta):
    l = _broken(ALGEBRAS[name], 0, 1, 3, delta)
    expected = jacobi_reference(l)
    assert expected  # the perturbation breaks the Jacobi identity
    report = l.validate()
    assert report.antisymmetry == ()
    assert_exact(list(report.jacobi), expected)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_validate_accepts_lie_tensors(name):
    l = LieAlgebra(ALGEBRAS[name].c)
    assert jacobi_reference(l) == [] and l.validate().ok


NON_LIE = {
    "non-Jacobi sl3": golden.non_jacobi_sl3(),
    "non-antisymmetric sl2": golden.non_antisymmetric_sl2(),
    # [e_0, e_0] = e_1: the pairs i < j alone accept the identity map
    "square": LieAlgebra.from_brackets(2, {(0, 0): {1: 1}}),
}


@pytest.mark.parametrize("name", ["sl2", "sl3-shear", "sl3-rational", *NON_LIE])
def test_is_derivation_scale_back(name):
    valid = name in ALGEBRAS
    l = ALGEBRAS[name] if valid else NON_LIE[name]
    n = l.dim
    bump = Matrix(n, n, [Fraction(1, 5) if t == n + 2 else 0 for t in range(n * n)])
    one = Matrix.identity(n)
    cases = [(l, one)]
    for i in range(n):
        ad = l.ad_matrix(one.row(i))
        cases += [(l, ad), (l, ad * Fraction(-3, 4)), (l, ad + bump)]
        if valid:
            cases.append((_broken(l, 0, 1, 2, Fraction(1, 3)), ad))
            assert is_derivation(l, ad) and not is_derivation(l, ad + bump)
    for alg, d in cases:
        assert is_derivation(alg, d) == derivation_reference(alg, d)
    assert not is_derivation(l, one)


def test_checks_do_not_touch_the_solver(monkeypatch):
    """The oracles, Jacobi and the derivation check give the same answers
    with the row builder and the elimination kernel replaced by traps."""
    cases = []
    for l in (catalog.get("sl3").algebra, ALGEBRAS["sl3-shear"]):
        n = l.dim
        nn = n * n
        member, moved = _outside(dspace(l, W(1, 1, 0)), 0, nn)
        gmember, gmoved = _outside(gder_triples(l).triple_space, 2 * nn, 3 * nn)
        qmember, qmoved = _outside(qder_pairs(l).pair_space, nn, 2 * nn)
        spaces = [
            (W(1, 1, 0), dspace(l, W(1, 1, 0))),
            (W(1, 1, 1), qder_pairs(l).pair_space),
            (W(1, 1, 1), gder_triples(l).triple_space),
        ]
        spaces += [(w, golden.doctored(space)) for w, space in spaces]
        cases.append((l.c, member, moved, qmember, qmoved, gmember, gmoved, spaces))

    def trap(*args, **kwargs):
        raise AssertionError("a check reached the solver")

    for module, attr in (
        (derivations, "_identity_space"),
        (derivations, "_identity_parity"),
        (derivations, "int_nullspace"),
        (linalg, "int_nullspace"),
        (linalg, "reduce_int_rows"),
        (linalg, "_first_pass"),
    ):
        monkeypatch.setattr(module, attr, trap)
    with pytest.raises(AssertionError, match="solver"):
        dspace(ALGEBRAS["sl2"], W(1, 1, 1))

    for c, member, moved, qmember, qmoved, gmember, gmoved, spaces in cases:
        l = LieAlgebra(c)  # a fresh algebra: nothing cached
        n = l.dim
        nn = n * n
        assert l.validate().ok
        # the solved spaces pass, their doctored copies do not
        assert [members_verified(l, space, w) for w, space in spaces] == [True] * 3 + [False] * 3
        for i in range(n):
            assert is_derivation(l, l.ad_matrix(Matrix.identity(n).row(i)))
        for vec, inside in ((member, True), (moved, False)):
            phi = matrix_from_flat(vec, n)
            got = weighted_residuals(l, W(1, 1, 0), phi)
            assert_exact(got, reference(l, W(1, 1, 0), phi, phi, phi))
            assert (got == []) == inside
            assert is_derivation(l, phi) == derivation_reference(l, phi)
        for vec, inside in ((qmember, True), (qmoved, False)):
            phi, tau = matrix_from_flat(vec[:nn], n), matrix_from_flat(vec[nn:], n)
            got = quasi_residuals(l, phi, tau)
            assert_exact(got, reference(l, W(1, 1, 1), phi, phi, tau))
            assert (got == []) == inside
        for vec, inside in ((gmember, True), (gmoved, False)):
            phi, sigma, tau = (matrix_from_flat(vec[b * nn : (b + 1) * nn], n) for b in range(3))
            got = generalized_residuals(l, phi, sigma, tau)
            assert_exact(got, reference(l, W(1, 1, 1), phi, sigma, tau))
            assert (got == []) == inside


def _dense_verdict(l, weights, space) -> bool:
    """Membership by the ``Matrix`` oracles: each dense basis vector cut into n x n maps."""
    n = l.dim
    nn = n * n
    for vec in space.basis_vectors():
        maps = [matrix_from_flat(vec[s : s + nn], n) for s in range(0, len(vec), nn)]
        if derivations._residuals(l, weights, *maps):
            return False
    return True


# ``golden.WEIGHTS`` already holds (1/2, 1, 1)
AGREEMENT_WEIGHTS = golden.WEIGHTS + ((Fraction(1, 2), 1, Fraction(-1, 3)),)


@pytest.mark.parametrize("name", list(golden.fixtures()))
def test_members_verified_agrees_with_the_matrix_oracles(name):
    """On every weight set, the qder pairs and the gder triples: the solved space
    and a copy with one stored row changed get the verdict of the dense oracles."""
    l = golden.fixtures()[name]
    spaces = [(W(*w), dspace(l, W(*w))) for w in AGREEMENT_WEIGHTS]
    spaces += [(W(1, 1, 1), qder_pairs(l).pair_space), (W(1, 1, 1), gder_triples(l).triple_space)]
    rejected = 0
    for weights, space in spaces:
        pair = (space, golden.doctored(space))
        verdicts = [members_verified(l, s, weights) for s in pair]
        assert verdicts == [_dense_verdict(l, weights, s) for s in pair], (weights, space.ambient_dim)
        assert verdicts[0]
        rejected += not verdicts[1]
    assert bool(rejected) == (name != "abelian3")  # on an abelian algebra every map is a member


# -- the packed oracle, slot by slot ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _solved(name: str, blocks: int, w) -> Subspace:
    """The space of the identity with weights ``w`` over 1, 2 or 3 blocks of maps."""
    l = golden.fixtures()[name]
    return linalg.int_nullspace(derivations._identity_space(l, W(*w), blocks)[0], blocks * l.dim**2)


@st.composite
def perturbed_spaces(draw):
    """A solved space with its first, a middle or its last stored row, or two of
    them, changed off the pivot by a small amount or by one near the largest entry M."""
    name = draw(st.sampled_from(sorted(golden.fixtures())))
    blocks = draw(st.sampled_from([1, 2, 3]))
    w = draw(st.sampled_from([(1, 1, 1), (Fraction(1, 2), 3, Fraction(-2, 3)), (0, 1, -1), (2, 1, 1)]))
    space = _solved(name, blocks, w)
    assume(space.dim)
    rows = [dict(row) for row in space._rows]
    big = max(abs(v) for row in rows for v in row.values())
    slots = sorted({0, len(rows) // 2, len(rows) - 1})
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=2, unique=True))
    for s in chosen:
        col = draw(st.integers(0, space.ambient_dim - 1))
        if col == space._pivots[s]:
            col = (col + 1) % space.ambient_dim
        size = draw(st.one_of(st.integers(1, 3), st.integers(big - 2, big + 2).map(lambda x: max(x, 1))))
        value = rows[s].get(col, 0) + draw(st.sampled_from([1, -1])) * size
        if value:
            rows[s][col] = value
        else:
            del rows[s][col]
    return golden.fixtures()[name], W(*w), golden.stored(space.ambient_dim, rows, space._pivots)


@given(perturbed_spaces())
@settings(max_examples=120, deadline=None)
def test_packed_oracle_agrees_with_the_matrix_oracles_row_by_row(case):
    l, weights, space = case
    assert members_verified(l, space, weights) == _dense_verdict(l, weights, space)


def _central_line_algebra() -> LieAlgebra:
    """Dimension 5, every bracket a multiple of u = e_0 + ... + e_4, which is central:
    [e_0, e_1] = u, [e_0, e_4] = -u, [e_1, e_4] = u (h3 + a2 in another basis)."""
    n = 5
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, s in ((0, 1, 1), (0, 4, -1), (1, 4, 1)):
        c[i][j] = [s] * n
        c[j][i] = [-s] * n
    return LieAlgebra(c)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
def test_slot_width_holds_a_residual_entry_of_3n_terms(bits):
    """Two stored rows whose residuals cancel when packed ``bits`` bits apart.

    Only tau is nonzero, so each residual is tau(u) times a bracket
    coefficient.  Row 0 has tau(u) = -2^bits e_0 from five entries, row 1
    has tau(u) = e_0.  At 5 bits the entries are at most M = 7, so a sum of
    n terms, not one, reaches 2^(bit_length(A W M) + 2) = 32: the width must
    count them all.
    """
    l = _central_line_algebra()
    assert l.validate().ok
    nn = l.dim * l.dim
    tau = 2 * nn
    parts = [2**bits // 5 + (m < 2**bits % 5) for m in range(5)]  # five parts of 2^bits
    rows = [{tau + m: -v for m, v in enumerate(parts) if v}, {tau: 1}]
    space = golden.stored(3 * nn, rows, [tau, tau])
    assert not _dense_verdict(l, W(1, 1, 1), space)
    assert not members_verified(l, space)
    # each row alone, and the two in the other order
    for kept in ([rows[0]], [rows[1]], rows[::-1]):
        assert not members_verified(l, golden.stored(3 * nn, kept, [tau] * len(kept)))


def _moved(prod: BilinearProduct) -> BilinearProduct:
    """A copy with the first nonzero coefficient moved to the next output coordinate."""
    p = [[list(row) for row in plane] for plane in prod.p]
    adj = prod._adj
    nonzero = [(i, j, k) for i, plane in enumerate(adj) for j, row in enumerate(plane) for k, _ in row]
    i, j, k = nonzero[0] if nonzero else (0, 0, 0)
    value = p[i][j][k] or 1
    p[i][j][k] = 0
    p[i][j][(k + 1) % prod.dim] += value
    return BilinearProduct(p)


def test_is_derivation_agrees_with_the_derivation_rule():
    """L(e_i) fails ``is_derivation`` exactly when the derivation rule fails at some (i, j, k)."""
    failing = 0
    for name, pair in golden.product_cases().items():
        for prod in (pair.prod, _moved(pair.prod)):
            case = PostLiePair(pair.g, pair.n, prod)
            first = {idx[0] for idx, _ in check_axioms(case).derivation_rule}
            for i in range(case.dim):
                member = is_derivation(case.n, prod.left_matrix_basis(i))
                assert member == (i not in first), (name, i)
            failing += len(first)
    assert failing


def test_is_derivation_agrees_with_the_weighted_oracle():
    """On each ad e_i, a derivation, and on it plus one unit matrix."""
    outside = 0
    for name, l in golden.fixtures().items():
        n = l.dim
        for i in range(n):
            unit = Matrix(n, n, [int(t == i * n + (i + 1) % n) for t in range(n * n)])
            ad = l.ad_matrix(Matrix.identity(n).row(i))
            for d in (ad, ad + unit):
                member = is_derivation(l, d)
                assert member == (not weighted_residuals(l, W(1, 1, 1), d)), (name, i)
                outside += not member
    assert outside
