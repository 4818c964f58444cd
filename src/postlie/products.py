"""Post-Lie products on pairs of Lie brackets.

A candidate structure is a bilinear product tensor on the same space as two
Lie algebras g and n.  It is a post-Lie structure when three identities hold
on all basis tuples (bilinearity makes that equivalent to the universally
quantified statements):

  commutator rule    x.y - y.x = [x,y] - {x,y}
  left action rule   [x,y].z = x.(y.z) - y.(x.z)
  derivation rule    x.{y,z} = {x.y, z} + {y, x.z}

where [,] is the bracket of g and {,} the bracket of n.  Everything here is
verification and construction; nothing assumes a candidate is valid until it
has been checked.  Every construction is the structure x.y = {phi x, y} of a
map phi (``_induced_pair``): the split of n = A + B is that of phi = -pi_B,
and ``induce_g`` is the one code that makes g from a product.  Each fact has
one home: g keeps its own validation (``LieAlgebra.validate``), a result holds
its pair and not the pair's product again, and L_i and R_i are the product's
``left_matrix_basis(i)`` and ``right_matrix_basis(i)``.

Every check evaluates its identity on basis indices in integers: it scales
its tables and its inputs (phi, z, lambda) by one common denominator ``den``
(``lie._int_tables``), each term up to the degree of the identity, and packs
each row of a table into one integer (``lie._packed``).  A residual is then a
few multiply-adds of a structure constant and a packed row (``lie._dot``,
``lie._cyclic``), tested against zero once; ``sparse_residuals`` decodes a
nonzero one into ``Fraction``s.  An upper-case table is packed, and NT[k][m] is
n[m][k] packed.  A pair's tables are scaled and packed once
(``PostLiePair._scaled``).  Each identity is evaluated once per pair: ``check_axioms``
keeps its report on the pair, and the reports that restate the axioms read it.
The phi conditions reuse the scaling of n and phi that built the product.
Every record is a ``NamedTuple``, and every report derives its verdict ``ok``
and its JSON from its fields (``linalg._failure_report``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .lie import (
    Adj,
    LieAlgebra,
    ValidationReport,
    _adj_from_dense,
    _adj_from_entries,
    _bracket_terms,
    _cyclic,
    _dot,
    _int_tables,
    _matrix,
    _packed,
    _Table,
    _terms,
)
from .linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _checked_row,
    _checked_shape,
    _failure_report,
    _failures_ok,
    add_scaled,
    int_terms,
    nonzero_terms,
    rat,
    reduce_int_rows,
    sparse_residuals,
)

_ZERO = Fraction(0)

Vector = tuple[Fraction, ...]
Failure = tuple[tuple[int, ...], Vector]


def _table(entry, dim: int, scale: int) -> Adj:
    """The ``_adj`` table whose (i, j) row is the integer sparse sum entry(i, j) / scale."""
    rows = [[sorted(entry(i, j).items()) for j in range(dim)] for i in range(dim)]
    return tuple(tuple(tuple((k, Fraction(v, scale)) for k, v in r if v) for r in p) for p in rows)


def _commutator_residual(G, N, P, i: int, j: int) -> int:
    """e_i.e_j - e_j.e_i - [e_i,e_j] + {e_i,e_j}."""
    return P[i][j] - P[j][i] - G[i][j] + N[i][j]


def _left_action_residual(g: Adj, p: Adj, P, PT, i: int, j: int, k: int) -> int:
    """[e_i,e_j].e_k - e_i.(e_j.e_k) + e_j.(e_i.e_k), written out as in ``lie._cyclic``."""
    out = 0
    for m, v in g[i][j]:
        out += v * PT[k][m]
    for m, v in p[j][k]:
        out -= v * P[i][m]
    for m, v in p[i][k]:
        out += v * P[j][m]
    return out


def _derivation_residual(n: Adj, p: Adj, N, NT, P, i: int, j: int, k: int) -> int:
    """e_i.{e_j,e_k} - {e_i.e_j, e_k} - {e_j, e_i.e_k}, written out."""
    out = 0
    for m, v in n[j][k]:
        out += v * P[i][m]
    for m, v in p[i][j]:
        out -= v * NT[k][m]
    for m, v in p[i][k]:
        out -= v * N[j][m]
    return out


def _representation_failures(left_action: Sequence[Failure], dim: int) -> tuple[Failure, ...]:
    """L([e_i,e_j]) - [L_i, L_j] row-major per pair; column c is the failure at (i, j, c)."""
    grouped: dict[tuple[int, ...], list] = {}
    for (i, j, c), res in left_action:
        grouped.setdefault((i, j), [_ZERO] * (dim * dim))[c::dim] = res
    return tuple((ij, tuple(flat)) for ij, flat in grouped.items())


class BilinearProduct(_Table):
    """A bilinear product e_i . e_j = sum_k p[i][j][k] e_k, stored as its sparse table.

    As for ``LieAlgebra``, ``_adj[i][j]`` lists the nonzero ``(k, p[i][j][k])``
    in ascending k, and no symmetry is implied.  The dense tensor ``p`` is a
    read-only view, built on first access.
    """

    __slots__ = ()

    def __init__(self, table: Sequence):
        self._store(_adj_from_dense(table, "product tensor"))

    p = property(_Table._dense_view, doc="The dense tensor p[i][j][k], a read-only view.")

    @classmethod
    def zero(cls, dim: int) -> "BilinearProduct":
        return cls.from_entries(dim, {})

    @classmethod
    def from_entries(
        cls, dim: int, entries: Mapping[tuple[int, int], Mapping[int, object]]
    ) -> "BilinearProduct":
        """Sparse constructor; missing pairs are zero, no symmetry is implied."""
        return cls._from_adj(_adj_from_entries(dim, entries, fill_antisymmetric=False))

    def left_matrix_basis(self, i: int) -> Matrix:
        """Matrix of y -> e_i . y."""
        return _matrix(self.dim, self._adj[i])

    def right_matrix_basis(self, i: int) -> Matrix:
        """Matrix of y -> y . e_i."""
        return _matrix(self.dim, (plane[i] for plane in self._adj))


class _Pair(NamedTuple):
    g: LieAlgebra
    n: LieAlgebra
    prod: BilinearProduct


class PostLiePair(_Pair):
    """Two brackets and a product candidate on one underlying space."""

    _axioms: AxiomReport | None = None  # set once by ``check_axioms``

    def __new__(cls, g: LieAlgebra, n: LieAlgebra, prod: BilinearProduct):
        if not (g.dim == n.dim == prod.dim):
            raise DimensionMismatch("pair members must share one dimension")
        return super().__new__(cls, g, n, prod)

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds through here: check it too
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError("PostLiePair is immutable")

    @property
    def dim(self) -> int:
        return self.n.dim

    @cached_property
    def _scaled(self) -> tuple:
        """``(den, bits, (g, n, p), (G, N, P), (GT, NT, PT))``: the tables in integers, packed
        and transposed; a residual sums at most 9 n products (the multiplication cycle)."""
        den, tables = _int_tables(self.g._adj, self.n._adj, self.prod._adj)
        bits, packed = _packed(9 * self.dim, 2, *tables)
        return den, bits, tables, packed, [tuple(zip(*t)) for t in packed]


@_failure_report
class AxiomReport(NamedTuple):
    commutator_rule: tuple[Failure, ...]
    left_action_rule: tuple[Failure, ...]
    derivation_rule: tuple[Failure, ...]


def check_axioms(pair: PostLiePair) -> AxiomReport:
    """Evaluate the three defining identities on basis tuples.

    Index ranges use the antisymmetry of the two brackets, so pairs run over
    i < j and the derivation rule over j < k; inputs are expected to be valid
    Lie algebras (use ``LieAlgebra.validate`` for that half of the story).
    The members are immutable, so the report is computed once and kept.
    """
    if pair._axioms is None:
        den, bits, (g, n, p), (G, N, P), (_, NT, PT) = pair._scaled
        dim, sq = pair.dim, den * den
        pairs = list(combinations(range(dim), 2))
        pair_k = [(i, j, k) for i, j in pairs for k in range(dim)]
        i_pair = [(i, j, k) for i in range(dim) for j, k in pairs]
        # the commutator rule is linear in the tables, the other two quadratic
        report = AxiomReport(
            sparse_residuals(partial(_commutator_residual, G, N, P), pairs, dim, den, bits),
            sparse_residuals(partial(_left_action_residual, g, p, P, PT), pair_k, dim, sq, bits),
            sparse_residuals(partial(_derivation_residual, n, p, N, NT, P), i_pair, dim, sq, bits),
        )
        object.__setattr__(pair, "_axioms", report)
    return pair._axioms


@_failure_report
class DerivedIdentityReport(NamedTuple):
    """Cyclic consequences of the axioms, rechecked rather than assumed."""

    action_cycle: tuple[Failure, ...]
    multiplication_cycle: tuple[Failure, ...]


def check_derived_identities(pair: PostLiePair) -> DerivedIdentityReport:
    """Evaluate the two cyclic identities every post-Lie structure satisfies.

    First: x.{y,z} + y.{z,x} + z.{x,y} equals the cyclic sum of {[x,y], z}.
    Second: {x,y}.z + {y,z}.x + {z,x}.y equals that same cyclic sum plus the
    cyclic sum of [{x,y}, z].  Both sides are alternating, so basis triples
    i < j < k suffice.
    """
    den, bits, (g, n, _), (_, _, P), (GT, NT, PT) = pair._scaled
    dim = pair.dim
    triples = list(combinations(range(dim), 3))

    def action(i, j, k):
        # x.{y,z} - {[x,y], z}, cyclically, times den^2
        return _cyclic(n, P, i, j, k) - _cyclic(g, NT, i, j, k)

    def multiplication(i, j, k):
        # {x,y}.z - [{x,y}, z] - {[x,y], z}, cyclically, times den^2
        return _cyclic(n, PT, i, j, k) - _cyclic(n, GT, i, j, k) - _cyclic(g, NT, i, j, k)

    return DerivedIdentityReport(
        sparse_residuals(action, triples, dim, den * den, bits),
        sparse_residuals(multiplication, triples, dim, den * den, bits),
    )


@_failure_report
class LeftMultiplicationReport(NamedTuple):
    representation_failures: tuple[Failure, ...]
    derivation_failures: tuple[Failure, ...]


def left_multiplication_checks(pair: PostLiePair) -> LeftMultiplicationReport:
    """Check that x -> L(x) represents g and lands in derivations of n.

    Both restate axioms and are read from ``check_axioms``: the left-action
    failures regrouped by pair, and the derivation-rule failures.  The report
    holds no matrices: L_i and R_i are ``pair.prod.left_matrix_basis(i)`` and
    ``pair.prod.right_matrix_basis(i)``.
    """
    axioms = check_axioms(pair)
    return LeftMultiplicationReport(
        _representation_failures(axioms.left_action_rule, pair.dim),
        axioms.derivation_rule,
    )


def induce_g(n: LieAlgebra, prod: BilinearProduct) -> LieAlgebra:
    """Solve the commutator rule for the g-bracket.

    The candidate bracket is [x,y] = x.y - y.x + {x,y}; antisymmetry holds by
    construction, and the Jacobi identity may fail: ``g.validate()`` reports
    it, and keeps that report on g, rather than raising, so searches can see
    why a candidate dies.
    """
    if n.dim != prod.dim:
        raise DimensionMismatch("algebra and product dimensions differ")
    den, (nadj, padj) = _int_tables(n._adj, prod._adj)

    def bracket(i, j):
        # e_i.e_j - e_j.e_i + {e_i,e_j}
        out = dict(padj[i][j])
        add_scaled(out, -1, padj[j][i])
        add_scaled(out, 1, nadj[i][j])
        return out

    return LieAlgebra._from_adj(_table(bracket, n.dim, den), n.labels)


@_failure_report
class PhiConditions(NamedTuple):
    """The two closure conditions for products of the form x.y = {phi(x), y}."""

    difference_rule: tuple[Failure, ...]
    homomorphism_rule: tuple[Failure, ...]
    induced_bracket_validation: ValidationReport


class PhiInducedResult(NamedTuple):
    phi: Matrix
    pair: PostLiePair
    conditions: PhiConditions


def _induced_pair(n: LieAlgebra, phi_cols) -> tuple[PostLiePair, tuple]:
    """The pair of x.y = {phi x, y} over the bracket of n, with g from ``induce_g``,
    and the scaling ``(den, nadj, cols)`` of n and phi it used; column i of phi is
    the sparse terms ``phi_cols[i]``."""
    den, (nadj, (cols,)) = _int_tables(n._adj, (phi_cols,))
    # e_i . e_j = {phi e_i, e_j}, times den^2
    prod = BilinearProduct._from_adj(
        _table(lambda i, j: _bracket_terms({}, 1, nadj, cols[i], ((j, 1),)), n.dim, den * den)
    )
    return PostLiePair(induce_g(n, prod), n, prod), (den, nadj, cols)


def phi_induced(n: LieAlgebra, phi: Matrix) -> PhiInducedResult:
    """Build the candidate structure x.y = {phi(x), y} over the bracket of n.

    The g-bracket is induced from the commutator rule.  The conditions report
    covers the difference rule {phi x, y} + {x, phi y} = [x,y] - {x,y}, the
    homomorphism rule phi([x,y]) = {phi x, phi y}, and the Jacobi identity of
    the induced bracket; the candidate is post-Lie exactly when all pass.
    The conditions reuse the scaling of n and phi from ``_induced_pair``.
    """
    _checked_shape(phi, n.dim, n.dim, "phi")
    dim = n.dim
    pair, (den, nadj, cols) = _induced_pair(
        n, tuple(nonzero_terms(phi.column(i)) for i in range(dim))
    )
    # g's entries lie in Z/den^2; with A the largest of den and the entries of n and
    # phi, they are at most 3 n A^2, so a residual is at most 4 n^2 A^3
    g = tuple(tuple(int_terms(row, den * den) for row in plane) for plane in pair.g._adj)
    bits, (N, (PHI,)) = _packed(4 * dim * dim, 3, nadj, (cols,), top=den)
    NT = tuple(zip(*N))
    # {e_a, phi e_j}, packed, for every j and a
    n_phi = [[_dot(c, row) for row in N] for c in cols]

    def difference(i, j):
        # {phi e_i, e_j} + {e_i, phi e_j} - [e_i,e_j] + {e_i,e_j}, times den^2: g is
        # x.y - y.x + {x,y} term by term, so this is {e_i, phi e_j} + {phi e_j, e_i}
        # exactly, also when n is not antisymmetric
        return n_phi[j][i] + _dot(cols[j], NT[i])

    def homomorphism(i, j):
        # phi([e_i,e_j]) - {phi e_i, phi e_j}, times den^3
        return _dot(g[i][j], PHI) - _dot(cols[i], n_phi[j])

    pairs = list(combinations(range(dim), 2))
    conditions = PhiConditions(
        sparse_residuals(difference, pairs, dim, den**2, bits),
        sparse_residuals(homomorphism, pairs, dim, den**3, bits),
        pair.g.validate(),
    )
    return PhiInducedResult(phi, pair, conditions)


class FamilyCheck(NamedTuple):
    constraints_hold: bool
    block: Matrix
    phi: Matrix
    result: PhiInducedResult


def cross_factor_block(alpha, beta, gamma, delta, epsilon) -> Matrix:
    """The parametrized 3x3 block of factor-mixing maps on sl2+sl2.

    The bottom-right entry is (alpha*delta + beta*gamma)/epsilon: that is the
    value forced by the homomorphism condition on the block (it must equal
    A11*A22 - A21*A12), and it reproduces the distinguished example at the
    parameter point (4, -4, -1, 2, 4).
    """
    a, b, g, d, e = (rat(v) for v in (alpha, beta, gamma, delta, epsilon))
    if a == 0 or g == 0 or e == 0:
        raise ValueError("alpha, gamma and epsilon must be nonzero")
    return Matrix.from_rows(
        [
            [a, -b * b / (4 * a), b],
            [g, -d * d / (4 * g), d],
            [-e / 2, -b * d / (2 * e), (a * d + b * g) / e],
        ]
    )


def cross_factor_embedding(block: Matrix) -> Matrix:
    """The 6x6 map on sl2+sl2 that sends the first factor through ``block`` into the second."""
    return Matrix.from_rows([[0] * 6] * 3 + [list(block.row(i)) + [0] * 3 for i in range(3)])


def cross_factor_family(n: LieAlgebra, alpha, beta, gamma, delta, epsilon) -> FamilyCheck:
    """Evaluate one member of the factor-mixing family on a 6-dim double algebra.

    Reports whether the parameters satisfy the closure constraints
    epsilon = alpha*delta - beta*gamma and epsilon^2 + 4*alpha*gamma = 0, and
    independently whether the built map passes the structural conditions; the
    two verdicts must agree and tests hold that property.
    """
    if n.dim != 6:
        raise DimensionMismatch("the family lives on a 6-dimensional double algebra")
    a, b, g, d, e = (rat(v) for v in (alpha, beta, gamma, delta, epsilon))
    block = cross_factor_block(a, b, g, d, e)
    phi = cross_factor_embedding(block)
    constraints = (e == a * d - b * g) and (e * e + 4 * a * g == 0)
    return FamilyCheck(constraints, block, phi, phi_induced(n, phi))


class SplitResult(NamedTuple):
    pair: PostLiePair
    projection_first: Matrix
    projection_second: Matrix
    phi: Matrix


def split_construction(n: LieAlgebra, first: Subspace, second: Subspace) -> SplitResult:
    """Post-Lie structure from a decomposition of n into two subalgebras.

    For x = a + b along n = A + B the product is x . y = -{b, y}: the
    phi-induced structure of phi = -pi_B, with g from the commutator rule,
    [x, y] = {a_x, a_y} - {b_x, b_y}.  The inputs must be subalgebras
    intersecting trivially whose dimensions fill the space; the returned pair
    is verified before it is handed back.

    The projections are one kernel call: the rows (a, 0), a in A, and (b, b),
    b in B, span {(x, b_x)} in 2 dim columns.  As in ``Matrix.inverse``, the
    pivots are 0..dim-1 exactly when n = A + B is direct: an overlap or too
    many rows puts a pivot right of the left block, too few rows leave a
    pivot out.  Then reduced row i is r (e_i, b_i) with r > 0,
    a_i = e_i - b_i and phi = -b.
    """
    if not n.is_subalgebra(first) or not n.is_subalgebra(second):
        raise ValueError("both summands must be subalgebras")
    dim = n.dim
    rows = [*first._rows, *({**r, **{dim + k: v for k, v in r.items()}} for r in second._rows)]
    if reduce_int_rows(rows) != list(range(dim)):
        raise ValueError("summands must split the space as a direct sum")
    b = [{k - dim: Fraction(v, r[i]) for k, v in r.items() if k >= dim} for i, r in enumerate(rows)]
    minus_b = [{k: -v for k, v in c.items()} for c in b]
    a = [{**c, i: c.get(i, 0) + 1} for i, c in enumerate(minus_b)]
    columns = [tuple(map(_terms, m)) for m in (a, b, minus_b)]
    pair, _ = _induced_pair(n, columns[2])
    if not check_axioms(pair).ok or not pair.g.validate().ok:
        n.require_valid()  # on a Lie algebra n the pair is post-Lie: name n's violations
        raise ValueError("split construction produced an unverified pair")
    proj_a, proj_b, phi = (_matrix(dim, cols) for cols in columns)
    return SplitResult(pair, proj_a, proj_b, phi)


@_failure_report
class AdjointFamilyConditions(NamedTuple):
    """Checks for products x.y = {{z,x},y} + lambda {x,y}."""

    bracket_formula_failures: tuple[Failure, ...]
    composition_failures: tuple[Failure, ...]
    annihilating_poly_ok: bool


class AdjointFamilyResult(NamedTuple):
    phi: Matrix
    pair: PostLiePair
    phi_conditions: PhiConditions
    conditions: AdjointFamilyConditions


def adz_lambda(n: LieAlgebra, z: Sequence, lam) -> AdjointFamilyResult:
    """Candidate structure from phi = ad(z) + lambda id.

    Three separate condition groups are evaluated: the induced bracket must
    satisfy [x,y] = {z,{x,y}} + (2 lambda + 1){x,y}; the composition identity
    {{z,x},{z,y}} = {z,{z,{x,y}}} + (2 lambda + 1){z,{x,y}} +
    (lambda^2 + lambda){x,y} must hold; and the operator identity
    ad(z)^3 + (2 lambda + 1) ad(z)^2 + (lambda^2 + lambda) ad(z) = 0 is
    reported as a consequence check.  The candidate is post-Lie exactly when
    the first two groups are clean.
    """
    zs = _checked_row(z, n.dim, "z")
    lam = rat(lam)
    dim = n.dim
    # ad(z) + lambda id: lambda is added on the diagonal only
    adz = n.ad_matrix(zs).entries
    phi = Matrix(dim, dim, [x + lam if k % (dim + 1) == 0 else x for k, x in enumerate(adz)])
    result = phi_induced(n, phi)
    # z and lambda as one plane of two rows, scaled with the tables
    inputs = ((nonzero_terms(zs), ((0, lam),)),)
    den, (nadj, gadj, ((zt, ((_, lam),)),)) = _int_tables(n._adj, result.pair.g._adj, inputs)
    # ad(z) e_i and ad(z)^2 e_i, times den^2 and den^4; (2 lambda + 1) and
    # (lambda^2 + lambda), times den^2 and den^4
    adz = [_bracket_terms({}, 1, nadj, zt, ((i, 1),)).items() for i in range(dim)]
    adz2 = [_bracket_terms({}, 1, nadj, zt, c).items() for c in adz]
    two_lam_one = (2 * lam + den) * den
    lam_sq = (lam * lam + lam * den) * den * den
    # a residual sums at most (n + 1)^2 products of three entries or scalars
    top = max(den * den, abs(two_lam_one), abs(lam_sq))
    bits, (N, G, (Z, Z2)) = _packed((dim + 1) ** 2, 3, nadj, gadj, (adz, adz2), top=top)
    # {e_a, ad(z) e_j}, times den^3, for every j and a; (ad(z)^2 + (2 lambda + 1) ad(z)) e_m
    n_adz = [[_dot(c, row) for row in N] for c in adz]
    w = [z2 + two_lam_one * z1 for z1, z2 in zip(Z, Z2)]

    def bracket_formula(i, j):
        # [e_i,e_j] - {z,{e_i,e_j}} - (2 lambda + 1){e_i,e_j}, times den^3
        return den * den * G[i][j] - _dot(nadj[i][j], Z) - two_lam_one * N[i][j]

    def composition(i, j):
        # {{z,e_i},{z,e_j}} - {z,{z,{e_i,e_j}}} - (2 lambda + 1){z,{e_i,e_j}}
        #   - (lambda^2 + lambda){e_i,e_j}, times den^5
        return _dot(adz[i], n_adz[j]) - _dot(nadj[i][j], w) - lam_sq * N[i][j]

    def poly(j):
        # (ad(z)^3 + (2 lambda + 1) ad(z)^2 + (lambda^2 + lambda) ad(z)) e_j, times den^6
        return _dot(adz2[j], Z) + two_lam_one * Z2[j] + lam_sq * Z[j]

    pairs = list(combinations(range(dim), 2))
    conditions = AdjointFamilyConditions(
        sparse_residuals(bracket_formula, pairs, dim, den**3, bits),
        sparse_residuals(composition, pairs, dim, den**5, bits),
        not any(map(poly, range(dim))),
    )
    return AdjointFamilyResult(phi, result.pair, result.conditions, conditions)


@_failure_report
class EmbeddingReport(NamedTuple):
    """Failures of the semidirect-product embedding x -> (x, L(x))."""

    failures: tuple[Failure, ...]
    injective: bool

    @property
    def ok(self) -> bool:
        return _failures_ok(self) and self.injective


def embed_check(pair: PostLiePair) -> EmbeddingReport:
    """Verify that x -> (x, L(x)) intertwines g with the extension bracket.

    The image bracket of (e_i, L(e_i)) and (e_j, L(e_j)) under
    [(x, D), (x', D')] = ({x, x'} + D x' - D' x, [D, D']) must equal
    ([e_i, e_j], L([e_i, e_j])).  Injectivity is immediate: the first component
    is the identity.  The two parts of the difference restate axioms: the
    first component is the commutator rule, the second the left-action rule
    [L_i, L_j] = L([e_i, e_j]).  The check requires a pair passing the axioms
    (``check_axioms``), so both parts are empty and it has no failure to report.
    """
    if not check_axioms(pair).ok:
        raise ValueError("embedding check requires a pair passing the axioms")
    return EmbeddingReport((), injective=True)
