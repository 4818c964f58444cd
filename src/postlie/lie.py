"""Lie algebras given by structure constants, with exact structural invariants.

An algebra of dimension n is stored once, as the sparse table ``_adj`` of the
tensor c[i][j][k] defining [e_i, e_j] = sum_k c[i][j][k] e_k: ``_adj[i][j]``
lists the nonzero ``(k, c[i][j][k])`` in ascending k.  Both orientations
(i, j) and (j, i) are stored verbatim, so antisymmetry is *checked*, never
silently enforced, and corrupt input data stays detectable.  The table holds
no zeros, so equal tensors have equal tables.  The dense tensor ``c`` is a
read-only view, built on first access.

The builders here serve ``products.BilinearProduct`` too.  Tables are contracted
in integers, scaled by one common denominator (``_int_tables``).  The identity
checks pack each table row into one integer (``_packed``) and sum whole rows
(``_dot``, ``_cyclic``); the derivation oracles of ``derivations``, which
imports this module, contract sparse rows with ``_gder_residual``.
``bracket``, ``ad_matrix``, ``change_basis`` and ``check_hom_witness`` read
``Fraction``s; the witness check reads every ordered basis pair, so it needs
no antisymmetric bracket.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _failure_report,
    add_scaled,
    failures_to_json,
    int_nullspace,
    int_terms,
    nonzero_terms,
    rat,
    sparse_residuals,
)

_ZERO = Fraction(0)


class InvalidLieAlgebra(ValueError):
    """Raised when an operation requires a valid Lie algebra but got none."""


@_failure_report
class ValidationReport(NamedTuple):
    """Structure-tensor defects: antisymmetry failures and Jacobi failures."""

    antisymmetry: tuple[tuple[int, int, int], ...] = ()
    jacobi: tuple[tuple[tuple[int, int, int], tuple[Fraction, ...]], ...] = ()

    def as_dict(self) -> dict:
        # the JSON names these lists violations; an antisymmetry failure is a bare (i, j, k)
        return {
            "ok": self.ok,
            "antisymmetry_violations": [list(t) for t in self.antisymmetry],
            "jacobi_violations": failures_to_json(self.jacobi),
        }


class InvariantReport(NamedTuple):
    dim: int
    derived_series_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    center_dim: int
    killing_rank: int
    is_solvable: bool
    is_nilpotent: bool
    is_semisimple: bool
    is_perfect: bool
    is_unimodular: bool

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}


class HomWitnessReport(NamedTuple):
    is_hom: bool
    is_injective: bool
    is_iso: bool

    def as_dict(self) -> dict:
        return self._asdict()


Adj = tuple  # a ``_adj`` table: adj[i][j] holds the nonzero (k, value) of e_i * e_j


def _terms(row: Mapping[int, Fraction]) -> tuple:
    """The ``_adj`` row of a sparse {k: value} map: nonzero values, ascending k."""
    return tuple((k, row[k]) for k in sorted(row) if row[k])


def _adj_from_dense(table: Sequence, what: str) -> Adj:
    """The ``_adj`` table of an outside dense n x n x n table, entries coerced by ``rat``."""
    t = [[[rat(x) for x in row] for row in plane] for plane in table]
    n = len(t)
    if any(len(plane) != n or any(len(row) != n for row in plane) for plane in t):
        raise ValueError(f"{what} must be n x n x n")
    return tuple(tuple(nonzero_terms(row) for row in plane) for plane in t)


def _adj_from_entries(
    dim: int, entries: Mapping[tuple[int, int], Mapping[int, object]], fill_antisymmetric: bool
) -> Adj:
    """The ``_adj`` table of a sparse {(i, j): {k: value}} table; missing pairs are zero.

    With ``fill_antisymmetric``, a pair given in one orientation only gets the
    negated row in the other; pairs given in both are stored verbatim.  Every
    index must be an ``int`` (not a ``bool``) in [0, dim).
    """
    rows: dict[tuple[int, int], tuple] = {}
    for (i, j), coords in entries.items():
        for k in (i, j, *coords):
            if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < dim:
                raise ValueError(f"pair ({i!r}, {j!r}): index {k!r} is not an int in [0, {dim})")
        rows[i, j] = _terms({k: rat(v) for k, v in coords.items()})
    if fill_antisymmetric:
        for (i, j), terms in list(rows.items()):
            rows.setdefault((j, i), tuple((k, -v) for k, v in terms))
    return tuple(tuple(rows.get((i, j), ()) for j in range(dim)) for i in range(dim))


def _bracket_terms(out: dict, s, adj: Adj, xs, ys) -> dict:
    """out += s * (x * y) for sparse vectors xs, ys under the table adj."""
    for a, x in xs:
        row = adj[a]
        sx = s * x
        for b, y in ys:
            add_scaled(out, sx * y, row[b])
    return out


def _gder_residual(adj: Adj, phi, sigma, tau, i: int, j: int) -> dict:
    """tau[e_i,e_j] - [phi e_i, e_j] - [e_i, sigma e_j]; column m of a map is ``phi[m]``.

    Columns are sparse (row, value) terms, with any weights multiplied in.
    """
    out: dict = {}
    for m, v in adj[i][j]:
        add_scaled(out, v, tau[m])
    for m, v in phi[i]:
        add_scaled(out, -v, adj[m][j])
    for m, v in sigma[j]:
        add_scaled(out, -v, adj[i][m])
    return out


def _int_tables(*tables) -> tuple[int, list]:
    """``(den, tables)``: the lcm of every denominator, and each ``_adj``-shaped table
    times it in ints.  The columns of a map, or a vector, are passed as one plane."""
    den = lcm(*{v.denominator for t in tables for plane in t for row in plane for _, v in row})
    return den, [
        tuple(tuple(row and int_terms(row, den) for row in plane) for plane in t) for t in tables
    ]


def _packed(terms: int, degree: int, *tables, top: int = 1) -> tuple[int, list]:
    """``(bits, tables)``: integer ``_adj``-shaped tables with each row packed into one
    integer, entry k in bits [bits k, bits k + bits) (Kronecker substitution).

    A residual summed from the rows has at most ``terms`` products of ``degree``
    factors of at most A, the largest of ``top`` and every |entry|.  So with bits
    = bit_length(terms A^degree) + 2 it is zero exactly when every entry is."""
    entries = (abs(v) for t in tables for plane in t for row in plane for _, v in row)
    bits = (terms * max(top, max(entries, default=0)) ** degree).bit_length() + 2
    return bits, [
        tuple(tuple(sum(v << bits * k for k, v in row) if row else 0 for row in p) for p in t)
        for t in tables
    ]


def _dot(terms, rows) -> int:
    """The packed sum of v * rows[m] over sparse integer (m, v) terms."""
    out = 0
    for m, v in terms:
        out += v * rows[m]
    return out


def _cyclic(inner: Adj, rows, i: int, j: int, k: int) -> int:
    """The cyclic sum of sum_m inner[x][y][m] rows[z][m]: of z * (x * y) with ``rows`` a
    packed table P, of (x * y) * z with ``tuple(zip(*P))``.  The sums are written out,
    not ``_dot`` calls: this is the innermost loop of the Jacobi and cyclic checks."""
    out = 0
    for m, v in inner[i][j]:
        out += v * rows[k][m]
    for m, v in inner[j][k]:
        out += v * rows[i][m]
    for m, v in inner[k][i]:
        out += v * rows[j][m]
    return out


def _matrix(n: int, columns) -> Matrix:
    """The n x n matrix whose column j holds the sparse (row, value) terms ``columns[j]``."""
    entries = [_ZERO] * (n * n)
    for j, terms in enumerate(columns):
        for k, v in terms:
            entries[k * n + j] = v
    return Matrix(n, n, entries)


class _Table:
    """An immutable bilinear table on an n-dimensional space, stored as ``_adj``."""

    __slots__ = ("dim", "_adj", "_dense")

    @classmethod
    def _from_adj(cls, adj: Adj, *args):
        """Wrap a table already in ``_adj`` form: nonzero rows in ascending k."""
        self = object.__new__(cls)
        self._store(adj, *args)
        return self

    def _store(self, adj: Adj) -> None:
        object.__setattr__(self, "dim", len(adj))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_dense", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _dense_view(self) -> tuple:
        """The dense n x n x n tensor of ``Fraction``, built on first access."""
        if self._dense is None:
            n = self.dim
            dense = tuple(
                tuple(tuple(dict(terms).get(k, _ZERO) for k in range(n)) for terms in plane)
                for plane in self._adj
            )
            object.__setattr__(self, "_dense", dense)
        return self._dense

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim {self.dim})"


class LieAlgebra(_Table):
    """A Lie algebra in a fixed basis, defined by its structure tensor."""

    __slots__ = ("labels", "_int_adj", "_validation")

    def __init__(self, table: Sequence, labels: Sequence[str] | None = None):
        self._store(_adj_from_dense(table, "structure tensor"), labels)

    def _store(self, adj: Adj, labels: Sequence[str] | None = None) -> None:
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(adj):
                raise ValueError("one label per basis vector")
        super()._store(adj)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_int_adj", None)
        object.__setattr__(self, "_validation", None)

    c = property(_Table._dense_view, doc="The dense tensor c[i][j][k], a read-only view.")

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        """Build the algebra from a sparse table of basis brackets.

        Any pair given in one orientation only gets the negated entry in the
        other; explicitly given pairs are stored verbatim.
        """
        return cls._from_adj(_adj_from_entries(dim, brackets, fill_antisymmetric=True), labels)

    def int_adj(self) -> tuple[int, tuple]:
        """``(den, adj)``: one common denominator and ``_adj`` scaled by it to ints.

        Computed once, for the checks that contract the tensor in integers.
        """
        if self._int_adj is None:
            den, (adj,) = _int_tables(self._adj)
            object.__setattr__(self, "_int_adj", (den, adj))
        return self._int_adj

    # -- evaluation --------------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """Bilinear expansion of [x, y] in coordinates."""
        xs = [rat(v) for v in x]
        ys = [rat(v) for v in y]
        if len(xs) != self.dim or len(ys) != self.dim:
            raise DimensionMismatch("vector length must equal the algebra dimension")
        out = _bracket_terms({}, 1, self._adj, nonzero_terms(xs), nonzero_terms(ys))
        return tuple(out.get(k, _ZERO) for k in range(self.dim))

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y]; column j is [x, e_j]."""
        xs = [rat(v) for v in x]
        if len(xs) != self.dim:
            raise DimensionMismatch("vector length must equal the algebra dimension")
        xt = nonzero_terms(xs)
        cols = (_bracket_terms({}, 1, self._adj, xt, ((j, 1),)).items() for j in range(self.dim))
        return _matrix(self.dim, cols)

    # -- validity ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report every violated antisymmetry entry and Jacobi triple.

        The algebra is immutable, so the report is computed once and kept.
        """
        if self._validation is not None:
            return self._validation
        n = self.dim
        den, iadj = self.int_adj()
        # a Jacobi residual sums 3 n products of two entries
        bits, (packed,) = _packed(3 * n, 2, iadj)
        upper = combinations_with_replacement(range(n), 2)
        sums = sparse_residuals(lambda i, j: packed[i][j] + packed[j][i], upper, n, 1, bits)
        anti = tuple((i, j, k) for (i, j), total in sums for k, v in enumerate(total) if v)
        # [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j], times den^2
        jacobi = partial(_cyclic, iadj, tuple(zip(*packed)))
        triples = combinations(range(n), 3)
        report = ValidationReport(anti, sparse_residuals(jacobi, triples, n, den * den, bits))
        object.__setattr__(self, "_validation", report)
        return report

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidLieAlgebra(
                f"{len(report.antisymmetry)} antisymmetry and "
                f"{len(report.jacobi)} Jacobi violations"
            )

    # -- derived structure -------------------------------------------------

    def subspace_bracket(self, u: Subspace, v: Subspace) -> Subspace:
        """Span of [x, y] over basis vectors x of u and y of v."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise DimensionMismatch("subspace ambient dimension must equal the algebra dimension")
        _, adj = self.int_adj()
        rows = []
        # integer multiples of [x, y]: the stored rows and the tensor are scaled
        for x in u._rows:
            for y in v._rows:
                out = _bracket_terms({}, 1, adj, x.items(), y.items())
                rows.append({k: c for k, c in out.items() if c})
        return Subspace._from_int_rows(rows, self.dim)

    def is_subalgebra(self, u: Subspace) -> bool:
        return u.contains_subspace(self.subspace_bracket(u, u))

    def killing_form(self) -> Matrix:
        """Symmetric matrix K[i][j] = tr(ad e_i . ad e_j) = sum over m, k of c_im^k c_jk^m."""
        n = self.dim
        den, adj = self.int_adj()
        # ad e_i as the map (m, k) -> c_im^k, times den
        ads = [{(m, k): v for m, terms in enumerate(plane) for k, v in terms} for plane in adj]
        entries = [_ZERO] * (n * n)
        for i in range(n):
            ad_i = ads[i]
            for j in range(i, n):
                t = sum(v * ad_i.get((m, k), 0) for k, terms in enumerate(adj[j]) for m, v in terms)
                entries[i * n + j] = entries[j * n + i] = Fraction(t, den * den)
        return Matrix(n, n, entries)

    def center(self) -> Subspace:
        """Kernel of y -> [e_i, y] over all i: one integer row per (i, k), in the columns j."""
        _, adj = self.int_adj()
        rows: dict[tuple[int, int], dict] = {}
        for i, plane in enumerate(adj):
            for j, terms in enumerate(plane):
                for k, v in terms:
                    rows.setdefault((i, k), {})[j] = v
        return int_nullspace(list(rows.values()), self.dim)

    def invariants(self) -> InvariantReport:
        self.require_valid()
        n = self.dim
        derived = self._series(lambda cur: self.subspace_bracket(cur, cur))
        lower = self._series(lambda cur: self.subspace_bracket(Subspace.full(n), cur))
        killing_rank = self.killing_form().rank()
        # tr ad e_i = sum_k c_ik^k, times den
        unimodular = all(
            sum(v for k, terms in enumerate(plane) for m, v in terms if m == k) == 0
            for plane in self.int_adj()[1]
        )
        return InvariantReport(
            dim=n,
            derived_series_dims=tuple(derived),
            lower_central_dims=tuple(lower),
            center_dim=self.center().dim,
            killing_rank=killing_rank,
            is_solvable=derived[-1] == 0,
            is_nilpotent=lower[-1] == 0,
            # the zero algebra is excluded: a vacuously nondegenerate Killing
            # form should not count as semisimplicity
            is_semisimple=n > 0 and killing_rank == n,
            is_perfect=len(derived) > 1 and derived[1] == n,
            is_unimodular=unimodular,
        )

    def _series(self, step) -> list[int]:
        dims = [self.dim]
        current = Subspace.full(self.dim)
        while True:
            nxt = step(current)
            dims.append(nxt.dim)
            if nxt.dim == 0 or nxt.dim == current.dim:
                return dims
            current = nxt


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block-diagonal sum: factors bracket independently, cross brackets vanish."""
    n, m = a.dim, b.dim
    shifted = (tuple(tuple((n + k, v) for k, v in terms) for terms in plane) for plane in b._adj)
    adj = tuple(plane + ((),) * m for plane in a._adj) + tuple(((),) * n + p for p in shifted)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = a.labels + b.labels
    return LieAlgebra._from_adj(adj, labels)


def check_hom_witness(src: LieAlgebra, dst: LieAlgebra, m: Matrix) -> HomWitnessReport:
    """Check whether the matrix intertwines the two brackets on every ordered basis pair."""
    if m.rows != dst.dim or m.cols != src.dim:
        raise DimensionMismatch(
            f"witness must be {dst.dim}x{src.dim}, got {m.rows}x{m.cols}"
        )
    is_hom = all(
        m.apply([dict(src._adj[i][j]).get(k, _ZERO) for k in range(src.dim)])
        == dst.bracket(m.column(i), m.column(j))
        for i, j in product(range(src.dim), repeat=2)
    )
    injective = m.rank() == src.dim
    return HomWitnessReport(
        is_hom=is_hom,
        is_injective=injective,
        is_iso=is_hom and injective and src.dim == dst.dim,
    )


def change_basis(l: LieAlgebra, t: Matrix) -> LieAlgebra:
    """Pull the bracket back along an invertible matrix.

    The new structure tensor satisfies [x, y]' = t^-1 [t x, t y]; the map
    ``t`` is then an isomorphism from the new algebra onto the old one.
    """
    if t.rows != l.dim or t.cols != l.dim:
        raise DimensionMismatch("change of basis must be square of the algebra dimension")
    tinv = t.inverse()
    n = l.dim
    cols = [t.column(j) for j in range(n)]
    adj = tuple(
        tuple(nonzero_terms(tinv.apply(l.bracket(cols[i], cols[j]))) for j in range(n))
        for i in range(n)
    )
    return LieAlgebra._from_adj(adj)
