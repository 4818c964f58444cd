"""Lie algebras given by structure constants, with exact structural invariants.

An algebra of dimension n is stored as the full tensor c[i][j][k] defining
[e_i, e_j] = sum_k c[i][j][k] e_k.  Antisymmetry is stored redundantly and
*checked*, never silently enforced, so corrupt input data stays detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    add_scaled,
    int_terms,
    nonzero_terms,
    nullspace,
    rat,
    rational_to_json,
    rref,
    solve,
    sparse_residuals,
)

_ZERO = Fraction(0)


class InvalidLieAlgebra(ValueError):
    """Raised when an operation requires a valid Lie algebra but got none."""


@dataclass(frozen=True)
class ValidationReport:
    """Structure-tensor defects: antisymmetry failures and Jacobi failures."""

    antisymmetry: tuple[tuple[int, int, int], ...] = ()
    jacobi: tuple[tuple[tuple[int, int, int], tuple[Fraction, ...]], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.antisymmetry and not self.jacobi

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "antisymmetry_violations": [list(t) for t in self.antisymmetry],
            "jacobi_violations": [
                {"indices": list(idx), "residual": [rational_to_json(x) for x in res]}
                for idx, res in self.jacobi
            ],
        }


@dataclass(frozen=True)
class InvariantReport:
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
        return {
            "dim": self.dim,
            "derived_series_dims": list(self.derived_series_dims),
            "lower_central_dims": list(self.lower_central_dims),
            "center_dim": self.center_dim,
            "killing_rank": self.killing_rank,
            "is_solvable": self.is_solvable,
            "is_nilpotent": self.is_nilpotent,
            "is_semisimple": self.is_semisimple,
            "is_perfect": self.is_perfect,
            "is_unimodular": self.is_unimodular,
        }


@dataclass(frozen=True)
class HomWitnessReport:
    is_hom: bool
    is_injective: bool
    is_iso: bool

    def as_dict(self) -> dict:
        return {"is_hom": self.is_hom, "is_injective": self.is_injective, "is_iso": self.is_iso}


class LieAlgebra:
    """A Lie algebra in a fixed basis, defined by its structure tensor."""

    __slots__ = ("dim", "c", "labels", "_adj", "_int_adj", "_validation")

    def __init__(self, table: Sequence, labels: Sequence[str] | None = None):
        c = tuple(
            tuple(tuple(rat(x) for x in row) for row in plane) for plane in table
        )
        n = len(c)
        for plane in c:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise ValueError("structure tensor must be n x n x n")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("one label per basis vector")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "labels", labels)
        # sparse view of the tensor: per (i, j) the nonzero (k, coefficient)
        adj = tuple(
            tuple(
                tuple((k, v) for k, v in enumerate(c[i][j]) if v)
                for j in range(n)
            )
            for i in range(n)
        )
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_int_adj", None)
        object.__setattr__(self, "_validation", None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        labels: Sequence[str] | None = None,
        fill_antisymmetric: bool = True,
    ) -> "LieAlgebra":
        """Build the tensor from a sparse table of basis brackets.

        With ``fill_antisymmetric`` (the default), any pair given in one
        orientation only gets the negated entry in the other; explicitly
        given pairs are stored verbatim.
        """
        c = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        given = set()
        for (i, j), coords in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"basis index out of range in pair ({i}, {j})")
            given.add((i, j))
            for k, v in coords.items():
                k = int(k)
                if not 0 <= k < dim:
                    raise ValueError(f"coordinate index {k} out of range")
                c[i][j][k] = rat(v)
        if fill_antisymmetric:
            for (i, j) in list(given):
                if (j, i) not in given:
                    for k in range(dim):
                        c[j][i][k] = -c[i][j][k]
        return cls(c, labels)

    def int_adj(self) -> tuple[int, tuple]:
        """``(den, adj)``: one common denominator and ``_adj`` scaled by it to ints.

        Computed once, for the checks that contract the tensor in integers.
        """
        if self._int_adj is None:
            den = lcm(*(v.denominator for plane in self._adj for pair in plane for _, v in pair))
            adj = tuple(tuple(int_terms(pair, den) for pair in plane) for plane in self._adj)
            object.__setattr__(self, "_int_adj", (den, adj))
        return self._int_adj

    # -- evaluation --------------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """Bilinear expansion of [x, y] in coordinates."""
        xs = [rat(v) for v in x]
        ys = [rat(v) for v in y]
        if len(xs) != self.dim or len(ys) != self.dim:
            raise DimensionMismatch("vector length must equal the algebra dimension")
        out: dict = {}
        xt = nonzero_terms(xs)
        for j, yj in nonzero_terms(ys):
            for i, xi in xt:
                add_scaled(out, xi * yj, self._adj[i][j])
        return tuple(out.get(k, _ZERO) for k in range(self.dim))

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y]; column j is [x, e_j]."""
        xs = [rat(v) for v in x]
        if len(xs) != self.dim:
            raise DimensionMismatch("vector length must equal the algebra dimension")
        n = self.dim
        xt = nonzero_terms(xs)
        cols = []
        for j in range(n):
            col: dict = {}
            for i, xi in xt:
                add_scaled(col, xi, self._adj[i][j])
            cols.append(col)
        return Matrix(n, n, [cols[j].get(i, _ZERO) for i in range(n) for j in range(n)])

    def ad_basis(self, i: int) -> Matrix:
        n = self.dim
        return Matrix(n, n, [self.c[i][j][k] for k in range(n) for j in range(n)])

    # -- validity ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report every violated antisymmetry entry and Jacobi triple.

        The algebra is immutable, so the report is computed once and kept.
        """
        if self._validation is not None:
            return self._validation
        n = self.dim
        adj = self._adj
        den, iadj = self.int_adj()
        anti = []
        for i in range(n):
            for j in range(i, n):
                if adj[i][j] != tuple((k, -v) for k, v in adj[j][i]):
                    anti.extend((i, j, k) for k in range(n) if self.c[i][j][k] != -self.c[j][i][k])

        def jacobi(i, j, l):
            # [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j], times den^2
            res: dict = {}
            for a, b, z in ((i, j, l), (j, l, i), (l, i, j)):
                for m, v in iadj[a][b]:
                    add_scaled(res, v, iadj[m][z])
            return res

        triples = [(i, j, l) for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)]
        report = ValidationReport(tuple(anti), sparse_residuals(jacobi, triples, n, den * den))
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
        vectors = [
            self.bracket(x, y) for x in u.basis_vectors() for y in v.basis_vectors()
        ]
        return Subspace.span(vectors, self.dim)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def is_subalgebra(self, u: Subspace) -> bool:
        return u.contains_subspace(self.subspace_bracket(u, u))

    def is_ideal(self, u: Subspace) -> bool:
        return u.contains_subspace(self.subspace_bracket(self.full_space(), u))

    def killing_form(self) -> Matrix:
        """Symmetric matrix K[i][j] = tr(ad e_i . ad e_j)."""
        n = self.dim
        ads = [self.ad_basis(i) for i in range(n)]
        entries = [_ZERO] * (n * n)
        for i in range(n):
            for j in range(i, n):
                t = (ads[i] * ads[j]).trace()
                entries[i * n + j] = t
                entries[j * n + i] = t
        return Matrix(n, n, entries)

    def center(self) -> Subspace:
        """Kernel of the stacked adjoint matrices."""
        n = self.dim
        if n == 0:
            return Subspace.zero(0)
        stacked = Matrix.stack([self.ad_basis(i) for i in range(n)])
        return nullspace(stacked)

    def invariants(self) -> InvariantReport:
        self.require_valid()
        n = self.dim
        derived = self._series(lambda cur: self.subspace_bracket(cur, cur))
        lower = self._series(lambda cur: self.subspace_bracket(self.full_space(), cur))
        killing_rank = rref(self.killing_form())[1]
        unimodular = all(self.ad_basis(i).trace() == 0 for i in range(n))
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
        current = self.full_space()
        while True:
            nxt = step(current)
            dims.append(nxt.dim)
            if nxt.dim == 0 or nxt.dim == current.dim:
                return dims
            current = nxt

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.c == other.c

    def __hash__(self) -> int:
        return hash((self.dim, self.c))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim})"


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block-diagonal sum: factors bracket independently, cross brackets vanish."""
    n, m = a.dim, b.dim
    total = n + m
    c = [[[_ZERO] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = a.c[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c[n + i][n + j][n + k] = b.c[i][j][k]
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = a.labels + b.labels
    return LieAlgebra(c, labels)


def is_derivation(n: LieAlgebra, d: Matrix) -> bool:
    """Check the derivation identity d[x,y] = [dx,y] + [x,dy] on basis pairs."""
    if d.rows != n.dim or d.cols != n.dim:
        raise DimensionMismatch("derivation candidate has the wrong shape")
    dim = n.dim
    _, adj = n.int_adj()
    dden = lcm(*(x.denominator for x in d.entries))
    cols = [int_terms(nonzero_terms(d.column(i)), dden) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            # d[e_i,e_j] - [d e_i, e_j] - [e_i, d e_j], times the two denominators
            res: dict = {}
            for m, v in adj[i][j]:
                add_scaled(res, v, cols[m])
            for m, v in cols[i]:
                add_scaled(res, -v, adj[m][j])
            for m, v in cols[j]:
                add_scaled(res, -v, adj[i][m])
            if any(res.values()):
                return False
    return True


def semidirect_with_derivations(n: LieAlgebra, derivations: Sequence[Matrix]) -> LieAlgebra:
    """Extend ``n`` by a list of derivations acting on it.

    The new basis is the basis of ``n`` followed by one vector per derivation;
    brackets are [(x, D), (x', D')] = ({x,x'} + D(x') - D'(x), [D, D']).  The
    span of the derivations must be closed under commutators, and the result
    must satisfy the Jacobi identity; both are enforced.
    """
    m = len(derivations)
    for d in derivations:
        if not is_derivation(n, d):
            raise ValueError("input matrix is not a derivation of the base algebra")
    if m == 0:
        return n
    dim = n.dim
    total = dim + m
    flat = Matrix.from_rows([list(d.flatten()) for d in derivations]).transpose()
    comm_coords: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for s in range(m):
        for t in range(s + 1, m):
            comm = derivations[s] * derivations[t] - derivations[t] * derivations[s]
            coords = solve(flat, comm.flatten())
            if coords is None:
                raise ValueError("derivation commutator escapes the given span")
            comm_coords[(s, t)] = coords
    c = [[[_ZERO] * total for _ in range(total)] for _ in range(total)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                c[i][j][k] = n.c[i][j][k]
    for s in range(m):
        d = derivations[s]
        for j in range(dim):
            col = d.column(j)
            for k in range(dim):
                c[dim + s][j][k] = col[k]
                c[j][dim + s][k] = -col[k]
    for (s, t), coords in comm_coords.items():
        for u in range(m):
            c[dim + s][dim + t][dim + u] = coords[u]
            c[dim + t][dim + s][dim + u] = -coords[u]
    result = LieAlgebra(c)
    report = result.validate()
    if not report.ok:
        raise ValueError("extension is not a Lie algebra (dependent derivation list?)")
    return result


def check_hom_witness(src: LieAlgebra, dst: LieAlgebra, m: Matrix) -> HomWitnessReport:
    """Check whether the matrix intertwines the two brackets."""
    if m.rows != dst.dim or m.cols != src.dim:
        raise DimensionMismatch(
            f"witness must be {dst.dim}x{src.dim}, got {m.rows}x{m.cols}"
        )
    is_hom = all(
        m.apply(src.c[i][j]) == dst.bracket(m.column(i), m.column(j))
        for i in range(src.dim)
        for j in range(i + 1, src.dim)
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
    c = [
        [list(tinv.apply(l.bracket(cols[i], cols[j]))) for j in range(n)]
        for i in range(n)
    ]
    return LieAlgebra(c)
