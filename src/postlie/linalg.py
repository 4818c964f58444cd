"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` throughout: always in lowest terms with a
positive denominator, so every value is canonical and no rounding can occur.
``Matrix`` is a dense immutable matrix of such scalars; ``Subspace`` is a row
span stored through its reduced row-echelon basis, which makes equality of
subspaces a plain entrywise comparison.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimensions."""


def rat(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    Floats are rejected: admitting them would smuggle rounding error into a
    system that promises exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


# ASCII digits only: int() alone would also take "1_0", "+3", " -2" and "٣"
_RATIONAL = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)
_INDEX = re.compile(r"[0-9]+")


def parse_rational(value) -> Fraction:
    """Parse the serialized form: a bare integer or a '-?p/q' string of ASCII digits."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"malformed rational {value!r}")
        num, den = match.groups()
        if den is not None and int(den) == 0:
            raise ValueError(f"zero denominator in {value!r}")
        return Fraction(int(num), int(den or 1))
    raise ValueError(f"not a rational: {value!r}")


def parse_index(text: str) -> int:
    """Parse a basis index written as a string: ASCII digits, no sign or spaces."""
    if not isinstance(text, str) or _INDEX.fullmatch(text) is None:
        raise ValueError(f"malformed index {text!r}")
    return int(text)


def rational_to_json(q: Fraction):
    """Serialize: bare int when the denominator is 1, else a 'p/q' string."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def _as_fraction_row(row: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in row)


def nonzero_terms(vec: Iterable) -> tuple[tuple[int, Fraction], ...]:
    """The sparse (index, value) terms of a dense vector."""
    return tuple((k, v) for k, v in enumerate(vec) if v)


def int_terms(terms: Iterable, den: int) -> tuple[tuple[int, int], ...]:
    """Sparse rational (k, v) terms times ``den``, a multiple of every denominator."""
    return tuple((k, v.numerator * (den // v.denominator)) for k, v in terms)


def add_scaled(out: dict, s, terms: Iterable) -> None:
    """out[k] += s * v over sparse (k, v) terms: the one step of every contraction.

    A new key takes ``s * v`` itself, so integer terms stay integers.
    """
    for k, v in terms:
        if k in out:
            out[k] += s * v
        else:
            out[k] = s * v


def sparse_residuals(residual, indices: Iterable, width: int, scale: int = 1) -> tuple:
    """(index, dense vector) for each index whose sparse ``residual(*index)`` is nonzero.

    ``residual`` returns ``scale`` times the true residual; a nonzero one is
    divided back into exact ``Fraction`` entries.
    """
    out = []
    for idx in indices:
        res = residual(*idx)
        if any(res.values()):
            out.append((idx, tuple(Fraction(res.get(k, 0), scale) for k in range(width))))
    return tuple(out)


class Matrix:
    """Immutable dense matrix of exact rationals, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(rat(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [_ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [_ONE if i == j else _ZERO for i in range(n) for j in range(n)])

    @classmethod
    def stack(cls, matrices: Sequence["Matrix"]) -> "Matrix":
        """Stack matrices with equal column counts vertically."""
        if not matrices:
            raise ValueError("nothing to stack")
        cols = matrices[0].cols
        for m in matrices:
            if m.cols != cols:
                raise DimensionMismatch("column counts differ")
        entries = [x for m in matrices for x in m.entries]
        return cls(sum(m.rows for m in matrices), cols, entries)

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            n, m, k = self.rows, self.cols, other.cols
            out = [_ZERO] * (n * k)
            for i in range(n):
                base = i * m
                for l in range(m):
                    a = self.entries[base + l]
                    if a:
                        obase = l * k
                        for j in range(k):
                            b = other.entries[obase + j]
                            if b:
                                out[i * k + j] += a * b
            return Matrix(n, k, out)
        scalar = rat(other)
        return Matrix(self.rows, self.cols, [scalar * a for a in self.entries])

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        v = _as_fraction_row(vec)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} against {self.cols} columns")
        out = [_ZERO] * self.rows
        for j, x in enumerate(v):
            if x:
                for i, a in enumerate(self.entries[j :: self.cols]):
                    if a:
                        out[i] += a * x
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), _ZERO)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def flatten(self) -> tuple[Fraction, ...]:
        return self.entries

    def rank(self) -> int:
        return rref(self)[1]

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        aug = [_int_row(self.row(i) + tuple(_ONE if i == j else _ZERO for j in range(n))) for i in range(n)]
        frac_rows, pivots = _rref_rows(aug, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix.from_rows([row[n:] for row in frac_rows])

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {rows})"


def _primitive(row: dict[int, int], negate: bool) -> dict[int, int]:
    """Divide ``row`` by its content, flipping the sign when ``negate``."""
    if not row:
        return row
    g = gcd(*row.values())
    if negate:
        g = -g
    if g == 1:
        return row
    return {k: v // g for k, v in row.items()}


def _combine(row: dict[int, int], pivot_rows: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """Primitive combination of ``row`` and the pivot rows, zero at their pivots.

    ``pivot_rows`` pairs each pivot column with its row; no pivot row may
    hold another's pivot column.
    """
    m = lcm(*(prow[c] for c, prow in pivot_rows))
    out = {k: m * v for k, v in row.items()} if m != 1 else dict(row)
    for c, prow in pivot_rows:
        f = row[c] * (m // prow[c])
        for k, v in prow.items():
            x = out.get(k, 0) - f * v
            if x:
                out[k] = x
            else:
                del out[k]
    return _primitive(out, False)


def _eliminate(
    rows: Iterable[dict[int, int]], reduced: dict[int, dict[int, int]], fewest_holders: bool
) -> None:
    """Take ``rows`` in order into ``reduced``, a fully reduced system {pivot: row}.

    A new row is cleared of every stored pivot in one combination and made
    primitive with a positive pivot entry.  It pivots on its leftmost column
    or, with ``fewest_holders``, on the column that the fewest stored rows
    hold (ties go to the smaller column).  The stored rows that hold the new
    pivot are re-reduced, so each pivot column stays zero in every other row.
    Rows already in ``reduced`` on entry must not hold a column that becomes
    a pivot here: they are never re-reduced.
    """
    # non-pivot column -> pivot columns of the rows stored here that hold it
    holders: dict[int, set[int]] = {}
    for row in rows:
        hit = [(k, reduced[k]) for k in row if k in reduced]
        # a combination comes back primitive; an input row may not be
        row = _combine(row, hit) if hit else _primitive(row, False)
        if not row:
            continue
        c = min(row)
        if fewest_holders and holders.get(c):
            c = min(row, key=lambda k: (len(holders.get(k, ())), k))
        if row[c] < 0:
            row = {k: -v for k, v in row.items()}
        for q in holders.pop(c, ()):
            old = reduced[q]
            new = _combine(old, [(c, row)])
            for k in old.keys() - new.keys():
                if k != c:
                    holders[k].discard(q)
            for k in new.keys() - old.keys():
                holders.setdefault(k, set()).add(q)
            reduced[q] = new
        for k in row:
            if k != c:
                holders.setdefault(k, set()).add(c)
        reduced[c] = row


def reduce_int_rows(rows: list[dict[int, int]]) -> list[int]:
    """Gauss-Jordan reduce sparse integer rows ``{column: value}`` in place.

    Zero entries are never stored.  After the call ``rows`` holds the reduced
    system, one row per pivot in ascending pivot order: every row is
    primitive (content 1) with a positive pivot entry, and each pivot column
    is zero in all other rows.  Returns the pivot columns.  The input dicts
    are not modified.

    Dividing each row by its pivot entry gives the reduced row-echelon form
    over the rationals, which is unique, so this integer form is unique too.
    Elimination is fraction-free; keeping every row primitive bounds entry
    growth.  The kept rows stay fully reduced as rows arrive, so a new row is
    cleared of every pivot column in one combination.

    Since the result is unique, the pivot choice and the row order are free,
    and they decide the cost.  A new pivot forces a re-reduction of every
    kept row that holds its column, so the first pass takes the rows
    shortest first and pivots each on the column that the fewest kept rows
    hold (a Markowitz-style choice, as in structured Gaussian elimination).
    It returns one row per pivot, each zero on the other pivots.  When every
    pivot is its row's leftmost column, that is the RREF.  Otherwise a
    second pass, the same loop with the leftmost-column rule, reduces the
    kept rows that share a column with an off-leftmost row; the rest are
    rows of the RREF already.
    """
    reduced: dict[int, dict[int, int]] = {}
    nonzero = [r for r in rows if r]
    # shortest first; of equal lengths the one that leads furthest right, so
    # a new pivot seldom sits in a kept row (two stable sorts on builtin keys)
    _eliminate(sorted(sorted(nonzero, key=min, reverse=True), key=len), reduced, True)
    off = [row for c, row in reduced.items() if c != min(row)]
    if off:
        # A kept row on its leftmost column that shares no column with an
        # off-leftmost row is a row of the RREF: a vector of the row space
        # whose leading column is no first-pass pivot needs an off-leftmost
        # row holding that column.  The second pass never touches such a
        # row: the rows it takes are zero on its pivot, and it holds none of
        # the columns they pivot on.
        touched = set().union(*off)
        again = [c for c, row in reduced.items() if not touched.isdisjoint(row)]
        again = [reduced.pop(c) for c in again]
        _eliminate(sorted(again, key=lambda r: (-min(r), len(r))), reduced, False)
    pivots = sorted(reduced)
    rows[:] = [reduced[c] for c in pivots]
    return pivots


def _int_row(row: Sequence[Fraction]) -> dict[int, int]:
    """Sparse integer multiple of a dense rational row: clear the denominators."""
    l = lcm(*(x.denominator for x in row if x))
    return {j: x.numerator * (l // x.denominator) for j, x in enumerate(row) if x}


def _rref_rows(rows: list[dict[int, int]], ncols: int) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Nonzero dense RREF rows of a sparse integer system, plus their pivot columns."""
    pivots = reduce_int_rows(rows)
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        dense = [_ZERO] * ncols
        for j, v in row.items():
            dense[j] = Fraction(v, p)
        out.append(tuple(dense))
    return out, pivots


def _subspace(rows: list[dict[int, int]], ncols: int) -> "Subspace":
    """The span of sparse integer rows, in canonical form."""
    frac_rows, pivots = _rref_rows(rows, ncols)
    entries = [x for row in frac_rows for x in row]
    return Subspace(ncols, Matrix(len(frac_rows), ncols, entries), tuple(pivots))


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank.

    The result has the same shape as the input, with zero rows collected at
    the bottom; pivot entries are 1 and are the only nonzero entries in
    their columns.
    """
    frac_rows, pivots = _rref_rows([_int_row(m.row(i)) for i in range(m.rows)], m.cols)
    out = [x for row in frac_rows for x in row]
    out.extend([_ZERO] * ((m.rows - len(pivots)) * m.cols))
    return Matrix(m.rows, m.cols, out), len(pivots)


def nullspace(m: Matrix) -> "Subspace":
    """Kernel of ``m`` as a canonical subspace of the column space."""
    return int_nullspace([_int_row(m.row(i)) for i in range(m.rows)], m.cols)


def int_nullspace(rows: list[dict[int, int]], ncols: int) -> "Subspace":
    """Kernel of the sparse integer system ``rows`` in ``ncols`` unknowns."""
    pivots = reduce_int_rows(rows)
    # free column f spans x_f = l, x_p = -l * row_p[f] / row_p[p] over the
    # pivot rows that hold f, with l the lcm of their pivot entries
    holders: dict[int, list[tuple[int, int, int]]] = {}
    for row, p in zip(rows, pivots):
        for f, v in row.items():
            if f != p:
                holders.setdefault(f, []).append((p, v, row[p]))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        entries = holders.get(f, ())
        l = lcm(*(d for _, _, d in entries))
        vec = {f: l}
        for p, v, d in entries:
            vec[p] = -v * (l // d)
        basis.append(vec)
    # the free-column basis is not in reduced form in general: the row
    # (1, 2) gives (-2, 1), so it is reduced again
    return _subspace(basis, ncols)


def solve(a: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One solution ``x`` of ``a @ x = b``, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    bvec = _as_fraction_row(b)
    if len(bvec) != a.rows:
        raise DimensionMismatch(f"rhs of length {len(bvec)} against {a.rows} rows")
    aug = [_int_row(a.row(i) + (bvec[i],)) for i in range(a.rows)]
    frac_rows, pivots = _rref_rows(aug, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for row, p in zip(frac_rows, pivots):
        x[p] = row[a.cols]
    return tuple(x)


class Subspace:
    """A linear subspace of Q^n in canonical form.

    The basis matrix is in reduced row-echelon form with no zero rows, so two
    subspaces of the same ambient space are equal exactly when their basis
    matrices are entrywise equal.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, _pivots: tuple[int, ...] | None = None):
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis columns must match the ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        if _pivots is None:
            _pivots = tuple(self._find_pivots(basis))
        object.__setattr__(self, "_pivots", _pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def _find_pivots(basis: Matrix) -> list[int]:
        pivots = []
        for i in range(basis.rows):
            row = basis.row(i)
            for j, x in enumerate(row):
                if x:
                    pivots.append(j)
                    break
        return pivots

    # -- construction ------------------------------------------------------

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = [_as_fraction_row(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return _subspace([_int_row(v) for v in vecs], ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(0, ambient_dim, []))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _residual(self, vec: Sequence) -> list[Fraction]:
        v = list(_as_fraction_row(vec))
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        for ridx, p in enumerate(self._pivots):
            coeff = v[p]
            if coeff:
                row = self.basis.row(ridx)
                for j in range(self.ambient_dim):
                    if row[j]:
                        v[j] -= coeff * row[j]
        return v

    def contains(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self._residual(vec))

    def coordinates(self, vec: Sequence) -> tuple[Fraction, ...] | None:
        """Coefficients of ``vec`` in the canonical basis, or None if outside."""
        v = _as_fraction_row(vec)
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self._pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(row) for row in other.basis_vectors())

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    # -- lattice operations ------------------------------------------------

    def __add__(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace.span(
            self.basis_vectors() + other.basis_vectors(), self.ambient_dim
        )

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked coefficient system."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        p, q = self.dim, other.dim
        if p == 0 or q == 0:
            return Subspace.zero(self.ambient_dim)
        # columns: coefficients (u, v) with sum(u_i a_i) + sum(v_j b_j) = 0
        stacked = Matrix.stack([self.basis, other.basis]).transpose()
        combos = nullspace(stacked)
        vectors = []
        for w in combos.basis_vectors():
            vec = [_ZERO] * self.ambient_dim
            for i in range(p):
                if w[i]:
                    row = self.basis.row(i)
                    for j in range(self.ambient_dim):
                        if row[j]:
                            vec[j] += w[i] * row[j]
            vectors.append(vec)
        return Subspace.span(vectors, self.ambient_dim)

    def project_block(self, start: int, stop: int) -> "Subspace":
        """Image of the basis under restriction to coordinates [start, stop)."""
        if not (0 <= start <= stop <= self.ambient_dim):
            raise DimensionMismatch(f"bad coordinate range [{start}, {stop})")
        width = stop - start
        return Subspace.span(
            [row[start:stop] for row in self.basis_vectors()], width
        )
