"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` throughout: always in lowest terms with a
positive denominator, so every value is canonical and no rounding can occur.
``Matrix`` is a dense immutable matrix of such scalars.  ``Subspace`` is a
row span stored exactly as the sparse elimination kernel ``reduce_int_rows``
returns it: primitive integer rows ``{column: value}``, one per pivot, with
positive pivot entries.  These are the reduced row-echelon rows up to a
positive scale, so equality of subspaces is a plain comparison of rows, and
every lattice operation is one kernel call.  Dense ``Fraction``
rows are built only on request, for JSON and ``Matrix`` output.

An identity check reports its failures as ``(indices, residual)`` lists
(``sparse_residuals``), held in the fields of a ``NamedTuple`` report that
``_failure_report`` registers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimensions."""


def rat(value) -> Fraction:
    """Coerce a Fraction, or an int or string in the grammar of ``parse_rational``,
    to an exact rational, of any size.

    Floats are rejected: admitting them would smuggle rounding error into a
    system that promises exactness.  So are bools, as documents reject them.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return _parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


# ASCII digits and surrounding whitespace only: int() alone would also take "1_0", "+3" and "٣"
_RATIONAL = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)
_INDEX = re.compile(r"[0-9]+")
MAX_BITS = 14_000  # of an input's numerator or denominator: over 4,200 digits, under int()'s 4,300


def parse_rational(value) -> Fraction:
    """``_parse_rational`` of a document's or an option's value, ``MAX_BITS`` bits a part at most."""
    if max((q := _parse_rational(value)).numerator.bit_length(), q.denominator.bit_length()) > MAX_BITS:
        raise ValueError(f"a rational over the limit of {MAX_BITS} bits in its numerator or denominator")
    return q


def _parse_rational(value) -> Fraction:
    """Parse the serialized form: a bare integer or a '-?p/q' string of ASCII digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"not a rational: {value!r}")
    if (match := _RATIONAL.fullmatch(value)) is None:
        raise ValueError(f"malformed rational {value!r}")
    if (den := int(match[2] or 1)) == 0:
        raise ValueError(f"zero denominator in {value!r}")
    return Fraction(int(match[1]), den)


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


def nonzero_terms(vec: Iterable) -> tuple[tuple[int, Fraction], ...]:
    """The sparse (index, value) terms of a dense vector."""
    return tuple((k, v) for k, v in enumerate(vec) if v)


def int_terms(terms: Iterable, den: int) -> tuple[tuple[int, int], ...]:
    """Sparse rational (k, v) terms times ``den``, a multiple of every denominator."""
    return tuple((k, v.numerator * (den // v.denominator)) for k, v in terms)


def add_scaled(out: dict, s, terms: Iterable) -> None:
    """out[k] += s * v over sparse (k, v) terms: the step of every dict contraction.

    A new key takes ``s * v`` itself, so integer terms stay integers.
    """
    for k, v in terms:
        if k in out:
            out[k] += s * v
        else:
            out[k] = s * v


def sparse_residuals(residual, indices: Iterable, width: int, scale: int, bits: int) -> tuple:
    """(index, dense vector) for each index whose packed ``residual(*index)`` is nonzero.

    ``residual`` returns ``scale`` times the true residual, entry k a signed digit
    below 2^(bits - 2) in bits [bits k, bits k + bits) (``lie._packed``); a
    nonzero one is decoded into exact ``Fraction`` entries.
    """
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    bias = half * ((1 << bits * width) - 1) // mask  # half in every slot: no borrow
    out = []
    for idx in indices:
        if res := residual(*idx):
            res += bias
            vec = ((res >> bits * k & mask) - half for k in range(width))
            out.append((idx, tuple(Fraction(v, scale) if v else _ZERO for v in vec)))
    return tuple(out)


def failures_to_json(failures: Iterable) -> list[dict]:
    """The JSON of ``(indices, vector)`` failures, as ``sparse_residuals`` makes them."""
    return [{"indices": list(i), "residual": list(map(rational_to_json, r))} for i, r in failures]


_FAILURE_REPORTS: list[type] = []  # every type ``_failure_report`` registered


def _failures_ok(report) -> bool:
    """Every failure list of ``report`` empty and every nested report ok."""
    return all(v.ok if hasattr(v, "_fields") else not v for v in report if isinstance(v, tuple))


def _failures_as_dict(report) -> dict:
    out: dict = {"ok": report.ok}
    for name, v in zip(report._fields, report):
        if hasattr(v, "_fields"):
            out[name] = v.as_dict()
        elif isinstance(v, tuple):
            out[name if name.endswith("failures") else f"{name}_failures"] = failures_to_json(v)
        elif isinstance(v, bool):
            out[name] = v
    return out


def _failure_report(cls):
    """Register a ``NamedTuple`` report whose verdict and JSON are read from its fields.

    A nested report (a tuple with ``_fields``) is judged by its ``ok`` and
    written as its ``as_dict()``.  Any other ``tuple`` field is a failure list:
    ``ok`` needs it empty, and it is written with ``failures_to_json`` under
    ``<name>_failures`` (the name itself when it already ends in ``failures``).
    A ``bool`` field is written but not judged; any other field is skipped.
    ``ok`` and ``as_dict`` are installed unless the class defines its own.
    """
    for name, value in (("ok", property(_failures_ok)), ("as_dict", _failures_as_dict)):
        if name not in vars(cls):
            setattr(cls, name, value)
    _FAILURE_REPORTS.append(cls)
    return cls


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

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

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
        v = _checked_row(vec, self.cols)
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

    def flatten(self) -> tuple[Fraction, ...]:
        return self.entries

    def rank(self) -> int:
        return int_rank([_int_row(self.row(i)) for i in range(self.rows)])

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        # reduce [self | I]: invertible exactly when the pivots fill the left block
        aug = [_int_row(self.row(i) + tuple(_ONE if i == j else _ZERO for j in range(n))) for i in range(n)]
        if reduce_int_rows(aug) != list(range(n)):
            raise ValueError("matrix is singular")
        entries = [Fraction(row.get(n + j, 0), row[i]) for i, row in enumerate(aug) for j in range(n)]
        return Matrix(n, n, entries)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {rows})"


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide ``row`` by its content."""
    if not row:
        return row
    g = gcd(*row.values())
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
    return _primitive(out)


def _eliminate(
    rows: Iterable[dict[int, int]], reduced: dict[int, dict[int, int]], fewest_holders: bool, rank=None
) -> None:
    """Take ``rows`` in order into ``reduced``, a fully reduced system {pivot: row}.

    A new row is cleared of every stored pivot in one combination and made
    primitive with a positive pivot entry.  It pivots on its leftmost column
    or, with ``fewest_holders``, on the column that the fewest stored rows
    hold (ties go to the smaller absolute entry, then the smaller column).
    The stored rows that hold the new pivot are re-reduced, so each pivot
    column stays zero in every other row.  It stops once ``reduced`` holds ``rank`` rows.
    Rows already in ``reduced`` on entry must not hold a column that becomes
    a pivot here: they are never re-reduced.
    """
    # non-pivot column -> pivot columns of the rows stored here that hold it
    holders: dict[int, set[int]] = {}
    for row in rows:
        if len(reduced) == rank:
            break
        hit = [(k, reduced[k]) for k in row if k in reduced]
        # a combination comes back primitive; an input row may not be
        row = _combine(row, hit) if hit else _primitive(row)
        if not row:
            continue
        c = min(row)
        if fewest_holders and holders.get(c):
            c = min(row, key=lambda k: (len(holders.get(k, ())), abs(row[k]), k))
        if row[c] < 0:
            row = {k: -v for k, v in row.items()}
        for q in holders.pop(c, ()):
            # the rank-1 update old * row[c] - row * old[c], over their gcd
            old = reduced[q]
            g = gcd(row[c], old[c])
            m, f = row[c] // g, old[c] // g
            new = {k: m * v for k, v in old.items()} if m != 1 else dict(old)
            # a column leaves or joins row q only where ``row`` holds it;
            # the pivot c always cancels, and its holders were popped
            for k, v in row.items():
                if k not in new:
                    new[k] = -f * v
                    holders.setdefault(k, set()).add(q)
                elif x := new[k] - f * v:
                    new[k] = x
                else:
                    del new[k]
                    if k != c:
                        holders[k].discard(q)
            reduced[q] = _primitive(new)
        for k in row:
            if k != c:
                holders.setdefault(k, set()).add(c)
        reduced[c] = row


def _first_pass(rows: Sequence[dict[int, int]], rank: int | None = None) -> dict[int, dict[int, int]]:
    """The kernel's first pass: a fully reduced system ``{pivot: row}`` spanning ``rows``,
    as ``reduce_int_rows`` describes it, except that a pivot need not lead its row.
    One-entry rows go in first, in rounds, each round's columns stripped from the rest,
    and no row once it holds ``rank`` rows, a proven bound on the rank of ``rows``."""
    reduced: dict[int, dict[int, int]] = {}
    nonzero = [r for r in rows if r]
    while units := {c for r in nonzero if len(r) == 1 for c in r}:
        reduced.update((c, {c: 1}) for c in units)
        stripped = (r if r.keys().isdisjoint(units) else {k: v for k, v in r.items() if k not in units}
                    for r in nonzero)
        nonzero = [r for r in stripped if r]
    # shortest first; of equal lengths the one that leads furthest right, so
    # a new pivot seldom sits in a kept row (two stable sorts on builtin keys)
    _eliminate(sorted(sorted(nonzero, key=min, reverse=True), key=len), reduced, True, rank)
    return reduced


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
    and they decide the cost.  ``_first_pass`` puts one-entry rows, rows of
    the RREF, in first and strips their columns from the rest.  A new pivot
    re-reduces every kept row that holds its column, so it then takes the
    rows shortest first and pivots each on the column the fewest kept rows
    hold (a Markowitz-style choice, as in structured Gaussian elimination),
    breaking ties by the smaller absolute entry, which keeps multipliers
    small, then the smaller column.  Where a pivot is not its row's leftmost
    column, a second pass with the leftmost-column rule reduces the kept rows
    that share a column with such a row; the rest are rows of the RREF already.
    """
    reduced = _first_pass(rows)
    pivots = _second_pass(reduced)
    rows[:] = [reduced[c] for c in pivots]
    return pivots


def _second_pass(reduced: dict[int, dict[int, int]]) -> list[int]:
    """``reduce_int_rows``'s second pass, in place over a fully reduced system
    ``{pivot: row}`` of primitive rows with positive pivots: the ascending pivots."""
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
    return sorted(reduced)


def _int_row(row: Sequence[Fraction]) -> dict[int, int]:
    """Sparse integer multiple of a dense rational row: clear the denominators."""
    l = lcm(*(x.denominator for x in row if x))
    return {j: x.numerator * (l // x.denominator) for j, x in enumerate(row) if x}


def _checked_row(vec: Sequence, n: int, what: str = "vector") -> tuple[Fraction, ...]:
    """``vec`` as exact rationals, refused unless it has ``n`` entries: the one vector check."""
    v = tuple(rat(x) for x in vec)
    if len(v) != n:
        raise DimensionMismatch(f"{what} needs {n} coordinates, got {len(v)}")
    return v


def _checked_shape(m: Matrix, rows: int, cols: int, what: str) -> None:
    """Refuse ``m`` unless it is ``rows`` x ``cols``: the one map-shape check."""
    if m.rows != rows or m.cols != cols:
        raise DimensionMismatch(f"{what} must be {rows}x{cols}, got {m.rows}x{m.cols}")


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank.

    The result has the same shape as the input, with zero rows collected at
    the bottom; pivot entries are 1 and are the only nonzero entries in
    their columns.
    """
    rows = Subspace._from_int_rows([_int_row(m.row(i)) for i in range(m.rows)], m.cols).basis_vectors()
    out = [x for row in rows for x in row]
    out.extend([_ZERO] * ((m.rows - len(rows)) * m.cols))
    return Matrix(m.rows, m.cols, out), len(rows)


def nullspace(m: Matrix) -> "Subspace":
    """Kernel of ``m`` as a canonical subspace of the column space."""
    return int_nullspace([_int_row(m.row(i)) for i in range(m.rows)], m.cols)


def int_rank(rows: Sequence[dict[int, int]]) -> int:
    """Rank of the sparse integer rows ``rows``: the size of ``_first_pass``, with no second pass."""
    return len(_first_pass(rows))


def _rank_mod2(rows: Iterable[dict[int, int]]) -> int:
    """Rank of integer rows read mod 2, at most over Q: ``_rank_bits`` of the bitsets of their odd columns."""
    return _rank_bits(sum(1 << k for k, v in row.items() if v & 1) for row in rows)


def _rank_bits(bits: Iterable[int], rank: int | None = None) -> int:
    """Rank over GF(2) of int bitsets: XOR elimination, the sparsest first, each kept one keyed
    on its top bit.  It takes no row once it holds ``rank`` rows, a proven bound on the rank."""
    kept: dict[int, int] = {}
    for x in sorted(bits, key=int.bit_count):
        if len(kept) == rank:
            break
        while x and (top := x.bit_length() - 1) in kept:
            x ^= kept[top]
        if x:
            kept[top] = x
    return len(kept)


def _span_by_distinct_columns(rows: Sequence[dict[int, int]], ncols: int) -> "Subspace":
    """``Subspace._from_int_rows(rows, ncols)`` by one leftmost-pivot pass over the first of each set
    of equal columns, whose entries the others copy: in the RREF M^-1 A of rows A, repeats never lead."""
    columns: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for k, v in row.items():
            columns.setdefault(k, []).append((i, v))
    groups: dict[tuple, list[int]] = {}  # a whole column -> the columns equal to it, ascending
    for k in sorted(columns):
        groups.setdefault(tuple(columns[k]), []).append(k)
    equal = {ks[0]: ks for ks in groups.values()}
    _eliminate(({k: v for k, v in row.items() if k in equal} for row in rows), reduced := {}, False)
    canonical = [{k: v for f, v in reduced[c].items() for k in equal[f]} for c in sorted(reduced)]
    return Subspace._canonical(canonical, sorted(reduced), ncols)


def int_nullspace(rows: Sequence[dict[int, int]], ncols: int, floor: int = 0) -> "Subspace":
    """Kernel of the sparse integer system ``rows`` in ``ncols`` unknowns, read from ``_first_pass``
    (no RREF: the free-column basis is made canonical anyway).  ``floor`` is a nullity the caller
    proves, by independent integer rows that solve ``rows``: the first pass stops at rank
    ``ncols - floor``, where its rows span every row; an overstated floor leaves the space too large."""
    reduced = _first_pass(rows, ncols - floor)
    # free column f spans x_f = l, x_p = -l * row_p[f] / row_p[p] over the
    # pivot rows that hold f, with l the lcm of their pivot entries
    holders: dict[int, list[tuple[int, int, int]]] = {}
    for p, row in sorted(reduced.items()):
        for f, v in row.items():
            if f != p:
                holders.setdefault(f, []).append((p, v, row[p]))
    basis = {}
    for f in range(ncols):
        if f in reduced:
            continue
        entries = holders.get(f, ())
        l = lcm(*(d for _, _, d in entries))
        vec = {f: l}
        for p, v, d in entries:
            vec[p] = -v * (l // d)
        basis[f] = _primitive(vec)
    # each vector holds one free column, its own: a fully reduced system on the
    # free columns, though not the RREF (the row (1, 2) gives (-2, 1))
    pivots = _second_pass(basis)
    return Subspace._canonical([basis[f] for f in pivots], pivots, ncols)


def solve(a: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One solution ``x`` of ``a @ x = b``, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    bvec = _checked_row(b, a.rows, "rhs")
    aug = [_int_row(a.row(i) + (bvec[i],)) for i in range(a.rows)]
    pivots = reduce_int_rows(aug)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for row, p in zip(aug, pivots):
        x[p] = Fraction(row.get(a.cols, 0), row[p])
    return tuple(x)


class Subspace:
    """A linear subspace of Q^n in canonical form.

    Stored as the elimination kernel returns it: ``_rows`` holds one sparse
    primitive integer row ``{column: value}`` per basis vector, with a
    positive pivot entry, and ``_pivots`` their ascending pivot columns; each
    pivot column is zero in every other row.  Dividing each row by its pivot
    entry gives the reduced row-echelon basis, which is unique, so two
    subspaces of one ambient space are equal exactly when their stored rows
    are.  Every operation, and the residual oracle, works on these rows;
    ``basis_vectors`` builds dense ``Fraction`` rows for JSON and ``Matrix`` output.
    """

    __slots__ = ("ambient_dim", "_rows", "_pivots")

    @classmethod
    def _from_int_rows(cls, rows, ambient_dim: int) -> "Subspace":
        """The span of sparse integer rows ``{column: value}`` with no zero entries."""
        rows = list(rows)
        pivots = reduce_int_rows(rows)
        return cls._canonical(rows, pivots, ambient_dim)

    @classmethod
    def _canonical(cls, rows, pivots, ambient_dim: int) -> "Subspace":
        """The subspace whose canonical rows and ascending pivots are ``rows`` and ``pivots``."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_pivots", tuple(pivots))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = [_int_row(_checked_row(v, ambient_dim)) for v in vectors]
        return cls._from_int_rows(rows, ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical((), (), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical([{i: 1} for i in range(ambient_dim)], range(ambient_dim), ambient_dim)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def basis_vectors(self) -> list[tuple[Fraction, ...]]:
        """The dense reduced row-echelon basis."""
        out = []
        for row, p in zip(self._rows, self._pivots):
            dense = [_ZERO] * self.ambient_dim
            for k, v in row.items():
                dense[k] = Fraction(v, row[p])
            out.append(tuple(dense))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _spans_all(self, rows: Iterable[dict[int, int]]) -> bool:
        """Whether every integer row lies in the span: clearing its pivots leaves nothing."""
        by_pivot = dict(zip(self._pivots, self._rows))
        for row in rows:
            hit = [(k, by_pivot[k]) for k in row if k in by_pivot]
            if hit:
                row = _combine(row, hit)
            if row:
                return False
        return True

    def contains(self, vec: Sequence) -> bool:
        return self._spans_all([_int_row(_checked_row(vec, self.ambient_dim))])

    def coordinates(self, vec: Sequence) -> tuple[Fraction, ...] | None:
        """Coefficients of ``vec`` in the canonical basis, or None if outside."""
        v = _checked_row(vec, self.ambient_dim)
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self._pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self._spans_all(other._rows)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    def _check_ambient(self, other: "Subspace") -> None:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")

    # -- lattice operations ------------------------------------------------

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace._from_int_rows(self._rows + other._rows, self.ambient_dim)

    def __and__(self, other: "Subspace") -> "Subspace":
        """A meet B by Zassenhaus's reduction: the rows (a, a) and (b, 0) span
        {(a + b, a)}, whose reduced rows from column n on are the (0, a), a in A meet B."""
        self._check_ambient(other)
        n = self.ambient_dim
        rows = [{**a, **{k + n: v for k, v in a.items()}} for a in self._rows]
        return Subspace._from_int_rows(rows + list(other._rows), 2 * n)._tail(n)

    def _tail(self, start: int) -> "Subspace":
        """The vectors of the space zero before ``start``, restricted to [start, ambient):
        the stored rows that pivot there, shifted left by ``start``, canonical as they are."""
        i = sum(p < start for p in self._pivots)
        shifted = [{k - start: v for k, v in row.items()} for row in self._rows[i:]]
        return Subspace._canonical(shifted, [p - start for p in self._pivots[i:]], self.ambient_dim - start)

    def project_block(self, start: int, stop: int) -> "Subspace":
        """Image of the basis under restriction to coordinates [start, stop)."""
        if not (0 <= start <= stop <= self.ambient_dim):
            raise DimensionMismatch(f"bad coordinate range [{start}, {stop})")
        rows = [{k - start: v for k, v in row.items() if start <= k < stop} for row in self._rows]
        return Subspace._from_int_rows(rows, stop - start)
