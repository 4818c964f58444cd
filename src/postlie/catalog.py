"""Ground-truth algebra fixtures in frozen basis orders.

Each fixture is built one way.  sl2 and sl3 are sln 2 and 3 from the
matrix-unit construction under labels of their own, so one builder gives the
triangular subspaces n+, n-, h, b+ and b- of all three entries, and the
distinguished map on sl2+sl2 is the factor-mixing block at one parameter
point.  Basis orders are frozen because the block maps and derivation-space
bases elsewhere in the package are order-sensitive.  The drift guard is in the
tests: the golden files pin each fixture's document, labels included, and the
product tests the block's nine entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import jsonio
from .lie import LieAlgebra, direct_sum
from .linalg import Matrix, Subspace
from .products import cross_factor_block, cross_factor_embedding

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CatalogEntry(NamedTuple):
    name: str
    algebra: LieAlgebra
    subspaces: Mapping[str, Subspace] = MappingProxyType({})


def unit_span(indices, dim) -> Subspace:
    """Span of the basis vectors with the given indices, each an int in [0, dim)."""
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
            raise ValueError(f"basis index {i!r} out of range for dim {dim}")
    return Subspace._from_int_rows([{i: 1} for i in indices], dim)


def _special_linear(n: int) -> LieAlgebra:
    """Traceless matrices from matrix-unit arithmetic.

    Basis order: all off-diagonal units E_ij with (i, j) lexicographic,
    followed by the Cartan differences E_ii - E_{i+1,i+1}.  ``get`` checks n
    through ``_triangular_subspaces``.
    """
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    dim = n * n - 1

    def commutator_coords(x: dict, y: dict) -> dict[int, Fraction]:
        acc: dict[tuple[int, int], Fraction] = {}
        for (a, b), va in x.items():
            for (c, d), vb in y.items():
                if b == c:
                    acc[(a, d)] = acc.get((a, d), _ZERO) + va * vb
                if d == a:
                    acc[(c, b)] = acc.get((c, b), _ZERO) - va * vb
        coords = {idx: acc[pos] for idx, pos in enumerate(positions) if pos in acc}
        running = _ZERO
        for i in range(n - 1):
            running += acc.get((i, i), _ZERO)
            coords[len(positions) + i] = running
        return coords

    basis: list[dict] = [{pos: _ONE} for pos in positions]
    labels = [f"E{i + 1}{j + 1}" for i, j in positions]
    for i in range(n - 1):
        basis.append({(i, i): _ONE, (i + 1, i + 1): -_ONE})
        labels.append(f"h{i + 1}")
    # the commutator is antisymmetric, so the pairs i < j determine the rest
    brackets = {
        (i, j): commutator_coords(basis[i], basis[j]) for i, j in combinations(range(dim), 2)
    }
    return LieAlgebra.from_brackets(dim, brackets, labels)


def _triangular_subspaces(n: int | None) -> dict[str, Subspace]:
    """n+, n-, h, b+ and b- of sl_n in the basis order of ``_special_linear``."""
    if n is None:
        raise ValueError("sln needs the parameter n")
    if n < 2:
        raise ValueError("special linear algebra needs n >= 2")
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    dim = n * n - 1
    upper = [idx for idx, (i, j) in enumerate(positions) if i < j]
    lower = [idx for idx, (i, j) in enumerate(positions) if i > j]
    cartan = list(range(len(positions), dim))
    return {
        "n+": unit_span(upper, dim),
        "n-": unit_span(lower, dim),
        "h": unit_span(cartan, dim),
        "b+": unit_span(cartan + upper, dim),
        "b-": unit_span(cartan + lower, dim),
    }


def check_size(name: str, n: int | None) -> None:
    """Refuse sln or abelian with a non-int n or over ``jsonio.MAX_DIM`` before building."""
    if name in ("sln", "abelian") and n is not None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"{name} needs an int n, got {n!r}")
        dim = n * n - 1 if name == "sln" else n
        if n > 0 and dim > jsonio.MAX_DIM:
            raise ValueError(
                f"{name} with n = {n} has dimension {dim}, "
                f"which exceeds the limit of {jsonio.MAX_DIM}"
            )


def get(name: str, n: int | None = None) -> CatalogEntry:
    """Return a validated fixture by name.

    Known names: sl2, sl3, sln (with n), sl2+sl2, r31, heisenberg,
    abelian (with n).  The fixed-size names refuse a parameter n, and sln
    and abelian a non-int n or a dimension over the size limit (``check_size``).
    """
    check_size(name, n)
    if n is not None and name in _FIXED_SIZE:
        raise ValueError(f"{name} has a fixed dimension and takes no parameter n")
    if name in _SMALL_SLN or name == "sln":
        size, labels = _SMALL_SLN.get(name, (n, None))
        subspaces = _triangular_subspaces(size)
        alg = _special_linear(size)
        if labels is not None:
            alg = LieAlgebra._from_adj(alg._adj, labels)
        return CatalogEntry(name, alg, subspaces=subspaces)
    if name == "sl2+sl2":
        half = _special_linear(2)
        alg = direct_sum(half, half)
        alg = LieAlgebra._from_adj(alg._adj, ("e1", "f1", "h1", "e2", "f2", "h2"))
        return CatalogEntry(name, alg)
    if name == "r31":
        alg = LieAlgebra.from_brackets(
            3, {(0, 1): {1: 1}, (0, 2): {2: 1}}, labels=("e1", "e2", "e3")
        )
        return CatalogEntry(name, alg)
    if name == "heisenberg":
        alg = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}}, labels=("e1", "e2", "e3"))
        return CatalogEntry(name, alg)
    if name == "abelian":
        if n is None:
            raise ValueError("abelian needs the parameter n")
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        return CatalogEntry(name, LieAlgebra.from_brackets(n, {}))
    raise ValueError(f"unknown catalog entry {name!r}")


_FIXED_SIZE = ("sl2", "sl3", "sl2+sl2", "r31", "heisenberg")
# sl2 is (e, f, h) = (E12, E21, E11-E22); sl3 is e1..e8 in the order of sln 3
_SMALL_SLN = {"sl2": (2, ("e", "f", "h")), "sl3": (3, tuple(f"e{i}" for i in range(1, 9)))}


# The distinguished factor-mixing map on sl2+sl2 is zero except for a lower-left
# block sending the first factor into the second: the family's block at this point
_CROSS_POINT = (4, -4, -1, 2, 4)


def cross_factor_phi() -> Matrix:
    """The 6x6 block map behind the nontrivial structure on sl2+sl2."""
    return cross_factor_embedding(cross_factor_block(*_CROSS_POINT))


_SPLIT_CHOICES = ("b+|n-", "n-|b+", "b-|n+", "n+|b-")


def triangular_split(n: int, choice: str) -> tuple[Subspace, Subspace]:
    """Complementary subalgebra pair from the triangular decomposition of sln.

    ``choice`` picks which side is the Borel part and which the opposite
    nilpotent part, e.g. "b+|n-" returns (upper Borel, strictly lower part).
    """
    check_size("sln", n)
    if choice not in _SPLIT_CHOICES:
        raise ValueError(f"unknown split choice {choice!r}; options: {sorted(_SPLIT_CHOICES)}")
    subspaces = _triangular_subspaces(n)
    left, right = choice.split("|")
    return subspaces[left], subspaces[right]
