"""Weighted derivation spaces of a Lie algebra, computed as exact nullspaces.

For weights (alpha, beta, gamma) the space D(alpha, beta, gamma) collects the
endomorphisms phi with

    alpha phi([x,y]) = beta [phi(x), y] + gamma [x, phi(y)]   for all x, y.

Quasiderivations pair phi with a closing map tau, generalized derivations a
triple (phi, sigma, tau); those spaces live in doubled and tripled coordinate
blocks and their phi parts are block projections.  All of them, and the
commutant of the adjoint operators, are instances of one identity

    alpha tau([x,y]) = beta [phi x, y] + gamma [x, sigma y]

with some of the three maps sharing a coordinate block.  One builder emits
its sparse integer constraint rows, as built, over the basis pairs
``_identity_pairs`` gives: i < j or i <= j where the residual is
antisymmetric or symmetric in (x, y) on a valid bracket, else every ordered
pair, since dropping a genuinely different orientation would make the
computed space depend on the basis.  The kernel makes each row primitive.

The unknowns lie in 1, 2 or 3 blocks of n^2 coordinates, and ``_roles``
gives the one layout: phi = sigma = tau, (phi, tau) with sigma = phi, or
(phi, sigma, tau).  A single space (``dspace``, ``qder_pairs``) is solved
from its own rows.  The callers that need several spaces of one algebra
(``named_spaces``, ``verify_chain``, ``case_table``) solve the triple system
once instead and slice each space once, with ``_slicer``, from the stored
basis of its solution T: over a block layout the space with weights (alpha, beta, gamma) is
{(phi, sigma, tau) : (beta phi, gamma sigma, alpha tau) in T}, the image of
one kernel over dim T columns.  The reduced basis is unique, so a sliced
space is entrywise the space its own rows give.

A solve knows solutions in advance, ad z being a derivation (Jacobi): (ad z)^3, (id, 0, id)
and (0, id, id) in T, (ad z, ad z) and (id, 2 id) among the pairs, id in D(beta + gamma, beta,
gamma) and ad z in D(alpha, alpha, alpha).  On n != 0 id is no ad z, so with dim ad(n) they
floor the nullity: ``int_nullspace`` stops at its rank, or takes their span if mod 2 proves it.

``members_verified`` checks a solved space by substitution: it packs the
stored integer rows into one integer per coordinate, a slot per row, and
contracts the sparse columns of their maps once with ``lie._gder_residual``
over the pairs of ``_identity_pairs``.  The ``Matrix`` oracles
(``weighted_residuals`` and its variants) lay one candidate out as a row for
the same contraction, and report its residual on every ordered pair.  None of
this calls the row builder, slices or kernel.  ``is_derivation`` is the
verdict of that oracle with unit weights, and ``semidirect_with_derivations``
extends an algebra by the maps it accepts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations, combinations_with_replacement, product
from math import lcm
from typing import Iterator, NamedTuple, Sequence

from .lie import LieAlgebra, _gder_residual, _int_tables
from .linalg import DimensionMismatch, Matrix, Subspace, _checked_shape, int_nullspace, int_rank
from .linalg import nonzero_terms, rat, solve


class DerivationWeights(NamedTuple):
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    @classmethod
    def of(cls, alpha, beta, gamma) -> "DerivationWeights":
        return cls(rat(alpha), rat(beta), rat(gamma))


_UNIT = DerivationWeights.of(1, 1, 1)


def matrix_from_flat(vec: Sequence, n: int) -> Matrix:
    """Reshape a row-major flattened endomorphism back into a matrix."""
    return Matrix(n, n, list(vec))


# Entries of the largest constraint system a solve may build.  Sheared sl6
# (2.4M) fits and sheared sl8 (about 21M) does not; standard sl8 needs 0.23M.
MAX_SYSTEM_ENTRIES = 4_000_000


class SystemTooLarge(ValueError):
    """The constraint system of a solve would exceed ``MAX_SYSTEM_ENTRIES``."""


def _integer_weights(weights: DerivationWeights) -> tuple[int, int, int]:
    """``(alpha, beta, gamma)`` times their common denominator."""
    den = lcm(*(w.denominator for w in weights))
    return tuple(int(w * den) for w in weights)


def _roles(weights: DerivationWeights, blocks: int, nn: int) -> tuple:
    """``(start, integer weight)`` of phi, sigma and tau among 1, 2 or 3 blocks of
    ``nn`` coordinates: phi = sigma = tau, (phi, tau) with sigma = phi, or
    (phi, sigma, tau); the weights are beta, gamma and alpha."""
    a, b, g = _integer_weights(weights)
    return (0, b), (nn if blocks == 3 else 0, g), ((blocks - 1) * nn, a)


def _identity_pairs(weights: DerivationWeights, blocks: int, n: int) -> Iterator[tuple[int, int]]:
    """The basis pairs (i, j) that decide the identity of ``weights`` over ``blocks``
    blocks on a valid bracket of dimension n: i < j when its residual is
    antisymmetric in (x, y) (sigma is phi and beta = gamma), i <= j when it is
    symmetric (one map, alpha = 0 and beta = -gamma), else every ordered pair."""
    if blocks < 3 and weights.beta == weights.gamma:
        return combinations(range(n), 2)
    if blocks == 1 and weights.alpha == 0 and weights.beta == -weights.gamma:
        return combinations_with_replacement(range(n), 2)
    return product(range(n), repeat=2)


def _identity_space(l: LieAlgebra, weights: DerivationWeights, blocks: int) -> list[dict[int, int]]:
    """The constraint rows of alpha tau([x,y]) - beta [phi x, y] - gamma [x, sigma y] = 0.

    The flattened maps lie in ``blocks`` blocks of n^2 unknowns, as
    ``_roles`` lays them out.  Weights and structure constants are scaled to
    integers once, and cancelled entries and empty rows are dropped.  A row
    with one entry goes out once per column, as the RREF row {c: 1}; the rest
    as built: the kernel makes each primitive and reduces a repeat to zero.
    The pairs ``_identity_pairs`` leaves out give only zero rows and built rows up to sign.

    Each of the three terms puts n * nnz(tensor) entries into the rows over
    all pairs, so 3 n nnz bounds every entry the build stores (exactly so for
    three separate maps) and is checked before any row is built.
    """
    n = l.dim
    entries = 3 * n * sum(len(terms) for plane in l._adj for terms in plane)
    if entries > MAX_SYSTEM_ENTRIES:
        raise SystemTooLarge(
            f"the constraint system would hold {entries} entries, "
            f"over the limit of {MAX_SYSTEM_ENTRIES}"
        )
    _, adj = l.int_adj()
    (phi, b), (sigma, g), (tau, a) = _roles(weights, blocks, n * n)
    # the nonzero brackets [e_m, e_j] of each column j and [e_i, e_m] of each row i
    columns = [[(m, adj[m][j]) for m in range(n) if adj[m][j]] for j in range(n)]
    planes = [[(m, terms) for m, terms in enumerate(plane) if terms] for plane in adj]
    rows, units = [], set()
    for i, j in _identity_pairs(weights, blocks, n):
        # one row per output coordinate k of the identity at (e_i, e_j)
        acc: list[dict[int, int]] = [{} for _ in range(n)]
        if a:
            for m, v in adj[i][j]:
                for k in range(n):
                    acc[k][tau + k * n + m] = a * v
        if b:
            for m, terms in columns[j]:
                col = phi + m * n + i
                for k, v in terms:
                    acc[k][col] = acc[k].get(col, 0) - b * v
        if g:
            for m, terms in planes[i]:
                col = sigma + m * n + j
                for k, v in terms:
                    acc[k][col] = acc[k].get(col, 0) - g * v
        for row in acc:
            if 0 in row.values():  # terms that cancelled
                row = {c: v for c, v in row.items() if v}
            if len(row) == 1:
                if row.keys() <= units:
                    continue
                units.update(row)
                row = dict.fromkeys(row, 1)
            if row:
                rows.append(row)
    return rows


def dspace(l: LieAlgebra, weights: DerivationWeights) -> Subspace:
    """The weighted derivation space as a subspace of flattened endomorphisms."""
    l.require_valid()
    return int_nullspace(_identity_space(l, weights, 1), l.dim * l.dim, *_known_maps(l, weights, 1))


def _row_columns(l: LieAlgebra, weights: DerivationWeights, row: dict, blocks: int) -> list:
    """phi, sigma and tau of a sparse integer row, as sparse columns with the weights in.

    ``row`` holds ``blocks`` blocks of n^2 coordinates, laid out by ``_roles``;
    coordinate c of a block is entry (c // n, c % n) of its map, times beta,
    gamma or alpha as integers.
    """
    n = l.dim
    roles = _roles(weights, blocks, n * n)
    cols = [[[] for _ in range(n)] for _ in roles]
    for c, v in row.items():
        k = c % (n * n)
        for (start, w), out in zip(roles, cols):
            if start == c - k and w:
                out[k % n].append((k // n, w * v))
    return cols


def members_verified(l: LieAlgebra, space: Subspace, weights: DerivationWeights = _UNIT) -> bool:
    """Whether every basis vector of a solved space satisfies its identity, by substitution.

    The stored rows, each a positive multiple of a basis vector, are packed
    into one integer per coordinate, row s in bits [w s, w s + w), and read
    with ``_row_columns``: one contraction gives every row's residual.  Its
    entries are sums of 3 n products of a structure constant, an integer
    weight and a stored entry, so each lies below 2^(w-2), and a packed
    residual is zero exactly when every row's is.  It is checked on the pairs
    of ``_identity_pairs``.
    """
    l.require_valid()
    nn = l.dim * l.dim
    if space.ambient_dim not in (nn, 2 * nn, 3 * nn):
        raise DimensionMismatch("a space of maps must have 1, 2 or 3 blocks of n^2 coordinates")
    blocks = space.ambient_dim // nn if nn else 1
    _, adj = l.int_adj()
    bound = 3 * l.dim * max(map(abs, _integer_weights(weights)))
    bound *= max((abs(v) for plane in adj for terms in plane for _, v in terms), default=0)
    bound *= max((abs(v) for row in space._rows for v in row.values()), default=0)
    width = bound.bit_length() + 2
    packed: dict[int, int] = {}
    for s, row in enumerate(space._rows):
        for c, v in row.items():
            packed[c] = packed.get(c, 0) + (v << width * s)
    phi, sigma, tau = _row_columns(l, weights, packed, blocks)
    # skip the pairs where every sum of the residual is empty
    return not any(
        (phi[i] or sigma[j] or adj[i][j])
        and any(_gder_residual(adj, phi, sigma, tau, i, j).values())
        for i, j in _identity_pairs(weights, blocks, l.dim)
    )


# The nonzero residual vectors of a candidate over all ordered basis pairs.
Residuals = list[tuple[tuple[int, int], tuple[Fraction, ...]]]


def _residuals(l: LieAlgebra, weights: DerivationWeights, *maps: Matrix) -> Residuals:
    """Substitute phi, (phi, tau) or (phi, sigma, tau), laid out as one integer
    row for ``_row_columns``, into tau[x,y] - [phi x, y] - [x, sigma y] with
    ``lie._gder_residual``; a nonzero residual is divided back into ``Fraction``s."""
    n = l.dim
    for m in maps:
        _checked_shape(m, n, n, "candidate map")
    mden, [(terms,)] = _int_tables((tuple(nonzero_terms(m.entries) for m in maps),))
    row = {b * n * n + k: v for b, block in enumerate(terms) for k, v in block}
    den, adj = l.int_adj()
    scale = lcm(*(w.denominator for w in weights)) * mden * den
    cols = _row_columns(l, weights, row, len(maps))
    out = []
    for i, j in product(range(n), repeat=2):
        res = _gder_residual(adj, *cols, i, j)
        if any(res.values()):
            out.append(((i, j), tuple(Fraction(res.get(k, 0), scale) for k in range(n))))
    return out


def weighted_residuals(l: LieAlgebra, weights: DerivationWeights, phi: Matrix) -> Residuals:
    """Direct substitution of a candidate into the defining identity."""
    return _residuals(l, weights, phi)


def is_derivation(n: LieAlgebra, d: Matrix) -> bool:
    """Whether d[x,y] = [dx,y] + [x,dy] on every ordered basis pair of any bracket."""
    return not _residuals(n, _UNIT, d)


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
    # every pair of n is given, so the antisymmetric fill adds only the
    # mirrored brackets of the new basis vectors
    entries = {
        (i, j): dict(terms) for i, plane in enumerate(n._adj) for j, terms in enumerate(plane)
    }
    for s, d in enumerate(derivations):
        for j in range(dim):
            entries[dim + s, j] = dict(nonzero_terms(d.column(j)))
    flat = Matrix.from_rows([list(d.flatten()) for d in derivations]).transpose()
    for s in range(m):
        for t in range(s + 1, m):
            comm = derivations[s] * derivations[t] - derivations[t] * derivations[s]
            coords = solve(flat, comm.flatten())
            if coords is None:
                raise ValueError("derivation commutator escapes the given span")
            entries[dim + s, dim + t] = {dim + u: v for u, v in enumerate(coords)}
    result = LieAlgebra.from_brackets(dim + m, entries)
    report = result.validate()
    if not report.ok:
        raise ValueError("extension is not a Lie algebra (dependent derivation list?)")
    return result


def _ad_rows(l: LieAlgebra) -> list[dict[int, int]]:
    """The flattened adjoint matrices as integer rows: entry (k, j) of ad e_i is c_ij^k."""
    n = l.dim
    _, adj = l.int_adj()
    return [{k * n + j: v for j, terms in enumerate(plane) for k, v in terms} for plane in adj]


def _known_maps(l: LieAlgebra, weights: DerivationWeights, blocks: int) -> tuple[int, Iterator]:
    """A solve's nullity floor, dim ad(n) plus the ids on n != 0, and its known maps
    as an iterator: ``int_nullspace`` reads it once, and no caller holds the maps."""
    (a, b, g), n, nn = weights, l.dim, l.dim * l.dim
    ad = _ad_rows(l) if a == b == g else []
    ids = {3: ((1, 0, 1), (0, 1, 1)), 2: ((1, 2),), 1: ((1,),) * (a == b + g)}[blocks]
    known = chain(({s * nn + c: v for s in range(blocks) for c, v in row.items()} for row in ad),
                  ({s * nn + c: w for s, w in enumerate(m) if w for c in range(0, nn, n + 1)} for m in ids))
    return (int_rank(ad) if ad else 0) + len(ids) * (n > 0), known


def ad_span(l: LieAlgebra) -> Subspace:
    """Span of the flattened adjoint matrices."""
    return Subspace._from_int_rows(_ad_rows(l), l.dim * l.dim)


class NamedSpaces(NamedTuple):
    derivations: Subspace
    centroid: Subspace
    quasicentroid: Subspace
    ad_space: Subspace
    centroid_matches_commutant: bool


# phi ad_x = ad_x phi says phi([x,y]) = [x, phi y]: the identity with weights
# (1, 0, 1), where the centroid D(1, 1, 0) uses the other slot
_COMMUTANT = DerivationWeights.of(1, 0, 1)


def named_spaces(l: LieAlgebra) -> NamedSpaces:
    """Der, the centroid and the quasicentroid, sliced from one triple solve, and ad."""
    _, d = _slicer(l)
    return NamedSpaces(
        derivations=d(1, 1, 1),
        centroid=d(1, 1, 0),
        quasicentroid=d(0, 1, -1),
        ad_space=ad_span(l),
        centroid_matches_commutant=d(1, 1, 0) == d(*_COMMUTANT),
    )


class QuasiDerivationResult(NamedTuple):
    pair_space: Subspace
    phi_projection: Subspace


def qder_pairs(l: LieAlgebra) -> QuasiDerivationResult:
    """Pairs (phi, tau) with tau([x,y]) = [phi x, y] + [x, phi y].

    The quasiderivations are the phi-block projection of the pair space.
    """
    l.require_valid()
    nn = l.dim * l.dim
    pair_space = int_nullspace(_identity_space(l, _UNIT, 2), 2 * nn, *_known_maps(l, _UNIT, 2))
    return QuasiDerivationResult(pair_space, pair_space.project_block(0, nn))


def quasi_residuals(l: LieAlgebra, phi: Matrix, tau: Matrix) -> Residuals:
    return _residuals(l, _UNIT, phi, tau)


class GeneralizedDerivationResult(NamedTuple):
    triple_space: Subspace
    phi_projection: Subspace


def gder_triples(l: LieAlgebra) -> GeneralizedDerivationResult:
    """Triples (phi, sigma, tau) with tau([x,y]) = [phi x, y] + [x, sigma y]."""
    l.require_valid()
    nn = l.dim * l.dim
    triple_space = int_nullspace(_identity_space(l, _UNIT, 3), 3 * nn, *_known_maps(l, _UNIT, 3))
    return GeneralizedDerivationResult(triple_space, triple_space.project_block(0, nn))


def _slice(triples: Subspace, n: int, weights: DerivationWeights, blocks: int) -> Subspace:
    """The space of the identity with ``weights`` over ``blocks`` blocks of n^2
    coordinates, from the stored rows b_1..b_k of the triple space T.

    Its roles in ``_roles``, times their weights, are u = sum t_i b_i.  A block
    takes its value from its carrier c, its first role with a nonzero weight,
    x = u_c / w_c, and each other role r needs w_c u_r = w_r u_c; a block with
    no weighted role needs its roles zero and is free.  Row i holds the
    conditions on b_i, then its image from 3 n^2 on, where the unit rows of the
    free blocks join them; the reduced rows that pivot there span the image of
    the kernel plus the free blocks, so one elimination makes the space.
    """
    nn = n * n
    roles = _roles(weights, blocks, nn)
    # block start -> (role, weight) of its carrier: the first weighted role wins
    carrier = {start: (r, w) for r, (start, w) in reversed(list(enumerate(roles))) if w}
    scale = lcm(*(w for _, w in carrier.values()))
    # entry m of role r goes to column off + m, times g, for each (off, g) in sends[r]
    sends = []
    for r, (start, w) in enumerate(roles):
        c, wc = carrier.get(start, (None, 1))
        conds = [(q * nn, -wq) for q, (s, wq) in enumerate(roles) if s == start and q != r and wq]
        sends.append([(3 * nn + start, scale // w)] + conds if r == c else [(r * nn, wc)])
    free = {start for start, _ in roles} - carrier.keys()
    rows = [{3 * nn + start + m: 1} for start in free for m in range(nn)]
    for row in triples._rows:
        out: dict[int, int] = {}
        for col, v in row.items():
            r, m = divmod(col, nn)
            for off, g in sends[r]:
                out[off + m] = out.get(off + m, 0) + g * v
        rows.append({k: v for k, v in out.items() if v})
    return Subspace._from_int_rows(rows, (3 + blocks) * nn)._tail(3 * nn)


def _slicer(l: LieAlgebra) -> tuple:
    """``(gder_triples(l), d)``: ``d(alpha, beta, gamma, blocks=1)`` slices T once per
    space, keyed on the exact weights and ``blocks``."""
    triples = gder_triples(l)
    sliced = cache(partial(_slice, triples.triple_space, l.dim))

    def d(alpha, beta, gamma, blocks=1) -> Subspace:
        return sliced(DerivationWeights.of(alpha, beta, gamma), blocks)

    return triples, d


def generalized_residuals(l: LieAlgebra, phi: Matrix, sigma: Matrix, tau: Matrix) -> Residuals:
    return _residuals(l, _UNIT, phi, sigma, tau)


class ChainReport(NamedTuple):
    """The inclusion chain and sum identities among the named spaces."""

    ad_in_derivations: bool
    derivations_in_quasi: bool
    quasi_in_generalized: bool
    generalized_in_end: bool
    quasi_plus_quasicentroid_equals_generalized: bool
    derivations_plus_centroid_in_quasi: bool

    @property
    def all_ok(self) -> bool:
        return all(self)

    def as_dict(self) -> dict:
        return {**self._asdict(), "all_ok": self.all_ok}


def verify_chain(l: LieAlgebra) -> ChainReport:
    triples, d = _slicer(l)
    der, centroid, quasicentroid = d(1, 1, 1), d(1, 1, 0), d(0, 1, -1)
    nn = l.dim * l.dim
    quasi = d(1, 1, 1, blocks=2).project_block(0, nn)
    generalized = triples.phi_projection
    full = Subspace.full(nn)
    return ChainReport(
        ad_in_derivations=der._spans_all(_ad_rows(l)),
        derivations_in_quasi=quasi.contains_subspace(der),
        quasi_in_generalized=generalized.contains_subspace(quasi),
        generalized_in_end=full.contains_subspace(generalized),
        quasi_plus_quasicentroid_equals_generalized=quasi + quasicentroid == generalized,
        derivations_plus_centroid_in_quasi=quasi.contains_subspace(der + centroid),
    )


class CaseTableReport(NamedTuple):
    """Dimensions of the standard weight cases plus the reduction identities."""

    dims: dict
    sweep_dims: dict
    one_sided_dims: dict
    antisymmetric_reduction_holds: bool
    one_sided_reductions: dict

    def as_dict(self) -> dict:
        return self._asdict()


def case_table(l: LieAlgebra, deltas: Sequence) -> CaseTableReport:
    """Survey the classical weight cases for a caller-supplied delta list.

    Every space is sliced from one triple solve.  Also verifies the two
    reduction identities as subspace equalities: D(1,1,-1) = D(0,1,-1) meet
    D(1,0,0), and for each delta D(delta,1,0) = D(0,1,-1) meet D(2 delta,1,1).
    """
    deltas = [rat(d) for d in deltas]
    _, d = _slicer(l)
    cases = ((0, 0, 0), (1, 0, 0), (0, 1, -1), (1, 1, -1), (0, 1, 0), (0, 1, 1))
    dims = {"D({},{},{})".format(*w): d(*w).dim for w in cases}
    sweep = {str(delta): d(delta, 1, 1).dim for delta in deltas}
    one_sided = {str(delta): d(delta, 1, 0).dim for delta in deltas}
    anti_reduction = d(1, 1, -1) == (d(0, 1, -1) & d(1, 0, 0))
    one_sided_reductions = {
        str(delta): d(delta, 1, 0) == (d(0, 1, -1) & d(2 * delta, 1, 1))
        for delta in deltas
    }
    return CaseTableReport(dims, sweep, one_sided, anti_reduction, one_sided_reductions)
