"""Pinned reference outputs, for entrywise regression checks.

``golden_bases.json`` holds, for every catalog fixture and for sl3 under a
fixed integer shear and under a fixed rational change of basis:

- the weighted derivation space ``dspace`` for every weight set in ``WEIGHTS``
- the quasiderivation pair space and its phi projection
- the generalized derivation triple space and its phi projection
- the commutant of the adjoint operators

Each space is stored as its ambient dimension and its reduced row-echelon
basis, one sparse row per basis vector: a list of ``[column, value]`` pairs
with values in the serialized rational form.

``golden_products.json`` holds, for every pair in ``product_cases`` (verified
splits and the cross-factor pair, seeded random products, random-phi induced
structures, a zero product on mismatched brackets, non-Lie brackets), the
``as_dict()`` of every verification report with the left and right
multiplication matrices, and for every case in ``adz_cases`` the two condition
reports of the adjoint family.  Constructed tensors and matrices are pinned
alongside.  Tensors are lists of ``[i, j, k, value]`` entries and matrices
lists of ``[row, column, value]`` entries, nonzero entries only.

``golden_algebras.json`` holds, for every fixture of ``fixtures()`` and the
two perturbed non-Lie tensors, the one-algebra reports of ``lie.py``: the
validation report, the invariants (valid algebras only), the Killing form,
the center, the adjoint matrices, the JSON document, the direct sum with sl2,
the tensor after the change of basis ``shear(dim)``, and the homomorphism
report of the identity witness.

``golden_cli.json`` holds the exit code and the sha256 of the stdout of every
default CLI report in ``cli_commands``: the ``lie`` commands on every fixture of
``fixtures()``, ``lie info|validate`` on the two non-Lie tensors,
``postlie split -o|verify`` on the b+|n- splits of sl2 to sl4, ``postlie
verify`` on every pair of ``product_cases``, ``postlie phi`` on every case of
``phi_cases`` and ``postlie adz`` on every point of ``adz_points``.

Regenerate the files only when a change of the pinned output is intended:

    PYTHONPATH=src python tests/golden.py

The module also keeps the reference implementations that the faster code is
compared against: the sparse dict residuals of every identity check, which the
package now evaluates on packed table rows, and the constraint rows of every
ordered pair (``identity_rows``), which the rows of ``derivations._identity_space``
and, read mod 2 before their normalization, the bitsets of
``derivations._identity_parity`` are compared against.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

from postlie import catalog, cli, jsonio, products
from postlie.derivations import DerivationWeights, _roles, dspace, gder_triples, qder_pairs
from postlie.lie import (
    LieAlgebra,
    _bracket_terms,
    _gder_residual,
    _int_tables,
    change_basis,
    check_hom_witness,
    direct_sum,
)
from postlie.linalg import Matrix, Subspace, add_scaled, int_terms, nonzero_terms, rational_to_json

PATH = Path(__file__).with_name("golden_bases.json")
PRODUCTS_PATH = Path(__file__).with_name("golden_products.json")
ALGEBRAS_PATH = Path(__file__).with_name("golden_algebras.json")
CLI_PATH = Path(__file__).with_name("golden_cli.json")

WEIGHTS = (
    (1, 1, 1),
    (1, 1, 0),
    (0, 1, -1),
    (1, 1, -1),
    (1, 0, 0),
    (0, 0, 0),
    (Fraction(1, 2), 1, 1),
    (2, 3, Fraction(-1, 3)),
)

# phi ad_x = ad_x phi, that is phi([x,y]) = [x, phi y]: the identity with weights (1, 0, 1)
COMMUTANT = DerivationWeights.of(1, 0, 1)

# elementary operations (i, j, c): add c times basis column j to column i
_SHEAR_STEPS = ((0, 3, 1), (2, 5, -2), (4, 1, 1), (7, 0, 2), (5, 6, -1), (1, 7, 1), (3, 2, 2), (6, 4, -1))
_RATIONAL_STEPS = ((1, 0, Fraction(1, 2)), (3, 6, Fraction(-2, 3)), (7, 2, Fraction(3, 4)), (5, 4, 2))
_RATIONAL_DIAGONAL = (1, Fraction(1, 2), 2, -1, Fraction(3, 2), 1, Fraction(-2, 3), 1)


def _elementary(n: int, steps) -> Matrix:
    t = Matrix.identity(n)
    for i, j, c in steps:
        entries = [Fraction(int(r == s)) for r in range(n) for s in range(n)]
        entries[j * n + i] = Fraction(c)
        t = t * Matrix(n, n, entries)
    return t


def shear(n: int) -> Matrix:
    """A fixed unimodular integer matrix: products of elementary shears.

    Below dimension 8 the step indices are taken mod ``n`` and steps that
    land on the diagonal are dropped; from dimension 8 on every step is used
    as written.
    """
    return _elementary(n, [(i % n, j % n, c) for i, j, c in _SHEAR_STEPS if i % n != j % n])


def rational_basis_change(n: int) -> Matrix:
    """A fixed invertible rational matrix: rational shears times a diagonal."""
    diagonal = Matrix(
        n, n, [Fraction(_RATIONAL_DIAGONAL[r]) if r == s else 0 for r in range(n) for s in range(n)]
    )
    return _elementary(n, _RATIONAL_STEPS) * diagonal


def fixtures() -> dict[str, LieAlgebra]:
    sl3 = catalog.get("sl3").algebra
    return {
        "sl2": catalog.get("sl2").algebra,
        "sl3": sl3,
        "sl4": catalog.get("sln", n=4).algebra,
        "sl2+sl2": catalog.get("sl2+sl2").algebra,
        "r31": catalog.get("r31").algebra,
        "heisenberg": catalog.get("heisenberg").algebra,
        "abelian3": catalog.get("abelian", n=3).algebra,
        "sl3-shear": change_basis(sl3, shear(8)),
        "sl3-rational": change_basis(sl3, rational_basis_change(8)),
    }


def doctored(space: Subspace) -> Subspace:
    """``space`` with one stored row changed, built without the kernel.

    The first row gets 1 added at the first column that is not a pivot, which
    takes it out of the space; a zero space gets the row {0: 1}, and in the
    full space the first row is doubled.
    """
    rows = [dict(row) for row in space._rows] or [{}]
    free = [c for c in range(space.ambient_dim) if c not in space._pivots]
    col = free[0] if free else 0
    rows[0][col] = rows[0].get(col, 0) + 1
    return stored(space.ambient_dim, rows, space._pivots or (0,))


def stored(ambient_dim: int, rows, pivots) -> Subspace:
    """A ``Subspace`` holding ``rows`` and ``pivots`` as they are, built without the kernel."""
    out = object.__new__(Subspace)
    object.__setattr__(out, "ambient_dim", ambient_dim)
    object.__setattr__(out, "_rows", tuple(rows))
    object.__setattr__(out, "_pivots", tuple(pivots))
    return out


def identity_span(n: int) -> Subspace:
    """The scalar maps c id among the n x n matrices, flattened row-major."""
    return Subspace._from_int_rows([{i * n + i: 1 for i in range(n)}], n * n)


def known_solutions(l: LieAlgebra, weights, blocks: int) -> list:
    """Flattened maps that solve the identity of ``weights`` over ``blocks`` blocks
    on any valid bracket, laid out as ``derivations._roles`` lays them: in T
    (ad z, ad z, ad z), (id, id, 2 id) and (id, -id, 0); among the unit pairs
    (ad z, ad z) and (id, 2 id); in one block id when alpha = beta + gamma and
    ad z when alpha = beta = gamma.  ad z runs over the basis, read from
    ``ad_matrix`` and not from the solver's rows."""
    n = l.dim
    ads = [l.ad_matrix([int(i == j) for j in range(n)]) for i in range(n)]
    ident = Matrix.identity(n)
    alpha, beta, gamma = (Fraction(w) for w in weights)

    def flat(*maps):
        return sum((m.entries for m in maps), ())

    if blocks == 3:
        return [flat(a, a, a) for a in ads] + [
            flat(ident, ident, 2 * ident),
            flat(ident, -ident, Matrix.zero(n, n)),
        ]
    if blocks == 2:
        return [flat(a, a) for a in ads] + [flat(ident, 2 * ident)]
    return [flat(ident)] * (alpha == beta + gamma) + [flat(a) for a in ads] * (alpha == beta == gamma)


def weight_key(weights) -> str:
    return ",".join(str(Fraction(w)) for w in weights)


def encode(space: Subspace) -> list:
    rows = [
        [[j, rational_to_json(x)] for j, x in enumerate(row) if x]
        for row in space.basis_vectors()
    ]
    return [space.ambient_dim, rows]


def named_bases(l: LieAlgebra) -> dict[str, list]:
    out = {}
    for w in WEIGHTS:
        out[f"dspace {weight_key(w)}"] = encode(dspace(l, DerivationWeights.of(*w)))
    q = qder_pairs(l)
    out["qder pairs"] = encode(q.pair_space)
    out["qder phi"] = encode(q.phi_projection)
    g = gder_triples(l)
    out["gder triples"] = encode(g.triple_space)
    out["gder phi"] = encode(g.phi_projection)
    out["commutant"] = encode(dspace(l, COMMUTANT))
    return out


# -- post-Lie products ---------------------------------------------------------

_VALUES = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4))


def _draw(rng: random.Random, density: float):
    """A seeded entry: zero with probability 1 - density, else from _VALUES.

    Only ``random()`` is used, whose sequence for a given seed is stable
    across Python versions.
    """
    if rng.random() >= density:
        return 0
    return _VALUES[int(rng.random() * len(_VALUES))]


def random_product(dim: int, seed: int, density: float) -> products.BilinearProduct:
    rng = random.Random(seed)
    return products.BilinearProduct(
        [[[_draw(rng, density) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    )


def random_matrix(dim: int, seed: int, density: float) -> Matrix:
    rng = random.Random(seed)
    return Matrix(dim, dim, [_draw(rng, density) for _ in range(dim * dim)])


def _perturbed(l: LieAlgebra, i: int, j: int, k: int, delta, mirror: bool) -> LieAlgebra:
    """Add delta to c[i][j][k]; with ``mirror`` also subtract it from c[j][i][k]."""
    c = [[list(row) for row in plane] for plane in l.c]
    c[i][j][k] += delta
    if mirror:
        c[j][i][k] -= delta
    return LieAlgebra(c)


def non_jacobi_sl3() -> LieAlgebra:
    """sl3 with one bracket changed in both orientations: antisymmetric, not Lie."""
    return _perturbed(catalog.get("sl3").algebra, 0, 1, 2, 1, mirror=True)


def non_antisymmetric_sl2() -> LieAlgebra:
    """sl2 with one bracket changed in one orientation only."""
    return _perturbed(catalog.get("sl2").algebra, 2, 0, 0, Fraction(1, 2), mirror=False)


def _perturbed_product(prod: products.BilinearProduct, i: int, j: int, k: int, delta):
    p = [[list(row) for row in plane] for plane in prod.p]
    p[i][j][k] += delta
    return products.BilinearProduct(p)


def _induced_pair(n: LieAlgebra, prod: products.BilinearProduct) -> products.PostLiePair:
    return products.PostLiePair(products.induce_g(n, prod), n, prod)


def _split(n: int, choice: str) -> products.SplitResult:
    return products.split_construction(
        catalog.get("sln", n=n).algebra, *catalog.triangular_split(n, choice)
    )


def product_cases() -> dict[str, products.PostLiePair]:
    """Named pairs: verified splits, failing pairs, and every pair of ``phi_cases``."""
    sl2 = catalog.get("sl2").algebra
    sl3 = catalog.get("sl3").algebra
    heis = catalog.get("heisenberg").algebra
    double = catalog.get("sl2+sl2").algebra
    sl3_split = _split(3, "b+|n-").pair
    cases = {
        "sl3 split b+|n-": sl3_split,
        "sl4 split b+|n-": _split(4, "b+|n-").pair,
        "sl3 split, one product entry perturbed": products.PostLiePair(
            sl3_split.g, sl3, _perturbed_product(sl3_split.prod, 2, 0, 6, 1)
        ),
        "sl2 random product, induced g": _induced_pair(sl2, random_product(3, 1, 0.4)),
        "sl2 random product, g = n": products.PostLiePair(sl2, sl2, random_product(3, 2, 0.6)),
        "sl3 random product, induced g": _induced_pair(sl3, random_product(8, 3, 0.1)),
        "heisenberg random product, induced g": _induced_pair(heis, random_product(3, 4, 0.4)),
        "heisenberg random product, g = n": products.PostLiePair(
            heis, heis, random_product(3, 5, 0.5)
        ),
        "sl2+sl2 random product, induced g": _induced_pair(double, random_product(6, 6, 0.15)),
        "zero product on sl2, abelian3": products.PostLiePair(
            sl2, catalog.get("abelian", n=3).algebra, products.BilinearProduct.zero(3)
        ),
        "non-Lie g, Jacobi": products.PostLiePair(non_jacobi_sl3(), sl3, sl3_split.prod),
        "non-Lie g, antisymmetry": products.PostLiePair(
            _perturbed(sl2, 1, 2, 0, 1, mirror=False), sl2, random_product(3, 7, 0.3)
        ),
        "non-Lie n, antisymmetry": products.PostLiePair(
            sl2, non_antisymmetric_sl2(), random_product(3, 8, 0.3)
        ),
    }
    for name, result in phi_cases().items():
        cases[name] = result.pair
    return cases


def phi_cases() -> dict[str, products.PhiInducedResult]:
    sl2 = catalog.get("sl2").algebra
    sl3 = catalog.get("sl3").algebra
    double = catalog.get("sl2+sl2").algebra
    return {
        "sl2 random phi": products.phi_induced(sl2, random_matrix(3, 9, 0.7)),
        "sl3 random phi": products.phi_induced(sl3, random_matrix(8, 10, 0.1)),
        "sl2+sl2 random phi": products.phi_induced(double, random_matrix(6, 11, 0.2)),
        "sl2+sl2 cross-factor phi": products.phi_induced(double, catalog.cross_factor_phi()),
        "sl3 minus identity": products.phi_induced(sl3, -Matrix.identity(8)),
        "non-antisymmetric sl2 random phi": products.phi_induced(
            non_antisymmetric_sl2(), random_matrix(3, 12, 0.7)
        ),
        "non-Jacobi sl3 random phi": products.phi_induced(non_jacobi_sl3(), random_matrix(8, 13, 0.1)),
    }


def adz_points() -> dict[str, tuple[LieAlgebra, tuple, Fraction]]:
    """The (n, z, lambda) inputs of ``adz_cases``, under the same keys."""
    sl2 = catalog.get("sl2").algebra
    sl3 = catalog.get("sl3").algebra
    double = catalog.get("sl2+sl2").algebra
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    points = (
        ("sl2", sl2, (0, 0, 0), 0),
        ("sl2", sl2, (0, 0, 0), -1),
        ("sl2", sl2, (0, 0, quarter), -half),
        ("sl2", sl2, (0, 0, 4), -half),
        ("sl2", sl2, (Fraction(1, 16), 1, 0), -half),
        ("sl2", sl2, (1, 0, 0), 0),
        ("sl2", sl2, (1, 1, half), -third),
        ("sl3", sl3, (0, 0, 0, 0, 0, 0, 1, 0), -1),
        ("sl3", sl3, (1, 0, 0, 0, -1, 0, half, 2), 2),
        ("sl2+sl2", double, (0, 0, quarter, 0, 0, -quarter), -half),
        ("sl2+sl2", double, (1, -1, 0, 2, 0, third), 1),
        ("non-antisymmetric sl2", non_antisymmetric_sl2(), (0, 0, quarter), -half),
        ("non-Jacobi sl3", non_jacobi_sl3(), (0, 0, 0, 0, 0, 0, 1, 0), 0),
        ("non-Jacobi sl3", non_jacobi_sl3(), (0, 1, 0, 0, 0, 0, 0, -1), -1),
    )
    return {
        f"{name} z=({','.join(str(Fraction(v)) for v in z)}) lambda={Fraction(lam)}": (alg, z, lam)
        for name, alg, z, lam in points
    }


def adz_cases() -> dict[str, products.AdjointFamilyResult]:
    return {key: products.adz_lambda(*point) for key, point in adz_points().items()}


def encode_tensor(t) -> list:
    return [
        [i, j, k, rational_to_json(v)]
        for i, plane in enumerate(t)
        for j, row in enumerate(plane)
        for k, v in enumerate(row)
        if v
    ]


def encode_matrix(m: Matrix) -> list:
    return [
        [r, c, rational_to_json(m.at(r, c))]
        for r in range(m.rows)
        for c in range(m.cols)
        if m.at(r, c)
    ]


def pair_reports(pair: products.PostLiePair) -> dict:
    """Every verification report of a pair.

    The left-multiplication and embedding reports restate the axioms and read
    the report ``check_axioms`` keeps on the pair, so the three share one
    evaluation of each identity.  L_i and R_i are read from the product.
    """
    lmult = products.left_multiplication_checks(pair)
    prod, basis = pair.prod, range(pair.dim)
    try:
        embedding = products.embed_check(pair).as_dict()
    except ValueError:
        embedding = {"raises": "ValueError"}
    return {
        "g": encode_tensor(pair.g.c),
        "n": encode_tensor(pair.n.c),
        "product": encode_tensor(pair.prod.p),
        "g_validation": pair.g.validate().as_dict(),
        "n_validation": pair.n.validate().as_dict(),
        "axioms": products.check_axioms(pair).as_dict(),
        "derived_identities": products.check_derived_identities(pair).as_dict(),
        "left_multiplications": lmult.as_dict(),
        "left_matrices": [encode_matrix(prod.left_matrix_basis(i)) for i in basis],
        "right_matrices": [encode_matrix(prod.right_matrix_basis(i)) for i in basis],
        "embedding": embedding,
    }


def split_reports(split: products.SplitResult) -> dict:
    return {
        "projection_first": encode_matrix(split.projection_first),
        "projection_second": encode_matrix(split.projection_second),
        "phi": encode_matrix(split.phi),
        "g": encode_tensor(split.pair.g.c),
        "product": encode_tensor(split.pair.prod.p),
    }


def phi_reports(result: products.PhiInducedResult) -> dict:
    return {
        "conditions": result.conditions.as_dict(),
        "g": encode_tensor(result.pair.g.c),
        "product": encode_tensor(result.pair.prod.p),
    }


def adz_reports(result: products.AdjointFamilyResult) -> dict:
    return {
        "conditions": result.conditions.as_dict(),
        "phi_conditions": result.phi_conditions.as_dict(),
        "phi": encode_matrix(result.phi),
        "g": encode_tensor(result.pair.g.c),
    }


def algebra_cases() -> dict[str, LieAlgebra]:
    cases = fixtures()
    cases["non-Jacobi sl3"] = non_jacobi_sl3()
    cases["non-antisymmetric sl2"] = non_antisymmetric_sl2()
    return cases


def algebra_reports(l: LieAlgebra) -> dict:
    """Every one-algebra report of ``lie.py``, each computed on its own."""
    validation = l.validate()
    sl2 = catalog.get("sl2").algebra
    out = {"validation": validation.as_dict()}
    if validation.ok:
        out["invariants"] = l.invariants().as_dict()
    total = direct_sum(l, sl2)
    out.update(
        {
            "killing_form": encode_matrix(l.killing_form()),
            "center": encode(l.center()),
            "ad_basis": [encode_matrix(l.ad_matrix(Matrix.identity(l.dim).row(i))) for i in range(l.dim)],
            "json": jsonio.algebra_to_json(l),
            "direct_sum sl2": [encode_tensor(total.c), total.labels and list(total.labels)],
            "change_basis shear": encode_tensor(change_basis(l, shear(l.dim)).c),
            "hom_witness identity": check_hom_witness(l, l, Matrix.identity(l.dim)).as_dict(),
        }
    )
    return out


def split_cases() -> dict[str, products.SplitResult]:
    return {
        f"sl{n} split {choice}": _split(n, choice)
        for n, choice in ((2, "b+|n-"), (3, "b+|n-"), (3, "n+|b-"), (4, "b+|n-"), (4, "b-|n+"))
    }


def product_reports() -> dict[str, dict]:
    """All pinned product-level output, keyed by "<group> / <case>"."""
    out = {}
    for group, cases, encode in (
        ("pair", product_cases(), pair_reports),
        ("split", split_cases(), split_reports),
        ("phi", phi_cases(), phi_reports),
        ("adz", adz_cases(), adz_reports),
    ):
        for name, case in cases.items():
            out[f"{group} / {name}"] = encode(case)
    return out


# -- command-line reports -------------------------------------------------------

# the (alpha, beta, gamma) of the pinned ``lie dspace`` runs, and whether each lists its basis
CLI_WEIGHTS = (("1", "1", "1", False), ("0", "1", "-1", True), ("1", "1", "0", True))


def cli_commands(directory: Path) -> dict[str, list[str]]:
    """The argv of every pinned CLI report by name, its input files written into
    ``directory``.  Each ``postlie verify`` of a split reads the pair that the
    ``postlie split -o`` before it wrote, so the commands run in order."""

    def write(doc) -> str:
        path = directory / f"input{len(list(directory.iterdir()))}.json"
        jsonio.dump_json(str(path), doc)
        return str(path)

    commands = {}
    for name, alg in algebra_cases().items():
        path = write(jsonio.algebra_to_json(alg))
        for command in ("info", "validate"):
            commands[f"lie {command} {name}"] = ["lie", command, path]
        if not alg.validate().ok:
            continue
        for a, b, g, basis in CLI_WEIGHTS:
            argv = ["lie", "dspace", path, f"--alpha={a}", f"--beta={b}", f"--gamma={g}"]
            key = f"lie dspace {a},{b},{g}" + " --basis" * basis
            commands[f"{key} {name}"] = argv + ["--basis"] * basis
        for command in ("qder", "gder", "chain"):
            commands[f"lie {command} {name}"] = ["lie", command, path]
    for n in (2, 3, 4):
        path = write(jsonio.algebra_to_json(catalog.get("sln", n=n).algebra))
        left, right = (
            ",".join(map(str, sorted(s._pivots))) for s in catalog.triangular_split(n, "b+|n-")
        )
        pair = str(directory / f"sl{n}-pair.json")
        split = ["postlie", "split", path, "--left", left, "--right", right, "-o", pair]
        commands[f"postlie split -o sl{n} b+|n-"] = split
        commands[f"postlie verify sl{n} b+|n-"] = ["postlie", "verify", pair]
    for name, pair in product_cases().items():
        commands[f"postlie verify {name}"] = ["postlie", "verify", write(jsonio.pair_to_json(pair))]
    for name, result in phi_cases().items():
        n_path = write(jsonio.algebra_to_json(result.pair.n))
        phi_path = write(jsonio.matrix_to_json(result.phi))
        commands[f"postlie phi {name}"] = ["postlie", "phi", n_path, phi_path]
    for name, (alg, z, lam) in adz_points().items():
        z_arg = ",".join(str(Fraction(v)) for v in z)
        path = write(jsonio.algebra_to_json(alg))
        commands[f"postlie adz {name}"] = ["postlie", "adz", path, f"--z={z_arg}", f"--lambda={lam}"]
    return commands


def cli_pins(directory: Path) -> dict[str, list]:
    """``[exit code, sha256 of stdout]`` of every command of ``cli_commands``."""
    pins = {}
    for name, argv in cli_commands(directory).items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        pins[name] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    return pins


# -- reference implementations ------------------------------------------------


def sparse_residuals(residual, indices, width: int, scale: int = 1) -> tuple:
    """(index, dense vector) for each index whose dict ``residual(*index)`` is nonzero,
    divided back by ``scale``: the failure lists the packed checks must reproduce."""
    out = []
    for idx in indices:
        res = residual(*idx)
        if any(res.values()):
            out.append((idx, tuple(Fraction(res.get(k, 0), scale) for k in range(width))))
    return tuple(out)


def cyclic(out: dict, s, inner, outer, i: int, j: int, k: int, right=False) -> dict:
    """out += s * the cyclic sum of (x * y) * z, or of z * (x * y) when ``right``."""
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        for m, v in inner[x][y]:
            add_scaled(out, s * v, outer[z][m] if right else outer[m][z])
    return out


def _pairs(dim: int) -> list:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def _triples(dim: int) -> list:
    return [(i, j, k) for i, j in _pairs(dim) for k in range(j + 1, dim)]


def validation_failures(l: LieAlgebra) -> tuple:
    """The antisymmetry and Jacobi failures of ``LieAlgebra.validate``."""
    n, adj = l.dim, l._adj
    anti = []
    for i in range(n):
        for j in range(i, n):
            total = dict(adj[i][j])
            add_scaled(total, 1, adj[j][i])
            anti.extend((i, j, k) for k in sorted(total) if total[k])
    den, iadj = l.int_adj()
    jacobi = sparse_residuals(
        lambda i, j, k: cyclic({}, 1, iadj, iadj, i, j, k), _triples(n), n, den * den
    )
    return tuple(anti), jacobi


def commutator_residual(g, n, p, i: int, j: int) -> dict:
    """e_i.e_j - e_j.e_i - [e_i,e_j] + {e_i,e_j}."""
    out: dict = {}
    for s, terms in ((1, p[i][j]), (-1, p[j][i]), (-1, g[i][j]), (1, n[i][j])):
        add_scaled(out, s, terms)
    return out


def left_action_residual(g, p, i: int, j: int, k: int) -> dict:
    """[e_i,e_j].e_k - e_i.(e_j.e_k) + e_j.(e_i.e_k)."""
    out: dict = {}
    for a, v in g[i][j]:
        add_scaled(out, v, p[a][k])
    for m, v in p[j][k]:
        add_scaled(out, -v, p[i][m])
    for m, v in p[i][k]:
        add_scaled(out, v, p[j][m])
    return out


def axiom_failures(pair: products.PostLiePair) -> tuple:
    """The three failure lists of ``products.check_axioms``."""
    den, (g, n, p) = _int_tables(pair.g._adj, pair.n._adj, pair.prod._adj)
    dim = pair.dim
    pairs = _pairs(dim)
    return (
        sparse_residuals(lambda i, j: commutator_residual(g, n, p, i, j), pairs, dim, den),
        sparse_residuals(
            lambda i, j, k: left_action_residual(g, p, i, j, k),
            [(i, j, k) for i, j in pairs for k in range(dim)],
            dim,
            den * den,
        ),
        # e_i.{e_j,e_k} - {e_i.e_j, e_k} - {e_j, e_i.e_k}; column m of L_i is p[i][m]
        sparse_residuals(
            lambda i, j, k: _gder_residual(n, p[i], p[i], p[i], j, k),
            [(i, j, k) for i in range(dim) for j, k in pairs],
            dim,
            den * den,
        ),
    )


def derived_failures(pair: products.PostLiePair) -> tuple:
    """The two failure lists of ``products.check_derived_identities``."""
    den, (g, n, p) = _int_tables(pair.g._adj, pair.n._adj, pair.prod._adj)

    def action(i, j, k):
        return cyclic(cyclic({}, 1, n, p, i, j, k, right=True), -1, g, n, i, j, k)

    def multiplication(i, j, k):
        out = cyclic(cyclic({}, 1, n, p, i, j, k), -1, n, g, i, j, k)
        return cyclic(out, -1, g, n, i, j, k)

    triples = _triples(pair.dim)
    return (
        sparse_residuals(action, triples, pair.dim, den * den),
        sparse_residuals(multiplication, triples, pair.dim, den * den),
    )


def phi_failures(n: LieAlgebra, phi: Matrix) -> tuple:
    """The difference-rule and homomorphism-rule failures of ``products.phi_induced``."""
    dim = n.dim
    gadj = products.phi_induced(n, phi).pair.g._adj  # the induced g
    phi_cols = tuple(nonzero_terms(phi.column(i)) for i in range(dim))
    den, (nadj, (cols,)) = _int_tables(n._adj, (phi_cols,))

    def difference(i, j):
        out = _bracket_terms({}, 1, nadj, ((i, 1),), cols[j])
        return _bracket_terms(out, 1, nadj, cols[j], ((i, 1),))

    def homomorphism(i, j):
        out: dict = {}
        for a, v in int_terms(gadj[i][j], den * den):
            add_scaled(out, v, cols[a])
        return _bracket_terms(out, -1, nadj, cols[i], cols[j])

    pairs = _pairs(dim)
    return (
        sparse_residuals(difference, pairs, dim, den**2),
        sparse_residuals(homomorphism, pairs, dim, den**3),
    )


def adz_conditions(n: LieAlgebra, z, lam) -> tuple:
    """The fields of the ``products.adz_lambda`` conditions: two failure lists and the
    verdict of the annihilating polynomial."""
    result = products.adz_lambda(n, z, lam)  # for its induced g
    dim = n.dim
    inputs = ((nonzero_terms(map(Fraction, z)), ((0, Fraction(lam)),)),)
    den, (nadj, gadj, ((zt, ((_, lam),)),)) = _int_tables(n._adj, result.pair.g._adj, inputs)
    adz_cols = [_bracket_terms({}, 1, nadj, zt, ((i, 1),)).items() for i in range(dim)]
    two_lam_one = (2 * lam + den) * den
    lam_sq = (lam * lam + lam * den) * den * den

    def bracket_formula(i, j):
        out = _bracket_terms({}, -1, nadj, zt, nadj[i][j])
        add_scaled(out, den * den, gadj[i][j])
        add_scaled(out, -two_lam_one, nadj[i][j])
        return out

    def composition(i, j):
        z_nij = _bracket_terms({}, 1, nadj, zt, nadj[i][j]).items()
        out = _bracket_terms({}, 1, nadj, adz_cols[i], adz_cols[j])
        _bracket_terms(out, -1, nadj, zt, z_nij)
        add_scaled(out, -two_lam_one, z_nij)
        add_scaled(out, -lam_sq, nadj[i][j])
        return out

    def poly(j):
        v2 = _bracket_terms({}, 1, nadj, zt, adz_cols[j]).items()
        out = _bracket_terms({}, 1, nadj, zt, v2)
        add_scaled(out, two_lam_one, v2)
        add_scaled(out, lam_sq, adz_cols[j])
        return out

    pairs = _pairs(dim)
    return (
        sparse_residuals(bracket_formula, pairs, dim, den**3),
        sparse_residuals(composition, pairs, dim, den**5),
        not any(any(poly(j).values()) for j in range(dim)),
    )


def raw_identity_rows(l: LieAlgebra, weights, blocks: int) -> list:
    """The nonzero candidate rows of ``derivations._identity_space`` over every ordered
    pair, as the identity gives them: cancelled entries dropped, nothing else."""
    n = l.dim
    _, adj = l.int_adj()
    (phi, b), (sigma, g), (tau, a) = _roles(weights, blocks, n * n)
    rows = []
    for i in range(n):
        for j in range(n):
            acc = [{} for _ in range(n)]
            if a:
                for m, v in adj[i][j]:
                    for k in range(n):
                        acc[k][tau + k * n + m] = a * v
            if b:
                for m in range(n):
                    col = phi + m * n + i
                    for k, v in adj[m][j]:
                        acc[k][col] = acc[k].get(col, 0) - b * v
            if g:
                for m in range(n):
                    col = sigma + m * n + j
                    for k, v in adj[i][m]:
                        acc[k][col] = acc[k].get(col, 0) - g * v
            rows.extend(row for row in ({c: v for c, v in r.items() if v} for r in acc) if row)
    return rows


def identity_rows(l: LieAlgebra, weights, blocks: int) -> list:
    """The distinct constraint rows of ``derivations._identity_space``, over every
    ordered pair: each row of ``raw_identity_rows`` sorted, made primitive with a
    positive leading entry, and kept at its first occurrence on a tuple key.  The
    builder emits its rows as built, so they match these after the same
    canonicalisation."""
    seen = set()
    rows = []
    for row in raw_identity_rows(l, weights, blocks):
        items = sorted(row.items())
        content = gcd(*(v for _, v in items))
        if items[0][1] < 0:
            content = -content
        key = tuple((c, v // content) for c, v in items)
        if key not in seen:
            seen.add(key)
            rows.append(dict(key))
    return rows


def load(path: Path = PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, items) -> None:
    lines = [f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}" for key, value in items]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main() -> None:
    _write(
        PATH,
        (
            (name + " / " + space, value)
            for name, alg in fixtures().items()
            for space, value in named_bases(alg).items()
        ),
    )
    _write(PRODUCTS_PATH, product_reports().items())
    _write(ALGEBRAS_PATH, ((name, algebra_reports(l)) for name, l in algebra_cases().items()))
    with tempfile.TemporaryDirectory() as directory:
        _write(CLI_PATH, cli_pins(Path(directory)).items())


if __name__ == "__main__":
    main()
