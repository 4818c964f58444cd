"""Command-line surface.

Two command groups share one dispatcher: ``lie`` for algebra-level queries
(invariants, validation, derivation spaces, the fixture catalog) and
``postlie`` for product-level constructions and verification.  Every command
prints one JSON report to stdout with sorted keys, so identical inputs give
byte-identical output.  Exit codes: 0 computed and verified, 1 computed but
verification failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Sequence

from . import catalog, derivations, jsonio, products
from .lie import InvalidLieAlgebra, LieAlgebra
from .linalg import (
    DimensionMismatch,
    Subspace,
    parse_index,
    parse_rational,
    rational_to_json,
)


class CliInputError(ValueError):
    pass


def _load_algebra(path: str) -> LieAlgebra:
    return jsonio.algebra_from_json(jsonio.load_json(path))


def _algebra_inputs(l: LieAlgebra) -> dict:
    doc = {"dim": l.dim}
    if l.labels is not None:
        doc["labels"] = list(l.labels)
    return doc


def _basis_matrices(space: Subspace, n: int) -> list:
    return [
        jsonio.matrix_to_json(derivations.matrix_from_flat(row, n))
        for row in space.basis_vectors()
    ]


def _members_verified(space: Subspace, n: int, residuals) -> bool:
    """Cut each basis vector into n x n maps and substitute them into the oracle."""
    nn = n * n
    for row in space.basis_vectors():
        maps = [derivations.matrix_from_flat(row[s : s + nn], n) for s in range(0, len(row), nn)]
        if residuals(*maps):
            return False
    return True


def _report(command: str, inputs: dict, results: dict, verified: bool) -> dict:
    return {"command": command, "inputs": inputs, "results": results, "verified": verified}


def _parse_rational_arg(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CliInputError(f"{what}: {exc}") from exc


def _parse_vector(text: str, what: str) -> list[Fraction]:
    return [_parse_rational_arg(part, what) for part in text.split(",")]


def _parse_indices(text: str, what: str) -> list[int]:
    try:
        return [parse_index(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"{what}: expected comma-separated integers") from exc


# -- lie group ---------------------------------------------------------------


def _cmd_lie_info(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    validation = alg.validate()
    if not validation.ok:
        report = _report(
            "lie info",
            _algebra_inputs(alg),
            {"valid": False, "validation": validation.as_dict()},
            False,
        )
        return report, 1
    inv = alg.invariants()
    return _report("lie info", _algebra_inputs(alg), inv.as_dict(), True), 0


def _cmd_lie_validate(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    validation = alg.validate()
    report = _report("lie validate", _algebra_inputs(alg), validation.as_dict(), validation.ok)
    return report, 0 if validation.ok else 1


def _cmd_lie_dspace(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    weights = derivations.DerivationWeights.of(
        _parse_rational_arg(args.alpha, "--alpha"),
        _parse_rational_arg(args.beta, "--beta"),
        _parse_rational_arg(args.gamma, "--gamma"),
    )
    space = derivations.dspace(alg, weights)
    oracle = partial(derivations.weighted_residuals, alg, weights)
    verified = _members_verified(space, alg.dim, oracle)
    inputs = _algebra_inputs(alg)
    inputs["weights"] = {
        "alpha": str(weights.alpha),
        "beta": str(weights.beta),
        "gamma": str(weights.gamma),
    }
    results: dict = {"dim": space.dim}
    if args.basis:
        results["basis"] = _basis_matrices(space, alg.dim)
    return _report("lie dspace", inputs, results, verified), 0 if verified else 1


def _cmd_lie_qder(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    result = derivations.qder_pairs(alg)
    oracle = partial(derivations.quasi_residuals, alg)
    verified = _members_verified(result.pair_space, alg.dim, oracle)
    results = {
        "pair_space_dim": result.pair_space.dim,
        "phi_dim": result.phi_projection.dim,
    }
    return _report("lie qder", _algebra_inputs(alg), results, verified), 0 if verified else 1


def _cmd_lie_gder(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    result = derivations.gder_triples(alg)
    oracle = partial(derivations.generalized_residuals, alg)
    verified = _members_verified(result.triple_space, alg.dim, oracle)
    results = {
        "triple_space_dim": result.triple_space.dim,
        "phi_dim": result.phi_projection.dim,
    }
    return _report("lie gder", _algebra_inputs(alg), results, verified), 0 if verified else 1


def _cmd_lie_chain(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    chain = derivations.verify_chain(alg)
    report = _report("lie chain", _algebra_inputs(alg), chain.as_dict(), chain.all_ok)
    return report, 0 if chain.all_ok else 1


def _cmd_lie_catalog(args) -> tuple[dict, int]:
    if args.name in ("sln", "abelian") and args.n is not None and args.n > 0:
        dim = args.n * args.n - 1 if args.name == "sln" else args.n
        # the dense n^3 tensor is built at once, so refuse before building it
        if dim > jsonio.MAX_DIM:
            raise CliInputError(
                f"{args.name} with --n {args.n} has dimension {dim}, "
                f"which exceeds the limit of {jsonio.MAX_DIM}"
            )
    try:
        entry = catalog.get(args.name, n=args.n)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    doc = jsonio.algebra_to_json(entry.algebra)
    if args.output:
        jsonio.dump_json(args.output, doc)
    return doc, 0


# -- postlie group -------------------------------------------------------------


def _load_pair(path: str) -> products.PostLiePair:
    return jsonio.pair_from_json(jsonio.load_json(path))


def _verify_pair_results(pair: products.PostLiePair) -> tuple[dict, bool]:
    g_validation = pair.g.validate()
    n_validation = pair.n.validate()
    axioms = products.check_axioms(pair)
    derived = products.check_derived_identities(pair)
    lmult = products.left_multiplication_checks(pair)
    results = {
        "g_validation": g_validation.as_dict(),
        "n_validation": n_validation.as_dict(),
        "axioms": axioms.as_dict(),
        "derived_identities": derived.as_dict(),
        "left_multiplications": lmult.as_dict(),
    }
    if axioms.ok:
        embedding = products.embed_check(pair)
        results["embedding"] = embedding.as_dict()
        embed_ok = embedding.ok
    else:
        results["embedding"] = {"skipped": True}
        embed_ok = False
    verified = (
        g_validation.ok
        and n_validation.ok
        and axioms.ok
        and derived.ok
        and lmult.ok
        and embed_ok
    )
    return results, verified


def _cmd_postlie_verify(args) -> tuple[dict, int]:
    pair = _load_pair(args.pairfile)
    results, verified = _verify_pair_results(pair)
    inputs = {"dim": pair.dim}
    return _report("postlie verify", inputs, results, verified), 0 if verified else 1


def _cmd_postlie_split(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    left = _parse_indices(args.left, "--left")
    right = _parse_indices(args.right, "--right")
    for idx in left + right:
        if not 0 <= idx < alg.dim:
            raise CliInputError(f"basis index {idx} out of range for dim {alg.dim}")
    first = catalog.unit_span(left, alg.dim)
    second = catalog.unit_span(right, alg.dim)
    try:
        split = products.split_construction(alg, first, second)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    results, verified = _verify_pair_results(split.pair)
    results["phi"] = jsonio.matrix_to_json(split.phi)
    results["g_invariants"] = split.pair.g.invariants().as_dict()
    if args.output:
        jsonio.dump_json(args.output, jsonio.pair_to_json(split.pair))
    inputs = _algebra_inputs(alg)
    inputs["left"] = left
    inputs["right"] = right
    return _report("postlie split", inputs, results, verified), 0 if verified else 1


def _cmd_postlie_phi(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    phi = jsonio.matrix_from_json(jsonio.load_json(args.phifile))
    if phi.rows != alg.dim or phi.cols != alg.dim:
        raise CliInputError(
            f"phi must be {alg.dim}x{alg.dim}, got {phi.rows}x{phi.cols}"
        )
    result = products.phi_induced(alg, phi)
    axioms = products.check_axioms(result.pair)
    verified = result.conditions.ok and axioms.ok
    results = {
        "conditions": result.conditions.as_dict(),
        "axioms": axioms.as_dict(),
        "induced_bracket": jsonio.algebra_to_json(result.pair.g),
    }
    inputs = _algebra_inputs(alg)
    inputs["phi"] = jsonio.matrix_to_json(phi)
    return _report("postlie phi", inputs, results, verified), 0 if verified else 1


def _cmd_postlie_adz(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    z = _parse_vector(args.z, "--z")
    if len(z) != alg.dim:
        raise CliInputError(f"--z needs {alg.dim} coordinates, got {len(z)}")
    lam = _parse_rational_arg(args.lam, "--lambda")
    result = products.adz_lambda(alg, z, lam)
    verified = result.conditions.ok
    results = {
        "conditions": result.conditions.as_dict(),
        "phi_conditions": result.phi_conditions.as_dict(),
        "induced_bracket": jsonio.algebra_to_json(result.pair.g),
    }
    inputs = _algebra_inputs(alg)
    inputs["z"] = [rational_to_json(v) for v in z]
    inputs["lambda"] = str(lam)
    return _report("postlie adz", inputs, results, verified), 0 if verified else 1


# -- dispatcher ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # let bare negative rationals like -1/2 pass as option values; vectors
    # with a leading minus still need the --opt=value spelling
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="postlie-workbench",
        description="Exact computations with Lie algebra pairs and their products.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    lie = groups.add_parser("lie", help="algebra-level queries")
    lie_sub = lie.add_subparsers(dest="command", required=True)

    p = lie_sub.add_parser("info", help="structural invariants")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lie_info)

    p = lie_sub.add_parser("validate", help="antisymmetry and Jacobi check")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lie_validate)

    p = lie_sub.add_parser("dspace", help="weighted derivation space")
    p.add_argument("file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--basis", action="store_true", help="include the basis matrices")
    p.set_defaults(handler=_cmd_lie_dspace)

    p = lie_sub.add_parser("qder", help="quasiderivations")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lie_qder)

    p = lie_sub.add_parser("gder", help="generalized derivations")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lie_gder)

    p = lie_sub.add_parser("chain", help="inclusion chain among derivation spaces")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lie_chain)

    p = lie_sub.add_parser("catalog", help="emit a fixture algebra as JSON")
    p.add_argument("name")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_lie_catalog)

    post = groups.add_parser("postlie", help="product-level constructions")
    post_sub = post.add_subparsers(dest="command", required=True)

    p = post_sub.add_parser("verify", help="verify a stored pair")
    p.add_argument("pairfile")
    p.set_defaults(handler=_cmd_postlie_verify)

    p = post_sub.add_parser("split", help="structure from a subalgebra decomposition")
    p.add_argument("file")
    p.add_argument("--left", required=True, help="comma-separated basis indices")
    p.add_argument("--right", required=True, help="comma-separated basis indices")
    p.add_argument("-o", "--output", default=None, help="write the pair as JSON")
    p.set_defaults(handler=_cmd_postlie_split)

    p = post_sub.add_parser("phi", help="structure induced by an endomorphism")
    p.add_argument("file")
    p.add_argument("phifile")
    p.set_defaults(handler=_cmd_postlie_phi)

    p = post_sub.add_parser("adz", help="structure from phi = ad(z) + lambda id")
    p.add_argument("file")
    p.add_argument("--z", required=True, help="comma-separated rational coordinates")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(handler=_cmd_postlie_adz)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
    except (CliInputError, jsonio.FormatError, InvalidLieAlgebra, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def lie_main() -> None:
    sys.exit(main(["lie", *sys.argv[1:]]))


def postlie_main() -> None:
    sys.exit(main(["postlie", *sys.argv[1:]]))


if __name__ == "__main__":
    sys.exit(main())
