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
import os
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Sequence

from . import catalog, derivations, jsonio, products
from .lie import InvalidLieAlgebra, LieAlgebra
from .linalg import (
    DimensionMismatch,
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


def _report(command: str, inputs: dict, results: dict, verified: bool) -> tuple[dict, int]:
    report = {"command": command, "inputs": inputs, "results": results, "verified": verified}
    return report, 0 if verified else 1


def _parse_arg(parse, text: str, what: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise CliInputError(f"{what}: {exc}") from exc


def _parse_vector(text: str, what: str) -> list[Fraction]:
    return [_parse_arg(parse_rational, part, what) for part in text.split(",")] if text else []


def _parse_indices(text: str, what: str) -> list[int]:
    try:  # an empty side of a split is the zero subalgebra
        indices = [parse_index(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise CliInputError(f"{what}: expected comma-separated integers") from exc
    ordered = sorted(indices)
    if repeated := [i for i, j in zip(ordered, ordered[1:]) if i == j]:
        raise CliInputError(f"{what}: index {repeated[0]} is repeated")
    return indices


# -- lie group ---------------------------------------------------------------


def _cmd_lie_info(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    validation = alg.validate()
    if not validation.ok:
        results = {"valid": False, "validation": validation.as_dict()}
        return _report("lie info", _algebra_inputs(alg), results, False)
    return _report("lie info", _algebra_inputs(alg), alg.invariants().as_dict(), True)


def _cmd_lie_validate(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    validation = alg.validate()
    return _report("lie validate", _algebra_inputs(alg), validation.as_dict(), validation.ok)


def _cmd_lie_dspace(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    weights = derivations.DerivationWeights.of(
        _parse_arg(parse_rational, args.alpha, "--alpha"),
        _parse_arg(parse_rational, args.beta, "--beta"),
        _parse_arg(parse_rational, args.gamma, "--gamma"),
    )
    space = derivations.dspace(alg, weights)
    verified = derivations.members_verified(alg, space, weights)
    inputs = _algebra_inputs(alg)
    inputs["weights"] = {
        "alpha": str(weights.alpha),
        "beta": str(weights.beta),
        "gamma": str(weights.gamma),
    }
    results: dict = {"dim": space.dim}
    if args.basis:
        maps = (derivations.matrix_from_flat(row, alg.dim) for row in space.basis_vectors())
        results["basis"] = [jsonio.matrix_to_json(m) for m in maps]
    return _report("lie dspace", inputs, results, verified)


def _cmd_lie_block_space(args) -> tuple[dict, int]:
    """``lie qder`` and ``lie gder``: the solve and space the parser names,
    looked up in ``derivations`` when the command runs."""
    alg = _load_algebra(args.file)
    result = getattr(derivations, args.solve)(alg)
    space = getattr(result, args.space)
    verified = derivations.members_verified(alg, space)
    results = {f"{args.space}_dim": space.dim, "phi_dim": result.phi_projection.dim}
    return _report(f"lie {args.command}", _algebra_inputs(alg), results, verified)


def _cmd_lie_chain(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    chain = derivations.verify_chain(alg)
    return _report("lie chain", _algebra_inputs(alg), chain.as_dict(), chain.all_ok)


def _cmd_lie_catalog(args) -> tuple[dict, int]:
    n = None if args.n is None else _parse_arg(parse_index, args.n, "--n")
    try:
        entry = catalog.get(args.name, n=n)
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
    # the embedding and left-multiplication reports restate the axioms, so axioms.ok decides both
    results["embedding"] = products.embed_check(pair).as_dict() if axioms.ok else {"skipped": True}
    verified = g_validation.ok and n_validation.ok and axioms.ok and derived.ok
    return results, verified


def _cmd_postlie_verify(args) -> tuple[dict, int]:
    pair = _load_pair(args.pairfile)
    results, verified = _verify_pair_results(pair)
    inputs = {"dim": pair.dim}
    return _report("postlie verify", inputs, results, verified)


def _cmd_postlie_split(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    left = _parse_indices(args.left, "--left")
    right = _parse_indices(args.right, "--right")
    try:
        first = catalog.unit_span(left, alg.dim)
        second = catalog.unit_span(right, alg.dim)
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
    return _report("postlie split", inputs, results, verified)


def _cmd_postlie_phi(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    phi = jsonio.matrix_from_json(jsonio.load_json(args.phifile))
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
    return _report("postlie phi", inputs, results, verified)


def _cmd_postlie_adz(args) -> tuple[dict, int]:
    alg = _load_algebra(args.file)
    z = _parse_vector(args.z, "--z")
    lam = _parse_arg(parse_rational, args.lam, "--lambda")
    result = products.adz_lambda(alg, z, lam)
    # the adz conditions run over i < j; the induced bracket's validation sees the diagonal
    verified = result.conditions.ok and result.phi_conditions.ok
    results = {
        "conditions": result.conditions.as_dict(),
        "phi_conditions": result.phi_conditions.as_dict(),
        "induced_bracket": jsonio.algebra_to_json(result.pair.g),
    }
    inputs = _algebra_inputs(alg)
    inputs["z"] = [rational_to_json(v) for v in z]
    inputs["lambda"] = str(lam)
    return _report("postlie adz", inputs, results, verified)


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

    for command, help_text, solve, space in (
        ("qder", "quasiderivations", "qder_pairs", "pair_space"),
        ("gder", "generalized derivations", "gder_triples", "triple_space"),
    ):
        p = lie_sub.add_parser(command, help=help_text)
        p.add_argument("file")
        p.set_defaults(handler=_cmd_lie_block_space, solve=solve, space=space)

    p = lie_sub.add_parser("chain", help="inclusion chain among derivation spaces")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lie_chain)

    p = lie_sub.add_parser("catalog", help="emit a fixture algebra as JSON")
    p.add_argument("name")
    p.add_argument("--n", default=None)
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: its tree is full of reference cycles."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
        text = json.dumps(payload, indent=2, sort_keys=True)
    except (
        CliInputError,
        jsonio.FormatError,
        InvalidLieAlgebra,
        DimensionMismatch,
        derivations.SystemTooLarge,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # the int-to-str digit limit, in a handler or in the dump
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a result has over {sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early: stdout to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def lie_main() -> None:
    sys.exit(main(["lie", *sys.argv[1:]]))


def postlie_main() -> None:
    sys.exit(main(["postlie", *sys.argv[1:]]))


if __name__ == "__main__":
    sys.exit(main())
