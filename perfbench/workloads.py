"""The benchmark's workloads: inputs written at set-up, one pass of commands, checks.

``setup(name, workdir, seed)`` writes a workload's input files into
``workdir`` and returns the commands of one pass as ``(id, argv)`` pairs;
``argv`` is what ``postlie.cli.main`` receives.  ``check`` compares one
command's exit code and report with ``expected.json``.

- ``derive-std``: derivation spaces of catalog algebras in their standard
  bases, whose constraint systems are very sparse.
- ``kernel-dense``: ``lie gder`` and the centroid ``lie dspace`` on sl3 after
  an integer shear, whose dense rows load the elimination kernel.
- ``postlie-verify``: build, write, read and verify post-Lie pairs.

Every call into ``postlie`` goes through a module attribute, so the traced
run records the set-up as well.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from postlie import catalog, jsonio, lie, products
from postlie.linalg import Matrix

NAMES = ("derive-std", "kernel-dense", "postlie-verify")

# The shear of benchmarks/bench_rowreduce.py: 2n elementary shears with
# entries in {-2, -1, 1, 2}, drawn from this fixed seed.
SHEAR_SEED = 11

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _write_algebra(workdir: str, name: str, alg) -> str:
    path = os.path.join(workdir, f"{name}.json")
    jsonio.dump_json(path, jsonio.algebra_to_json(alg))
    return path


def _weights(alpha, beta, gamma) -> list[str]:
    return ["--alpha", str(alpha), "--beta", str(beta), "--gamma", str(gamma)]


def _derive_std(workdir: str, seed: int):
    sl3 = _write_algebra(workdir, "sl3", catalog.get("sl3").algebra)
    heis = _write_algebra(workdir, "heisenberg", catalog.get("heisenberg").algebra)
    double = _write_algebra(workdir, "sl2+sl2", catalog.get("sl2+sl2").algebra)
    return [
        ("chain-sl3", ["lie", "chain", sl3]),
        ("chain-heisenberg", ["lie", "chain", heis]),
        ("chain-sl2+sl2", ["lie", "chain", double]),
        ("dspace-111-basis-sl3", ["lie", "dspace", sl3, *_weights(1, 1, 1), "--basis"]),
    ]


def shear_matrix(n: int) -> Matrix:
    rng = random.Random(SHEAR_SEED)
    t = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        entries = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        entries[i][j] = Fraction(rng.choice([-2, -1, 1, 2]))
        t = t * Matrix.from_rows(entries)
    return t


def sign_matrix(n: int, seed: int) -> Matrix:
    rng = random.Random(seed)
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    return Matrix(n, n, [signs[i] if i == j else 0 for i in range(n) for j in range(n)])


def kernel_dense_commands(path: str):
    return [
        ("gder", ["lie", "gder", path]),
        ("dspace-110", ["lie", "dspace", path, *_weights(1, 1, 0)]),
    ]


def _kernel_dense(workdir: str, seed: int):
    # The seed flips the signs of the sheared basis vectors.  Every input file
    # differs, but the kernel sees the same magnitudes for every seed, so a run
    # costs the same whatever the seed; a fresh shear per seed moves the time
    # of `lie gder` by about half its median.
    base = catalog.get("sl3").algebra
    t = shear_matrix(base.dim) * sign_matrix(base.dim, seed)
    path = _write_algebra(workdir, "sl3-sheared", lie.change_basis(base, t))
    return kernel_dense_commands(path)


def _pivot_indices(space) -> str:
    return ",".join(str(next(i for i, x in enumerate(v) if x)) for v in space.basis_vectors())


def _postlie_verify(workdir: str, seed: int):
    sl3 = _write_algebra(workdir, "sl3", catalog.get("sln", 3).algebra)
    sl4 = _write_algebra(workdir, "sl4", catalog.get("sln", 4).algebra)
    double = _write_algebra(workdir, "sl2+sl2", catalog.get("sl2+sl2").algebra)
    phi = os.path.join(workdir, "cross-phi.json")
    jsonio.dump_json(phi, jsonio.matrix_to_json(catalog.cross_factor_phi()))
    first, second = catalog.triangular_split(4, "b+|n-")
    split = products.split_construction(catalog.get("sln", 4).algebra, first, second)
    sl4_pair = os.path.join(workdir, "sl4-pair.json")
    jsonio.dump_json(sl4_pair, jsonio.pair_to_json(split.pair))
    left, right = catalog.triangular_split(3, "b+|n-")
    sl3_pair = os.path.join(workdir, "sl3-pair.json")
    return [
        (
            "split-sl3",
            ["postlie", "split", sl3, "--left", _pivot_indices(left),
             "--right", _pivot_indices(right), "-o", sl3_pair],
        ),
        ("verify-sl3-pair", ["postlie", "verify", sl3_pair]),
        ("verify-sl4-pair", ["postlie", "verify", sl4_pair]),
        ("adz-sl4", ["postlie", "adz", sl4, "--z", ",".join(["0"] * 15), "--lambda", "-1"]),
        ("phi-sl2+sl2", ["postlie", "phi", double, phi]),
        ("info-sl4", ["lie", "info", sl4]),
    ]


_SETUPS = {
    "derive-std": _derive_std,
    "kernel-dense": _kernel_dense,
    "postlie-verify": _postlie_verify,
}


def setup(name: str, workdir: str, seed: int):
    return _SETUPS[name](workdir, seed)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def check(expected: dict, code: int, out: str) -> str | None:
    """None when the command's output matches ``expected``, else the reason.

    An entry with ``sha256`` pins the exact report bytes; an entry with
    ``results`` pins only the report's ``results`` object, which a change of
    basis leaves unchanged.
    """
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if "sha256" in expected:
        digest = fingerprint(out)
        if digest != expected["sha256"]:
            return f"report sha256 {digest}, expected {expected['sha256']}"
        return None
    try:
        results = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError):
        return "report is not a JSON object with results"
    if results != expected["results"]:
        return f"results {results}, expected {expected['results']}"
    return None
