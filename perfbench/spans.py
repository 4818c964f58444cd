"""Span recording for the traced run, and the arithmetic over recorded spans.

A span is ``[name, start, end, parent, cmd, attrs]``: ``parent`` is the index
of the enclosing span in the recorder's list (-1 at top level), ``cmd`` the id
of the benchmark command (or set-up step) that was running, and ``attrs`` the
shape figures a probe read from the call's arguments and result.  Span names
are ``<layer>.<function>``; the layer is the ``postlie`` module the function
belongs to.  Spans stay in memory until the run writes them out.

Probes run outside the span they describe, inside a ``trace.probe`` span of
their own, so the time they take is charged to the ``trace`` layer and not to
the caller's self time.
"""

from __future__ import annotations

import functools
import os
import time

NAME, START, END, PARENT, CMD, ATTRS = range(6)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.cmd: str | None = None
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, None, parent, self.cmd, attrs]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()


# -- probes: shape figures read at the wrappers ------------------------------


def _nnz_rows(rows) -> int:
    return sum(1 for row in rows for x in row if x)


def _nullspace_before(m):
    return {"rows": m.rows, "cols": m.cols, "nnz": sum(1 for x in m.entries if x)}


def _kernel_before(rows):
    return {"rows": len(rows), "nnz": _nnz_rows(rows)}


def _kernel_after(attrs, pivots, rows):
    attrs["rank"] = len(pivots)
    attrs["max_bits"] = max(
        (abs(x).bit_length() for row in rows[: len(pivots)] for x in row), default=0
    )


def _builder_before(l, *args, **kwargs):
    return {"n": l.dim}


def _load_after(attrs, result, path):
    attrs["bytes"] = os.path.getsize(path)


def _dump_after(attrs, result, path, doc):
    attrs["bytes"] = os.path.getsize(path)


# (module, attribute path, layer, before-probe, after-probe): every public
# function a CLI command or a workload set-up reaches.  The layer is the
# module's own name; the kernel lives in a private module but is its own layer.
TARGETS = [
    ("postlie.cli", "main", "cli", None, None),
    ("postlie.catalog", "get", "catalog", None, None),
    ("postlie.catalog", "triangular_split", "catalog", None, None),
    ("postlie.catalog", "cross_factor_phi", "catalog", None, None),
    ("postlie.jsonio", "load_json", "jsonio", None, _load_after),
    ("postlie.jsonio", "dump_json", "jsonio", None, _dump_after),
    ("postlie.jsonio", "algebra_from_json", "jsonio", None, None),
    ("postlie.jsonio", "algebra_to_json", "jsonio", None, None),
    ("postlie.jsonio", "pair_from_json", "jsonio", None, None),
    ("postlie.jsonio", "pair_to_json", "jsonio", None, None),
    ("postlie.jsonio", "matrix_from_json", "jsonio", None, None),
    ("postlie.jsonio", "matrix_to_json", "jsonio", None, None),
    ("postlie.derivations", "dspace", "derivations", _builder_before, None),
    ("postlie.derivations", "qder_pairs", "derivations", _builder_before, None),
    ("postlie.derivations", "gder_triples", "derivations", _builder_before, None),
    ("postlie.derivations", "named_spaces", "derivations", _builder_before, None),
    ("postlie.derivations", "verify_chain", "derivations", None, None),
    ("postlie.derivations", "ad_span", "derivations", None, None),
    ("postlie.derivations", "weighted_residuals", "derivations", None, None),
    ("postlie.derivations", "quasi_residuals", "derivations", None, None),
    ("postlie.derivations", "generalized_residuals", "derivations", None, None),
    ("postlie.products", "check_axioms", "products", None, None),
    ("postlie.products", "check_derived_identities", "products", None, None),
    ("postlie.products", "left_multiplication_checks", "products", None, None),
    ("postlie.products", "embed_check", "products", None, None),
    ("postlie.products", "split_construction", "products", None, None),
    ("postlie.products", "phi_induced", "products", None, None),
    ("postlie.products", "adz_lambda", "products", None, None),
    ("postlie.products", "induce_g", "products", None, None),
    ("postlie.products", "BilinearProduct.__init__", "products", None, None),
    ("postlie.lie", "LieAlgebra.__init__", "lie", None, None),
    ("postlie.lie", "LieAlgebra.bracket", "lie", None, None),
    ("postlie.lie", "LieAlgebra.validate", "lie", None, None),
    ("postlie.lie", "LieAlgebra.require_valid", "lie", None, None),
    ("postlie.lie", "LieAlgebra.invariants", "lie", None, None),
    ("postlie.lie", "LieAlgebra.subspace_bracket", "lie", None, None),
    ("postlie.lie", "LieAlgebra.killing_form", "lie", None, None),
    ("postlie.lie", "LieAlgebra.center", "lie", None, None),
    ("postlie.lie", "change_basis", "lie", None, None),
    ("postlie.lie", "direct_sum", "lie", None, None),
    ("postlie.linalg", "nullspace", "linalg", _nullspace_before, None),
    ("postlie.linalg", "rref", "linalg", None, None),
    ("postlie.linalg", "Matrix.__mul__", "linalg", None, None),
    ("postlie.linalg", "Matrix.inverse", "linalg", None, None),
    ("postlie.linalg", "Subspace.span", "linalg", None, None),
    ("postlie.linalg", "Subspace.__add__", "linalg", None, None),
    ("postlie.linalg", "Subspace.__and__", "linalg", None, None),
    ("postlie.linalg", "Subspace.contains_subspace", "linalg", None, None),
    ("postlie.linalg", "Subspace.project_block", "linalg", None, None),
    ("postlie.linalg", "reduce_int_rows", "kernel", _kernel_before, _kernel_after),
]


def _wrap(rec: Recorder, name: str, fn, before, after):
    if before is None and after is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        attrs = {}
        if before is not None:
            p = rec.open("trace.probe")
            attrs = before(*args, **kwargs)
            rec.close(p)
        idx = rec.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            p = rec.open("trace.probe")
            after(attrs, result, *args, **kwargs)
            rec.close(p)
        return result

    return probed


def install(rec: Recorder, modules: dict) -> None:
    """Wrap every target, at its defining attribute and at every import site.

    ``modules`` maps module names to loaded modules.  A module-level function
    is replaced wherever a module in ``modules`` binds the same object, so
    ``from .linalg import nullspace`` sites record too.  Methods are wrapped
    on their class.
    """
    for modname, path, layer, before, after in TARGETS:
        owner = modules[modname]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        name = f"{layer}.{path}"
        raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(rec, name, raw.__func__, before, after)))
        elif cls_path:
            setattr(owner, attr, _wrap(rec, name, raw, before, after))
        else:
            wrapped = _wrap(rec, name, raw, before, after)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)


# -- arithmetic ------------------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its child spans' intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [
        (s[END] - s[START]) - union_length(children.get(i, ()), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# Layers whose self time a pass can hold; ``catalog`` only runs at set-up.
LAYERS = ("cli", "jsonio", "derivations", "linalg", "kernel", "lie", "products", "trace")

BUILDERS = {
    "derivations.dspace",
    "derivations.qder_pairs",
    "derivations.gder_triples",
    "derivations.named_spaces",
}
ORACLES = {
    "derivations.weighted_residuals",
    "derivations.quasi_residuals",
    "derivations.generalized_residuals",
}
LATTICE = {
    "linalg.Subspace.__add__",
    "linalg.Subspace.__and__",
    "linalg.Subspace.contains_subspace",
    "linalg.Subspace.project_block",
}
CONSTRUCT = {
    "products.split_construction",
    "products.phi_induced",
    "products.adz_lambda",
    "products.induce_g",
}
LOAD = {"jsonio.load_json", "jsonio.algebra_from_json", "jsonio.pair_from_json", "jsonio.matrix_from_json"}
DUMP = {"jsonio.dump_json", "jsonio.algebra_to_json", "jsonio.pair_to_json", "jsonio.matrix_to_json"}
CATALOG = {"catalog.get", "catalog.triangular_split", "catalog.cross_factor_phi"}

# Metrics that count work; they must repeat exactly from one pass to the next.
COUNTS = (
    "derivations.rows_kept_ratio",
    "derivations.oracle_calls",
    "linalg.nullspace_calls",
    "linalg.nullspace_rows",
    "linalg.nullspace_cols",
    "linalg.nullspace_density",
    "linalg.span_calls",
    "linalg.matmul_calls",
    "kernel.reduce_calls",
    "kernel.rows_in",
    "kernel.nnz_in",
    "kernel.rank_per_row",
    "kernel.max_bits_out",
    "lie.validate_calls",
    "lie.bracket_calls",
    "products.axioms_calls",
    "jsonio.bytes_in",
    "jsonio.bytes_out",
)


def scope_metrics(spans, selfs, idxs, wall: float | None) -> dict:
    """Per-layer metrics over the spans ``idxs`` of one pass (or the set-up).

    ``*_s`` figures named after a function group are inclusive times, counted
    once where spans of the group nest; ``<layer>.self_s`` sums self times.
    ``wall`` is the scope's wall time; the part no span covers is
    ``trace.uncovered_s``.
    """
    by_name: dict[str, list[int]] = {}
    for i in idxs:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def of(names):
        return [i for n in names for i in by_name.get(n, ())]

    def inclusive(names) -> float:
        total = 0.0
        for i in of(names):
            p = spans[i][PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                total += spans[i][END] - spans[i][START]
        return total

    def attr_sum(name, key) -> int:
        return sum(spans[i][ATTRS][key] for i in by_name.get(name, ()))

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    kept = candidates = 0
    for i in by_name.get("linalg.nullspace", ()):
        parent = spans[i][PARENT]
        if parent >= 0 and spans[parent][NAME] in BUILDERS:
            kept += spans[i][ATTRS]["rows"]
            candidates += spans[parent][ATTRS]["n"] ** 3
    null = by_name.get("linalg.nullspace", ())
    null_area = sum(spans[i][ATTRS]["rows"] * spans[i][ATTRS]["cols"] for i in null)
    kernel = by_name.get("kernel.reduce_int_rows", ())

    m = {
        "derivations.build_self_s": sum(selfs[i] for i in of(BUILDERS)),
        "derivations.rows_kept_ratio": ratio(kept, candidates),
        "derivations.oracle_s": inclusive(ORACLES),
        "derivations.oracle_calls": len(of(ORACLES)),
        "linalg.nullspace_self_s": sum(selfs[i] for i in null),
        "linalg.nullspace_calls": len(null),
        "linalg.nullspace_rows": attr_sum("linalg.nullspace", "rows"),
        "linalg.nullspace_cols": attr_sum("linalg.nullspace", "cols"),
        "linalg.nullspace_density": ratio(attr_sum("linalg.nullspace", "nnz"), null_area),
        "linalg.span_s": inclusive({"linalg.Subspace.span"}),
        "linalg.span_calls": len(by_name.get("linalg.Subspace.span", ())),
        "linalg.lattice_s": inclusive(LATTICE),
        "linalg.matmul_s": inclusive({"linalg.Matrix.__mul__"}),
        "linalg.matmul_calls": len(by_name.get("linalg.Matrix.__mul__", ())),
        "kernel.reduce_s": inclusive({"kernel.reduce_int_rows"}),
        "kernel.reduce_calls": len(kernel),
        "kernel.rows_in": attr_sum("kernel.reduce_int_rows", "rows"),
        "kernel.nnz_in": attr_sum("kernel.reduce_int_rows", "nnz"),
        "kernel.rank_per_row": ratio(
            attr_sum("kernel.reduce_int_rows", "rank"), attr_sum("kernel.reduce_int_rows", "rows")
        ),
        "kernel.max_bits_out": max((spans[i][ATTRS]["max_bits"] for i in kernel), default=0),
        "lie.validate_s": inclusive({"lie.LieAlgebra.validate", "lie.LieAlgebra.require_valid"}),
        "lie.validate_calls": len(by_name.get("lie.LieAlgebra.validate", ())),
        "lie.bracket_calls": len(by_name.get("lie.LieAlgebra.bracket", ())),
        "lie.invariants_s": inclusive({"lie.LieAlgebra.invariants"}),
        "lie.change_basis_s": inclusive({"lie.change_basis"}),
        "products.axioms_s": inclusive({"products.check_axioms"}),
        "products.axioms_calls": len(by_name.get("products.check_axioms", ())),
        "products.derived_s": inclusive({"products.check_derived_identities"}),
        "products.lmult_s": inclusive({"products.left_multiplication_checks"}),
        "products.embed_s": inclusive({"products.embed_check"}),
        "products.construct_s": inclusive(CONSTRUCT),
        "jsonio.load_s": inclusive(LOAD),
        "jsonio.dump_s": inclusive(DUMP),
        "jsonio.bytes_in": attr_sum("jsonio.load_json", "bytes"),
        "jsonio.bytes_out": attr_sum("jsonio.dump_json", "bytes"),
        "catalog.get_s": inclusive(CATALOG),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for i in idxs:
        key = f"{layer_of(spans[i][NAME])}.self_s"
        if key in m:
            m[key] += selfs[i]
    if wall is not None:
        top = [(spans[i][START], spans[i][END]) for i in idxs if spans[i][PARENT] < 0]
        m["trace.uncovered_s"] = wall - union_length(top, float("-inf"), float("inf"))
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_density", "_per_row")):
        return "ratio"
    if name.endswith("_bits_out"):
        return "bits"
    if ".bytes_" in name:
        return "bytes"
    return "count"
