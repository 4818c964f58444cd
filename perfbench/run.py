"""End-to-end and per-layer benchmark of the postlie command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload (see ``workloads.py``) runs
``postlie.cli.main`` in-process over a fixed list of ``lie`` and ``postlie``
commands, in fresh interpreters started one at a time, with ``src`` on
``PYTHONPATH``.  Every report is checked against ``expected.json`` before its
time counts.

``--trace 0`` prints the end-to-end metrics.  Times are scaled by the
reference computation timed around them (see ``reference.py``): a time ``t``
taken next to a reference time ``r`` is reported as ``t * REFERENCE_S / r``.

- ``wall_s``: median time of one pass through the command list
- ``max_cmd_s``: median time of the slowest command of a pass
- ``setup_s``: median time for a fresh interpreter to import ``postlie`` and
  write the workload's inputs, over several interpreters
- ``peak_rss_mb``: peak resident memory of the measuring interpreter

``--trace 1`` runs the workload untraced for half the time, then traced (with
the package's public functions wrapped, see ``spans.py``) for at least two
passes, and prints the per-layer metrics of the traced passes, the tracing
overhead and the time no span covers.  Count metrics must repeat exactly
between the traced passes.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (commit, Python version,
nproc, seed, load average, raw per-command and reference times) is written under
``perfbench/out/``; inputs live in a temporary directory under
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(HERE, ".work")
OUTDIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# Every child must end within this many seconds of the start of the run.
RUN_BUDGET_S = 170
DEADLINE = time.monotonic() + RUN_BUDGET_S

END_TO_END_UNITS = {"wall_s": "s", "max_cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _child(workload, seed, mode, seconds=0.0, span_file=None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--seconds", str(seconds), "--workdir", WORKDIR,
    ]
    if span_file:
        cmd += ["--spans", span_file]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(DEADLINE - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child did not end within the {RUN_BUDGET_S} s budget") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counted(passes):
    attempted = sum(len(p["cmd_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return attempted, failed


def _timed(passes):
    """Passes whose every report checked out; all passes if there are none."""
    ok = [p for p in passes if not p["failures"]]
    return ok or passes


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "postlie")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _scaled(seconds, ref_s):
    """A time in seconds on a host where the reference takes REFERENCE_S."""
    return seconds * reference.REFERENCE_S / ref_s


def _scaled_cmds(p):
    return [_scaled(t, p["cmd_ref_s"][cid]) for cid, t in p["cmd_s"].items()]


def _end_to_end(args, record):
    setups = [_child(args.workload, args.seed, "setup") for _ in range(SETUP_SAMPLES - 1)]
    run = _child(args.workload, args.seed, "measure", args.seconds)
    setups.append(run)
    passes = run["passes"]
    timed = _timed(passes)
    record.update(
        setup_samples=[{k: c[k] for k in ("setup_s", "setup_ref_s")} for c in setups],
        passes=passes,
        wall_s_samples=len(timed),
    )
    metrics = {
        "wall_s": statistics.median(sum(_scaled_cmds(p)) for p in timed),
        "max_cmd_s": statistics.median(max(_scaled_cmds(p)) for p in timed),
        "setup_s": statistics.median(_scaled(c["setup_s"], c["setup_ref_s"]) for c in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    print(f"wall_s: median of {len(timed)} passes", file=sys.stderr)
    return passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, []


def _per_layer(args, record):
    os.makedirs(OUTDIR, exist_ok=True)
    span_file = os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.json")
    plain = _child(args.workload, args.seed, "measure", args.seconds / 2)
    traced = _child(args.workload, args.seed, "trace", args.seconds / 2, span_file)
    per_pass = traced["layers"]["passes"]
    problems = []
    for name in spans.COUNTS:
        values = {m[name] for m in per_pass}
        if len(values) != 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    values = {}
    for name in per_pass[0]:
        if name in spans.COUNTS:
            values[name] = per_pass[0][name]
        else:
            values[name] = statistics.median(m[name] for m in per_pass)
    for name in ("catalog.get_s", "lie.change_basis_s"):
        values[name] = traced["layers"]["setup"][name]
    traced_wall = statistics.median(p["wall_s"] for p in _timed(traced["passes"]))
    values["trace.pass_s"] = traced_wall
    values["trace.overhead_s"] = statistics.median(
        sum(_scaled_cmds(p)) for p in _timed(traced["passes"])
    ) - statistics.median(sum(_scaled_cmds(p)) for p in _timed(plain["passes"]))
    shares = {layer: values[f"{layer}.self_s"] / traced_wall for layer in spans.LAYERS}
    shares["uncovered"] = values["trace.uncovered_s"] / traced_wall
    record.update(
        untraced_passes=plain["passes"],
        traced_passes=traced["passes"],
        traced_layers=traced["layers"],
        self_time_shares=shares,
        tracing_overhead_s=values["trace.overhead_s"],
        span_file=os.path.relpath(span_file, ROOT),
    )
    metrics = {name: {"value": v, "unit": spans.unit_of(name)} for name, v in values.items()}
    return plain["passes"] + traced["passes"], metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "postlie")):
        print("error: src/postlie not found; run from the repository root", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        if args.trace:
            passes, metrics, problems = _per_layer(args, record)
        else:
            passes, metrics, problems = _end_to_end(args, record)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()
    attempted, failed = _counted(passes)
    record.update(attempted=attempted, failed=failed, problems=problems, metrics=metrics)
    record["failures"] = [p["failures"] for p in passes if p["failures"]]
    os.makedirs(OUTDIR, exist_ok=True)
    out = os.path.join(OUTDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for p in record["failures"]:
        print(f"check failed: {p}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
