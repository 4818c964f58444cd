"""One benchmark child process: set up a workload, then time passes over it.

    python3 perfbench/worker.py --workload W --seed S --mode M --seconds T \
        --workdir DIR [--spans FILE]

Modes:
- ``setup``: write the inputs and report the set-up time only.
- ``measure``: set up, then run passes with the package unmodified.
- ``trace``: wrap the package's public functions (see ``spans.py``), set up,
  run at least two passes, and report per-layer figures per pass.

The reference computation (``reference.py``) is timed before the set-up,
after it and after every command; the set-up and each command carry the mean
of the reference times on either side of them.  A pass's ``wall_s`` is the
sum of its command times.  Passes repeat while the next one is
expected to end within ``--seconds``; the first always runs.  The result is
one JSON line on stdout.  ``postlie`` must be importable (the parent puts
``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import tempfile
import time

import reference


def _run_pass(cli, workloads, commands, expected, rec, label, ref):
    """Run every command once; ``ref`` is the reference time taken just before.

    Returns the pass and the last reference time taken.
    """
    times, refs, failures = {}, {}, {}
    for cid, argv in commands:
        if rec is not None:
            rec.cmd = f"{label}:{cid}"
        buf = io.StringIO()
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        times[cid] = time.perf_counter() - c0
        after = reference.measure()
        refs[cid] = (ref + after) / 2
        ref = after
        problem = workloads.check(expected[cid], code, buf.getvalue())
        if problem is not None:
            failures[cid] = problem
    p = {"wall_s": sum(times.values()), "cmd_s": times, "cmd_ref_s": refs, "failures": failures}
    return p, ref


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    ref_before = reference.measure()
    t0 = time.perf_counter()  # set-up time counts importing the package
    import workloads
    from postlie import cli

    rec = None
    if args.mode == "trace":
        import spans

        rec = spans.Recorder()
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "postlie" or name.startswith("postlie.")
        }
        spans.install(rec, modules)
        rec.cmd = "setup"
    expected = workloads.load_expected()[args.workload]

    out = {}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        commands = workloads.setup(args.workload, tmp, args.seed)
        out["setup_s"] = time.perf_counter() - t0
        ref = reference.measure()
        out["setup_ref_s"] = (ref_before + ref) / 2
        if args.mode != "setup":
            passes = []
            start = time.perf_counter()
            longest = 0.0
            while True:
                p0 = time.perf_counter()
                p, ref = _run_pass(cli, workloads, commands, expected, rec, len(passes), ref)
                passes.append(p)
                longest = max(longest, time.perf_counter() - p0)
                elapsed = time.perf_counter() - start
                if elapsed + longest > args.seconds and (rec is None or len(passes) >= 2):
                    break
            out["passes"] = passes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if rec is not None:
        out["layers"] = _layer_figures(spans, rec, out["passes"])
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(rec.spans, fh, separators=(",", ":"))
    print(json.dumps(out))
    return 0


def _layer_figures(spans, rec, passes):
    """Per-layer metrics for each traced pass, plus those of the set-up."""
    selfs = spans.self_times(rec.spans)
    scopes: dict[str, list[int]] = {}
    for i, s in enumerate(rec.spans):
        scope = s[spans.CMD].split(":", 1)[0]
        scopes.setdefault(scope, []).append(i)
    setup = spans.scope_metrics(rec.spans, selfs, scopes.get("setup", []), wall=None)
    per_pass = [
        spans.scope_metrics(rec.spans, selfs, scopes.get(str(k), []), wall=p["wall_s"])
        for k, p in enumerate(passes)
    ]
    return {"setup": setup, "passes": per_pass, "span_count": len(rec.spans)}


if __name__ == "__main__":
    sys.exit(main())
