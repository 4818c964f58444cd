"""Write expected.json: what every benchmark command must print.

Standard-basis commands are pinned by exit code and the sha256 of the whole
report.  The sheared ``kernel-dense`` commands are pinned by exit code 0 and
the ``results`` object the same command gives on unsheared sl3, which holds
for every seed because dimensions and chain flags do not change under a
change of basis.

Run from the repository root, only when the reports are meant to change:

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import workloads
from postlie import catalog, cli, jsonio


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main() -> int:
    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("derive-std", "postlie-verify"):
            entries = {}
            for cid, argv in workloads.setup(name, tmp, seed=0):
                code, out = _run(argv)
                entries[cid] = {"exit": code, "sha256": workloads.fingerprint(out)}
            expected[name] = entries
        path = os.path.join(tmp, "sl3-unsheared.json")
        jsonio.dump_json(path, jsonio.algebra_to_json(catalog.get("sl3").algebra))
        entries = {}
        for cid, argv in workloads.kernel_dense_commands(path):
            code, out = _run(argv)
            if code != 0:
                print(f"{cid} on unsheared sl3 exited {code}", file=sys.stderr)
                return 1
            entries[cid] = {"exit": 0, "results": json.loads(out)["results"]}
        expected["kernel-dense"] = entries
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
