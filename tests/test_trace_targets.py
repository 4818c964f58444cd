"""Every span target of ``perfbench/spans.py`` resolves the way ``spans.install`` reads it.

``install`` wraps a module attribute, or a method found in its class's own
``__dict__``; a renamed, deleted or inherited target breaks a traced run
(``perfbench/run.py --trace 1``) while the untraced one still passes.
"""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _spans_module().TARGETS
    unresolved = []
    for modname, path, *_ in targets:
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        found = vars(owner).get(attr) if cls_path else getattr(owner, attr, None)
        if not callable(getattr(found, "__func__", found)):
            unresolved.append(f"{modname}.{path}")
    assert targets and unresolved == []
