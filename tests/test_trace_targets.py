"""Every name the benchmark's tracer wraps exists in ``distset``.

``perfbench/run.py --trace 1`` installs a wrapper on each
``(module, path)`` of ``perfbench/spans.py``'s ``TARGETS``; a renamed or
deleted function makes it fail.  The file is loaded without being
changed or registered as a module.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = load_targets()
    assert targets
    for name, (module, path) in targets.items():
        owner = importlib.import_module(module)
        if "." in path:  # a method, wrapped in its class's own namespace
            cls_name, meth = path.split(".")
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, path, None)), name
