"""``benchmarks/bench_core.py`` still builds its workloads.

The script times the kernels and is not run by the tests, but building
its inputs is cheap: doing it here makes a library name the script uses
(moved, renamed or deleted) fail in the suite instead of at the next
benchmark run.  Nothing is timed.
"""

import importlib.util
from pathlib import Path

from distset._core import ops_py

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_core.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_core", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_build_without_timing():
    work = list(load_script().workloads())
    assert [fname for _, fname, _ in work] == [
        "scan_assoc",
        "scan_four_values",
        "all_pairs_completion",
        "closure_step",
    ]
    assert work[0][0] == "assoc scan, depth-6 stage (128 candidates)"
    for _, fname, args in work:
        assert callable(getattr(ops_py, fname))
        for arg in args:
            values = arg if isinstance(arg, list) else [arg]
            assert all(type(v) is int for v in values)
