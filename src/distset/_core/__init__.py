"""Kernel backend selection: which implementation serves each kernel.

Two kernels go to the compiled module ``_ops_c``, one hand-written C file,
where it measured faster: with ``all_pairs_completion`` and
``validate_metric`` compiled, graph-bridge ran 153.1 ops/s (median of
seeds 11-15) against 19.5 on pure Python (median of seeds 31-33)
(``perfbench/run.py``, 20 s, untraced, 2-core x86_64, Python 3.11).
Each calls ``ops_c`` when it imported, and arbitrary-precision ``ops_py``
when the C file, the one int64 guard, refuses an entry (OverflowError).

Every other kernel is the ``ops_py`` function on every backend: compiled,
``scan_assoc``, ``closure_step`` and ``scan_four_values`` were slower on
some inputs or saved about 1% of their workloads' op time.
``check_triples`` has no caller in the library; it stays bound here
because the benchmark's tracer (``perfbench/spans.py``) wraps
``core.check_triples``.

Set ``DISTSET_PURE_PYTHON=1`` to build nothing and import nothing: every
kernel is then the Python one.
"""

import os

from . import ops_py
from .ops_py import (  # served by ops_py on every backend
    assoc_gap_search,
    check_triples,
    closure_round,
    closure_step,
    scan_assoc,
    scan_four_values,
    sup_le,
)

if os.environ.get("DISTSET_PURE_PYTHON") == "1":
    ops_c = None
else:
    try:
        from . import _ops_c as ops_c  # type: ignore[attr-defined]
    except ImportError:
        ops_c = None


def backend_name() -> str:
    return "c" if ops_c is not None else "python"


def all_pairs_completion(n, d, los, his):
    if ops_c is not None:
        try:
            return ops_c.all_pairs_completion(n, d, los, his)
        except OverflowError:
            pass
    return ops_py.all_pairs_completion(n, d, los, his)


def validate_metric(n, d):
    if ops_c is not None:
        try:
            return ops_c.validate_metric(n, d)
        except OverflowError:
            pass
    return ops_py.validate_metric(n, d)
