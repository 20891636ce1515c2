"""Kernel backend selection: which implementation serves each kernel.

Two kernels go to the compiled module ``_ops_c``, one hand-written C file,
where it measured faster: with ``all_pairs_completion`` and
``validate_metric`` compiled, graph-bridge ran 153.1 ops/s (median of
seeds 11-15) against 19.5 on pure Python (median of seeds 31-33)
(``perfbench/run.py``, 20 s, untraced, 2-core x86_64, Python 3.11).
``_pick`` takes the compiled kernel when it imported and one bound read
off the caller's image fits int64, else ``ops_py`` (arbitrary precision,
the same results bit for bit).

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

# Kernels form sums of at most three scaled values; cap inputs so that
# 4 * max < 2**63 keeps all intermediates inside int64.
_INT64_SAFE = 2**60


def backend_name() -> str:
    return "c" if ops_c is not None else "python"


def _pick(bound: int):
    if ops_c is not None and bound <= _INT64_SAFE:
        return ops_c
    return ops_py


def all_pairs_completion(n, d, los, his):
    # entries are -1, 0 or members, so none exceeds max R
    return _pick(his[-1]).all_pairs_completion(n, d, los, his)


def validate_metric(n, d):
    # user matrices: entries are not yet known to be members, so the bound
    # is their largest magnitude, scanned only when the extension could run
    bound = max(max(d, default=0), -min(d, default=0)) if ops_c else 0
    return _pick(bound).validate_metric(n, d)
