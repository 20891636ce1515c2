"""Kernel backend selection: which implementation serves each kernel.

Two kernels go to the compiled Cython backend, where it measured faster:
with ``all_pairs_completion`` and ``validate_metric`` compiled,
graph-bridge runs 99.8 ops/s against 18.5 on pure Python with its
packed-row completion (``perfbench/run.py``, seed 1501, 20 s, untraced,
2-core x86_64, Python 3.11).  ``_pick`` takes the compiled kernel when it
imported and one bound read off the caller's image fits int64, else
``ops_py`` (arbitrary precision, the same results bit for bit).

Every other kernel is the ``ops_py`` function on every backend.  The
compiled ``scan_assoc`` was 2.7x slower on the grid {0..256} and as fast
on the depth-6 Cantor stages (396 against 400 ms over 20 scans, best of
5); on shallower stages it saved 0.1-0.9 ms a scan.  The compiled
``closure_step`` and ``scan_four_values`` took about 1% of their
workloads' op time.  ``assoc_gap_search`` exists only in ``ops_py``.
``check_triples`` has no caller in the library; it stays bound here
because the benchmark's tracer (``perfbench/spans.py``) wraps
``core.check_triples``.

Set ``DISTSET_PURE_PYTHON=1`` to force the Python backend.
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
    ops_cy = None
else:
    try:
        from . import _ops_cy as ops_cy  # type: ignore[attr-defined]
    except ImportError:
        ops_cy = None

# Kernels form sums of at most three scaled values; cap inputs so that
# 4 * max < 2**63 keeps all intermediates inside int64.
_INT64_SAFE = 2**60


def backend_name() -> str:
    return "cython" if ops_cy is not None else "python"


def _pick(bound: int):
    if ops_cy is not None and bound <= _INT64_SAFE:
        return ops_cy
    return ops_py


def all_pairs_completion(n, d, los, his):
    # entries are -1, 0 or members, so none exceeds max R
    return _pick(his[-1]).all_pairs_completion(n, d, los, his)


def validate_metric(n, d):
    # user matrices: entries are not yet known to be members, so the bound
    # is their largest magnitude, scanned only when the extension could run
    bound = max(max(d, default=0), -min(d, default=0)) if ops_cy else 0
    return _pick(bound).validate_metric(n, d)
