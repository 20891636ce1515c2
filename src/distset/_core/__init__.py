"""Kernel backend selection: which implementation serves each kernel.

Three kernels go to the compiled Cython backend, where it measured faster
(``perfbench/run.py --trace 1``, seed 7, ms per call, compiled against
pure Python): ``scan_assoc``, 7.6 against 12.5 on set-check, and
``validate_metric``, 0.028 against 0.30 on approx-saturate, which with
``all_pairs_completion`` makes graph-bridge about 8x faster end to end.
``_pick`` takes the compiled kernel when it imported and one bound read
off the caller's image fits int64, else ``ops_py`` (arbitrary precision,
the same results bit for bit).

Every other kernel is the ``ops_py`` function on every backend: the
compiled ``check_triples`` never ran (its samples' common denominator is
92-98 bits), and the compiled ``closure_step`` and ``scan_four_values``
took about 1% of their workloads' op time.

Set ``DISTSET_PURE_PYTHON=1`` to force the Python backend.
"""

import os

from . import ops_py
from .ops_py import (  # served by ops_py on every backend
    check_triples,
    closure_round,
    closure_step,
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


def scan_assoc(los, his, cands):
    # both lists ascend and are non-negative; ``cands`` may be empty
    return _pick(max(his[-1:] + cands[-1:])).scan_assoc(los, his, cands)


def all_pairs_completion(n, d, los, his):
    # entries are -1, 0 or members, so none exceeds max R
    return _pick(his[-1]).all_pairs_completion(n, d, los, his)


def validate_metric(n, d):
    # user matrices: entries are not yet known to be members, so the bound
    # is their largest magnitude, scanned only when the extension could run
    bound = max(max(d, default=0), -min(d, default=0)) if ops_cy else 0
    return _pick(bound).validate_metric(n, d)
