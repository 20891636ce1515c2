"""Kernel backend selection.

The hot loops (candidate-triple associativity scans, four-values scans,
closure rounds, all-pairs completion) run on scaled integers.  A compiled
Cython backend is preferred when it imported successfully and every input
fits comfortably in int64; otherwise the pure-Python backend (arbitrary
precision) handles the call.  Both backends return the same results bit
for bit, so they are interchangeable; their loops need not visit the
same inputs: the Python closure round skips the sums that can only
truncate to max R, its two scans skip the multisets that cannot fail,
and its completion and metric check run a row at a time.  The Python
associativity scan also truncates each candidate pair once, into a table
read by every multiset, and each distinct outer sum once, through a memo
local to the call; ``sup_le`` depends on the sum alone, so both return
exactly the values the plain loop would compute.

The subadditive closure in ``distset.approx`` calls
``ops_py.closure_round`` directly on both backends: its semi-naive rounds
sum only the pairs with a point the previous round added, and the
compiled round has no cut at max R.  ``closure_step`` here serves the
one-round candidate closure of the associativity check.

Set ``DISTSET_PURE_PYTHON=1`` to force the Python backend.
"""

import os

from . import ops_py

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


def _fits(*seqs) -> bool:
    # every value in [-_INT64_SAFE, _INT64_SAFE]; an empty sequence fits
    for seq in seqs:
        if min(seq, default=0) < -_INT64_SAFE:
            return False
        if max(seq, default=0) > _INT64_SAFE:
            return False
    return True


def _pick(*seqs):
    if ops_cy is not None and _fits(*seqs):
        return ops_cy
    return ops_py


def scan_assoc(los, his, cands):
    return _pick(his, cands).scan_assoc(los, his, cands)


def check_triples(los, his, triples):
    return _pick(his, triples).check_triples(los, his, triples)


def scan_four_values(points):
    return _pick(points).scan_four_values(points)


def closure_step(points, los, his):
    return _pick(points, his).closure_step(points, los, his)


def all_pairs_completion(n, d, los, his):
    return _pick(d, his).all_pairs_completion(n, d, los, his)


def validate_metric(n, d):
    return _pick(d).validate_metric(n, d)
