"""Workload ``set-check``: build a distance set, then ``check_4values``.

Every block of 20 ops holds a fixed mix, shuffled by the seed:

========== ===== ===========================================================
kind       ops   input
========== ===== ===========================================================
finite     5     3 random point sets of 16-40 points (most fail fast) and
                 2 sets {0} u (points in [m, 2m]) of 16-22 and 30-40 points
                 (these pass, after an exhaustive O(n^4) scan)
weak-stage 3     Cantor stage of depth 3-5 whose first two weights are at
                 most 1/3, chosen so that a witness is known (see below)
stage-d3   1     Cantor stage of depth 3, every weight above 1/3
stage-d4   5     ... depth 4
stage-d5   2     ... depth 5
stage-d6   4     ... depth 6
========== ===== ===========================================================

Ordered by op time (pure-Python kernels) the kinds below ``stage-d4`` make
9 of 20 ops and ``stage-d4`` the next 5, so the median op falls inside
``stage-d4``; ``stage-d6`` is the slowest kind and makes the top 4 of 20,
so the 90th percentile falls inside it.

Expected verdicts, checked after each op with the exact arithmetic of
:mod:`exact`:

* stages with every weight above 1/3 pass (the truncated sum of such a
  set is associative);
* a weak stage with first weights w0, w1 <= 1/3 and
  (1 - w0)(3 + w1) < 2(1 + w0) fails on the triple (g, d1, g1), where
  g = (1 - w0)/2 ends the first interval and [0, g1], [d1, g] are its
  two halves: g (+) d1 and g (+) g1 fall in the gap (g, 1 - g) and
  round down to g, while d1 (+) g1 = g and g (+) g = 2g >= 1 - g;
* finite sets agree with an exhaustive ``check_associativity`` (the two
  conditions are equivalent on closed sets).

A Failed report is accepted only if its witness re-evaluates exactly.
``recheck_witness`` cannot do that for interval unions: ``check_4values``
labels the report ``four-values`` but carries an associativity witness
(a, b, c), and ``recheck_witness`` then raises ``KeyError: 'x'``.  So the
benchmark recomputes both groupings of (a, b, c) itself.

The three known non-associative interval unions (witnesses below) are not
ops: today ``check_4values`` passes them (``PassedHeuristic``), a known
defect, and an op of the timed stream must not fail.  They are the
``PROBES``, checked once per run after the timed ops, untimed; the run
reports how many of them still show the defect.  A probe whose report is
Failed must carry a witness that re-evaluates, like any other.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as F

from exact import (
    ExactSet,
    assoc_report_holds,
    cantor_intervals,
    four_values_report_holds,
    is_assoc_witness,
)
from spec import KNOWN_DEFECT, Spec, shuffled

NAME = "set-check"
MEDIAN_KIND = "stage-d4"

STRONG = (F(2, 5), F(3, 7), F(1, 2), F(4, 7), F(3, 5), F(2, 3))
WEAK = (F(1, 3), F(3, 10), F(2, 7), F(1, 4))

# (intervals, a triple whose two groupings differ)
BAD_UNIONS = (
    (((F(0), F(5, 6)), (F(5, 3), F(2))), (F(1, 72), F(59, 72), F(5, 6))),
    (((F(0), F(7, 6)), (F(7, 3), F(17, 6))), (F(7, 6), F(7, 12), F(7, 12))),
    (((F(0), F(7, 6)), (F(7, 3), F(10, 3))), (F(7, 6), F(7, 12), F(7, 12))),
)


def _strong(rng, depth):
    return tuple(rng.choice(STRONG) for _ in range(depth))


def _weak(rng):
    while True:
        w0, w1 = rng.choice(WEAK), rng.choice(WEAK)
        if (1 - w0) * (3 + w1) < 2 * (1 + w0):
            break
    return (w0, w1) + _strong(rng, rng.randint(1, 3))


def weak_witness(weights):
    w0, w1 = weights[0], weights[1]
    g = (1 - w0) / 2
    return g, (1 + w1) * g / 2, (1 - w1) * g / 2


def _random_points(rng, size):
    pts = {F(0)}
    while len(pts) < size:
        q = rng.randint(1, 12)
        pts.add(F(rng.randint(1, 3 * q), q))
    return tuple(sorted(pts))


def _band_points(rng, size):
    den = rng.choice((48, 60, 72))
    m = F(rng.randint(1, 3))
    pts = {F(0)}
    while len(pts) < size:
        pts.add(m + F(rng.randint(0, den), den) * m)
    return tuple(sorted(pts))


PROBES = tuple(Spec("bad-union", union) for union in BAD_UNIONS)


def block(rng, index):
    ops = [
        Spec("finite", (_random_points(rng, rng.randint(16, 40)),))
        for _ in range(3)
    ]
    ops.append(Spec("finite", (_band_points(rng, rng.randint(16, 22)),)))
    ops.append(Spec("finite", (_band_points(rng, rng.randint(30, 40)),)))
    ops += [Spec("weak-stage", (_weak(rng),)) for _ in range(3)]
    for depth, count in ((3, 1), (4, 5), (5, 2), (6, 4)):
        ops += [
            Spec(f"stage-d{depth}", (_strong(rng, depth),))
            for _ in range(count)
        ]
    return shuffled(rng, ops)


def warmup(rng):
    return Spec(MEDIAN_KIND, (_strong(rng, 4),))


def run(ds, spec):
    if spec.kind in ("bad-union", "finite"):
        rset = ds.RSet(spec.args[0])
    else:
        rset = ds.cantor_set(spec.args[0])
    return ds.check_4values(rset)


def _exact_set(spec):
    if spec.kind == "bad-union":
        return ExactSet(spec.args[0])
    if spec.kind == "finite":
        return ExactSet((p, p) for p in spec.args[0])
    return ExactSet(cantor_intervals(spec.args[0]))


def verify(ds, spec, report):
    """None when the report is right, else what is wrong with it."""
    es = _exact_set(spec)
    failed = report.verdict == ds.VERDICT_FAILED
    if failed and spec.kind != "finite":
        if not assoc_report_holds(es, report.witness, report.lhs, report.rhs):
            return f"witness {report.witness} does not re-evaluate"
    if spec.kind == "bad-union":
        if not is_assoc_witness(es, *spec.args[1]):
            return "the benchmark's known witness does not hold"
        return None if failed else KNOWN_DEFECT
    if spec.kind == "weak-stage":
        if not is_assoc_witness(es, *weak_witness(spec.args[0])):
            return "the benchmark's derived witness does not hold"
        return None if failed else f"verdict {report.verdict}, expected Failed"
    if spec.kind.startswith("stage-"):
        return f"stage with weights > 1/3 failed: {report.witness}" if failed else None
    ref = ds.check_associativity(ds.RSet(spec.args[0]))
    if ref.verdict == ds.VERDICT_HEURISTIC or report.verdict == ds.VERDICT_HEURISTIC:
        return "finite set not decided exhaustively"
    if ref.passed != report.passed:
        return f"verdict {report.verdict} but associativity {ref.verdict}"
    if failed and not four_values_report_holds(
        es, report.witness, report.lhs, report.rhs
    ):
        return f"witness {report.witness} does not re-evaluate"
    return None


def tamper(ds, spec, report):
    """The report with its verdict flipped (and no witness when passing)."""
    if report.passed:
        return replace(report, verdict=ds.VERDICT_FAILED)
    return replace(report, verdict=ds.VERDICT_EXHAUSTIVE, witness=None)
