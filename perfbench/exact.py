"""Exact reference arithmetic for the verifiers, written with the standard
library only so that no result of ``distset`` is checked by ``distset``.

A set is a sorted tuple of disjoint closed intervals ``(lo, hi)`` of
``Fraction`` values; points are degenerate intervals.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

HALF = Fraction(1, 2)


def cantor_intervals(weights, scale=Fraction(1)) -> tuple:
    """Intervals of the Cantor-type stage for ``weights``, times ``scale``.

    Weight w removes the open middle of relative width w from every
    interval of the previous stage, starting from [0, 1].
    """
    intervals = [(Fraction(0), Fraction(1))]
    for w in weights:
        split = []
        for a, b in intervals:
            split.append((a, HALF * ((1 + w) * a + (1 - w) * b)))
            split.append((HALF * ((1 - w) * a + (1 + w) * b), b))
        intervals = split
    return tuple((lo * scale, hi * scale) for lo, hi in intervals)


class ExactSet:
    """Membership and truncated sum over a union of closed intervals."""

    def __init__(self, intervals):
        self.intervals = tuple(sorted(intervals))
        self._los = [lo for lo, _ in self.intervals]
        self._his = [hi for _, hi in self.intervals]

    @property
    def max_value(self) -> Fraction:
        return self._his[-1]

    def contains(self, x) -> bool:
        t = bisect_right(self._los, x) - 1
        return t >= 0 and x <= self._his[t]

    def sup_le(self, s) -> Fraction:
        t = bisect_right(self._los, s) - 1
        if t < 0:
            raise ValueError(f"no member below {s}")
        return min(s, self._his[t])

    def round_up(self, x) -> Fraction:
        """Least member >= x (x at most the maximum)."""
        t = bisect_right(self._los, x) - 1
        if t >= 0 and x <= self._his[t]:
            return x
        return self._los[t + 1]

    def oplus(self, a, b) -> Fraction:
        return self.sup_le(a + b)

    def window_has_member(self, lo, hi) -> bool:
        if lo > hi:
            return False
        t = bisect_right(self._los, lo) - 1
        if t >= 0 and lo <= self._his[t]:
            return True
        return t + 1 < len(self._los) and self._los[t + 1] <= hi


def groupings(rset: ExactSet, a, b, c) -> tuple[Fraction, Fraction]:
    """((a (+) b) (+) c, a (+) (b (+) c)) in ``rset``."""
    return rset.oplus(rset.oplus(a, b), c), rset.oplus(a, rset.oplus(b, c))


def is_assoc_witness(rset: ExactSet, a, b, c) -> bool:
    """True iff a, b, c are members and some grouping of them disagrees."""
    if not all(rset.contains(v) for v in (a, b, c)):
        return False
    values = {groupings(rset, *t) for t in ((a, b, c), (a, c, b), (b, a, c))}
    return any(lhs != rhs for lhs, rhs in values)


def assoc_report_holds(rset: ExactSet, witness: dict, lhs, rhs) -> bool:
    """A Failed associativity report: both groupings of its (a, b, c)
    recomputed here equal the recorded lhs and rhs, and differ."""
    try:
        a, b, c = witness["a"], witness["b"], witness["c"]
    except (KeyError, TypeError):
        return False
    if not all(rset.contains(v) for v in (a, b, c)):
        return False
    return groupings(rset, a, b, c) == (lhs, rhs) and lhs != rhs


def _window(p, q, s, t):
    return max(abs(p - q), abs(s - t)), min(p + q, s + t)


def four_values_report_holds(rset: ExactSet, witness: dict, lhs, rhs) -> bool:
    """A Failed four-values report on a finite set: the quadruple is
    admissible, x links (a, b)|(c, d), and the window [lhs, rhs] of the
    rearranged pairing (a, d)|(c, b) is exactly that window and holds no
    member."""
    try:
        a, b, c, d, x = (witness[k] for k in ("a", "b", "c", "d", "x"))
    except (KeyError, TypeError):
        return False
    if not all(rset.contains(v) for v in (a, b, c, d, x)):
        return False
    if max(b, c, d) > a or a > b + c + d:
        return False
    lo1, hi1 = _window(a, b, c, d)
    if not lo1 <= x <= hi1:
        return False
    if _window(a, d, c, b) != (lhs, rhs):
        return False
    return not rset.window_has_member(lhs, rhs)


def is_closure_fixpoint(points, rset: ExactSet) -> bool:
    """Every truncated sum of two points (taken in ``rset``) is a point."""
    pts = sorted(points)
    if len(rset.intervals) == 1 and rset.intervals[0][0] == 0:
        # R = [0, M]: the truncated sum is min(a + b, M); compare in ints
        den = lcm(rset.max_value.denominator, *(v.denominator for v in pts))
        ints = [int(v * den) for v in pts]
        top = int(rset.max_value * den)
        have = set(ints)
        return top in have and all(
            a + b >= top or a + b in have for i, a in enumerate(ints) for b in ints[i:]
        )
    have = set(pts)
    return all(
        rset.sup_le(a + b) in have for i, a in enumerate(pts) for b in pts[i:]
    )
