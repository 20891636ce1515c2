"""Closed bounded distance sets over the non-negative rationals.

An :class:`RSet` is a finite union of closed intervals with rational
endpoints, kept sorted, disjoint and merged.  Degenerate intervals are
points, so finite point sets are a special case.  Everything is exact:
endpoints and members are :class:`fractions.Fraction` values and no
operation ever rounds.

The central operation is the *truncated sum*

    a (+) b  =  sup { x in R : x <= a + b },

a binary operation on R (the sup is attained because R is closed and the
window is bounded below by max(a, b)).  It is commutative, monotone in
each argument, satisfies max(a, b) <= a (+) b, and a (+) b is the largest
element x of R for which the triple (x, a, b) is metric, i.e. each value
is at most the sum of the other two.

The truncated sum need not be associative; deciding associativity, and
the equivalent four-values condition, lives in :mod:`distset.checks`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import MembershipError, ParameterError, RangeError
from .rationals import as_list, as_rational, lcm_denominator, rational_str

class RSet:
    """A nonempty finite union of closed rational intervals in [0, inf).

    Construct from an iterable of ``(lo, hi)`` pairs and/or bare scalars
    (treated as degenerate intervals).  Overlapping or touching intervals
    are merged; the result is canonical, so equal sets compare equal.
    """

    __slots__ = ("_intervals", "_los", "_his", "_scaled")

    def __init__(self, intervals: Iterable):
        pairs = []
        for item in intervals:
            if isinstance(item, (tuple, list)):
                if len(item) != 2:
                    raise ParameterError(f"interval needs two endpoints: {item!r}")
                lo, hi = as_rational(item[0]), as_rational(item[1])
            else:
                lo = hi = as_rational(item)
            if lo < 0:
                raise ParameterError(f"negative endpoint {lo} not allowed")
            if lo > hi:
                raise ParameterError(f"interval [{lo}, {hi}] is reversed")
            pairs.append((lo, hi))
        if not pairs:
            raise ParameterError("a distance set must be nonempty")
        pairs.sort()
        merged = [pairs[0]]
        for lo, hi in pairs[1:]:
            plo, phi = merged[-1]
            if lo <= phi:
                if hi > phi:
                    merged[-1] = (plo, hi)
            else:
                merged.append((lo, hi))
        self._intervals = tuple(merged)
        self._los = [p[0] for p in merged]
        self._his = [p[1] for p in merged]
        self._scaled = None

    @classmethod
    def _from_ints(cls, den: int, ints: Sequence[int]) -> "RSet":
        """The finite set {v / den : v in ints}, for ascending, distinct,
        non-negative ``ints``, with its reduced integer image cached.

        Equal to ``RSet([Fraction(v, den) for v in ints])``; the common
        factor g = gcd(den, *ints) is divided out, so ``scaled()`` reads
        ``(den // g, [v // g for v in ints], ...)`` as it would there.
        """
        g = gcd(den, *ints)
        den //= g
        ints = [v // g for v in ints]
        vals = [Fraction(v, den) for v in ints]
        self = cls.__new__(cls)
        self._intervals = tuple(zip(vals, vals))
        self._los = vals
        self._his = list(vals)
        self._scaled = (den, ints, list(ints))
        return self

    # -- basic structure ------------------------------------------------

    @property
    def intervals(self) -> tuple:
        return self._intervals

    @property
    def max_value(self) -> Fraction:
        return self._his[-1]

    @property
    def min_positive(self) -> Fraction | None:
        """Smallest positive member, or None when no minimum exists
        (no positive members at all, or 0 is a limit of the set)."""
        lo0, hi0 = self._intervals[0]
        if lo0 > 0:
            return lo0
        if hi0 > 0:
            return None  # positive part has infimum 0, not attained
        if len(self._intervals) == 1:
            return None
        return self._los[1]

    def is_finite(self) -> bool:
        return all(lo == hi for lo, hi in self._intervals)

    def points(self) -> list[Fraction]:
        if not self.is_finite():
            raise ParameterError("set is not a finite point set")
        return list(self._los)

    def __contains__(self, value) -> bool:
        return self.contains(value)

    def contains(self, value) -> bool:
        x = as_rational(value)
        if x < 0:
            return False
        t = bisect_right(self._los, x) - 1
        return t >= 0 and x <= self._his[t]

    def is_subset_of(self, other: "RSet") -> bool:
        return all(
            other._covers_interval(lo, hi) for lo, hi in self._intervals
        )

    def _covers_interval(self, lo: Fraction, hi: Fraction) -> bool:
        t = bisect_right(self._los, lo) - 1
        return t >= 0 and hi <= self._his[t]

    # -- truncated addition ---------------------------------------------

    def sup_le(self, bound) -> Fraction:
        """Largest member <= bound; RangeError if there is none."""
        s = as_rational(bound)
        t = bisect_right(self._los, s) - 1
        if t < 0:
            raise RangeError(f"no member of the set lies below {s}")
        h = self._his[t]
        return h if s > h else s

    def require_member(self, value) -> Fraction:
        x = as_rational(value)
        if not self.contains(x):
            raise MembershipError(f"{x} is not a member of the set")
        return x

    def oplus(self, a, b) -> Fraction:
        """Truncated sum sup{x in R : x <= a + b} of two members."""
        fa = self.require_member(a)
        fb = self.require_member(b)
        return self.sup_le(fa + fb)

    def oplus_fold(self, values: Sequence) -> Fraction:
        """Left fold of the truncated sum over a nonempty sequence.

        Grouping independence holds only when the set passes the
        associativity check; callers are responsible for that.
        """
        vals = [self.require_member(v) for v in values]
        if not vals:
            raise ParameterError("fold over an empty sequence")
        acc = vals[0]
        for v in vals[1:]:
            acc = self.sup_le(acc + v)
        return acc

    def is_metric_triple(self, a, b, c) -> bool:
        """True iff each of the three members is <= the sum of the others."""
        fa = self.require_member(a)
        fb = self.require_member(b)
        fc = self.require_member(c)
        return fa <= fb + fc and fb <= fa + fc and fc <= fa + fb

    def round_up(self, value) -> Fraction:
        """Least member >= value; RangeError above the maximum."""
        l = as_rational(value)
        if l > self.max_value:
            raise RangeError(f"{l} exceeds the maximum {self.max_value}")
        t = bisect_right(self._los, l) - 1
        if t >= 0 and l <= self._his[t]:
            return l
        return self._los[t + 1]

    # -- pointwise constructions ----------------------------------------

    def scale(self, factor) -> "RSet":
        """The set {c * r : r in R} for c > 0."""
        c = as_rational(factor)
        if c <= 0:
            raise ParameterError("scale factor must be positive")
        return RSet([(lo * c, hi * c) for lo, hi in self._intervals])

    def truncate(self, cutoff) -> "RSet":
        """The set {x in R : x <= c} for c >= 0 (closed, may not be empty)."""
        c = as_rational(cutoff)
        if c < 0:
            raise ParameterError("truncation cutoff must be non-negative")
        clipped = [
            (lo, min(hi, c)) for lo, hi in self._intervals if lo <= c
        ]
        if not clipped:
            raise ParameterError(f"truncation at {c} empties the set")
        return RSet(clipped)

    def translate_union(self, step, copies: int) -> "RSet":
        """Union of ``copies`` translates {r + n*step : r in R, 0 <= n < copies}.

        Requires step > 2 * max(R), which keeps the translates separated
        widely enough that truncated sums never cross more than one block
        boundary; this is the finite prefix of the unbounded construction,
        so the truncated sum differs from the unbounded one at the top
        block only.
        """
        l = as_rational(step)
        if l <= 2 * self.max_value:
            raise ParameterError(
                f"translation step {l} must exceed twice the maximum "
                f"{self.max_value}"
            )
        if not isinstance(copies, int) or copies < 1:
            raise ParameterError("copies must be a positive integer")
        out = []
        for n in range(copies):
            shift = n * l
            out.extend((lo + shift, hi + shift) for lo, hi in self._intervals)
        return RSet(out)

    # -- plumbing ---------------------------------------------------------

    def scaled(self) -> tuple[int, list[int], list[int]]:
        """Common-denominator integer image (den, los, his) for kernels."""
        if self._scaled is None:
            den = lcm_denominator(self._los + self._his)
            los = [int(lo * den) for lo in self._los]
            his = [int(hi * den) for hi in self._his]
            self._scaled = (den, los, his)
        return self._scaled

    def __eq__(self, other) -> bool:
        return isinstance(other, RSet) and self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        parts = []
        for lo, hi in self._intervals:
            if lo == hi:
                parts.append(rational_str(lo))
            else:
                parts.append(f"[{rational_str(lo)}, {rational_str(hi)}]")
        return "RSet({" + ", ".join(parts) + "})"

    def to_json_obj(self) -> dict:
        return {
            "intervals": [
                [rational_str(lo), rational_str(hi)]
                for lo, hi in self._intervals
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RSet":
        if not isinstance(obj, dict) or "intervals" not in obj:
            raise ParameterError("set JSON must carry an 'intervals' key")
        try:
            pairs = [tuple(as_list(pair)) for pair in as_list(obj["intervals"])]
        except TypeError as exc:
            raise ParameterError(
                "set JSON 'intervals' must list [lo, hi] pairs"
            ) from exc
        return cls(pairs)


def scaled_with(rset: RSet, extra_values) -> tuple[int, list[int], list[int], list[int]]:
    """Scale the set and extra rationals to one common denominator.

    Returns (den, los, his, extras).  The truncated sum of values over the
    common denominator stays over that denominator, so kernels can run on
    ints exactly.
    """
    den0, los0, his0 = rset.scaled()
    extras = [as_rational(v) for v in extra_values]
    den = lcm(den0, lcm_denominator(extras))
    f = den // den0
    los = [v * f for v in los0]
    his = [v * f for v in his0]
    ints = [v.numerator * (den // v.denominator) for v in extras]
    return den, los, his, ints
