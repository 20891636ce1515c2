"""Deciders for associativity of the truncated sum and the four-values
condition.

For closed sets the two properties are equivalent, which this module
exploits in both directions:

* finite point sets are decided exhaustively (both checks);
* a single interval [a, M] is associative, by the formula below;
* other interval unions are scanned over candidate values (the
  endpoints closed under one round of truncated sums) and, when that
  finds no failure, decided by the per-gap search
  ``_core.assoc_gap_search``; the four-values check delegates to the
  associativity check.  A Failed verdict always carries an exact witness.

Every verdict is exact: ``PassedExhaustive`` or ``Failed``.
``VERDICT_HEURISTIC`` has no producer; it stays exported for readers of
older reports.

Associativity is scanned per value multiset: the truncated sum is
commutative, so it is associative iff for every multiset {x, y, z} the
three grouped products agree.

The four-values condition is scanned per admissible value multiset
{a >= e1, e2, e3} with a <= e1 + e2 + e3: a linking element for the
pairing {a,e}|{rest} exists iff the set meets a closed rational window,
and the condition holds iff the three pairings of each multiset agree on
existence.  This covers every ordered quadruple of the definition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import _core
from .errors import ParameterError
from .rationals import rational_str
from .rset import RSet

VERDICT_EXHAUSTIVE = "PassedExhaustive"
VERDICT_HEURISTIC = "PassedHeuristic"
VERDICT_FAILED = "Failed"


@dataclass(frozen=True)
class Quadruple:
    """An admissible quadruple: max(b, c, d) <= a <= b + c + d.

    These are exactly the quadruples the four-values condition ranges
    over; ``linking_window(swap=False)`` bounds the values linking the
    pairing (a,b)|(c,d), ``swap=True`` the rearranged pairing
    (a,d)|(c,b).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        if max(self.b, self.c, self.d) > self.a or self.a > self.b + self.c + self.d:
            raise ParameterError(
                f"({self.a}, {self.b}, {self.c}, {self.d}) is not admissible"
            )

    def members_of(self, rset: RSet) -> bool:
        return all(rset.contains(v) for v in (self.a, self.b, self.c, self.d))

    def linking_window(self, swap: bool = False) -> tuple[Fraction, Fraction]:
        b, d = (self.d, self.b) if swap else (self.b, self.d)
        return _linking_window(self.a, b, self.c, d)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structural check.

    ``witness`` (Failed only) maps operand names to rationals and
    re-evaluates to the recorded ``lhs``/``rhs``: for an associativity
    failure these are the two grouped products of the witness triple
    (a, b, c); for a four-values failure they bound the window that
    should contain a linking element for the rearranged quadruple but
    meets the set nowhere.
    """

    check: str
    verdict: str
    witness: dict | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict != VERDICT_FAILED

    def to_json_obj(self) -> dict:
        def ser(v):
            return rational_str(v) if isinstance(v, Fraction) else v

        witness = None
        if self.witness is not None:
            witness = {k: ser(v) for k, v in self.witness.items()}
        obj = {
            "check": self.check,
            "verdict": self.verdict,
            "witness": witness,
            "lhs": None if self.lhs is None else rational_str(self.lhs),
            "rhs": None if self.rhs is None else rational_str(self.rhs),
        }
        if self.note is not None:
            obj["note"] = self.note
        return obj


def _assoc_witness(rset: RSet, values) -> CheckReport:
    """Arrange a failing multiset so the two reported sides differ.

    The descending arrangement (a, b, c) is preferred; when its two
    groupings happen to agree, swapping the last two operands is
    guaranteed to expose the disagreement.
    """
    a, b, c = sorted(values, reverse=True)
    lhs = rset.oplus(rset.oplus(a, b), c)
    rhs = rset.oplus(a, rset.oplus(b, c))
    if lhs == rhs:
        b, c = c, b
        lhs = rset.oplus(rset.oplus(a, b), c)
        rhs = rset.oplus(a, rset.oplus(b, c))
    if lhs == rhs:
        raise AssertionError("claimed associativity failure vanished")
    return CheckReport(
        check="associativity",
        verdict=VERDICT_FAILED,
        witness={"a": a, "b": b, "c": c},
        lhs=lhs,
        rhs=rhs,
    )


def check_associativity(rset: RSet) -> CheckReport:
    """Decide associativity.

    One interval [a, M] is associative: members x, y have x + y >= a, so
    x (+) y = min(x + y, M), and with z >= 0 both groupings of (x, y, z)
    give min(x + y + z, M).  Finite point sets are scanned exhaustively.
    Other interval unions are scanned over the endpoints closed under one
    round of truncated sums; when that scan finds no failure,
    ``_core.assoc_gap_search`` decides, and its triple (on the 1/32 grid
    of the set's denominator) is the witness of a failure.
    """
    if len(rset.intervals) == 1:
        return CheckReport(check="associativity", verdict=VERDICT_EXHAUSTIVE)
    den, los, his = rset.scaled()
    finite = rset.is_finite()
    cands = los if finite else _core.closure_step(sorted({*los, *his}), los, his)
    hit = _core.scan_assoc(los, his, cands)
    if hit is not None:
        return _assoc_witness(rset, [Fraction(cands[t], den) for t in hit])
    triple = None if finite else _core.assoc_gap_search(los, his)
    if triple is None:
        return CheckReport(check="associativity", verdict=VERDICT_EXHAUSTIVE)
    return _assoc_witness(rset, [Fraction(v, 32 * den) for v in triple])


def _linking_window(p: Fraction, q: Fraction, s: Fraction, t: Fraction):
    """Closed window of values x making (p, q, x) and (s, t, x) metric."""
    lo = max(abs(p - q), abs(s - t))
    hi = min(p + q, s + t)
    return lo, hi


def _window_member(rset: RSet, lo: Fraction, hi: Fraction) -> Fraction | None:
    if lo > hi or lo > rset.max_value:
        return None
    x = rset.round_up(lo)
    return x if x <= hi else None


def check_4values(rset: RSet) -> CheckReport:
    """Decide the four-values condition.

    Finite point sets: exhaustive scan over admissible quadruples; a
    failure is witnessed by (a, b, c, d, x) where x links (a,b)|(c,d) but
    no member links (a,d)|(c,b); the reported lhs/rhs are the bounds of
    that empty window.  Interval unions: decided via the associativity
    check (the two conditions agree on closed sets) and relabelled.
    """
    if not rset.is_finite():
        rep = check_associativity(rset)
        return replace(
            rep,
            check="four-values",
            note="decided via associativity of the truncated sum",
        )

    den, points, _ = rset.scaled()
    hit = _core.scan_four_values(points)
    if hit is None:
        return CheckReport(check="four-values", verdict=VERDICT_EXHAUSTIVE)

    *others, a = (Fraction(points[t], den) for t in hit)
    linked = []
    for t in range(3):
        rest = [others[u] for u in range(3) if u != t]
        lo, hi = _linking_window(a, others[t], rest[0], rest[1])
        linked.append(_window_member(rset, lo, hi))
    if all(x is None for x in linked) or all(x is not None for x in linked):
        raise AssertionError("claimed four-values failure vanished")
    premise = next(t for t in range(3) if linked[t] is not None)
    conclusion = next(t for t in range(3) if linked[t] is None)
    b = others[premise]
    d = others[conclusion]
    c = next(
        others[u] for u in range(3) if u not in (premise, conclusion)
    )
    lo, hi = _linking_window(a, d, c, b)
    return CheckReport(
        check="four-values",
        verdict=VERDICT_FAILED,
        witness={"a": a, "b": b, "c": c, "d": d, "x": linked[premise]},
        lhs=lo,
        rhs=hi,
    )


def recheck_witness(rset: RSet, report: CheckReport) -> bool:
    """Re-evaluate a Failed report's witness against the set.

    Returns True iff the witness still exhibits the recorded failure.
    The witness's shape says which: a triple (a, b, c) whose two
    groupings evaluate to the recorded lhs != rhs (an associativity
    failure, also the witness of a four-values report on an interval
    union); or (a, b, c, d, x) where x links (a,b)|(c,d) and the
    recorded window [lhs, rhs] = [max(|a-d|, |c-b|), min(a+d, c+b)]
    contains no member.
    """
    if report.verdict != VERDICT_FAILED or report.witness is None:
        return False
    w = report.witness
    if w.keys() == {"a", "b", "c"}:
        a, b, c = w["a"], w["b"], w["c"]
        lhs = rset.oplus(rset.oplus(a, b), c)
        rhs = rset.oplus(a, rset.oplus(b, c))
        return (lhs, rhs) == (report.lhs, report.rhs) and lhs != rhs
    if w.keys() == {"a", "b", "c", "d", "x"}:
        x = w["x"]
        try:
            quad = Quadruple(a=w["a"], b=w["b"], c=w["c"], d=w["d"])
        except ParameterError:
            return False
        if not quad.members_of(rset):
            return False
        lo1, hi1 = quad.linking_window()
        if not (rset.contains(x) and lo1 <= x <= hi1):
            return False
        lo2, hi2 = quad.linking_window(swap=True)
        if (lo2, hi2) != (report.lhs, report.rhs):
            return False
        return _window_member(rset, lo2, hi2) is None
    return False
