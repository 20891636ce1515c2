"""Finite approximation of a distance set by subadditive closure.

A finite A inside R with max A = max R is an *eps-approximation* of R
when every nonzero member of R rounds up into A with error below eps.
The *closure round* C(A) = {a (+) b : a, b in A} union A (truncated sums
taken in R) reaches a fixpoint after finitely many rounds: each round's
minimal new element w_n satisfies w_{n+1} >= w_n (+) w_1 and grows by at
least w_1 every two rounds, where w_1 is the smallest positive member of
A.  The fixpoint is subadditive closed, keeps min/max, and remains an
eps-approximation whenever A was one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from ._core import ops_py
from .errors import NonterminationError, ParameterError, SubsetError
from .rationals import as_rational
from .rset import RSet, scaled_with


@dataclass(frozen=True)
class ClosureTrace:
    """Record of the closure iteration.

    ``minima[0]`` is the smallest positive member of the input;
    ``minima[n]`` for n >= 1 is the smallest element the n-th round added.
    The minima are strictly increasing.  ``fixpoint_index`` is the number
    of rounds that grew the set (one more round reproduces the fixpoint),
    and ``rounds`` is that same count.
    """

    minima: tuple[Fraction, ...]
    fixpoint_index: int

    @property
    def rounds(self) -> int:
        return self.fixpoint_index


def is_eps_approximation(approximant: RSet, rset: RSet, eps) -> bool:
    """Exact decision of the eps-approximation property.

    ``approximant`` must be a finite subset of ``rset``.  The round-up
    error is examined per gap between consecutive elements of the
    approximant: on each gap the supremum of the error and whether it is
    attained are computable from interval endpoints, so the strict
    comparison against eps is exact even when ``rset`` has interval
    parts.
    """
    e = as_rational(eps)
    if e <= 0:
        raise ParameterError("eps must be positive")
    if not approximant.is_finite():
        raise ParameterError("the approximant must be a finite point set")
    if not approximant.is_subset_of(rset):
        raise SubsetError("the approximant is not contained in the set")
    if approximant.max_value != rset.max_value:
        return False
    thresholds = [p for p in approximant.points() if p > 0]
    prev = Fraction(0)
    for t in thresholds:
        # members of R in (prev, t] round up to t; worst error comes from
        # the leftmost such member (or from prev itself as an unattained
        # infimum when R covers a right-neighbourhood of prev)
        for lo, hi in rset.intervals:
            if hi <= prev:
                continue
            if lo > t:
                break
            if lo > prev:
                if t - lo >= e:
                    return False
            else:
                if t - prev > e:
                    return False
            break
        prev = t
    return True


def subadditive_closure(seed: RSet, rset: RSet) -> tuple[RSet, ClosureTrace]:
    """Iterate closure rounds in ``rset`` until the set stops growing.

    The iteration count is capped at 2 * ceil(max R / w_1) + 2, the bound
    implied by the growth of the round minima; exceeding the cap raises
    NonterminationError and indicates a bug.
    """
    if not seed.is_finite():
        raise ParameterError("closure seed must be a finite point set")
    if not seed.is_subset_of(rset):
        raise SubsetError("closure seed is not contained in the ambient set")
    w1 = seed.min_positive
    if w1 is None:
        raise ParameterError("closure seed needs a positive member")
    cap = 2 * ceil(rset.max_value / w1) + 2

    den, los, his, cur = scaled_with(rset, seed.points())

    # Semi-naive rounds: round n + 1 only sums pairs with a point that
    # round n added, since round n holds every sum of two older points.
    old, fresh = [], cur
    minima = [w1]
    rounds = 0
    while True:
        rounds += 1
        if rounds > cap:
            raise NonterminationError(
                f"closure exceeded its bound of {cap} rounds"
            )
        nxt = ops_py.closure_round(old, fresh, los, his)
        if len(nxt) == len(cur):
            break
        known = set(cur)
        old, fresh, cur = cur, [v for v in nxt if v not in known], nxt
        minima.append(Fraction(fresh[0], den))
    trace = ClosureTrace(minima=tuple(minima), fixpoint_index=len(minima) - 1)
    return RSet._from_ints(den, cur), trace


def make_eps_approximation(
    rset: RSet, eps, seed_points: RSet | None = None, min_positive=None
) -> RSet:
    """Build a finite, subadditive closed eps-approximation of ``rset``.

    Seeds a grid per interval of R (all endpoints, interior points at
    uniform spacing below eps), adds ``seed_points`` and the maximum,
    then closes the grid under the truncated sum.

    With ``min_positive`` = r given (a member of R with 0 < r < eps), the
    grid is spaced at most r apart, every positive grid point below r is
    dropped and r is added, so the result has r as its smallest positive
    member and is even an r-approximation.  Positive seed points below r
    are rejected.
    """
    e = as_rational(eps)
    if e <= 0:
        raise ParameterError("eps must be positive")
    r = None
    if min_positive is not None:
        r = as_rational(min_positive)
        if not rset.contains(r):
            raise ParameterError(f"requested minimum {r} is not a member")
        if not 0 < r < e:
            raise ParameterError("requested minimum must satisfy 0 < r < eps")
    if seed_points is not None:
        if not seed_points.is_finite():
            raise ParameterError("seed points must form a finite set")
        if not seed_points.is_subset_of(rset):
            raise ParameterError("seed points must be members of the set")
        if r is not None:
            for p in seed_points.points():
                if 0 < p < r:
                    raise ParameterError(
                        f"seed point {p} lies below the requested minimum {r}"
                    )

    if rset.max_value == 0:
        return RSet([0])  # {0} approximates itself at every eps

    pts: set[Fraction] = set()
    for lo, hi in rset.intervals:
        pts.add(lo)
        pts.add(hi)
        width = hi - lo
        if width > 0:
            if r is not None:
                k = ceil(width / r)
            else:
                k = int(width / e) + 1
            step = width / k
            pts.update(lo + j * step for j in range(1, k))
    if seed_points is not None:
        pts.update(seed_points.points())
    pts.add(rset.max_value)
    if r is not None:
        pts = {p for p in pts if p == 0 or p >= r}
        pts.add(r)
    grid = RSet(sorted(pts))
    closed, _ = subadditive_closure(grid, rset)
    return closed
