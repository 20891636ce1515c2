"""Pure-Python reference kernels.

All kernels work on *scaled integers*: callers pick a common denominator
for every rational that can appear during a computation and pass plain
ints.  Because the truncated sum of two set members is either an interval
endpoint or an exact sum, the common denominator is stable under every
operation here, so integer arithmetic stays exact.

``_ops_cy.pyx`` compiles the same functions but ``closure_round``, with
bit-identical results; ``distset._core`` routes only ``scan_assoc``,
``all_pairs_completion`` and ``validate_metric`` there (where it measured
faster) and serves every other kernel from here on every backend.

Set representation: two parallel sorted lists ``los``/``his`` of closed
interval endpoints, pairwise disjoint and ascending.  Finite point sets
are the degenerate case ``los == his``.
"""

from bisect import bisect_left, bisect_right
from operator import sub


def sup_le(los, his, s):
    # largest set element <= s; callers guarantee one exists
    t = bisect_right(los, s) - 1
    if t < 0:
        raise ValueError("no set element below the requested bound")
    h = his[t]
    return h if s > h else s


def _member_in(points, lo, hi):
    # any point of the sorted list in the closed window [lo, hi]?
    if lo > hi:
        return False
    i = bisect_left(points, lo)
    return i < len(points) and points[i] <= hi


class _Truncation(dict):
    """``sup_le`` over one set, memoised by the raw sum: ``t[s]``."""

    __slots__ = ("los", "his")

    def __init__(self, los, his):
        self.los = los
        self.his = his

    def __missing__(self, s):
        v = self[s] = sup_le(self.los, self.his, s)
        return v


def scan_assoc(los, his, cands):
    """First multiset {x <= y <= z} of candidates on which the truncated
    sum is not associative, as ascending indices, or None.

    The sum commutes, so it is associative iff the three groupings of
    every value multiset agree.  ``cands`` ascends, and each grouping
    rises with z to at most max R, so the k loop stops once all three
    reach max R.

    Every inner truncation is a sum of two candidates, so the pair table
    ``pair[a][b - a] = c_a (+) c_b`` (a <= b), built on entry, holds them
    all, and each multiset costs the three outer truncations only:
    (x (+) y) + z, (y (+) z) + x and (x (+) z) + y.  All truncations go
    through a memo local to the call, keyed by the raw sum: ``sup_le`` is
    a function of the sum alone, so a repeated sum reads the value it
    truncated to the first time.  Visit order, comparisons and result
    are those of the plain triple loop; only the table is filled ahead,
    with n (n + 1) / 2 memo reads.
    """
    top = his[-1]
    n = len(cands)
    t = _Truncation(los, his)
    pair = [[t[x + z] for z in cands[a:]] for a, x in enumerate(cands)]
    for i in range(n):
        x = cands[i]
        pair_i = pair[i]
        for j in range(i, n):
            y = cands[j]
            pair_j = pair[j]
            xy = pair_i[j - i]
            for k in range(j, n):
                p1 = t[xy + cands[k]]
                if p1 != t[pair_j[k - j] + x] or p1 != t[pair_i[k - i] + y]:
                    return (i, j, k)
                if p1 == top:
                    break
    return None


def check_triples(los, his, triples):
    """Index of the first non-associative (x, y, z) triple, or -1.

    ``triples`` is a flat list ``[x0, y0, z0, x1, y1, z1, ...]``.
    """
    for t in range(0, len(triples), 3):
        x, y, z = triples[t], triples[t + 1], triples[t + 2]
        p1 = sup_le(los, his, sup_le(los, his, x + y) + z)
        p2 = sup_le(los, his, sup_le(los, his, x + z) + y)
        p3 = sup_le(los, his, sup_le(los, his, y + z) + x)
        if not (p1 == p2 == p3):
            return t // 3
    return -1


def scan_four_values(points):
    """First four-values violation over a finite point set, or None.

    Scans value multisets {e1 <= e2 <= e3 <= a}: the condition holds for
    every arrangement iff the three pairings {a,e}|{rest} admit a linking
    element all or none, and {p,q}|{s,t} has one iff the set meets the
    window [max(|p-q|, |s-t|), min(p+q, s+t)].  For ascending ``points``
    >= 0, a runs over (e2 + e3, e1 + e2 + e3]: above, the quadruple is not
    admissible; at or below e2 + e3, the windows hold a, e3 and e2.

    Returns ascending indices (i, j, k, l) of the offending multiset
    (``points[l]`` is the maximal entry).
    """
    n = len(points)
    for i in range(n):
        e1 = points[i]
        for j in range(i, n):
            e2 = points[j]
            for k in range(j, n):
                e3 = points[k]
                for l in range(bisect_right(points, e2 + e3, k), n):
                    a = points[l]
                    if a > e1 + e2 + e3:
                        break  # points ascending: larger l only worse
                    b1 = _member_in(
                        points,
                        max(a - e1, abs(e2 - e3)),
                        min(a + e1, e2 + e3),
                    )
                    b2 = _member_in(
                        points,
                        max(a - e2, abs(e1 - e3)),
                        min(a + e2, e1 + e3),
                    )
                    if b1 != b2:
                        return (i, j, k, l)
                    b3 = _member_in(
                        points,
                        max(a - e3, abs(e1 - e2)),
                        min(a + e3, e1 + e2),
                    )
                    if b1 != b3:
                        return (i, j, k, l)
    return None


def closure_round(old, fresh, los, his):
    """One semi-naive closure round: the sorted union of ``old``, ``fresh``
    and the truncated sums p + q (taken in the ambient set ``los``/``his``)
    for p in ``fresh`` and q in ``old``, or in ``fresh`` with q >= p.

    ``old`` and ``fresh`` ascend.  When every sum of two points of ``old``
    is already in ``old`` or ``fresh``, the result is one full round over
    their union.  Every sum above max R truncates to max R, so each ``p``
    is summed only with the partners that keep the sum at or below max R,
    max R is added once if any sum went past it, and each distinct sum is
    truncated once.
    """
    top = his[-1]
    n = len(fresh)
    sums = set()
    over = False
    for i in range(n):  # fresh x fresh
        p = fresh[i]
        k = bisect_right(fresh, top - p, i)
        if k < n:
            over = True
            if k == i:
                break  # every later p overshoots too
        sums.update(map(p.__add__, fresh[i:k]))
    m = len(old)
    for p in fresh:  # fresh x old
        k = bisect_right(old, top - p)
        if k < m:
            over = True
        if k == 0:
            break  # no partner for any later p either
        sums.update(map(p.__add__, old[:k]))
    out = {*old, *fresh}
    out.update(sup_le(los, his, s) for s in sums)
    if over:
        out.add(top)
    return sorted(out)


def closure_step(points, los, his):
    """One closure round: the sorted union of ``points`` with all
    pairwise truncated sums (taken in the ambient set ``los``/``his``)."""
    return closure_round([], points, los, his)


def all_pairs_completion(n, d, los, his):
    """All-pairs walk-infimum closure of a weight matrix, in place.

    ``d`` is a flat n*n list with -1 marking absent edges, 0 on the
    diagonal and set members elsewhere.  Aggregation along a walk is the
    truncated sum; selection across walks is min.  The truncated sum
    distributes over min and never decreases when extended, so the
    standard triple loop computes the infimum over all walks.

    It runs a row at a time on the sentinel ``2 * max R + 1`` for absent
    edges, above every sum of two members.  Entries are members and
    ``sup_le(s) <= s`` is monotone, so ``sup_le(s) < cur`` iff ``s < cur``:
    only those cells are truncated.  Row k is fixed in round k (d_kk = 0).
    """
    absent = 2 * his[-1] + 1
    flat = [absent if v < 0 else v for v in d]
    rows = [flat[i * n : i * n + n] for i in range(n)]
    cols = range(n)
    for k, row_k in enumerate(rows):
        for row_i in rows:
            dik = row_i[k]
            if dik == absent:
                continue
            for j in [j for j, v, c in zip(cols, row_k, row_i) if dik + v < c]:
                row_i[j] = sup_le(los, his, dik + row_k[j])
    d[:] = [-1 if v == absent else v for row in rows for v in row]
    return d


def validate_metric(n, d):
    """First metric-axiom violation in a flat n*n matrix, or None.

    Returns ("diag", i, i), ("sym", i, j), ("pos", i, j) or the first
    ("tri", i, j, k) in (i, j, k) order with d[i][j] > d[i][k] + d[k][j].
    Once the first three passes hold, row i violates through k exactly
    when ``max_j(d_ij - d_kj) > d_ik``, and row k through i when that min
    is below ``-d_ik`` (j = i, j = k and k = i cannot fire), so each pair
    of rows is compared once and the first row that fires is scanned.
    """
    for i in range(n):
        if d[i * n + i] != 0:
            return ("diag", i, i)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i * n + j] != d[j * n + i]:
                return ("sym", i, j)
            if d[i * n + j] <= 0:
                return ("pos", i, j)
    rows = [d[i * n : i * n + n] for i in range(n)]
    fires = [False] * n
    for i, row_i in enumerate(rows):
        for k in range(i + 1, n):
            diffs = list(map(sub, row_i, rows[k]))
            fires[i] |= max(diffs) > row_i[k]
            fires[k] |= min(diffs) < -row_i[k]
        if fires[i]:
            for j, dij in enumerate(row_i):
                for k, (row_k, dik) in enumerate(zip(rows, row_i)):
                    if dij > dik + row_k[j]:
                        return ("tri", i, j, k)
    return None
