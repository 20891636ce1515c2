"""Pure-Python reference kernels.

All kernels work on *scaled integers*: callers pick a common denominator
for every rational that can appear during a computation and pass plain
ints.  Because the truncated sum of two set members is either an interval
endpoint or an exact sum, the common denominator is stable under every
operation here, so integer arithmetic stays exact.

``_ops_cy.pyx`` compiles the same functions but ``closure_round`` and
``assoc_gap_search``, with bit-identical results; ``distset._core``
routes only ``all_pairs_completion`` and ``validate_metric`` there (where
it measured faster) and serves every other kernel from here on every
backend.

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


def assoc_gap_search(los, his):
    """A triple (x, y, z) of members on which the truncated sum is not
    associative, as ints over 32 times the caller's denominator, or None
    when the sum of this union of at least two intervals is associative.

    With t(s) the largest member <= s, the sum is not associative iff for
    some gap j (H_j < L_{j+1}) there are members x, y, z, r with

        x + y < L_{j+1},   r > H_j + z,   r <= x + t(y + z).        (*)

    (<=) x (+) (y (+) z) >= r, as r is a member <= x + t(y + z); and
    x + y >= r - z > H_j, so x + y lies in gap j, x (+) y = H_j and
    (x (+) y) (+) z <= H_j + z < r.  (=>) Order a failing triple so that
    (x (+) y) (+) z < x (+) (y (+) z) =: r.  Then r > (x (+) y) + z.  If
    x + y were a member, (x (+) y) + z = x + y + z >= r; if x + y >= max
    R, x (+) y = max R >= r.  So x + y lies in a gap j, x (+) y = H_j, and
    r = t(x + (y (+) z)) <= x + t(y + z).

    Search, per gap j: the best x is the largest member below L_{j+1} - y,
    an "end" H_i or the "generic" L_{j+1} - y - eps; the best r is the
    smallest member above H_j + z, an end L_k or the generic H_j + z + eps.
    With G(s) = s - t(s), which has G(s + d) <= G(s) + d for d >= 0, (*)
    reads: end/end t(y + z) >= L_k - H_i; end/generic G(y + z) <= y + H_i
    - H_j - eps; generic/end G(y + z) <= z + L_{j+1} - L_k - eps;
    generic/generic G(y + z) <= L_{j+1} - H_j - 2 eps.  So an end y (or z)
    is tried at its largest value only, found with one bisect; generic y
    and z form O(m) intervals.  For c >= 0, {s : G(s) <= c} is the union
    of the [L_K, H_K + c], which meets a range iff the last L_K in it has
    H_K + c at or past its start.  End/end pairs are tried by falling
    y + H_i, stopping below L_k - z, as t(s) <= s.

    Exactness: values are scaled by 32 and eps is one unit, so "< c" is
    "<= c - eps".  Every comparison carries eps with a coefficient of at
    most 4 against multiples of 32, so it decides as with eps
    infinitesimal, and a failing quadruple of reals in a pair of cells
    implies one at the values tried.  A hit is a quadruple of members on
    the 1/32 grid satisfying (*), so the returned (x, y, z) fails.
    """
    lo = [v << 5 for v in los]
    hi = [v << 5 for v in his]
    m = len(lo)
    for j in range(m - 1):
        hj, lj = hi[j], lo[j + 1]
        ye = []  # x = H_i: y in [lj - L_{i+1}, lj - H_i - 2 eps]
        for i in range(j + 1):
            y = _top(lo, hi, lj - lo[i + 1], lj - hi[i] - 2)
            if y is not None:
                ye.append((y + hi[i], y, hi[i]))
        ye.sort(reverse=True)
        ze = []  # r = L_k: z in [H_{k-1} - hj, L_k - hj - 2 eps]
        for k in range(j + 1, m):
            z = _top(lo, hi, hi[k - 1] - hj, lo[k] - hj - 2)
            if z is not None:
                ze.append((z, lo[k]))
        yg = _meet(lo, hi, [(lj - 1 - hi[i], lj - 1 - lo[i]) for i in range(j, -1, -1)])
        zg = _meet(lo, hi, [(lo[k] - hj - 1, hi[k] - hj - 1) for k in range(j + 1, m)])
        for z, lk in ze:
            need = lk - z
            for key, y, x in ye:
                if key < need:
                    break
                if x + sup_le(lo, hi, y + z) >= lk:
                    return x, y, z
            c = z + lj - lk - 1
            for ay, by in yg if c >= 0 else ():
                s = _gap_hit(lo, hi, ay + z, by + z, c)
                if s is not None:
                    return lj - 1 - (s - z), s - z, z
        for key, y, x in ye:
            c = key - hj - 1
            if c < 0:
                break
            for az, bz in zg:
                s = _gap_hit(lo, hi, y + az, y + bz, c)
                if s is not None:
                    return x, y, s - y
        for ay, by in yg:
            for az, bz in zg:
                s = _gap_hit(lo, hi, ay + az, by + bz, lj - hj - 2)
                if s is not None:
                    y = min(by, s - az)
                    return lj - 1 - y, y, s - y
    return None


def _top(lo, hi, a, b):
    # the largest member in [a, b], or None
    k = bisect_right(lo, b) - 1
    t = hi[k] if hi[k] < b else b
    return t if k >= 0 and t >= a else None


def _meet(lo, hi, ranges):
    # the pieces of the ascending closed ``ranges`` inside the set
    out, q = [], 0
    for a, b in ranges:
        q = bisect_left(hi, a, q)
        for p in range(q, bisect_right(lo, b, q)):
            out.append((max(a, lo[p]), min(b, hi[p])))
    return out


def _gap_hit(lo, hi, a, b, c):
    # some s in [a, b] with s - t(s) <= c (c >= 0), or None
    k = bisect_right(lo, b) - 1
    return max(a, lo[k]) if hi[k] + c >= a else None


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

    Absent edges hold the sentinel ``absent = 2 * max R + 1``, above every
    sum of two members.  Entries are members and ``sup_le(s) <= s`` is
    monotone, so ``sup_le(s) < cur`` iff ``s < cur``: only those cells are
    truncated.  Row k is fixed in round k (d_kk = 0).

    Each row is also packed into one int, entry j in the b-bit field at
    bit b * j (SWAR), so round k compares row i with row k in a few
    big-int operations.  Every sum d_ik + d_kj is at most
    ``max R + absent``, and b is one bit wider than that sum needs, so
    ``(P_i | HIGH) - (P_k + (d_ik + 1) * ONES)`` never borrows across a
    field and leaves field j's top bit set exactly when
    d_ik + d_kj < d_ij.  Only the cells of those bits are truncated, in
    ascending j, with the same values as the plain triple loop.  The
    width follows max R, so ints of any size pack exactly.
    """
    absent = 2 * his[-1] + 1
    b = (his[-1] + absent).bit_length() + 1
    flat = [absent if v < 0 else v for v in d]
    rows = [flat[i * n : i * n + n] for i in range(n)]
    shifts = range(0, b * n, b)
    ones = sum(1 << s for s in shifts)
    high = ones << (b - 1)
    packed = [sum(v << s for v, s in zip(row, shifts)) for row in rows]
    for k, row_k in enumerate(rows):
        base = packed[k] + ones
        for i, row_i in enumerate(rows):
            dik = row_i[k]
            if dik == absent:
                continue
            p = packed[i]
            m = ((p | high) - (base + dik * ones)) & high
            while m:
                low = m & -m
                j = low.bit_length() // b - 1
                v = sup_le(los, his, dik + row_k[j])
                p += (v - row_i[j]) << (b * j)
                row_i[j] = v
                m ^= low
            packed[i] = p
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
