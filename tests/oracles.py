"""Brute-force reference implementations used only by the tests.

These deliberately avoid the library's search/closure algorithms: the
truncated sum is a max-scan over an explicit point list, distances are
exhaustive trail enumeration, a closure round truncates the sum of every
ordered pair, the four-values oracle quantifies over ordered quadruples
straight from the definition, and embeddings are found by scanning every
injection in ``itertools`` order.
"""

import itertools
from fractions import Fraction


def oplus_points(points, a, b):
    """Truncated sum over an explicit finite point list (max-scan)."""
    s = a + b
    best = None
    for x in points:
        if x <= s and (best is None or x > best):
            best = x
    if best is None:
        raise ValueError("no point below the bound")
    return best


def assoc_holds(points):
    """Associativity over all ordered triples, from the definition."""
    for a in points:
        for b in points:
            for c in points:
                lhs = oplus_points(points, oplus_points(points, a, b), c)
                rhs = oplus_points(points, a, oplus_points(points, b, c))
                if lhs != rhs:
                    return False
    return True


def _metric(a, b, c):
    return a <= b + c and b <= a + c and c <= a + b


def closure_step(points, los, his):
    """One closure round from the definition: the union of ``points`` with
    the truncated sum of every ordered pair, each sum truncated by a scan
    over the closed intervals ``[los[t], his[t]]``."""

    def sup_le(s):
        best = None
        for lo, hi in zip(los, his):
            if lo <= s:
                best = min(hi, s)
        return best

    out = set(points)
    for a in points:
        for b in points:
            out.add(sup_le(a + b))
    return sorted(out)


def four_values_holds(points):
    """The four-values condition over all ordered quadruples and linking
    elements, straight from the definition (O(n^6))."""
    for a in points:
        for b in points:
            for c in points:
                for d in points:
                    if max(b, c, d) > a or a > b + c + d:
                        continue
                    for x in points:
                        if not (_metric(a, b, x) and _metric(c, d, x)):
                            continue
                        if not any(
                            _metric(a, d, y) and _metric(c, b, y)
                            for y in points
                        ):
                            return False
    return True


def all_trails(graph, start, end):
    """Every vertex-distinct walk from start to end, as vertex id lists."""
    out = []
    path = [start]
    seen = {start}

    def rec(cur):
        if cur == end and len(path) > 1:
            out.append(list(path))
            return
        i = graph.index(cur)
        for j, _ in graph._adj[i]:
            nxt = graph.vertices[j]
            if nxt in seen:
                continue
            seen.add(nxt)
            path.append(nxt)
            rec(nxt)
            path.pop()
            seen.remove(nxt)

    if start == end:
        return [[start]]
    rec(start)
    return out


def trail_distance(graph, start, end):
    """Minimum fold weight over all trails, or None when disconnected."""
    from distset.rgraph import walk_weight

    if start == end:
        return Fraction(0)
    best = None
    for trail in all_trails(graph, start, end):
        w = walk_weight(graph, trail)
        if best is None or w < best:
            best = w
    return best


def first_injection(space, target, cands, accept=None, ordered=False):
    """First tuple of ``cands`` realizing every distance of ``target``.

    Tuples come in ``itertools.permutations`` order, or in
    ``itertools.combinations`` order when ``ordered``; ``target`` is a
    distance matrix.  With ``accept`` given, every entry must also pass
    ``accept(prefix, entry)`` against the entries before it.  Returns the
    tuple, or None.
    """
    k = len(target)
    tuples = (itertools.combinations if ordered else itertools.permutations)(
        cands, k
    )
    for img in tuples:
        if all(
            space.dist(img[s], img[t]) == target[s][t]
            for s in range(k)
            for t in range(k)
        ) and (
            accept is None
            or all(accept(img[:i], img[i]) for i in range(k))
        ):
            return img
    return None
