"""Brute-force reference implementations used only by the tests.

These deliberately avoid the library's search/closure algorithms: the
truncated sum is a max-scan over an explicit point list, distances are
exhaustive trail enumeration, a closure round truncates the sum of every
ordered pair and the closure repeats full rounds to the fixpoint, the
four-values oracle quantifies over ordered quadruples straight from the
definition, and embeddings are found by scanning every injection in
``itertools`` order.  The multiset scans visit every multiset, with no
cut; random members are rounded on Fractions, and the sampled triples
of the associativity check are grouped by ``RSet.oplus``.  The
completion and the metric check on flat matrices are cell-at-a-time
triple loops.  The Katetov enumeration, the unrealized-type search, the
eps-neighbourhood and the partition distance function compare Fraction
distances read through ``space.dist``.
"""

import itertools
import random
from fractions import Fraction
from math import ceil, floor


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


def sup_le_scan(los, his, s):
    """Truncated sum by a scan over the closed intervals
    ``[los[t], his[t]]``: the largest member <= s, or None."""
    best = None
    for lo, hi in zip(los, his):
        if lo <= s:
            best = min(hi, s)
    return best


def closure_step(points, los, his):
    """One closure round from the definition: the union of ``points`` with
    the truncated sum of every ordered pair, each sum truncated by
    ``sup_le_scan``."""
    out = set(points)
    for a in points:
        for b in points:
            out.add(sup_le_scan(los, his, a + b))
    return sorted(out)


def closure_iterates(points, los, his):
    """Full ``closure_step`` rounds from ``points`` until one adds nothing:
    the list of iterates, ``points`` first and the fixpoint last."""
    iterates = [sorted(points)]
    while True:
        nxt = closure_step(iterates[-1], los, his)
        if nxt == iterates[-1]:
            return iterates
        iterates.append(nxt)


def groupings(los, his, x, y, z):
    """The three grouped truncated sums (x+y)+z, (x+z)+y and (y+z)+x."""
    return tuple(
        sup_le_scan(los, his, sup_le_scan(los, his, p + q) + r)
        for p, q, r in ((x, y, z), (x, z, y), (y, z, x))
    )


def first_assoc_multiset(los, his, cands):
    """First multiset (i <= j <= k) of the ascending ``cands`` whose three
    groupings differ, visiting every multiset; or None."""
    n = len(cands)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                p1, p2, p3 = groupings(los, his, cands[i], cands[j], cands[k])
                if not p1 == p2 == p3:
                    return (i, j, k)
    return None


def first_four_values_multiset(points):
    """First admissible multiset (i <= j <= k <= l) of the ascending
    ``points`` whose three pairings {a,e}|{rest} disagree on whether a
    linking element exists, visiting every multiset; or None."""
    n = len(points)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for l in range(k, n):
                    e1, e2, e3, a = (points[t] for t in (i, j, k, l))
                    if a > e1 + e2 + e3:
                        break
                    links = set()
                    for e, s, u in ((e1, e2, e3), (e2, e1, e3), (e3, e1, e2)):
                        lo, hi = max(a - e, abs(s - u)), min(a + e, s + u)
                        links.add(any(lo <= p <= hi for p in points))
                    if len(links) > 1:
                        return (i, j, k, l)
    return None


def all_pairs_completion(n, d, los, his):
    """The in-place (min, truncated sum) triple loop over a flat n*n
    matrix with -1 for absent edges, one cell at a time."""
    for k in range(n):
        for i in range(n):
            dik = d[i * n + k]
            if dik < 0:
                continue
            for j in range(n):
                dkj = d[k * n + j]
                if dkj < 0:
                    continue
                cand = sup_le_scan(los, his, dik + dkj)
                cur = d[i * n + j]
                if cur < 0 or cand < cur:
                    d[i * n + j] = cand
    return d


def validate_metric(n, d):
    """First ("diag", i, i), ("sym", i, j), ("pos", i, j) or
    ("tri", i, j, k) violation of a flat n*n matrix, cell by cell in
    that order; or None."""
    for i in range(n):
        if d[i * n + i] != 0:
            return ("diag", i, i)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i * n + j] != d[j * n + i]:
                return ("sym", i, j)
            if d[i * n + j] <= 0:
                return ("pos", i, j)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if d[i * n + j] > d[i * n + k] + d[k * n + j]:
                    return ("tri", i, j, k)
    return None


def random_member(rset, rng):
    """``checks.random_member`` with its rounding done by ``ceil`` and
    ``floor`` on Fractions: the same rng calls in the same order."""
    from distset.checks import MAX_SAMPLE_DEN

    lo, hi = rset.intervals[rng.randrange(len(rset.intervals))]
    if lo == hi:
        return lo
    q = rng.randint(1, MAX_SAMPLE_DEN)
    while True:
        pmin = ceil(lo * q)
        pmax = floor(hi * q)
        if pmin <= pmax:
            return Fraction(rng.randint(pmin, pmax), q)
        q *= 2


def sampled_assoc(rset, budget, seed):
    """The sampling phase of ``checks.check_associativity`` on Fractions:
    ``3 * budget`` draws of ``random_member`` from ``random.Random(seed)``,
    the three groupings (x+y)+z, (x+z)+y and (y+z)+x of each triple by
    ``RSet.oplus``, and the first triple whose groupings differ arranged
    as ``checks._assoc_witness`` does: descending, with the last two
    swapped when the descending groupings agree.

    Returns ``(witness, lhs, rhs, rng)``; the first three are None when
    every triple passes.
    """
    rng = random.Random(seed)
    samples = [random_member(rset, rng) for _ in range(3 * budget)]
    op = rset.oplus
    for t in range(0, len(samples), 3):
        x, y, z = samples[t : t + 3]
        if op(op(x, y), z) == op(op(x, z), y) == op(op(y, z), x):
            continue
        a, b, c = sorted((x, y, z), reverse=True)
        for b, c in ((b, c), (c, b)):
            lhs, rhs = op(op(a, b), c), op(a, op(b, c))
            if lhs != rhs:
                return {"a": a, "b": b, "c": c}, lhs, rhs, rng
        raise AssertionError("a failing triple with agreeing arrangements")
    return None, None, None, rng


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


def katetov_functions(space, subset, positive):
    """Every prescription over the point ids ``subset`` with values in
    ``positive`` (ascending Fractions), as dicts in lexicographic order;
    each value is tested against the values chosen before it."""
    found = []
    assignment = {}

    def assign(pos):
        if pos == len(subset):
            found.append(dict(assignment))
            return
        p = subset[pos]
        for v in positive:
            if all(
                abs(v - assignment[q]) <= space.dist(p, q) <= v + assignment[q]
                for q in subset[:pos]
            ):
                assignment[p] = v
                assign(pos + 1)
                del assignment[p]

    assign(0)
    return found


def _extension_class(space, subset, vals):
    """Least (upper triangle of the base, values) over base orderings."""
    k = len(subset)
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return min(
        tuple(
            [space.dist(subset[p[i]], subset[p[j]]) for i, j in upper]
            + [vals[i] for i in p]
        )
        for p in itertools.permutations(range(k))
    )


def first_unrealized_katetov(space, positive, arity):
    """First prescription, by subset size, subset and value order, whose
    extension class no point outside a subset of that size realizes;
    None when there is none."""
    points = space.points
    for size in range(1, arity + 1):
        subsets = list(itertools.combinations(points, size))
        witnessed = {
            _extension_class(space, sub, [space.dist(z, p) for p in sub])
            for sub in subsets
            for z in points
            if z not in sub
        }
        for sub in subsets:
            for values in katetov_functions(space, sub, positive):
                vals = [values[p] for p in sub]
                if _extension_class(space, sub, vals) not in witnessed:
                    return values
    return None


def eps_neighborhood(space, subset, eps):
    """Points strictly within eps of some point of ``subset``."""
    return [
        q for q in space.points if any(space.dist(q, p) < eps for p in subset)
    ]


def partition_distance_function(space, part):
    """Each point's least distance to the other side of the partition."""
    inside = set(part)
    return {
        p: min(
            space.dist(p, q)
            for q in space.points
            if (q in inside) != (p in inside)
        )
        for p in space.points
    }
