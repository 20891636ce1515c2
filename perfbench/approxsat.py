"""Workload ``approx-saturate``: finite approximation and saturated spaces.

R comes from a fixed family of associative sets: [0, 1], [0, 2], [0, 3]
and Cantor stages with every weight above 1/3, scaled.  Every block of 20
ops holds a fixed mix, shuffled by the seed:

* 16 ``saturate`` ops on a seeded member of the family:
  1. a coarse approximant A of R with smallest positive member
     r = (least member >= max R / k), by ``make_eps_approximation``,
     with k chosen so that A has 6 positive values;
  2. ``check_4values(A)`` (finite, so exhaustive);
  3. ``build_saturated_space(A, arity 2)``;
  4. ``check_universality(n=3)``;
  5. with a seeded 2-colouring and a seeded 3-point subspace as target,
     ``indivisibility_search``, then ``partition_distance_function`` and
     ``oscillation_search``.
* 4 ``approx`` ops: ``make_eps_approximation`` of R = [0, M] with eps
  M/4 and seed points M/q1, M/q2 (see ``SEED_QS``).  Their closures take
  5 rounds and reach 780-870 points.

Ordered by op time (pure-Python kernels) the approx ops are the slowest 4
of 20, so the 90th percentile falls inside them and the median inside the
saturate ops; each kind takes about half of the busy time.

Checks after each op: approximants pass ``is_eps_approximation`` and are
closure fixpoints (recomputed here), the approximant passes four-values
exhaustively, the saturated space is a metric space on A's values in
which every extension type of arity <= 2 has a witness (the condition
``find_unrealized_katetov(space, A, 2) is None`` tests, recomputed here)
unless the point cap was hit, universality then passes, and every search
hit is an isometric copy inside its colour class or below its oscillation
bound.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

from exact import ExactSet, cantor_intervals, is_closure_fixpoint
from spec import Spec, shuffled

NAME = "approx-saturate"
MEDIAN_KIND = "saturate"

MAX_POINTS = 200
OSC_EPS = F(1, 2)

# (weights or None for [0, scale], scale, k values to draw from); every
# choice gives an approximant with 6 positive values, so saturate ops cost
# about the same whichever member is drawn
FAMILY = (
    (None, F(1), (6,)),
    (None, F(2), (6,)),
    (None, F(3), (6,)),
    ((F(2, 5),), F(2), (4, 5, 6)),
    ((F(1, 2),), F(1), (5, 6, 7)),
    ((F(2, 3),), F(3), (7, 8, 9, 10)),
    ((F(1, 2), F(1, 2)), F(3), (6, 8, 10)),
    ((F(3, 5), F(2, 5)), F(2), (8, 9, 10)),
    ((F(3, 7), F(3, 7)), F(2), (5, 7, 9)),
)

# coprime (q1, q2) with q1 q2 in 630-720 and neither a multiple of 5, the
# grid step being M/5: closures of 780-870 points in 5 rounds
SEED_QS = ((21, 31), (21, 32), (22, 29), (22, 31), (23, 28), (23, 29), (23, 31), (24, 29))


def family_intervals(weights, scale):
    if weights is None:
        return ((F(0), scale),)
    return cantor_intervals(weights, scale)


def _saturate(rng):
    weights, scale, ks = rng.choice(FAMILY)
    rset = ExactSet(family_intervals(weights, scale))
    r = rset.round_up(rset.max_value / rng.choice(ks))
    return Spec("saturate", (weights, scale, r, 2 * r, rng.randrange(2**32)))


def _approx(rng):
    m = F(rng.randint(1, 3))
    q1, q2 = rng.choice(SEED_QS)
    return Spec("approx", (m, m / 4, (F(0), m / q1, m / q2)))


def block(rng, index):
    ops = [_saturate(rng) for _ in range(16)] + [_approx(rng) for _ in range(4)]
    return shuffled(rng, ops)


def warmup(rng):
    return _saturate(rng)


def _ground(ds, weights, scale):
    if weights is None:
        return ds.RSet([(0, scale)])
    return ds.cantor_set(weights).scale(scale)


def run(ds, spec):
    if spec.kind == "approx":
        m, eps, seeds = spec.args
        return ds.make_eps_approximation(
            ds.RSet([(0, m)]), eps, seed_points=ds.RSet(seeds)
        )
    weights, scale, r, eps, seed = spec.args
    values = ds.make_eps_approximation(_ground(ds, weights, scale), eps, min_positive=r)
    report = ds.check_4values(values)
    space = ds.build_saturated_space(
        values, max_points=MAX_POINTS, witness_arity=2, seed=seed
    )
    universal = ds.check_universality(space, values, 3)
    pick = random.Random(seed)
    pts = space.points
    colours = [0, 1] + [pick.randrange(2) for _ in pts[2:]]
    coloring = ds.Coloring(dict(zip(pts, colours)))
    target = space.subspace(pick.sample(pts, 3))
    hit = ds.indivisibility_search(space, coloring, target, 0)
    func = ds.partition_distance_function(space, coloring.class_points(0))
    osc = ds.oscillation_search(space, func, OSC_EPS, target)
    return values, report, space, universal, coloring, target, hit, func, osc


def _verify_approximant(ds, rset_ds, ground, values, eps):
    if not values.is_finite():
        return "approximant is not finite"
    pts = values.points()
    if pts[-1] != ground.max_value or not all(ground.contains(p) for p in pts):
        return "approximant leaves the set or misses its maximum"
    if not ds.is_eps_approximation(values, rset_ds, eps):
        return "not an eps-approximation"
    if not is_closure_fixpoint(pts, ground):
        return "approximant is not closed under the truncated sum"
    return None


def _saturation_gap(pts, d, positive):
    """First extension type of arity <= 2 without a witness, or None."""
    n = len(pts)
    present = {d[i][j] for i in range(n) for j in range(i + 1, n)}
    for v in positive:
        if v not in present:
            return ("single", v)
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            for z in range(n):
                if z != i and z != j:
                    a, b = sorted((d[z][i], d[z][j]))
                    seen.add((d[i][j], a, b))
    for dist in sorted(present):
        for x, a in enumerate(positive):
            for b in positive[x:]:
                if b - a <= dist <= a + b and (dist, a, b) not in seen:
                    return ("pair", dist, a, b)
    return None


def _is_copy(space, target, emb, allowed):
    tp = list(target.points)
    if sorted(emb) != sorted(tp) or len(set(emb.values())) != len(tp):
        return False
    if not all(emb[p] in allowed for p in tp):
        return False
    return all(space.dist(emb[a], emb[b]) == target.dist(a, b) for a in tp for b in tp)


def verify(ds, spec, result):
    """None when the result is right, else what is wrong with it."""
    if spec.kind == "approx":
        m, eps, seeds = spec.args
        ground = ExactSet([(F(0), m)])
        bad = _verify_approximant(ds, ds.RSet([(0, m)]), ground, result, eps)
        if bad is None and not set(seeds) <= set(result.points()):
            bad = "seed points missing from the approximant"
        return bad
    weights, scale, r, eps, seed = spec.args
    values, report, space, universal, coloring, target, hit, func, osc = result
    ground = ExactSet(family_intervals(weights, scale))
    bad = _verify_approximant(ds, _ground(ds, weights, scale), ground, values, eps)
    if bad:
        return bad
    positive = [v for v in values.points() if v > 0]
    if positive[0] != r:
        return f"smallest positive member {positive[0]} is not {r}"
    if report.verdict != ds.VERDICT_EXHAUSTIVE:
        return f"four-values on the approximant gave {report.verdict}"
    pts = list(space.points)
    n = len(pts)
    d = space.matrix()
    allowed = set(values.points())
    for i in range(n):
        if d[i][i] != 0:
            return "nonzero diagonal"
        for j in range(i + 1, n):
            if d[i][j] != d[j][i] or d[i][j] not in allowed or d[i][j] == 0:
                return f"bad distance d({pts[i]}, {pts[j]}) = {d[i][j]}"
            if any(d[i][j] > d[i][k] + d[k][j] for k in range(n)):
                return "triangle inequality fails"
    if n < MAX_POINTS:
        gap = _saturation_gap(pts, d, positive)
        if gap is not None:
            return f"extension type {gap} has no witness"
        if universal.verdict != ds.VERDICT_EXHAUSTIVE:
            return f"saturated space not universal: {universal.witness}"
    if hit is not None:
        colour, emb = hit
        if not _is_copy(space, target, emb, set(coloring.class_points(colour))):
            return f"indivisibility hit {hit} is not a copy in one class"
    part = set(coloring.class_points(0))
    for i, p in enumerate(pts):
        want = min(d[i][j] for j, q in enumerate(pts) if (q in part) != (p in part))
        if func[p] != want:
            return f"partition distance at {p} is {func[p]}, expected {want}"
    if osc is not None:
        spread = [func[q] for q in osc.values()]
        if not _is_copy(space, target, osc, set(pts)) or max(spread) - min(spread) >= OSC_EPS:
            return f"oscillation hit {osc} is not a low-oscillation copy"
    return None


def tamper(ds, spec, result):
    """Approx: the approximant without a seed point.  Saturate: the
    universality verdict flipped."""
    if spec.kind == "approx":
        drop = spec.args[2][1]
        return ds.RSet([p for p in result.points() if p != drop])
    universal = result[3]
    flipped = replace(universal, verdict=ds.VERDICT_FAILED)
    return result[:3] + (flipped,) + result[4:]
