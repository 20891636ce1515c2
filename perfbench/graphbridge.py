"""Workload ``graph-bridge``: weighted graphs and the bridge pipeline.

Every block of 20 ops holds a fixed mix, shuffled by the seed:

* 14 ``graph`` ops over the ground set [0, 5]: a random recursive tree on
  n vertices (``GRAPH_SIZES``, 40-120, each moved by a seeded -2..2) with
  edge weights p/q, q | 12, at most 3/2, plus n/2 chords that carry their
  tree distance capped at 5.  The truncated sum on [0, 5] is
  min(a + b, 5), so every chord equals the capped weight of the tree path
  it spans and the graph is metric, with d(u, v) = min(tree distance, 5).
  In 3 of the 14 graphs (kind ``graph-nonmetric``) one chord is made
  heavier than that distance, which makes it the one edge not realizing
  its distance.
  Op: ``RGraph``, ``is_metric``, and ``complete_to_metric_space`` when the
  graph passed.
* 6 ``bridge-N`` ops: U is equilateral (all distances 1) on N points, V
  sits on the even indices at distance 2, r = 1, ground set {0, 1, 2, 3},
  depth 3; N = 9 for four of them and 7 and 8 for one each.  Op:
  ``BridgeInput``, ``build_H_and_L``, ``find_nearby_copy`` along a seeded
  increasing embedding (every increasing map of an equilateral space is
  isometric).

Ordered by op time (pure-Python kernels) the bridge-9 ops are the slowest
4 of 20, so the 90th percentile falls inside them, and the median falls
inside the five metric graphs of about 80 vertices (ranks 8-12 of 20).
The ground-set associativity check of ``rgraph`` is cached per set
(``lru_cache``); the warm-up op, a metric graph on 60 vertices, fills it
for [0, 5].
"""

from __future__ import annotations

from fractions import Fraction as F
from math import comb

from exact import ExactSet
from spec import Spec, shuffled

NAME = "graph-bridge"
MEDIAN_KIND = "graph"

CAP = F(5)
DEPTH = 3
DENOMINATORS = (1, 2, 3, 4, 6, 12)
SAMPLED_PAIRS = 24
GRAPH_SIZES = (40, 50, 60, 70, 80, 80, 80, 80, 80, 90, 100, 110, 120, 120)
NONMETRIC = (1, 9, 11)  # indices into GRAPH_SIZES of the graphs with a heavy chord
BRIDGES = (7, 8, 9, 9, 9, 9)
WARMUP_VERTICES = 60


def _tree_distance(parent, weight, a, b):
    up = {}
    x, d = a, F(0)
    while x is not None:
        up[x] = d
        if parent[x] is not None:
            d += weight[x]
        x = parent[x]
    x, d = b, F(0)
    while x not in up:
        d += weight[x]
        x = parent[x]
    return d + up[x]


def _graph(rng, n, nonmetric):
    parent = (None,) + tuple(rng.randrange(i) for i in range(1, n))
    weight = [None]
    for _ in range(1, n):
        q = rng.choice(DENOMINATORS)
        weight.append(F(rng.randint(1, max(1, 3 * q // 2)), q))
    weight = tuple(weight)
    names = tuple(f"g{i}" for i in range(n))
    edges = [(names[i], names[parent[i]], weight[i]) for i in range(1, n)]
    taken = {frozenset((i, parent[i])) for i in range(1, n)}
    heavy = None
    while len(edges) < n - 1 + n // 2:
        a, b = rng.sample(range(n), 2)
        if frozenset((a, b)) in taken:
            continue
        d = min(_tree_distance(parent, weight, a, b), CAP)
        if nonmetric and heavy is None:
            if d == CAP:
                continue
            heavy = (names[a], names[b])
            d = min(d + F(rng.randint(1, 12), 12), CAP)
        taken.add(frozenset((a, b)))
        edges.append((names[a], names[b], d))
    pairs = tuple(tuple(rng.sample(range(n), 2)) for _ in range(SAMPLED_PAIRS))
    kind = "graph-nonmetric" if nonmetric else "graph"
    return Spec(kind, (names, tuple(edges), heavy, parent, weight, pairs))


def _bridge(rng, n):
    emb = tuple(sorted(rng.sample(range(n), DEPTH)))
    return Spec(f"bridge-{n}", (n, emb))


def block(rng, index):
    ops = [
        _graph(rng, min(120, max(40, n + rng.randint(-2, 2))), k in NONMETRIC)
        for k, n in enumerate(GRAPH_SIZES)
    ]
    ops += [_bridge(rng, n) for n in BRIDGES]
    return shuffled(rng, ops)


def warmup(rng):
    return _graph(rng, WARMUP_VERTICES, False)


def _bridge_input(ds, n):
    ground = ds.RSet([0, 1, 2, 3])
    upts = [f"u{i}" for i in range(n)]
    udist = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    index = list(range(0, n, 2))
    vpts = [f"v{i}" for i in index]
    vdist = [[0 if i == j else 2 for j in index] for i in index]
    return ds.BridgeInput(
        ground_set=ground,
        space_u=ds.FiniteMetricSpace(ground, upts, udist),
        space_v=ds.FiniteMetricSpace(ground, vpts, vdist),
        index_map=tuple(index),
        r=F(1),
    )


def run(ds, spec):
    if spec.kind.startswith("bridge"):
        n, emb = spec.args
        bridge = _bridge_input(ds, n)
        graph_h, space_l = ds.build_H_and_L(bridge, DEPTH)
        return graph_h, space_l, ds.find_nearby_copy(space_l, emb, bridge, DEPTH)
    names, edges = spec.args[:2]
    graph = ds.RGraph(ds.RSet([(0, CAP)]), names, edges)
    report = ds.is_metric(graph)
    space = ds.complete_to_metric_space(graph) if report.passed else None
    return report, space


def _verify_graph(ds, spec, result):
    names, edges, heavy, parent, weight, pairs = spec.args
    report, space = result
    if heavy is None:
        if report.verdict != ds.VERDICT_EXHAUSTIVE or space is None:
            return f"metric graph reported {report.verdict}"
        if tuple(space.points) != names:
            return "completion reorders the vertices"
        for u, v, w in edges:
            if space.dist(u, v) != w:
                return f"edge ({u}, {v}) of weight {w} became {space.dist(u, v)}"
        for a, b in pairs:
            want = min(_tree_distance(parent, weight, a, b), CAP)
            if space.dist(names[a], names[b]) != want:
                return f"d({names[a]}, {names[b]}) is not {want}"
        return None
    if report.verdict != ds.VERDICT_FAILED or space is not None:
        return f"graph with a heavy chord reported {report.verdict}"
    witness = report.witness or {}
    edge, trail = witness.get("edge"), witness.get("trail")
    if not edge or set(edge) != set(heavy) or not trail:
        return f"witness {witness} does not name the heavy chord {heavy}"
    if {trail[0], trail[-1]} != set(heavy):
        return "witness trail does not join the edge's endpoints"
    lookup = {frozenset((u, v)): w for u, v, w in edges}
    steps = [lookup.get(frozenset(p)) for p in zip(trail, trail[1:])]
    if None in steps:
        return "witness trail leaves the graph"
    walk = ExactSet([(F(0), CAP)]).sup_le(sum(steps))
    if not (walk == report.rhs and report.rhs < report.lhs == lookup[frozenset(heavy)]):
        return f"trail weight {walk} does not beat the edge: {report}"
    return None


def _verify_bridge(spec, result):
    n, emb = spec.args
    graph_h, space_l, copy = result
    nodes = sum(comb(n, k) for k in range(1, DEPTH + 1))
    if len(graph_h.vertices) != nodes + n:
        return f"H has {len(graph_h.vertices)} vertices, expected {nodes + n}"
    upts = [f"u{i}" for i in range(n)]
    if any(space_l.dist(a, b) != 1 for a in upts for b in upts if a != b):
        return "L does not contain U isometrically"
    levels = [i for i in range(0, n, 2) if i < DEPTH]
    want_nodes = {i: "t" + ".".join(map(str, emb[: i + 1])) for i in levels}
    want_anchors = {i: upts[emb[i]] for i in levels}
    if copy.node_of_index != want_nodes or copy.anchor_of_index != want_anchors:
        return f"copy {copy.node_of_index} / {copy.anchor_of_index} is off the branch"
    for i in levels:
        if space_l.dist(want_nodes[i], want_anchors[i]) != 1:
            return "copy point is not at distance r from its anchor"
        for j in levels:
            if i < j and space_l.dist(want_nodes[i], want_nodes[j]) != 2:
                return "copy distances differ from V's"
    return None


def verify(ds, spec, result):
    """None when the result is right, else what is wrong with it."""
    if spec.kind.startswith("bridge"):
        return _verify_bridge(spec, result)
    return _verify_graph(ds, spec, result)


def tamper(ds, spec, result):
    """The result with one distance or one verdict changed."""
    if spec.kind.startswith("bridge"):
        graph_h, space_l, copy = result
        anchors = dict(copy.anchor_of_index)
        anchors[0] = f"u{(int(anchors[0][1:]) + 1) % spec.args[0]}"
        return graph_h, space_l, type(copy)(copy.node_of_index, anchors, copy.r)
    report, space = result
    if space is None:
        return type(report)(check=report.check, verdict=ds.VERDICT_EXHAUSTIVE), space
    d = space.matrix()
    d[0][1] = d[1][0] = d[0][1] + F(1, 12)
    return report, ds.FiniteMetricSpace(space.ground_set, space.points, d, validate=False)
