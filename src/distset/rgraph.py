"""Weighted graphs over a distance set and their completion to metric
spaces.

An :class:`RGraph` is a simple undirected graph whose edge weights are
positive members of a governing distance set R (which must contain 0).
The weight of a walk is the truncated-sum fold of its edge weights; the
distance d(a, b) is the minimum walk weight over all walks from a to b.
Because the truncated sum never decreases when a walk is extended
(a (+) w >= a) and is monotone in each argument, label-setting search
computes d, and the all-pairs closure with (min, truncated sum) is
exact; both require the ground set to pass the associativity check,
which is enforced up front where folds of length > 2 occur.

A graph is *metric* when every edge realizes the distance between its
endpoints, equivalently when every chordless cycle satisfies

    weight(e) <= fold of the remaining cycle edges        (every edge e).

Completing a connected metric graph assigns every vertex pair its
distance, which extends the edge weights and yields a metric space with
distances inside R.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from . import _core
from ._core import sup_le
from .checks import CheckReport, VERDICT_EXHAUSTIVE, VERDICT_FAILED, check_associativity
from .errors import (
    CheckFailedError,
    DisconnectedError,
    EdgeExistsError,
    MembershipError,
    NotAWalkError,
    NotMetricError,
    ParameterError,
)
from .rationals import as_list, as_rational, rational_str
from .rset import RSet, scaled_with

ZERO = Fraction(0)


@lru_cache(maxsize=128)
def _associativity_report(rset: RSet) -> CheckReport:
    return check_associativity(rset)


def ensure_associative(rset: RSet) -> None:
    """Reject ground sets whose truncated sum fails the associativity
    check; folds over such sets would depend on grouping."""
    report = _associativity_report(rset)
    if not report.passed:
        raise CheckFailedError(
            "ground set fails the associativity check; witness "
            f"{report.witness}"
        )


class RGraph:
    """Simple undirected graph with weights in a distance set.

    The graph is its integer image: the weights are encoded once, with
    the ground set, as ints over one common denominator ``_den``, and
    ``_s``, ``_adj``, ``_los`` and ``_his`` are its whole state.  The
    searches and the completion run on that image; Fraction weights are
    decoded on access.
    """

    __slots__ = (
        "_ground", "_vertices", "_index", "_s", "_adj", "_den", "_los", "_his"
    )

    def __init__(self, ground_set: RSet, vertices: Sequence[str], edges: Iterable):
        if not ground_set.contains(0):
            raise ParameterError("the ground set must contain 0")
        try:
            vs = tuple(str(v) for v in as_list(vertices))
        except TypeError as exc:
            raise ParameterError(f"vertices must be a list: {vertices!r}") from exc
        if len(set(vs)) != len(vs):
            raise ParameterError("vertex ids must be unique")
        if not vs:
            raise ParameterError("a graph needs at least one vertex")
        self._ground = ground_set
        self._vertices = vs
        self._index = {v: i for i, v in enumerate(vs)}
        weights: dict[tuple[int, int], Fraction] = {}
        try:
            edges = as_list(edges)
        except TypeError as exc:
            raise ParameterError(f"edges must be a list: {edges!r}") from exc
        for item in edges:
            try:
                u, v, w = as_list(item)
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"an edge needs two endpoints and a weight: {item!r}"
                ) from exc
            self._add_edge(weights, u, v, as_rational(w))
        self._den, self._los, self._his, ints = scaled_with(
            ground_set, weights.values()
        )
        self._s = dict(zip(weights, ints))
        self._adj: list[list[tuple[int, int]]] = [[] for _ in vs]
        for (i, j), s in self._s.items():
            self._adj[i].append((j, s))
            self._adj[j].append((i, s))

    def _add_edge(self, weights: dict, u: str, v: str, w: Fraction) -> None:
        try:
            i, j = self._index[str(u)], self._index[str(v)]
        except KeyError as exc:
            raise ParameterError(f"unknown vertex in edge ({u}, {v})") from exc
        if i == j:
            raise ParameterError(f"loop at {u} not allowed")
        if i > j:
            i, j = j, i
        if (i, j) in weights:
            raise ParameterError(f"duplicate edge ({u}, {v})")
        if w <= 0:
            raise ParameterError(f"edge ({u}, {v}) must have positive weight")
        if not self._ground.contains(w):
            raise MembershipError(
                f"edge weight {w} is not a member of the ground set"
            )
        weights[(i, j)] = w

    # -- structure -------------------------------------------------------

    @property
    def ground_set(self) -> RSet:
        return self._ground

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    def edges(self) -> list[tuple[str, str, Fraction]]:
        value = {s: Fraction(s, self._den) for s in set(self._s.values())}
        vs = self._vertices
        return [(vs[i], vs[j], value[self._s[i, j]]) for i, j in sorted(self._s)]

    def edge_count(self) -> int:
        return len(self._s)

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self.index(u), self.index(v)
        return (min(i, j), max(i, j)) in self._s

    def weight(self, u: str, v: str) -> Fraction:
        i, j = self.index(u), self.index(v)
        try:
            return Fraction(self._s[min(i, j), max(i, j)], self._den)
        except KeyError as exc:
            raise ParameterError(f"({u}, {v}) is not an edge") from exc

    def with_edges(self, new_edges: Iterable) -> "RGraph":
        return RGraph(self._ground, self._vertices, [*self.edges(), *new_edges])

    def index(self, v: str) -> int:
        try:
            return self._index[str(v)]
        except KeyError as exc:
            raise ParameterError(f"unknown vertex {v!r}") from exc

    # -- components ------------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as lists of vertex indices, each
        ascending, ordered by smallest member."""
        seen = [False] * len(self._vertices)
        comps = []
        for start in range(len(self._vertices)):
            if seen[start]:
                continue
            comp = []
            stack = [start]
            seen[start] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for y, _ in self._adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def to_json_obj(self) -> dict:
        return {
            "set": self._ground.to_json_obj(),
            "vertices": list(self._vertices),
            "edges": [
                [u, v, rational_str(w)] for u, v, w in self.edges()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RGraph":
        if not isinstance(obj, dict) or "set" not in obj:
            raise ParameterError("graph JSON must carry 'set' and 'vertices'")
        ground = RSet.from_json_obj(obj["set"])
        return cls(ground, obj.get("vertices", []), obj.get("edges", []))

    def __repr__(self) -> str:
        return (
            f"RGraph(|V|={len(self._vertices)}, |E|={len(self._s)}, "
            f"ground={self._ground!r})"
        )


class FiniteMetricSpace:
    """Point set with an exact symmetric distance matrix inside a set.

    The space is the integer image of its matrix: a flat row-major list
    of ints ``_flat`` over one denominator ``_den``, a multiple of the
    ground set's, with the set's interval endpoints ``_los``/``_his``
    scaled to it.  Fraction distances are decoded on access, and
    :meth:`_int_rows` hands the image to the searches.  Input is checked
    where it enters: the constructor and :meth:`validate` check the metric
    axioms (kernel-assisted) and that every entry belongs to the ground
    set, on the image.  Spaces the library builds are metric by
    construction and enter unchecked through :meth:`_from_image`.
    """

    __slots__ = ("_ground", "_points", "_index", "_den", "_los", "_his", "_flat")

    def __init__(
        self,
        ground_set: RSet,
        points: Sequence[str],
        dist: Sequence[Sequence],
        validate: bool = True,
    ):
        self._set_points(points)
        n = len(self._points)
        try:
            dist = [as_list(row) for row in as_list(dist)]
            square = len(dist) == n and all(len(row) == n for row in dist)
        except TypeError:
            square = False
        if not square:
            raise ParameterError("distance matrix shape mismatch")
        self._ground = ground_set
        self._den, self._los, self._his, self._flat = scaled_with(
            ground_set, [as_rational(x) for row in dist for x in row]
        )
        if validate:
            self.validate()

    @classmethod
    def _from_image(cls, ground_set, points, image):
        """A space on the integer image ``(den, los, his, flat)``, trusted:
        only the library calls it, on a matrix it built to be metric over
        the ground set.  Only the point ids are checked."""
        self = cls.__new__(cls)
        self._set_points(points)
        self._ground = ground_set
        self._den, self._los, self._his, self._flat = image
        return self

    def _set_points(self, points) -> None:
        try:
            self._points = tuple(str(p) for p in as_list(points))
        except TypeError as exc:
            raise ParameterError(f"points must be a list: {points!r}") from exc
        if len(set(self._points)) != len(self._points):
            raise ParameterError("point ids must be unique")
        self._index = {p: i for i, p in enumerate(self._points)}

    def validate(self) -> None:
        if not self._ground.contains(0):
            raise ParameterError("the ground set must contain 0")
        n, flat = len(self._points), self._flat
        bad = _core.validate_metric(n, flat)
        if bad is not None:
            kind, *where = bad
            names = {
                "diag": "nonzero diagonal",
                "sym": "asymmetric entries",
                "pos": "non-positive off-diagonal distance",
                "tri": "triangle inequality violated",
            }
            raise ParameterError(
                f"{names[kind]} at {tuple(self._points[w] for w in where)}"
            )
        los, his = self._los, self._his
        for i in range(n):
            for j in range(i + 1, n):
                s = flat[i * n + j]
                if sup_le(los, his, s) != s:
                    raise MembershipError(
                        f"distance {Fraction(s, self._den)} between "
                        f"{self._points[i]} and {self._points[j]} is not "
                        "a member of the ground set"
                    )

    # -- access ------------------------------------------------------------

    @property
    def ground_set(self) -> RSet:
        return self._ground

    @property
    def points(self) -> tuple[str, ...]:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def index(self, p: str) -> int:
        try:
            return self._index[str(p)]
        except KeyError as exc:
            raise ParameterError(f"unknown point {p!r}") from exc

    def dist(self, p: str, q: str) -> Fraction:
        return self.dist_by_index(self.index(p), self.index(q))

    def dist_by_index(self, i: int, j: int) -> Fraction:
        at = range(len(self._points))  # list indexing: negatives, IndexError
        return Fraction(self._flat[at[i] * len(at) + at[j]], self._den)

    def matrix(self) -> list[list[Fraction]]:
        value = {s: Fraction(s, self._den) for s in set(self._flat)}
        return [[value[s] for s in row] for row in self._int_rows()]

    def realized_distances(self) -> set[Fraction]:
        rows = self._int_rows()
        upper = {s for i, row in enumerate(rows) for s in row[i + 1 :]}
        return {Fraction(s, self._den) for s in upper} | ({ZERO} if rows else set())

    def _int_rows(self, den: int | None = None) -> list[list[int]]:
        """Rows of the integer image, rescaled to ``den`` (a multiple of
        the space's own denominator; default the space's own)."""
        n, f = len(self._points), 1 if den is None else den // self._den
        flat = self._flat if f == 1 else [v * f for v in self._flat]
        return [flat[i * n : i * n + n] for i in range(n)]

    def subspace(self, keep: Sequence[str]) -> "FiniteMetricSpace":
        idx = [self.index(p) for p in keep]
        n, flat = len(self._points), self._flat
        sub = [flat[i * n + j] for i in idx for j in idx]
        return FiniteMetricSpace._from_image(
            self._ground,
            [self._points[i] for i in idx],
            (self._den, self._los, self._his, sub),
        )

    def _edges(self) -> list[tuple[str, str, Fraction]]:
        """Every pair of points with its distance, in index order."""
        pts, d, n = self._points, self.matrix(), len(self._points)
        return [(pts[i], pts[j], d[i][j]) for i in range(n) for j in range(i + 1, n)]

    def as_rgraph(self) -> RGraph:
        return RGraph(self._ground, self._points, self._edges())

    def to_json_obj(self) -> dict:
        return {
            "set": self._ground.to_json_obj(),
            "points": list(self._points),
            "dist": [[rational_str(x) for x in row] for row in self.matrix()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FiniteMetricSpace":
        if not isinstance(obj, dict) or "set" not in obj:
            raise ParameterError("space JSON must carry 'set' and 'points'")
        ground = RSet.from_json_obj(obj["set"])
        return cls(ground, obj.get("points", []), obj.get("dist", []))

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(|M|={len(self._points)}, ground={self._ground!r})"


# -- walks and distances ---------------------------------------------------


def walk_weight(graph: RGraph, walk: Sequence[str]) -> Fraction:
    """Truncated-sum fold of the edge weights along a walk.

    A single-vertex walk has weight 0.  Grouping independence of the fold
    requires the ground set to pass the associativity check.
    """
    if not walk:
        raise NotAWalkError("a walk needs at least one vertex")
    ids = [str(v) for v in walk]
    for v in ids:
        if v not in graph._index:
            raise NotAWalkError(f"unknown vertex {v!r}")
    if len(ids) == 1:
        return ZERO
    weights = []
    for u, v in zip(ids, ids[1:]):
        if not graph.has_edge(u, v):
            raise NotAWalkError(f"({u}, {v}) is not an edge")
        weights.append(graph.weight(u, v))
    return graph.ground_set.oplus_fold(weights)


def _sssp(graph: RGraph, src: int):
    """Label-setting single-source distances (and predecessor trees), as
    ints over the graph's denominator.

    Valid because extending a walk never decreases its weight and the
    truncated sum is monotone in each argument.
    """
    n = len(graph.vertices)
    dist: list[int | None] = [None] * n
    pred: list[int | None] = [None] * n
    dist[src] = 0
    heap: list[tuple[int, int]] = [(0, src)]
    done = [False] * n
    los, his = graph._los, graph._his
    while heap:
        d, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        for y, w in graph._adj[x]:
            if done[y]:
                continue
            nd = sup_le(los, his, d + w)
            if dist[y] is None or nd < dist[y]:
                dist[y] = nd
                pred[y] = x
                heapq.heappush(heap, (nd, y))
    return dist, pred


def distance(graph: RGraph, a: str, b: str) -> Fraction:
    """Minimum truncated-sum weight over all walks from a to b."""
    ensure_associative(graph.ground_set)
    i, j = graph.index(str(a)), graph.index(str(b))
    dist, _ = _sssp(graph, i)
    if dist[j] is None:
        raise DisconnectedError(f"no walk joins {a} and {b}")
    return Fraction(dist[j], graph._den)


def _walk_to(pred, j) -> list[int]:
    path = [j]
    while pred[path[-1]] is not None:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def is_metric(graph: RGraph) -> CheckReport:
    """Check that every edge realizes the distance of its endpoints.

    A failure is witnessed by the offending edge and a strictly lighter
    trail between its endpoints.
    """
    ensure_associative(graph.ground_set)
    dists = {}
    preds = {}
    for (i, j) in sorted(graph._s):
        if i not in dists:
            dists[i], preds[i] = _sssp(graph, i)
        d = dists[i][j]
        if d != graph._s[(i, j)]:
            trail = [graph.vertices[t] for t in _walk_to(preds[i], j)]
            return CheckReport(
                check="metric-graph",
                verdict=VERDICT_FAILED,
                witness={
                    "edge": [graph.vertices[i], graph.vertices[j]],
                    "trail": trail,
                },
                lhs=Fraction(graph._s[(i, j)], graph._den),
                rhs=Fraction(d, graph._den),
            )
    return CheckReport(check="metric-graph", verdict=VERDICT_EXHAUSTIVE)


def is_regular(graph: RGraph) -> bool:
    """Every finite graph with positive weights is regular: any walk
    between distinct vertices folds to at least one positive weight.
    Provided for contract completeness."""
    return all(s > 0 for s in graph._s.values())


@dataclass(frozen=True)
class CycleWitness:
    """A chordless cycle violating the metric cycle condition."""

    vertices: tuple[str, ...]
    edge: tuple[str, str]
    edge_weight: Fraction
    rest_weight: Fraction


def _chordless_cycles(graph: RGraph, max_len: int):
    """Chordless cycles (vertex index tuples) of length 3..max_len.

    Each cycle is produced once, rooted at its smallest vertex with its
    second vertex smaller than its last.
    """
    n = len(graph.vertices)
    adj = [set() for _ in range(n)]
    for (i, j) in graph._s:
        adj[i].add(j)
        adj[j].add(i)
    for root in range(n):
        stack = [[root, v] for v in sorted(adj[root]) if v > root]
        while stack:
            path = stack.pop()
            last = path[-1]
            for w in sorted(adj[last]):
                if w <= root or w in path:
                    continue
                if w in adj[root]:
                    # closing edge exists: the cycle is chordless iff w
                    # sees nothing on the path besides last and root;
                    # extending past w would leave the chord (w, root)
                    if len(path) + 1 <= max_len and path[1] < w:
                        if all(w not in adj[p] for p in path[1:-1]):
                            yield tuple(path) + (w,)
                    continue
                if len(path) + 1 < max_len:
                    if all(w not in adj[p] for p in path[:-1]):
                        stack.append(path + [w])


def find_nonmetric_cycle(graph: RGraph, max_len: int) -> CycleWitness | None:
    """Search chordless cycles up to ``max_len`` for one violating the
    cycle condition; None means no violation up to that length (the
    graph may still hide longer violations past the cap)."""
    ensure_associative(graph.ground_set)
    if max_len < 3:
        return None
    los, his, den = graph._los, graph._his, graph._den
    for cycle in _chordless_cycles(graph, max_len):
        k = len(cycle)
        steps = list(zip(cycle, cycle[1:] + cycle[:1]))
        weights = [graph._s[min(u, v), max(u, v)] for u, v in steps]
        for t in range(k):
            rest = weights[t + 1 :] + weights[:t]
            # left fold of the truncated sum, as RSet.oplus_fold
            folded = reduce(lambda acc, w: sup_le(los, his, acc + w), rest)
            if weights[t] > folded:
                return CycleWitness(
                    vertices=tuple(graph.vertices[c] for c in cycle),
                    edge=tuple(graph.vertices[c] for c in steps[t]),
                    edge_weight=Fraction(weights[t], den),
                    rest_weight=Fraction(folded, den),
                )
    return None


def connect(graph: RGraph, r) -> RGraph:
    """Join the connected components by a clique of weight r on one
    representative per component (the smallest vertex of each)."""
    rr = as_rational(r)
    if rr <= 0 or not graph.ground_set.contains(rr):
        raise ParameterError(
            f"connection weight {rr} must be a positive member of the set"
        )
    report = is_metric(graph)
    if not report.passed:
        raise ParameterError("graph must be metric before connecting")
    comps = graph.components()
    if len(comps) <= 1:
        return graph
    reps = [comp[0] for comp in comps]
    new_edges = []
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            new_edges.append(
                (graph.vertices[reps[a]], graph.vertices[reps[b]], rr)
            )
    return graph.with_edges(new_edges)


def add_shortcut(graph: RGraph, a: str, b: str) -> RGraph:
    """Insert the edge {a, b} carrying the current distance d(a, b); all
    pairwise distances are preserved."""
    u, v = str(a), str(b)
    if u == v:
        raise ParameterError("shortcut endpoints must differ")
    if graph.has_edge(u, v):
        raise EdgeExistsError(f"({u}, {v}) is already an edge")
    report = is_metric(graph)
    if not report.passed:
        raise ParameterError("graph must be metric before adding shortcuts")
    d = distance(graph, u, v)
    return graph.with_edges([(u, v, d)])


def complete_to_metric_space(graph: RGraph) -> FiniteMetricSpace:
    """All-pairs closure of a connected metric graph.

    The result restricts to the edge weights and every entry is a member
    of the ground set (each distance is a fold of edge weights).
    """
    if not graph.is_connected():
        raise DisconnectedError("completion needs a connected graph")
    ensure_associative(graph.ground_set)

    n = len(graph.vertices)
    flat = [-1] * (n * n)
    for i in range(n):
        flat[i * n + i] = 0
    for (i, j), s in graph._s.items():
        flat[i * n + j] = s
        flat[j * n + i] = s
    _core.all_pairs_completion(n, flat, graph._los, graph._his)

    for (i, j), s in graph._s.items():
        if flat[i * n + j] != s:
            raise NotMetricError(
                f"edge ({graph.vertices[i]}, {graph.vertices[j]}) of weight "
                f"{Fraction(s, graph._den)} is beaten by a walk of weight "
                f"{Fraction(flat[i * n + j], graph._den)}"
            )
    image = (graph._den, graph._los, graph._his, flat)
    space = FiniteMetricSpace._from_image(graph.ground_set, graph.vertices, image)
    # the one re-check of a built output: a PassedHeuristic ground set may
    # not be associative, and then the closure need not be metric
    space.validate()
    return space
