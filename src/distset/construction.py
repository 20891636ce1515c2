"""Bridging two finite metric spaces and planting copies of one near
every self-copy of the other.

Given spaces U (enumerated u_0..u_{N-1}) and V (points v_i for i in an
index set I) over a common distance set, with every paired distance gap
|d_U(u_i, u_j) - d_V(v_i, v_j)| at most r, the pipeline runs:

* bridge graph: complete copies of U and V plus the pairing edges
  {u_i, v_i} of weight r.  Every chordless cycle is a triangle inside
  U or V or a pairing 4-cycle, which the gap bound makes metric.
* companion space W: complete the bridge graph and read off the points
  w_i = v_i (i in I) else u_i; then |d_U(u_i, u_j) - d_W(w_i, w_j)| <= r
  for all pairs.
* node tree: all order-preserving injections of initial segments of the
  enumeration of U into U that act isometrically, ordered by extension;
  comparable nodes at levels n < m are joined with weight d_W(w_n, w_m),
  so every branch is a partial isometric copy of W.
* graph H: the tree plus complete U plus an anchor edge of weight r from
  each node to the image of its last index.  Comparable nodes keep their
  weight within r of the distance of their anchors, H is metric, and its
  completion L contains U isometrically.
* nearby copy: an order-preserving isometric self-embedding of U picks
  out a branch; its nodes at levels in I form a copy of (the truncated)
  V, each node at distance exactly r from the embedded copy of U.

Everything is truncated at an explicit depth: levels above ``depth`` are
never generated, and results are only claimed for the generated part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetError,
    HypothesisError,
    MetricityError,
    NotAnEmbeddingError,
    NotMetricError,
    ParameterError,
)
from .rationals import as_int, as_rational, is_int, rational_str
from .rgraph import FiniteMetricSpace, RGraph, complete_to_metric_space
from .rset import RSet


@dataclass(frozen=True)
class BridgeInput:
    """Two spaces to be bridged within r.

    ``index_map[k]`` is the enumeration index i < len(U) of V's k-th
    point, so V = {v_i : i in index_map}.  Requires disjoint point ids,
    distances of both spaces inside the ground set, and the pairing gap
    bound |d_U(u_i, u_j) - d_V(v_i, v_j)| <= r for all i, j in the index
    set.
    """

    ground_set: RSet
    space_u: FiniteMetricSpace
    space_v: FiniteMetricSpace
    index_map: tuple[int, ...]
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", as_rational(self.r))
        try:
            index_map = tuple(self.index_map)
        except TypeError as exc:
            raise ParameterError("index map must be a list of indices") from exc
        if not all(map(is_int, index_map)):
            raise ParameterError(f"index map entries must be integers: {index_map}")
        object.__setattr__(self, "index_map", index_map)
        n = len(self.space_u.points)
        if len(self.index_map) != len(self.space_v.points):
            raise ParameterError("index map must enumerate all points of V")
        if len(set(self.index_map)) != len(self.index_map):
            raise ParameterError("index map must be injective")
        if any(not 0 <= i < n for i in self.index_map):
            raise ParameterError("index map entries must be indices into U")
        if set(self.space_u.points) & set(self.space_v.points):
            raise ParameterError("U and V must use disjoint point ids")
        if self.r <= 0 or not self.ground_set.contains(self.r):
            raise ParameterError(
                f"r = {self.r} must be a positive member of the ground set"
            )
        for space in (self.space_u, self.space_v):
            for d in space.realized_distances():
                if not self.ground_set.contains(d):
                    raise ParameterError(
                        f"distance {d} lies outside the ground set"
                    )
        for a, b in itertools.combinations(range(len(self.index_map)), 2):
            du = self.space_u.dist_by_index(
                self.index_map[a], self.index_map[b]
            )
            dv = self.space_v.dist_by_index(a, b)
            if abs(du - dv) > self.r:
                raise HypothesisError(
                    f"paired distances {du} and {dv} differ by more than "
                    f"r = {self.r}"
                )

    def v_point(self, i: int) -> str:
        """V's point paired with enumeration index i."""
        return self.space_v.points[self.index_map.index(i)]

    def to_json_obj(self) -> dict:
        return {
            "set": self.ground_set.to_json_obj(),
            "U": self.space_u.to_json_obj(),
            "V": self.space_v.to_json_obj(),
            "I": list(self.index_map),
            "r": rational_str(self.r),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BridgeInput":
        if not isinstance(obj, dict) or any(
            key not in obj for key in ("set", "U", "V")
        ):
            raise ParameterError("bridge JSON must carry 'set', 'U', 'V'")
        if "r" not in obj:
            raise ParameterError("bridge JSON must carry 'r'")
        ground = RSet.from_json_obj(obj["set"])
        return cls(
            ground_set=ground,
            space_u=FiniteMetricSpace.from_json_obj(obj["U"]),
            space_v=FiniteMetricSpace.from_json_obj(obj["V"]),
            index_map=obj.get("I", []),
            r=as_rational(obj["r"]),
        )


def build_bridge_graph(bridge: BridgeInput) -> RGraph:
    """Complete U and V plus the pairing edges of weight r."""
    u, v = bridge.space_u, bridge.space_v
    vertices = list(u.points) + list(v.points)
    edges = u._edges() + v._edges()
    for i in bridge.index_map:
        edges.append((u.points[i], bridge.v_point(i), bridge.r))
    return RGraph(bridge.ground_set, vertices, edges)


def derive_companion_W(bridge: BridgeInput) -> FiniteMetricSpace:
    """Companion space on fresh points w_0..w_{N-1}.

    w_i stands for v_i where paired and u_i otherwise; distances come
    from the completed bridge graph, so the all-pairs gap bound
    |d_U(u_i, u_j) - d_W(w_i, w_j)| <= r holds (each pairing edge keeps
    u_i within r of its partner).  The bound is checked here; W is the
    subspace of the validated completion, relabelled, so it is metric.
    """
    completed = complete_to_metric_space(build_bridge_graph(bridge))
    u = bridge.space_u
    n = len(u.points)
    rep = [
        bridge.v_point(i) if i in bridge.index_map else u.points[i]
        for i in range(n)
    ]
    sub = completed.subspace(rep)
    d, du = sub.matrix(), u.matrix()
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(du[i][j] - d[i][j])
            if gap > bridge.r:
                raise MetricityError(
                    f"companion distance gap {gap} exceeds r at ({i}, {j})"
                )
    points = [f"w{i}" for i in range(n)]
    image = (sub._den, sub._los, sub._his, sub._flat)
    return FiniteMetricSpace._from_image(bridge.ground_set, points, image)


@dataclass(frozen=True)
class TreeNode:
    """An order-preserving isometric injection of an initial segment.

    ``mapping[k]`` is the image index of u_k; ``level`` is the last
    domain index; ``anchor`` the image point of that last index.
    """

    mapping: tuple[int, ...]
    level: int
    anchor: str

    @property
    def node_id(self) -> str:
        return _node_id(self.mapping)


def _node_id(mapping: Sequence[int]) -> str:
    return "t" + ".".join(str(i) for i in mapping)


def _check_depth(bridge: BridgeInput, depth: int) -> None:
    """ParameterError unless ``depth`` is an int in 1..len(U)."""
    n_points = len(bridge.space_u.points)
    if not 1 <= as_int(depth, "depth") <= n_points:
        raise ParameterError(
            f"depth must lie in 1..{n_points} (points of U), got {depth}"
        )


def build_tree(
    bridge: BridgeInput,
    companion: FiniteMetricSpace,
    depth: int,
    node_budget: int = 20000,
) -> tuple[list[TreeNode], RGraph]:
    """All nodes of level < depth and the extension-ordered graph.

    Nodes at levels n < m that extend one another are joined with weight
    d_W(w_n, w_m).  Raises BudgetError when the node count would exceed
    ``node_budget`` (the tree grows combinatorially with repetitive U).
    """
    u = bridge.space_u
    n_points = len(u.points)
    _check_depth(bridge, depth)
    if len(companion.points) != n_points:
        raise ParameterError("companion space must have one point per index")

    levels: list[list[tuple[int, ...]]] = [
        [(t,) for t in range(n_points)]
    ]
    total = n_points
    rows = u._int_rows()
    for level in range(1, depth):
        prev = levels[level - 1]
        cur = []
        for alpha in prev:
            for t in range(alpha[-1] + 1, n_points):
                if all(rows[img][t] == rows[i][level] for i, img in enumerate(alpha)):
                    cur.append(alpha + (t,))
        total += len(cur)
        if total > node_budget:
            raise BudgetError(
                f"tree exceeds the node budget {node_budget} at level {level}"
            )
        levels.append(cur)

    nodes = [
        TreeNode(
            mapping=alpha,
            level=len(alpha) - 1,
            anchor=u.points[alpha[-1]],
        )
        for tier in levels
        for alpha in tier
    ]
    by_mapping = {node.mapping: node for node in nodes}
    w = companion.matrix()
    edges = []
    for node in nodes:
        for shorter in range(1, len(node.mapping)):
            parent = by_mapping[node.mapping[:shorter]]
            edges.append((parent.node_id, node.node_id, w[parent.level][node.level]))
    graph = RGraph(
        bridge.ground_set, [node.node_id for node in nodes], edges
    )
    return nodes, graph


def maximal_branch_lengths(nodes: Sequence[TreeNode]) -> list[int]:
    """Lengths (node counts) of the maximal branches of the node tree.

    At finite depth a branch may stall before the depth cap when its
    segment admits no further order-preserving extension; callers should
    inspect rather than assume full length.
    """
    mappings = {node.mapping for node in nodes}
    extendable = set()
    for m in mappings:
        if len(m) > 1:
            extendable.add(m[:-1])
    return sorted(
        len(m) for m in mappings if m not in extendable
    )


def build_H_and_L(
    bridge: BridgeInput, depth: int, node_budget: int = 20000
) -> tuple[RGraph, FiniteMetricSpace]:
    """Assemble the anchored graph H and its completion L.

    H is the node tree plus the complete U plus one anchor edge of
    weight r per node.  A tree edge of a branch beta between levels
    n < m weighs d_W(w_n, w_m), which the companion's gap check keeps
    within r of d_U(u_n, u_m) = d_U(u_beta(n), u_beta(m)) (build_tree's
    isometry filter), so the anchor bound holds without a check.  H's
    completion checks that it keeps every edge, so L restricted to U is
    U; a failure raises MetricityError, since the construction
    guarantees it.
    """
    u = bridge.space_u
    companion = derive_companion_W(bridge)
    nodes, tree = build_tree(bridge, companion, depth, node_budget)

    anchor = {node.node_id: node.anchor for node in nodes}
    if anchor.keys() & set(u.points):
        raise ParameterError("point ids of U collide with tree node ids")

    vertices = list(anchor) + list(u.points)
    edges = tree.edges() + u._edges()
    edges += [(node.node_id, node.anchor, bridge.r) for node in nodes]
    graph_h = RGraph(bridge.ground_set, vertices, edges)

    try:
        space_l = complete_to_metric_space(graph_h)
    except NotMetricError as exc:
        raise MetricityError(f"anchored graph is not metric: {exc}") from exc
    return graph_h, space_l


@dataclass(frozen=True)
class NearbyCopy:
    """A copy of (the truncated) V riding along an embedded copy of U.

    ``node_of_index[i]`` is the point of L standing for v_i; each such
    point sits at distance exactly r from ``anchor_of_index[i]``, a point
    of the embedded copy of U.
    """

    node_of_index: dict[int, str]
    anchor_of_index: dict[int, str]
    r: Fraction

    @property
    def points(self) -> tuple[str, ...]:
        return tuple(self.node_of_index[i] for i in sorted(self.node_of_index))

    def to_json_obj(self) -> dict:
        return {
            "points": {
                str(i): self.node_of_index[i] for i in sorted(self.node_of_index)
            },
            "anchors": {
                str(i): self.anchor_of_index[i]
                for i in sorted(self.anchor_of_index)
            },
            "r": rational_str(self.r),
        }


def find_nearby_copy(
    space_l: FiniteMetricSpace,
    embedding: Sequence[int],
    bridge: BridgeInput,
    depth: int,
) -> NearbyCopy:
    """Extract the copy of V determined by a self-embedding of U.

    ``embedding`` lists the image indices of u_0, u_1, ... (at least
    ``depth`` of them, and ``depth`` lies in 1..len(U), else
    ParameterError) and must be strictly increasing and isometric on
    the first ``depth`` indices, else NotAnEmbeddingError.  The branch
    nodes of the embedding at levels in the index set form the copy;
    the copy's internal distances match V and every point is at distance
    exactly r from the image of U.
    """
    _check_depth(bridge, depth)
    u = bridge.space_u
    emb = tuple(as_int(i, "embedding index", NotAnEmbeddingError) for i in embedding)
    if len(emb) < depth:
        raise NotAnEmbeddingError(
            f"embedding must cover the first {depth} indices"
        )
    emb = emb[:depth]
    n_points = len(u.points)
    if any(not 0 <= i < n_points for i in emb):
        raise NotAnEmbeddingError("embedding indices out of range")
    if any(emb[a] >= emb[a + 1] for a in range(len(emb) - 1)):
        raise NotAnEmbeddingError("embedding must be strictly increasing")
    rows = u._int_rows()
    for a in range(depth):
        for b in range(a + 1, depth):
            if rows[emb[a]][emb[b]] != rows[a][b]:
                raise NotAnEmbeddingError(
                    f"map is not isometric on indices ({a}, {b})"
                )

    levels = [i for i in bridge.index_map if i < depth]
    node_of_index: dict[int, str] = {}
    anchor_of_index: dict[int, str] = {}
    for i in sorted(levels):
        node_id = _node_id(emb[: i + 1])
        space_l.index(node_id)  # raises for unknown points
        node_of_index[i] = node_id
        anchor_of_index[i] = u.points[emb[i]]

    for i in node_of_index:
        for j in node_of_index:
            if i < j:
                got = space_l.dist(node_of_index[i], node_of_index[j])
                want = bridge.space_v.dist(
                    bridge.v_point(i), bridge.v_point(j)
                )
                if got != want:
                    raise MetricityError(
                        f"branch copy distance {got} differs from V's {want}"
                    )
    for i, node_id in node_of_index.items():
        if space_l.dist(node_id, anchor_of_index[i]) > bridge.r:
            raise MetricityError(
                "branch point strays farther than r from the embedded copy"
            )
    return NearbyCopy(
        node_of_index=node_of_index,
        anchor_of_index=anchor_of_index,
        r=bridge.r,
    )
