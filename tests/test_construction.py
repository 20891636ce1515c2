import itertools
import random
from fractions import Fraction as F

import pytest

from distset import (
    BridgeInput,
    BudgetError,
    FiniteMetricSpace,
    HypothesisError,
    MetricityError,
    NotAnEmbeddingError,
    NotMetricError,
    ParameterError,
    build_bridge_graph,
    build_H_and_L,
    build_tree,
    derive_companion_W,
    find_nearby_copy,
    is_metric,
    maximal_branch_lengths,
)
from distset import RSet, construction
from conftest import random_metric_space

HALVES = RSet([0, F(1, 2), 1, F(3, 2), 2])


def seeded_bridges(seed, count):
    """Bridges whose V moves each paired distance of U by at most r, over
    RSet([0, 1, 2, 3]) and ``HALVES``: gaps of 0, below r and equal to r."""
    rng = random.Random(seed)
    bridges = []
    while len(bridges) < count:
        ground = rng.choice([RSet([0, 1, 2, 3]), HALVES])
        positive = [v for v in ground.points() if v > 0]
        n = rng.randint(2, 5)
        space_u = random_metric_space(rng, ground, n, prefix="u")
        idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        r = rng.choice(positive)
        d = space_u.subspace([space_u.points[i] for i in idx]).matrix()
        for a, b in itertools.combinations(range(len(idx)), 2):
            d[a][b] = d[b][a] = rng.choice(
                [v for v in positive if abs(v - d[a][b]) <= r]
            )
        try:
            space_v = FiniteMetricSpace(ground, [f"v{i}" for i in idx], d)
        except ParameterError:
            continue  # the moved distances break a triangle
        bridges.append(BridgeInput(ground, space_u, space_v, idx, r))
    return bridges


def gaps(bridge):
    """The paired distance gaps |d_U(u_i, u_j) - d_V(v_i, v_j)|."""
    return [
        abs(
            bridge.space_u.dist_by_index(bridge.index_map[a], bridge.index_map[b])
            - bridge.space_v.dist_by_index(a, b)
        )
        for a, b in itertools.combinations(range(len(bridge.index_map)), 2)
    ]


class TestBridgeInput:
    def test_gap_bound_enforced(self, ground_0123):
        space_u = FiniteMetricSpace(
            ground_0123, ["u0", "u1"], [[0, 3], [3, 0]]
        )
        space_v = FiniteMetricSpace(
            ground_0123, ["v0", "v1"], [[0, 1], [1, 0]]
        )
        with pytest.raises(HypothesisError):
            BridgeInput(
                ground_set=ground_0123,
                space_u=space_u,
                space_v=space_v,
                index_map=(0, 1),
                r=F(1),
            )

    def test_boundary_gap_accepted(self, ground_0123):
        # |3 - 2| = 1 = r is inclusive
        space_u = FiniteMetricSpace(
            ground_0123, ["u0", "u1"], [[0, 3], [3, 0]]
        )
        space_v = FiniteMetricSpace(
            ground_0123, ["v0", "v1"], [[0, 2], [2, 0]]
        )
        bridge = BridgeInput(
            ground_set=ground_0123,
            space_u=space_u,
            space_v=space_v,
            index_map=(0, 1),
            r=F(1),
        )
        assert is_metric(build_bridge_graph(bridge)).passed

    def test_json_round_trip(self, desk_bridge):
        obj = desk_bridge.to_json_obj()
        assert BridgeInput.from_json_obj(obj).to_json_obj() == obj


class TestBridgeGraph:
    def test_desk_shape(self, desk_bridge):
        g = build_bridge_graph(desk_bridge)
        assert len(g.vertices) == 5
        assert g.edge_count() == 6
        assert g.weight("u0", "v0") == F(1)
        assert g.weight("u1", "v1") == F(1)
        assert is_metric(g).passed

    def test_empty_pairing(self, ground_0123):
        space_u = FiniteMetricSpace(
            ground_0123, ["u0", "u1"], [[0, 1], [1, 0]]
        )
        space_v = FiniteMetricSpace(ground_0123, [], [])
        bridge = BridgeInput(
            ground_set=ground_0123,
            space_u=space_u,
            space_v=space_v,
            index_map=(),
            r=F(1),
        )
        g = build_bridge_graph(bridge)
        assert len(g.vertices) == 2 and g.edge_count() == 1


class TestCompanion:
    def test_desk_values(self, desk_bridge):
        w = derive_companion_W(desk_bridge)
        assert w.points == ("w0", "w1", "w2")
        assert w.dist("w0", "w1") == F(2)
        assert w.dist("w0", "w2") == F(3)
        assert w.dist("w1", "w2") == F(3)

    def test_desk_bound(self, desk_bridge):
        w = derive_companion_W(desk_bridge)
        u = desk_bridge.space_u
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(u.dist_by_index(i, j) - w.dist_by_index(i, j))
                assert gap <= desk_bridge.r

    def test_full_pairing_returns_v(self, ground_0123):
        space_u = FiniteMetricSpace(
            ground_0123, ["u0", "u1"], [[0, 1], [1, 0]]
        )
        space_v = FiniteMetricSpace(
            ground_0123, ["v0", "v1"], [[0, 1], [1, 0]]
        )
        bridge = BridgeInput(
            ground_set=ground_0123,
            space_u=space_u,
            space_v=space_v,
            index_map=(0, 1),
            r=F(2),
        )
        w = derive_companion_W(bridge)
        assert w.dist("w0", "w1") == space_v.dist("v0", "v1")

    def test_random_bound(self, ground_0123):
        # V the paired subspace of U (gap 0), then V moved within r (gaps
        # of 0, below r and equal to r); W is built unvalidated, so it
        # must also pass validate()
        rng = random.Random(13)
        bridges = seeded_bridges(29, 25)
        for _ in range(15):
            n = rng.randint(2, 5)
            space_u = random_metric_space(rng, ground_0123, n, prefix="u")
            size = rng.randint(0, n)
            idx = tuple(sorted(rng.sample(range(n), size)))
            sub = space_u.subspace([space_u.points[i] for i in idx])
            space_v = FiniteMetricSpace(
                ground_0123,
                [f"v{i}" for i in idx],
                sub.matrix(),
                validate=False,
            )
            bridges.append(BridgeInput(
                ground_set=ground_0123,
                space_u=space_u,
                space_v=space_v,
                index_map=idx,
                r=F(1),
            ))
        for bridge in bridges:
            w = derive_companion_W(bridge)
            w.validate()
            u = bridge.space_u
            for i, j in itertools.combinations(range(len(u.points)), 2):
                gap = abs(u.dist_by_index(i, j) - w.dist_by_index(i, j))
                assert gap <= bridge.r
        found = [(g, b.r) for b in bridges for g in gaps(b)]
        assert any(g == 0 for g, _ in found)
        assert any(0 < g < r for g, r in found)
        assert any(g == r for g, r in found)


class TestTree:
    def test_depth_one_is_all_singletons(self, desk_bridge):
        companion = derive_companion_W(desk_bridge)
        nodes, tree = build_tree(desk_bridge, companion, 1)
        assert [n.node_id for n in nodes] == ["t0", "t1", "t2"]
        assert tree.edge_count() == 0

    def test_desk_depth_two(self, desk_bridge):
        companion = derive_companion_W(desk_bridge)
        nodes, tree = build_tree(desk_bridge, companion, 2)
        ids = {n.node_id for n in nodes}
        # only (0,1) extends: d(u0,u1)=1 is required and unique
        assert ids == {"t0", "t1", "t2", "t0.1"}
        assert tree.weight("t0", "t0.1") == companion.dist("w0", "w1")

    def test_desk_depth_three_identity_chain(self, desk_bridge):
        companion = derive_companion_W(desk_bridge)
        nodes, tree = build_tree(desk_bridge, companion, 3)
        ids = {n.node_id for n in nodes}
        assert "t0.1.2" in ids
        assert tree.weight("t0", "t0.1.2") == companion.dist("w0", "w2")
        assert tree.weight("t0.1", "t0.1.2") == companion.dist("w1", "w2")
        assert maximal_branch_lengths(nodes) == [1, 1, 3]

    def test_branches_copy_companion_distances(self, desk_bridge):
        companion = derive_companion_W(desk_bridge)
        nodes, tree = build_tree(desk_bridge, companion, 3)
        by_id = {n.node_id: n for n in nodes}
        chain = ["t0", "t0.1", "t0.1.2"]
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                assert tree.weight(chain[a], chain[b]) == companion.dist_by_index(
                    by_id[chain[a]].level, by_id[chain[b]].level
                )


class TestTreeBudget:
    def test_combinatorial_tree_hits_budget(self, ground_0123):
        n = 7
        pts = [f"u{i}" for i in range(n)]
        ones = [
            [0 if i == j else 1 for j in range(n)] for i in range(n)
        ]
        space_u = FiniteMetricSpace(ground_0123, pts, ones)
        space_v = FiniteMetricSpace(ground_0123, ["v0"], [[0]])
        bridge = BridgeInput(
            ground_set=ground_0123,
            space_u=space_u,
            space_v=space_v,
            index_map=(0,),
            r=F(1),
        )
        companion = derive_companion_W(bridge)
        with pytest.raises(BudgetError):
            build_tree(bridge, companion, n, node_budget=10)
        nodes, _ = build_tree(bridge, companion, n, node_budget=10000)
        assert len(nodes) == 2**n - 1  # every increasing tuple qualifies


class TestHAndL:
    def test_desk_pipeline(self, desk_bridge):
        graph_h, space_l = build_H_and_L(desk_bridge, 3)
        assert is_metric(graph_h).passed
        u = desk_bridge.space_u
        for i, p in enumerate(u.points):
            for j in range(i + 1, len(u.points)):
                assert space_l.dist(p, u.points[j]) == u.dist_by_index(i, j)
        # L is not re-checked against U: on seeded bridges it passes
        # validate() and restricts to U exactly
        for bridge in seeded_bridges(31, 12):
            u = bridge.space_u
            for depth in range(1, min(3, len(u.points)) + 1):
                graph_h, space_l = build_H_and_L(bridge, depth)
                assert is_metric(graph_h).passed
                space_l.validate()
                assert space_l.subspace(u.points).matrix() == u.matrix()

    def test_depth_one_star(self, desk_bridge):
        graph_h, space_l = build_H_and_L(desk_bridge, 1)
        for node in ("t0", "t1", "t2"):
            assert space_l.dist(node, f"u{node[1]}") == desk_bridge.r

    def test_anchor_gap_bound_on_comparable_nodes(self, desk_bridge):
        graph_h, _ = build_H_and_L(desk_bridge, 3)
        u = desk_bridge.space_u
        chain = [("t0", "u0"), ("t0.1", "u1"), ("t0.1.2", "u2")]
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                na, ua = chain[a]
                nb, ub = chain[b]
                gap = abs(graph_h.weight(na, nb) - u.dist(ua, ub))
                assert gap <= desk_bridge.r
        # the bound is not re-checked by build_H_and_L: it holds on every
        # tree edge of seeded bridges, gaps below r among them
        for bridge in [desk_bridge, *seeded_bridges(31, 12)]:
            u = bridge.space_u
            for depth in range(1, min(3, len(u.points)) + 1):
                graph_h, _ = build_H_and_L(bridge, depth)
                nodes = set(graph_h.vertices) - set(u.points)
                for a, b, weight in graph_h.edges():
                    if a in nodes and b in nodes:
                        anchor_a = u.points[int(a.split(".")[-1].lstrip("t"))]
                        anchor_b = u.points[int(b.split(".")[-1].lstrip("t"))]
                        gap = abs(weight - u.dist(anchor_a, anchor_b))
                        assert gap <= bridge.r

    def test_non_metric_h_is_a_metricity_error(self, desk_bridge, monkeypatch):
        # H's metricity is checked by its completion; the construction
        # guarantees it, so a failure is reported as MetricityError
        complete = construction.complete_to_metric_space

        def beaten_on_h(graph):
            if "t0" not in graph.vertices:
                return complete(graph)  # the bridge graph
            raise NotMetricError("edge (t0, u0) is beaten")

        monkeypatch.setattr(construction, "complete_to_metric_space", beaten_on_h)
        with pytest.raises(MetricityError, match="anchored graph is not metric"):
            build_H_and_L(desk_bridge, 3)


class TestNearbyCopy:
    def test_identity_embedding(self, desk_bridge):
        _, space_l = build_H_and_L(desk_bridge, 3)
        copy = find_nearby_copy(space_l, [0, 1, 2], desk_bridge, 3)
        assert copy.points == ("t0", "t0.1")
        assert space_l.dist("t0", "t0.1") == F(2)  # matches V
        for i, node in copy.node_of_index.items():
            anchor = copy.anchor_of_index[i]
            assert space_l.dist(node, anchor) <= desk_bridge.r

    def test_shallow_depth_empty_copy(self, ground_0123):
        space_u = FiniteMetricSpace(
            ground_0123,
            ["u0", "u1", "u2"],
            [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
        )
        space_v = FiniteMetricSpace(ground_0123, ["v2"], [[0]])
        bridge = BridgeInput(
            ground_set=ground_0123,
            space_u=space_u,
            space_v=space_v,
            index_map=(2,),
            r=F(1),
        )
        _, space_l = build_H_and_L(bridge, 1)
        copy = find_nearby_copy(space_l, [0], bridge, 1)
        assert copy.points == ()

    def test_non_isometry_rejected(self, desk_bridge):
        _, space_l = build_H_and_L(desk_bridge, 3)
        # u0 -> u0, u1 -> u2 is order preserving but d(u0,u2)=2 != 1
        with pytest.raises(NotAnEmbeddingError):
            find_nearby_copy(space_l, [0, 2, 3], desk_bridge, 2)
        with pytest.raises(NotAnEmbeddingError):
            find_nearby_copy(space_l, [1, 0, 2], desk_bridge, 3)
        with pytest.raises(NotAnEmbeddingError):
            find_nearby_copy(space_l, [0], desk_bridge, 3)
        for embedding in ([0, 1, 7], [-1, 1, 2]):
            with pytest.raises(NotAnEmbeddingError, match="indices out of range"):
                find_nearby_copy(space_l, embedding, desk_bridge, 3)

    @pytest.mark.parametrize(
        "embedding", [[0, 1.9, 3], [0, 1.0, 2], [0, "1", 2], [0, True, 2]]
    )
    def test_embedding_entries_must_be_ints(self, desk_bridge, embedding):
        _, space_l = build_H_and_L(desk_bridge, 3)
        with pytest.raises(NotAnEmbeddingError, match="must be an integer"):
            find_nearby_copy(space_l, embedding, desk_bridge, 3)


DEPTH_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda b, depth: build_tree(b, derive_companion_W(b), depth),
        lambda b, depth: build_H_and_L(b, depth),
        lambda b, depth: find_nearby_copy(
            build_H_and_L(b, 3)[1], [0, 1, 2, 3], b, depth
        ),
    ],
    ids=["build_tree", "build_H_and_L", "find_nearby_copy"],
)


@pytest.mark.parametrize("depth", [True, False, 2.0, 2.5, "2", None])
@DEPTH_CALLS
def test_depth_is_a_plain_int(desk_bridge, call, depth):
    with pytest.raises(ParameterError, match="depth must be an integer"):
        call(desk_bridge, depth)


@pytest.mark.parametrize("depth", [0, -5, 4])
@DEPTH_CALLS
def test_depth_lies_within_u(desk_bridge, call, depth):
    # the range is checked before the embedding is read, so depth 4 with
    # a 4-entry embedding is a bad depth, not a bad embedding
    want = rf"depth must lie in 1\.\.3 \(points of U\), got {depth}$"
    with pytest.raises(ParameterError, match=want):
        call(desk_bridge, depth)
