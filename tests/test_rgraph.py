import random
from fractions import Fraction as F

import pytest

from distset import (
    CheckFailedError,
    DisconnectedError,
    EdgeExistsError,
    FiniteMetricSpace,
    MembershipError,
    NotAWalkError,
    NotMetricError,
    ParameterError,
    RGraph,
    RSet,
    add_shortcut,
    complete_to_metric_space,
    connect,
    distance,
    find_nonmetric_cycle,
    is_metric,
    is_regular,
    walk_weight,
)
from conftest import (
    random_associative_set,
    random_connected_metric_graph,
    random_metric_space,
)
from oracles import trail_distance

R0123 = RSet([0, 1, 2, 3])


def triangle_113():
    return RGraph(
        R0123, ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 3)]
    )


def foreign_denominator_graph():
    """Metric graph on [0, 5] whose weights have denominators (7, 9, 4)
    that the ground set lacks; the chord b-f is reached only by a
    truncated walk."""
    return RGraph(
        RSet([(0, 5)]),
        ["a", "b", "c", "d", "e", "f"],
        [
            ("a", "b", F(1, 7)),
            ("b", "c", F(2, 9)),
            ("a", "c", F(23, 63)),
            ("c", "d", F(3, 4)),
            ("d", "e", F(22, 7)),
            ("e", "f", F(17, 9)),
            ("b", "f", 5),
        ],
    )


def desk_bridge_graph(desk_bridge):
    from distset import build_bridge_graph

    return build_bridge_graph(desk_bridge)


class TestRGraphBasics:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RGraph(R0123, ["a", "a"], [])
        with pytest.raises(ParameterError):
            RGraph(R0123, ["a"], [("a", "a", 1)])
        with pytest.raises(ParameterError):
            RGraph(R0123, ["a", "b"], [("a", "b", 1), ("b", "a", 2)])
        with pytest.raises(MembershipError):
            RGraph(R0123, ["a", "b"], [("a", "b", F(1, 2))])
        with pytest.raises(ParameterError):
            RGraph(R0123, ["a", "b"], [("a", "b", 0)])
        with pytest.raises(ParameterError):
            RGraph(RSet([1, 2]), ["a", "b"], [("a", "b", 1)])  # no zero
        with pytest.raises(ParameterError, match="two endpoints and a weight"):
            RGraph(R0123, ["a", "b"], [("a", "b")])

    def test_unknown_vertex_is_a_parameter_error(self):
        g = triangle_113()
        for lookup in (
            lambda: g.index("zz"),
            lambda: g.has_edge("a", "zz"),
            lambda: g.weight("zz", "a"),
            lambda: distance(g, "a", "zz"),
        ):
            with pytest.raises(ParameterError, match="unknown vertex 'zz'"):
                lookup()

    def test_json_round_trip(self):
        g = triangle_113()
        assert RGraph.from_json_obj(g.to_json_obj()).to_json_obj() == g.to_json_obj()


class TestWalkWeight:
    def test_two_twos(self):
        g = RGraph(R0123, ["a", "b", "c"], [("a", "b", 2), ("b", "c", 2)])
        assert walk_weight(g, ["a", "b", "c"]) == F(3)

    def test_single_edge(self):
        g = RGraph(R0123, ["a", "b"], [("a", "b", 2)])
        assert walk_weight(g, ["a", "b"]) == F(2)

    def test_ones_fold(self):
        g = RGraph(
            R0123,
            ["a", "b", "c", "d"],
            [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)],
        )
        assert walk_weight(g, ["a", "b", "c", "d"]) == F(3)

    def test_trivial_walk(self):
        g = RGraph(R0123, ["a"], [])
        assert walk_weight(g, ["a"]) == F(0)

    def test_not_a_walk(self):
        g = RGraph(R0123, ["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(NotAWalkError):
            walk_weight(g, ["a", "c"])


class TestDistance:
    def test_triangle_shortcut(self):
        assert distance(triangle_113(), "a", "c") == F(2)

    def test_self_distance(self):
        assert distance(triangle_113(), "a", "a") == F(0)

    def test_desk_pair(self, desk_bridge):
        g = desk_bridge_graph(desk_bridge)
        assert distance(g, "u0", "v1") == F(2)

    def test_disconnected(self):
        g = RGraph(R0123, ["a", "b"], [])
        with pytest.raises(DisconnectedError):
            distance(g, "a", "b")

    def test_matches_trail_oracle(self):
        rng = random.Random(17)
        for _ in range(20):
            ground = random_associative_set(rng, max_size=6)
            if ground.max_value == 0:
                continue
            n = rng.randint(2, 6)
            graph, _ = random_connected_metric_graph(rng, ground, n)
            pts = graph.vertices
            a, b = rng.sample(pts, 2)
            assert distance(graph, a, b) == trail_distance(graph, a, b)
        graph = foreign_denominator_graph()
        for a in graph.vertices:
            for b in graph.vertices:
                assert distance(graph, a, b) == trail_distance(graph, a, b)


class TestIsMetric:
    def test_complete_space_graph_passes(self):
        rng = random.Random(23)
        ground = random_associative_set(rng)
        if ground.max_value == 0:
            ground = RSet([0, 1, 2, 3])
        space = random_metric_space(rng, ground, 5)
        assert is_metric(space.as_rgraph()).passed

    def test_triangle_113_fails_at_heavy_edge(self):
        rep = is_metric(triangle_113())
        assert not rep.passed
        assert rep.witness["edge"] == ["a", "c"]
        assert rep.lhs == F(3) and rep.rhs == F(2)
        assert rep.witness["trail"] == ["a", "b", "c"]

    def test_failure_on_foreign_denominators(self):
        # d(a, d) = 1/3 (+) 3/4 = 13/12 beats the edge of weight 2
        g = RGraph(
            RSet([(0, 5)]),
            ["a", "b", "c", "d"],
            [
                ("a", "b", F(1, 7)),
                ("b", "c", F(2, 9)),
                ("c", "d", F(3, 4)),
                ("a", "d", 2),
                ("a", "c", F(1, 3)),
            ],
        )
        rep = is_metric(g)
        assert rep.verdict == "Failed"
        assert rep.witness == {"edge": ["a", "d"], "trail": ["a", "c", "d"]}
        assert rep.lhs == F(2) and rep.rhs == F(13, 12)

    def test_desk_bridge_is_metric(self, desk_bridge):
        assert is_metric(desk_bridge_graph(desk_bridge)).passed

    def test_subgraphs_of_spaces_are_metric(self):
        rng = random.Random(29)
        for _ in range(15):
            ground = random_associative_set(rng, max_size=6)
            if ground.max_value == 0:
                continue
            graph, _ = random_connected_metric_graph(
                rng, ground, rng.randint(2, 7)
            )
            assert is_metric(graph).passed

    def test_regularity(self):
        assert is_regular(triangle_113())
        assert is_regular(RGraph(R0123, ["a"], []))
        assert is_regular(RGraph(R0123, ["a", "b"], []))


class TestNonmetricCycle:
    def test_metric_triangle_none(self):
        g = RGraph(
            R0123, ["a", "b", "c"],
            [("a", "b", 1), ("b", "c", 1), ("a", "c", 2)],
        )
        assert find_nonmetric_cycle(g, 5) is None

    def test_triangle_113_found(self):
        hit = find_nonmetric_cycle(triangle_113(), 5)
        assert hit is not None
        assert set(hit.vertices) == {"a", "b", "c"}
        assert hit.edge_weight == F(3) and hit.rest_weight == F(2)

    def test_four_cycle_1121_ok(self):
        g = RGraph(
            R0123,
            ["a", "b", "c", "d"],
            [("a", "b", 1), ("b", "c", 1), ("c", "d", 2), ("d", "a", 1)],
        )
        assert find_nonmetric_cycle(g, 6) is None

    def test_chord_makes_square_not_induced(self):
        # heavy 4-cycle hidden behind a chord: only triangles are
        # chordless, and the violating one is found
        g = RGraph(
            R0123,
            ["a", "b", "c", "d"],
            [
                ("a", "b", 1),
                ("b", "c", 1),
                ("c", "d", 1),
                ("d", "a", 3),
                ("a", "c", 1),
            ],
        )
        hit = find_nonmetric_cycle(g, 6)
        assert hit is not None
        assert set(hit.vertices) == {"a", "c", "d"}

    def test_cap_hides_long_violations(self):
        # the only violation sits on a chordless 4-cycle: invisible at
        # max_len 3, found at 4, and is_metric always sees it
        r = RSet([0, 1, 5])
        g = RGraph(
            r,
            ["a", "b", "c", "d"],
            [
                ("a", "b", 5),
                ("b", "c", 1),
                ("c", "d", 1),
                ("d", "a", 1),
            ],
        )
        assert find_nonmetric_cycle(g, 3) is None
        hit = find_nonmetric_cycle(g, 4)
        assert hit is not None
        assert hit.edge_weight == F(5) and hit.rest_weight == F(1)
        assert not is_metric(g).passed

    def test_agrees_with_is_metric_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(25):
            ground = random_associative_set(rng, max_size=5)
            pos = [v for v in ground.points() if v > 0]
            if not pos:
                continue
            n = rng.randint(3, 6)
            names = [f"x{i}" for i in range(n)]
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        edges.append((names[i], names[j], rng.choice(pos)))
            g = RGraph(ground, names, edges)
            cyc = find_nonmetric_cycle(g, n)
            if cyc is None:
                assert is_metric(g).passed
            else:
                assert not is_metric(g).passed


class TestConnect:
    def test_already_connected_unchanged(self):
        g = RGraph(R0123, ["a", "b"], [("a", "b", 1)])
        assert connect(g, 1) is g

    def test_nonmetric_input_refused(self):
        with pytest.raises(ParameterError):
            connect(triangle_113(), 1)

    def test_two_components(self):
        g = RGraph(
            R0123, ["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 2)]
        )
        joined = connect(g, 1)
        assert joined.has_edge("a", "c")
        assert joined.weight("a", "c") == F(1)
        assert is_metric(joined).passed

    def test_three_isolated_vertices(self):
        g = RGraph(R0123, ["a", "b", "c"], [])
        joined = connect(g, 1)
        assert joined.edge_count() == 3
        assert is_metric(joined).passed


class TestShortcut:
    def test_path_gets_fold_weight(self):
        g = RGraph(R0123, ["a", "c", "b"], [("a", "c", 1), ("c", "b", 1)])
        out = add_shortcut(g, "a", "b")
        assert out.weight("a", "b") == F(2)

    def test_desk_shortcut(self, desk_bridge):
        g = desk_bridge_graph(desk_bridge)
        out = add_shortcut(g, "u0", "v1")
        assert out.weight("u0", "v1") == F(2)

    def test_existing_edge_rejected(self, desk_bridge):
        g = desk_bridge_graph(desk_bridge)
        with pytest.raises(EdgeExistsError):
            add_shortcut(g, "u0", "u1")

    def test_preserves_all_distances(self):
        rng = random.Random(37)
        for _ in range(10):
            ground = random_associative_set(rng, max_size=6)
            if ground.max_value == 0:
                continue
            graph, _ = random_connected_metric_graph(
                rng, ground, rng.randint(3, 6)
            )
            pts = graph.vertices
            missing = [
                (a, b)
                for i, a in enumerate(pts)
                for b in pts[i + 1 :]
                if not graph.has_edge(a, b)
            ]
            if not missing:
                continue
            a, b = missing[rng.randrange(len(missing))]
            before = {
                (x, y): distance(graph, x, y)
                for i, x in enumerate(pts)
                for y in pts[i + 1 :]
            }
            bigger = add_shortcut(graph, a, b)
            for (x, y), d in before.items():
                assert distance(bigger, x, y) == d


def test_associativity_cache_is_bounded():
    from distset.rgraph import _associativity_report

    maxsize = _associativity_report.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


class TestCompletion:
    def test_complete_graph_is_fixpoint(self):
        rng = random.Random(41)
        ground = RSet([0, 1, 2, 3])
        space = random_metric_space(rng, ground, 5)
        completed = complete_to_metric_space(space.as_rgraph())
        assert completed.matrix() == space.matrix()

    def test_desk_matrix(self, desk_bridge):
        space = complete_to_metric_space(desk_bridge_graph(desk_bridge))
        assert space.dist("u0", "v1") == F(2)
        assert space.dist("v0", "u2") == F(3)
        assert space.dist("v1", "u2") == F(3)

    def test_path_distances(self):
        g = RGraph(
            R0123,
            ["a", "b", "c", "d"],
            [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)],
        )
        space = complete_to_metric_space(g)
        assert space.dist("a", "b") == F(1)
        assert space.dist("a", "c") == F(2)
        assert space.dist("a", "d") == F(3)

    def test_rejects_disconnected(self):
        g = RGraph(R0123, ["a", "b"], [])
        with pytest.raises(DisconnectedError):
            complete_to_metric_space(g)

    def test_rejects_nonmetric(self):
        with pytest.raises(NotMetricError):
            complete_to_metric_space(triangle_113())

    def test_rejects_nonassociative_ground(self):
        bad = RSet([0, 1, 2, 3, 5])
        g = RGraph(bad, ["a", "b"], [("a", "b", 1)])
        with pytest.raises(CheckFailedError):
            complete_to_metric_space(g)

    def test_matches_trail_oracle_everywhere(self):
        rng = random.Random(43)
        graphs = []
        for _ in range(10):
            ground = random_associative_set(rng, max_size=6)
            if ground.max_value == 0:
                continue
            graph, _ = random_connected_metric_graph(
                rng, ground, rng.randint(2, 6)
            )
            graphs.append(graph)
        graphs.append(foreign_denominator_graph())
        for graph in graphs:
            space = complete_to_metric_space(graph)
            pts = graph.vertices
            for i, a in enumerate(pts):
                for b in pts[i + 1 :]:
                    assert space.dist(a, b) == trail_distance(graph, a, b)

    def test_edge_restriction_is_identity(self):
        rng = random.Random(47)
        for _ in range(10):
            ground = random_associative_set(rng, max_size=6)
            if ground.max_value == 0:
                continue
            graph, _ = random_connected_metric_graph(
                rng, ground, rng.randint(2, 6)
            )
            space = complete_to_metric_space(graph)
            for u, v, w in graph.edges():
                assert space.dist(u, v) == w


class TestFiniteMetricSpace:
    def test_validation_catches_triangle(self):
        with pytest.raises(ParameterError):
            FiniteMetricSpace(
                R0123,
                ["a", "b", "c"],
                [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
            )

    def test_validation_names_first_violation(self):
        # the message, and so the CLI's error output, names the first
        # violation in (i, j, k) order; in the last space, row p holds
        # none, and row q violates for s and for t, both through r
        cases = [
            (["a", "b", "c"], [[0, 1, 1], [1, 2, 1], [1, 1, 0]],
             "nonzero diagonal at ('b', 'b')"),
            (["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [3, 1, 0]],
             "asymmetric entries at ('a', 'c')"),
            (["a", "b", "c"], [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
             "non-positive off-diagonal distance at ('a', 'c')"),
            (["a", "b"], [[0, -1], [-1, 0]],
             "non-positive off-diagonal distance at ('a', 'b')"),
            (
                ["p", "q", "r", "s", "t"],
                [
                    [0, 2, 2, 2, 2],
                    [2, 0, 1, 3, 3],
                    [2, 1, 0, 1, 1],
                    [2, 3, 1, 0, 2],
                    [2, 3, 1, 2, 0],
                ],
                "triangle inequality violated at ('q', 's', 'r')",
            ),
        ]
        for points, dist, message in cases:
            with pytest.raises(ParameterError) as info:
                FiniteMetricSpace(R0123, points, dist)
            assert str(info.value) == message

    def test_validation_catches_membership(self):
        with pytest.raises(MembershipError):
            FiniteMetricSpace(
                RSet([0, 1, 2]), ["a", "b"], [[0, F(1, 2)], [F(1, 2), 0]]
            )
        with pytest.raises(MembershipError, match="3/2 between a and c"):
            FiniteMetricSpace(
                RSet([(0, 1), (2, 5)]),
                ["a", "b", "c"],
                [[0, F(1, 7), F(3, 2)], [F(1, 7), 0, F(3, 2)], [F(3, 2)] * 2 + [0]],
            )

    def test_json_round_trip(self, desk_bridge):
        space = complete_to_metric_space(desk_bridge_graph(desk_bridge))
        obj = space.to_json_obj()
        assert FiniteMetricSpace.from_json_obj(obj).to_json_obj() == obj
