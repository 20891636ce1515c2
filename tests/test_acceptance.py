"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest tests/test_acceptance.py -s``).

Every tolerance is exact rational equality or an explicit strict bound;
runtimes are asserted against the stated budgets.
"""

import random
import sys
import time
from fractions import Fraction as F
from math import ceil

from distset import (
    BridgeInput,
    FiniteMetricSpace,
    RSet,
    build_H_and_L,
    build_saturated_space,
    cantor_set,
    check_4values,
    check_associativity,
    check_universality,
    complete_to_metric_space,
    derive_companion_W,
    find_nearby_copy,
    find_unrealized_katetov,
    is_eps_approximation,
    is_metric,
    make_eps_approximation,
    partition_distance_function,
    subadditive_closure,
)
from conftest import (
    random_associative_set,
    random_connected_metric_graph,
    random_finite_set,
    random_metric_space,
    random_unit_interval_space,
)
from oracles import trail_distance


def announce(line):
    # reach the terminal even under pytest's output capture
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)


def run_criterion(num, desc, bound_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        announce(f"[criterion {num}] FAIL: {desc}")
        raise
    dt = time.perf_counter() - t0
    announce(f"[criterion {num}] PASS ({dt:.2f}s < {bound_s}s): {desc}")
    assert dt < bound_s, f"runtime budget exceeded: {dt:.2f}s"


def test_criterion_1_middle_third_exact_witness():
    def body():
        stage2 = cantor_set([F(1, 3), F(1, 3)])
        rep = check_associativity(stage2)
        assert rep.verdict == "Failed"
        assert rep.witness == {"a": F(1, 3), "b": F(2, 9), "c": F(1, 9)}
        assert rep.lhs == F(1, 3)
        assert rep.rhs == F(2, 3)
        # the two groupings of the documented inputs, recomputed
        assert stage2.oplus(stage2.oplus(F(1, 3), F(2, 9)), F(1, 9)) == F(1, 3)
        assert stage2.oplus(F(1, 3), stage2.oplus(F(2, 9), F(1, 9))) == F(2, 3)

    run_criterion(
        1, "middle-third counterexample with exact witness sides", 1, body
    )


def test_criterion_2_four_values_iff_associative():
    def body():
        rng = random.Random(20240202)
        agree = 0
        for _ in range(200):
            r = random_finite_set(rng, max_size=8, max_den=12)
            a = check_4values(r).passed
            b = check_associativity(r).passed
            assert a == b
            agree += 1
        assert agree == 200

    run_criterion(
        2, "four-values and associativity verdicts agree on 200 sets", 30, body
    )


def _seed_grid(rset, eps):
    pts = set()
    for lo, hi in rset.intervals:
        pts.add(lo)
        pts.add(hi)
        width = hi - lo
        if width > 0:
            k = int(width / eps) + 1
            pts.update(lo + j * width / k for j in range(1, k))
    pts.add(rset.max_value)
    return RSet(sorted(pts))


def test_criterion_3_closure_terminates_and_preserves():
    def body():
        rng = random.Random(33550336)
        case = 0
        while case < 100:
            rset = random_associative_set(rng, max_size=7)
            positive = [p for p in rset.points() if p > 0]
            if not positive:
                continue
            case += 1
            if case % 2 == 0:
                eps = rset.max_value / rng.randint(2, 5)
                seed = _seed_grid(rset, eps)
                was_approx = is_eps_approximation(seed, rset, eps)
                assert was_approx  # grid construction guarantees it
            else:
                eps = None
                size = rng.randint(1, len(positive))
                seed = RSet(
                    sorted(set(rng.sample(positive, size)) | {rset.max_value})
                )
            closed, trace = subadditive_closure(seed, rset)
            cap = 2 * ceil(rset.max_value / trace.minima[0]) + 2
            assert trace.rounds <= cap
            again, _ = subadditive_closure(closed, rset)
            assert again == closed
            if eps is not None:
                assert is_eps_approximation(closed, rset, eps)
            assert check_4values(closed).verdict == "PassedExhaustive"

    run_criterion(
        3,
        "closure terminates within its bound, stays closed, keeps "
        "approximations, passes four-values",
        30,
        body,
    )


def test_criterion_4_completion_matches_trail_oracle():
    def body():
        rng = random.Random(6028)
        done = 0
        while done < 100:
            ground = random_associative_set(rng, max_size=6)
            if ground.max_value == 0:
                continue
            n = rng.randint(2, 8)
            graph, _ = random_connected_metric_graph(rng, ground, n)
            space = complete_to_metric_space(graph)
            pts = graph.vertices
            for i, a in enumerate(pts):
                for b in pts[i + 1 :]:
                    d = space.dist(a, b)
                    assert d == trail_distance(graph, a, b)
                    assert ground.contains(d)
            for u, v, w in graph.edges():
                assert space.dist(u, v) == w
            space.validate()  # includes the triangle inequality
            done += 1

    run_criterion(
        4,
        "all-pairs completion equals the exhaustive trail oracle on "
        "100 graphs",
        60,
        body,
    )


def test_criterion_5_bridge_pipeline_on_desk_example():
    def body():
        ground = RSet([0, 1, 2, 3])
        space_u = FiniteMetricSpace(
            ground,
            ["u0", "u1", "u2"],
            [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
        )
        space_v = FiniteMetricSpace(ground, ["v0", "v1"], [[0, 2], [2, 0]])
        bridge = BridgeInput(
            ground_set=ground,
            space_u=space_u,
            space_v=space_v,
            index_map=(0, 1),
            r=F(1),
        )
        depth = 3  # largest level available for |U| = 3, within the cap 4

        companion = derive_companion_W(bridge)
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(
                    space_u.dist_by_index(i, j) - companion.dist_by_index(i, j)
                )
                assert gap <= F(1)

        graph_h, space_l = build_H_and_L(bridge, depth)
        assert is_metric(graph_h).verdict == "PassedExhaustive"

        chain = [("t0", "u0"), ("t0.1", "u1"), ("t0.1.2", "u2")]
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                na, ua = chain[a]
                nb, ub = chain[b]
                assert (
                    abs(graph_h.weight(na, nb) - space_u.dist(ua, ub)) <= F(1)
                )

        copy = find_nearby_copy(space_l, [0, 1, 2], bridge, depth)
        assert copy.points == ("t0", "t0.1")
        assert space_l.dist("t0", "t0.1") == space_v.dist("v0", "v1")
        embedded = [space_u.points[i] for i in (0, 1, 2)]
        for node in copy.points:
            assert min(space_l.dist(node, u) for u in embedded) <= F(1)

    run_criterion(
        5,
        "bridge/companion/tree pipeline with nearby copy within r, exact",
        10,
        body,
    )


def test_criterion_6_wide_cantor_stages_pass():
    def body():
        rng = random.Random(888)
        for _ in range(30):
            length = rng.randint(1, 6)
            vec = []
            for _ in range(length):
                q = rng.randint(3, 12)
                n = rng.randint(q // 3 + 1, q - 1)
                w = F(n, q)
                assert F(1, 3) < w < 1
                vec.append(w)
            rep = check_associativity(cantor_set(vec))
            assert rep.verdict == "PassedExhaustive"
        control = check_associativity(cantor_set([F(1, 3), F(1, 3)]))
        assert control.verdict == "Failed"

    run_criterion(
        6,
        "30 stages with weights above 1/3 pass the exact check; the "
        "middle-third control fails",
        60,
        body,
    )


def test_criterion_7_saturation_and_universality():
    def body():
        values = RSet([0, 1, 2, 3])
        space = build_saturated_space(
            values, max_points=60, witness_arity=2, seed=0
        )
        assert len(space.points) <= 60
        assert find_unrealized_katetov(space, values, 2) is None
        rep = check_universality(space, values, 3)
        assert rep.verdict == "PassedExhaustive"

    run_criterion(
        7,
        "arity-2 saturation within 60 points and exhaustive 3-point "
        "universality",
        60,
        body,
    )


def test_criterion_8_round_up_distortion():
    def body():
        unit = RSet([(0, 1)])
        approx = make_eps_approximation(unit, F(1, 8), None, F(1, 16))
        rng = random.Random(1105)
        for _ in range(50):
            n = rng.randint(2, 6)
            space = random_unit_interval_space(rng, n)
            pts = space.points
            rounded = [
                [
                    F(0) if i == j else approx.round_up(space.dist_by_index(i, j))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            image = FiniteMetricSpace(approx, pts, rounded, validate=True)
            for i in range(n):
                for j in range(i + 1, n):
                    original = space.dist_by_index(i, j)
                    gap = image.dist_by_index(i, j) - original
                    assert 0 <= gap < F(1, 8)
                    if approx.contains(original):
                        assert gap == 0
                    else:
                        assert gap > 0

    run_criterion(
        8,
        "round-up images are metric with distortion in [0, 1/8), strict "
        "off the approximant",
        30,
        body,
    )


def test_criterion_9_partition_function_modulus():
    def body():
        rng = random.Random(28)
        grid = RSet([0, 1, 2, 3])
        for case in range(100):
            n = rng.randint(2, 7)
            if case % 2 == 0:
                space = random_metric_space(rng, grid, n)
            else:
                space = random_unit_interval_space(rng, n)
            size = rng.randint(1, n - 1)
            part = rng.sample(list(space.points), size)
            f = partition_distance_function(space, part)
            for p in space.points:
                for q in space.points:
                    assert abs(f[p] - f[q]) <= 2 * space.dist(p, q)

    run_criterion(
        9,
        "partition distance functions obey the 2-Lipschitz modulus on "
        "100 spaces",
        10,
        body,
    )
