import hashlib
import itertools
import json
import random
import warnings
from fractions import Fraction as F

import pytest

from distset import (
    BudgetError,
    CheckFailedError,
    VERDICT_FAILED,
    Coloring,
    FiniteMetricSpace,
    KatetovFunction,
    ParameterError,
    PartitionError,
    RSet,
    SaturationCapWarning,
    build_saturated_space,
    check_extension_property,
    check_universality,
    enumerate_katetov,
    eps_neighborhood,
    find_isometric_copy,
    find_order_embedding,
    find_unrealized_katetov,
    indivisibility_search,
    oscillation_search,
    partition_distance_function,
    realizes,
)
from conftest import (
    random_associative_set,
    random_finite_set,
    random_metric_space,
    random_unit_interval_space,
)
import oracles
from oracles import first_injection

S012 = RSet([0, 1, 2])
S0123 = RSet([0, 1, 2, 3])


def all_ones(n, ground=S012):
    pts = [f"q{i}" for i in range(n)]
    d = [[F(0) if i == j else F(1) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(ground, pts, d)


def path_112():
    return FiniteMetricSpace(
        S012, ["a", "m", "b"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )


def quarter_path():
    # a space whose integer image is in quarters
    q = F(1, 4)
    return FiniteMetricSpace(
        RSet([(0, 1)]), ["x", "y", "z"], [[0, q, 2 * q], [q, 0, q], [2 * q, q, 0]]
    )


class TestEpsNeighborhood:
    def test_whole_space(self):
        m = all_ones(4)
        assert eps_neighborhood(m, m.points, F(5)) == list(m.points)

    def test_strict_boundary(self):
        m = FiniteMetricSpace(S012, ["p", "q"], [[0, 1], [1, 0]])
        assert eps_neighborhood(m, ["p"], 1) == ["p"]
        assert eps_neighborhood(m, ["p"], 2) == ["p", "q"]


class TestEnumerateKatetov:
    def test_empty_domain(self):
        m = all_ones(3)
        out = enumerate_katetov(m, [], S012)
        assert len(out) == 1 and out[0].values == {}

    def test_singleton_no_constraints(self):
        m = all_ones(3)
        out = enumerate_katetov(m, ["q0"], S012)
        assert sorted(f.values["q0"] for f in out) == [F(1), F(2)]

    def test_pair_at_distance_two(self):
        m = path_112()
        out = enumerate_katetov(m, ["a", "b"], S012)
        got = sorted((f.values["a"], f.values["b"]) for f in out)
        assert got == [(F(1), F(1)), (F(1), F(2)), (F(2), F(1)), (F(2), F(2))]

    def test_realizes(self):
        m = path_112()
        hit = [
            f
            for f in enumerate_katetov(m, ["a", "b"], S012)
            if f.values == {"a": F(1), "b": F(1)}
        ][0]
        assert realizes(m, hit)

    def test_json_round_trip(self):
        f = KatetovFunction.from_json_obj({"values": {"b": "1/2", "a": 1}})
        assert f.domain == ("a", "b")
        assert f.values == {"b": F(1, 2), "a": F(1)}
        assert KatetovFunction.from_json_obj(f.to_json_obj()) == f

    @pytest.mark.parametrize(
        "obj", [{"values": [["a", "1"]]}, ["x"], {"values": 5}]
    )
    def test_json_shape_errors(self, obj):
        # a list or a number where an object is expected is a
        # ParameterError, as for Coloring, not an AttributeError
        with pytest.raises(ParameterError, match="'values' to an object"):
            KatetovFunction.from_json_obj(obj)


class TestSaturation:
    def test_two_values_gives_uniform_space(self):
        # all types are witnessed by the third point, so the builder
        # saturates before the cap
        m = build_saturated_space(RSet([0, 1]), max_points=5)
        assert len(m.points) == 3
        assert m.realized_distances() == {F(0), F(1)}
        assert find_unrealized_katetov(m, RSet([0, 1]), 2) is None

    def test_arity_one_realizes_every_distance(self):
        m = build_saturated_space(S012, max_points=10, witness_arity=1)
        assert {F(1), F(2)} <= m.realized_distances()
        assert find_unrealized_katetov(m, S012, 1) is None

    def test_arity_two_saturates_and_is_universal(self):
        m = build_saturated_space(S012, max_points=40, witness_arity=2, seed=1)
        assert find_unrealized_katetov(m, S012, 2) is None
        assert check_universality(m, S012, 3).passed

    def test_rejects_bad_value_set(self):
        with pytest.raises(CheckFailedError):
            build_saturated_space(RSet([0, 1, 2, 3, 5]), max_points=5)

    def test_deterministic(self):
        a = build_saturated_space(S012, max_points=12, seed=7)
        b = build_saturated_space(S012, max_points=12, seed=7)
        assert a.to_json_obj() == b.to_json_obj()

    def test_result_passes_validation(self):
        # the builder hands its result over unvalidated, so every value
        # set (mixed denominators among them), arity and seed must give a
        # metric space over the set, which the public constructor reads
        # back to the same image; the cap of 12 binds at arity 3, no other
        mixed = RSet([0, F(1, 3), F(1, 2), F(5, 6), 1])
        for values, cap in (
            (mixed, 12), (S012, 30), (S0123, 16), (RSet([0, 1, 3]), 30),
            (RSet([0, F(1, 2), 1, F(3, 2), 2]), 12), (RSet([0, 2, 3]), 30),
        ):
            for arity in (1, 2, 3):
                for seed in (0, 2, 9):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", SaturationCapWarning)
                        m = build_saturated_space(
                            values, max_points=cap, witness_arity=arity, seed=seed
                        )
                    m.validate()
                    again = FiniteMetricSpace(values, m.points, m.matrix())
                    assert (again._den, again._flat) == (m._den, m._flat)
        m = build_saturated_space(mixed, max_points=30, seed=2)
        assert find_unrealized_katetov(m, mixed, 2) is None

    def test_arity_three_pass(self):
        # the generic pass beyond arity 2 adds points the pair types miss
        values = S0123
        m3 = build_saturated_space(values, max_points=80, witness_arity=3, seed=1)
        m2 = build_saturated_space(values, max_points=80, witness_arity=2, seed=1)
        assert (len(m3), len(m2)) == (14, 8)
        assert find_unrealized_katetov(m2, values, 3) is not None
        assert find_unrealized_katetov(m3, values, 3) is None
        m3.validate()

    def test_point_cap_warns_exactly_when_a_type_is_unrealized(self):
        # the cap ends the build with an unrealized type: a warning that
        # find_unrealized_katetov confirms; a cap at or past the
        # saturated size (8 points at arity 2, 14 at arity 3) is silent
        for cap, arity, size, warns in (
            (1, 1, 1, True), (3, 2, 3, True), (8, 2, 8, False),
            (60, 2, 8, False), (10, 3, 10, True), (14, 3, 14, False),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                m = build_saturated_space(
                    S0123, max_points=cap, witness_arity=arity, seed=1
                )
            assert len(m) == size
            unrealized = find_unrealized_katetov(m, S0123, arity) is not None
            assert unrealized == warns, (cap, arity)
            kinds = [w.category for w in caught]
            assert kinds == ([SaturationCapWarning] if warns else []), (cap, arity)

    # sha256 of the JSON of three seeded arity-3 builds; the last one is
    # stopped by its cap
    PINNED_ARITY_3 = (
        (S0123, 80, 1, 14, "850104710a6fcf1c710d87bfbafe19d3"
                           "098cd181b0abce09afb101176f3f6317"),
        (RSet([0, F(1, 2), 1]), 60, 2, 9, "be38e27122d774e348a748320cebcb41"
                                          "0b5e8557b86360b7e763b10caf8c160e"),
        (S0123, 10, 1, 10, "b2abd5a497d09b61dc06887db542f334"
                           "6a2e46047b08a6bd1c489b0865b2e57b"),
    )

    @pytest.mark.parametrize("values, cap, seed, size, digest", PINNED_ARITY_3)
    def test_pinned_arity_three_builds(self, values, cap, seed, size, digest):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = build_saturated_space(
                values, max_points=cap, witness_arity=3, seed=seed
            )
        assert len(m) == size
        assert len(caught) == (size == cap)
        text = json.dumps(m.to_json_obj(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("bad", [0, -2, 5.5, 2.0, True, False, "3", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: build_saturated_space(S012, max_points=c),
            lambda c: build_saturated_space(S012, witness_arity=c),
            lambda c: find_unrealized_katetov(path_112(), S012, c),
            lambda c: check_universality(path_112(), S012, c),
            lambda c: check_extension_property(path_112(), c),
        ],
        ids=["max_points", "witness_arity", "arity", "n", "k"],
    )
    def test_counts_are_plain_ints_of_at_least_one(self, call, bad):
        with pytest.raises(ParameterError, match="an integer|at least 1"):
            call(bad)

    def test_unrealized_type_is_returned(self):
        m = FiniteMetricSpace(S012, ["a", "b"], [[0, 1], [1, 0]])
        func = find_unrealized_katetov(m, S012, 1)
        assert (func.domain, func.values) == (("a",), {"a": F(2)})
        assert not realizes(m, func)

    def test_saturation_soundness(self):
        # saturated at arity m implies universal at m+1
        m = build_saturated_space(S012, max_points=40, witness_arity=1, seed=3)
        if find_unrealized_katetov(m, S012, 1) is None:
            assert check_universality(m, S012, 2).passed


def _oracle_cases(seed, count):
    """Seeded spaces with value sets, some sharing the space's
    denominators and some not."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(1, 6)
        if t % 3 == 0:
            m = random_unit_interval_space(rng, n, max_den=6)
        else:
            m = random_metric_space(rng, random_associative_set(rng, 5), n)
        extra = random_finite_set(rng, max_size=4, max_den=6, top=2)
        if t % 2:
            values = RSet([*m.realized_distances(), *extra.points()])
        else:
            values = extra
        yield rng, m, values


class TestFractionOracles:
    """The integer searches agree with Fraction searches over the same
    spaces."""

    def test_enumerate_katetov(self):
        kinds = set()
        cases = []
        for rng, m, values in _oracle_cases(71, 60):
            size = rng.randint(0, min(3, len(m)))
            cases.append((rng, m, values, rng.sample(list(m.points), size)))
        cases.append((None, path_112(), RSet([0, F(1, 2)]), ["a", "b"]))
        for _, m, values, subset in cases:
            positive = [v for v in values.points() if v > 0]
            got = [f.values for f in enumerate_katetov(m, subset, values)]
            assert all(f.keys() == set(subset) for f in got)
            assert got == oracles.katetov_functions(m, subset, positive)
            # none, some or all of the value tuples are prescriptions
            kinds.add(min(len(got), 1) + (len(got) == len(positive) ** len(subset)))
        assert kinds == {0, 1, 2}

    def test_find_unrealized_katetov(self):
        hits = set()
        cases = list(_oracle_cases(73, 60))
        rng = random.Random(89)
        mixed = RSet([0, F(1, 3), F(1, 2), F(5, 6), 1])
        for values in (S012, RSet([0, F(1, 2), 1]), mixed):
            for arity in (1, 2, 3):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SaturationCapWarning)
                    m = build_saturated_space(
                        values, max_points=12, witness_arity=arity, seed=arity
                    )
                cases.append((None, m, values))
                # a subspace lacks some of the types its space realizes
                sub = rng.sample(list(m.points), rng.randint(2, min(7, len(m))))
                cases.append((None, m.subspace(sub), values))
        # spaces realizing distances outside the value set
        cases += [(None, path_112(), RSet([0, 1])), (None, quarter_path(), S012)]
        for rng, m, values in cases:
            positive = [v for v in values.points() if v > 0]
            for arity in (1, 2, 3):
                func = find_unrealized_katetov(m, values, arity)
                want = oracles.first_unrealized_katetov(m, positive, arity)
                got = None if func is None else func.values
                assert got == want
                if func is not None:
                    assert func.domain == tuple(
                        p for p in m.points if p in func.values
                    )
                hits.add(None if func is None else len(func.domain))
        assert hits == {None, 1, 2, 3}

    def test_eps_neighborhood(self):
        for rng, m, values in _oracle_cases(79, 60):
            subset = rng.sample(list(m.points), rng.randint(0, len(m)))
            for eps in (F(1, 7), F(1, 3), F(1, 2), *values.points()[1:3]):
                want = oracles.eps_neighborhood(m, subset, eps)
                assert eps_neighborhood(m, subset, eps) == want

    def test_partition_distance_function(self):
        for rng, m, values in _oracle_cases(83, 60):
            if len(m) < 2:
                continue
            part = rng.sample(list(m.points), rng.randint(1, len(m) - 1))
            got = partition_distance_function(m, part)
            assert got == oracles.partition_distance_function(m, part)
            assert list(got) == [p for p in m.points if p in part] + [
                p for p in m.points if p not in part
            ]


class TestUniversality:
    def test_single_point(self):
        assert check_universality(all_ones(1), S012, 1).passed

    def test_empty_space(self):
        rep = check_universality(FiniteMetricSpace(S012, [], []), S012, 2)
        assert rep.verdict == VERDICT_FAILED
        assert (rep.witness, rep.note) == ({}, "the space is empty")

    def test_missing_distance_two(self):
        rep = check_universality(all_ones(5), S012, 2)
        assert not rep.passed
        assert rep.witness == {"d(0,1)": F(2)}

    def test_foreign_denominators(self):
        # sevenths against a space in quarters: the values are scaled to
        # the lcm, 2/7 sorts between 1/4 and 1/2 and has no copy
        m = quarter_path()
        rep = check_universality(m, RSet([0, F(1, 4), F(2, 7), F(1, 2)]), 3)
        assert rep.verdict == VERDICT_FAILED
        assert rep.witness == {"d(0,1)": F(2, 7)}
        rep = check_universality(m, RSet([0, F(1, 4), F(1, 2)]), 3)
        q = F(1, 4)
        assert rep.witness == {"d(0,1)": q, "d(0,2)": q, "d(1,2)": q}
        assert check_universality(m, RSet([0, F(1, 4), F(1, 2)]), 2).passed

    def test_triangle_count_oracle(self):
        # the canonical enumeration must see every metric multiset
        seen = set()
        from distset.spaces import _canonical_form, _enumerate_matrices

        for matrix in _enumerate_matrices(3, [F(1), F(2), F(3)], [10**9]):
            seen.add(_canonical_form(3, matrix))
        triples = [
            t
            for t in itertools.combinations_with_replacement(
                [F(1), F(2), F(3)], 3
            )
            if t[2] <= t[0] + t[1]
        ]
        assert len(seen) == len(triples)


class TestExtension:
    def test_uniform_space_extends(self):
        assert check_extension_property(all_ones(5), 2).passed

    def test_path_endpoint_swap_extends_by_middle(self):
        # the endpoint swap itself extends over the middle point, even
        # though the full check fails on asymmetric one-point maps
        m = path_112()
        assert m.dist("m", "a") == m.dist("m", "b")
        rep = check_extension_property(m, 2)
        assert not rep.passed
        assert set(rep.witness) == {"domain", "image", "x"}

    def test_witnessed_failure(self):
        # two distance scales but only one witness pair at distance 2:
        # mapping a 1-edge onto itself flipped cannot extend over the
        # far endpoint
        m = FiniteMetricSpace(
            S012,
            ["a", "b", "c"],
            [[0, 1, 1], [1, 0, 2], [1, 2, 0]],
        )
        rep = check_extension_property(m, 1)
        assert not rep.passed
        assert set(rep.witness) == {"domain", "image", "x"}


class TestOrderEmbedding:
    def test_identity(self):
        m = path_112()
        assert find_order_embedding(m, m.points) == ("a", "m", "b")

    def test_uniform_prefix(self):
        m = all_ones(5)
        out = find_order_embedding(m, ["q1", "q3", "q4"], length=3)
        assert out == ("q1", "q3", "q4")

    def test_missing_required_distance(self):
        m = path_112()
        assert find_order_embedding(m, ["a", "m"], length=3) is None
        assert find_order_embedding(m, ["a", "m"], length=2) == ("a", "m")

    def test_length_must_lie_in_range(self):
        m = path_112()
        assert find_order_embedding(m, m.points, length=0) == ()
        for length in (-1, 4):
            with pytest.raises(ParameterError, match="between 0 and the point count"):
                find_order_embedding(m, m.points, length=length)

    @pytest.mark.parametrize("length", [True, False, 2.0, "2"])
    def test_length_is_a_plain_int(self, length):
        m = path_112()
        with pytest.raises(ParameterError, match="length must be an integer"):
            find_order_embedding(m, m.points, length=length)

    def test_order_constraint_bites(self):
        # the target points must appear in enumeration order
        m = path_112()
        assert find_order_embedding(m, ["m", "b"], length=2) == ("m", "b")
        assert find_order_embedding(m, ["b", "m"], length=2) == ("m", "b")


class TestPartitionFunction:
    def test_two_points(self):
        m = FiniteMetricSpace(S012, ["p", "q"], [[0, 1], [1, 0]])
        f = partition_distance_function(m, ["p"])
        assert f == {"p": F(1), "q": F(1)}

    def test_three_point_path(self):
        f = partition_distance_function(path_112(), ["a"])
        assert f == {"a": F(1), "m": F(1), "b": F(2)}

    def test_rejects_improper(self):
        m = path_112()
        with pytest.raises(PartitionError):
            partition_distance_function(m, [])
        with pytest.raises(PartitionError):
            partition_distance_function(m, list(m.points))

    def test_modulus(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(2, 7)
            m = random_metric_space(rng, S0123, n)
            size = rng.randint(1, n - 1)
            part = rng.sample(list(m.points), size)
            f = partition_distance_function(m, part)
            for p in m.points:
                for q in m.points:
                    assert abs(f[p] - f[q]) <= 2 * m.dist(p, q)

    def test_separated_partition_never_crossed_below_gap(self):
        # when every cross-pair is at distance >= d, no pair below d
        # crosses the parts
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 7)
            m = random_metric_space(rng, S0123, n)
            part = set(rng.sample(list(m.points), rng.randint(1, n - 1)))
            gap = min(
                m.dist(p, q)
                for p in part
                for q in m.points
                if q not in part
            )
            for p in m.points:
                for q in m.points:
                    if m.dist(p, q) < gap:
                        assert (p in part) == (q in part)


class TestIndivisibility:
    def test_pigeonhole_pair(self):
        m = all_ones(5)
        colours = Coloring(
            parts={p: i % 2 for i, p in enumerate(m.points)}
        )
        target = all_ones(2)
        hit = indivisibility_search(m, colours, target, 0)
        assert hit is not None
        colour, mapping = hit
        assert len(set(mapping.values())) == 2

    def test_constant_colouring_identity(self):
        m = path_112()
        colours = Coloring(parts={p: 0 for p in m.points})
        hit = indivisibility_search(m, colours, m, 0)
        assert hit is not None
        assert hit[0] == 0

    def test_exact_agrees_with_enumeration(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(3, 6)
            m = random_metric_space(rng, S0123, n)
            colours = Coloring(
                parts={p: rng.randint(0, 1) for p in m.points}
            )
            k = rng.randint(1, 3)
            target_pts = rng.sample(list(m.points), k)
            target = m.subspace(target_pts)
            hit = indivisibility_search(m, colours, target, 0)
            # brute force over all injections and both colours
            def exists(colour):
                inside = [
                    p for p in m.points if colours.parts[p] == colour
                ]
                for img in itertools.permutations(inside, k):
                    if all(
                        m.dist(img[s], img[t])
                        == target.dist_by_index(s, t)
                        for s in range(k)
                        for t in range(s + 1, k)
                    ):
                        return True
                return False

            expected = exists(0) or exists(1)
            assert (hit is not None) == expected

    def test_eps_neighbourhood_widens(self):
        m = path_112()
        colours = Coloring(parts={"a": 0, "m": 1, "b": 0})
        target = m.subspace(["a", "m"])
        assert indivisibility_search(m, colours, target, 0) is None
        hit = indivisibility_search(m, colours, target, F(3, 2))
        assert hit is not None


class TestOscillation:
    def test_constant_function(self):
        m = path_112()
        f = {p: F(1, 2) for p in m.points}
        assert oscillation_search(m, f, F(1, 10), m) is not None

    def test_eps_above_range(self):
        m = path_112()
        f = {"a": F(0), "m": F(1, 3), "b": F(1)}
        assert oscillation_search(m, f, F(2), m) is not None

    def test_split_function_blocks_all_copies(self):
        # two disjoint 1-edges; f jumps by 1 on each copy
        m = FiniteMetricSpace(
            S0123,
            ["a", "b", "c", "d"],
            [
                [0, 1, 2, 2],
                [1, 0, 2, 2],
                [2, 2, 0, 1],
                [2, 2, 1, 0],
            ],
        )
        target = m.subspace(["a", "b"])
        f = {"a": F(0), "b": F(1), "c": F(0), "d": F(1)}
        assert oscillation_search(m, f, F(1, 2), target) is None
        f2 = {"a": F(0), "b": F(1), "c": F(0), "d": F(1, 4)}
        hit = oscillation_search(m, f2, F(1, 2), target)
        assert hit is not None
        assert set(hit.values()) == {"c", "d"}


class TestBudgets:
    def test_universality_budget(self):
        with pytest.raises(BudgetError):
            check_universality(all_ones(6), S012, 3, budget=10)

    def test_order_embedding_budget(self):
        m = all_ones(6)
        with pytest.raises(BudgetError):
            find_order_embedding(m, m.points, budget=3)

    def test_universality_enumeration_budget(self):
        # one unit per value tried for a pair of the enumerated matrix,
        # charged before the triangle test, shared with the embedding
        # search: these budgets run out in the enumeration, the others
        # below 51 (the smallest that passes) in the embedding search
        m = build_saturated_space(S012, seed=0)
        enumeration = []
        for budget in range(51):
            with pytest.raises(BudgetError) as info:
                check_universality(m, S012, 3, budget=budget)
            if str(info.value) == "universality enumeration budget exhausted":
                enumeration.append(budget)
            else:
                assert str(info.value) == "embedding search budget exhausted"
        assert enumeration == [
            0, 3, 7, 8, 9, 14, 21, 22, 23, 27, 28, 29, 30, 31, 32, 33,
        ]
        assert check_universality(m, S012, 3, budget=51).passed

    def test_extension_budget(self):
        # one unit per point x tried against a partial isometry, charged
        # before the search for its witness y
        m = all_ones(5)
        with pytest.raises(BudgetError, match="^extension-check budget exhausted$"):
            check_extension_property(m, 2, budget=699)
        assert check_extension_property(m, 2, budget=700).passed
        m = _m7()
        with pytest.raises(BudgetError, match="^extension-check budget exhausted$"):
            check_extension_property(m, 2, budget=13)
        rep = check_extension_property(m, 2, budget=14)
        assert rep.witness == {"domain": ["m0", "m1"], "image": ["m0", "m2"], "x": "m4"}
        with pytest.raises(BudgetError, match="^extension-check budget exhausted$"):
            check_extension_property(m, 1, budget=8)
        rep = check_extension_property(m, 1, budget=9)
        assert rep.witness == {"domain": ["m0"], "image": ["m1"], "x": "m3"}

    def test_search_budgets(self):
        m = all_ones(6)
        colours = Coloring(parts={p: 0 for p in m.points})
        with pytest.raises(BudgetError):
            indivisibility_search(m, colours, all_ones(4), 0, budget=2)
        f = {p: F(0) for p in m.points}
        with pytest.raises(BudgetError):
            oscillation_search(m, f, F(1), all_ones(4), budget=2)


class TestIsometricCopy:
    def test_restricted_candidates(self):
        m = all_ones(4)
        target = all_ones(2)
        hit = find_isometric_copy(m, target, candidates=["q2", "q3"])
        assert hit is not None
        assert set(hit.values()) == {"q2", "q3"}

    def test_foreign_denominators(self):
        m = quarter_path()
        sevenths = FiniteMetricSpace(
            RSet([(0, 1)]), ["a", "b"], [[0, F(2, 7)], [F(2, 7), 0]]
        )
        assert find_isometric_copy(m, sevenths) is None
        # in sixths through its ground set: the common denominator is 12
        twelfths = FiniteMetricSpace(
            RSet([(0, 1), F(4, 3)]), ["a", "b"], [[0, F(1, 2)], [F(1, 2), 0]]
        )
        assert twelfths._den == 6
        assert find_isometric_copy(m, twelfths) == {"a": "x", "b": "z"}

    def test_absent_copy(self):
        m = all_ones(3)
        target = FiniteMetricSpace(
            S012, ["x", "y"], [[0, 2], [2, 0]]
        )
        assert find_isometric_copy(m, target) is None


def _m7():
    return random_metric_space(random.Random(41), S0123, 7)


# Smallest budget each search succeeds with on a fixed input; one unit is
# one candidate tried, so these pin the accounting of the search core.
PINNED_BUDGETS = {
    "isometric-copy": (
        12,
        lambda m, b: find_isometric_copy(
            m, m.subspace(["m6", "m3", "m5"]), budget=b
        ),
    ),
    "indivisibility": (
        4,
        lambda m, b: indivisibility_search(
            m,
            Coloring(parts={p: i % 2 for i, p in enumerate(m.points)}),
            m.subspace(["m3", "m5", "m1"]),
            0,
            budget=b,
        ),
    ),
    "oscillation": (
        31,
        lambda m, b: oscillation_search(
            m,
            {p: F(i, 4) for i, p in enumerate(m.points)},
            F(3, 4),
            m.subspace(["m0", "m4", "m6"]),
            budget=b,
        ),
    ),
    "order-embedding": (
        5,
        lambda m, b: find_order_embedding(
            m, ["m2", "m5", "m6"], budget=b, length=2
        ),
    ),
    "order-embedding-exhausted": (
        32,
        lambda m, b: find_order_embedding(
            m, m.points[1:], budget=b, length=3
        ),
    ),
    "universality": (
        51,
        lambda m, b: check_universality(
            build_saturated_space(S012, seed=0), S012, 3, budget=b
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BUDGETS))
def test_pinned_budget(name):
    budget, search = PINNED_BUDGETS[name]
    m = _m7()
    search(m, budget)
    with pytest.raises(BudgetError):
        search(m, budget - 1)


def _image(hit, target):
    return None if hit is None else tuple(hit[p] for p in target.points)


def _random_target(rng, m):
    """A shuffled subspace of ``m`` or, half the time, a random space."""
    k = rng.randint(1, min(3, len(m.points)))
    if rng.random() < 0.5:
        return m.subspace(rng.sample(list(m.points), k))
    return random_metric_space(rng, S0123, k, prefix="t")


class TestFirstHit:
    """Each search returns the first injection in itertools order."""

    def test_isometric_copy(self):
        rng = random.Random(53)
        for _ in range(30):
            m = random_metric_space(rng, S0123, rng.randint(3, 7))
            target = _random_target(rng, m)
            cands = rng.sample(list(m.points), rng.randint(1, len(m.points)))
            hit = find_isometric_copy(m, target, candidates=cands)
            assert _image(hit, target) == first_injection(
                m, target.matrix(), cands
            )

    def test_indivisibility(self):
        rng = random.Random(59)
        for _ in range(30):
            m = random_metric_space(rng, S0123, rng.randint(3, 7))
            target = m.subspace(
                rng.sample(list(m.points), rng.randint(1, 3))
            )
            colours = Coloring(parts={p: rng.randint(0, 2) for p in m.points})
            eps = rng.choice([F(0), F(1), F(3, 2)])
            expected = None
            for colour in colours.classes():
                inside = colours.class_points(colour)
                if eps == 0:
                    cands = [p for p in m.points if p in inside]
                else:
                    cands = eps_neighborhood(m, inside, eps)
                img = first_injection(m, target.matrix(), cands)
                if img is not None:
                    expected = (colour, img)
                    break
            hit = indivisibility_search(m, colours, target, eps)
            got = None if hit is None else (hit[0], _image(hit[1], target))
            assert got == expected

    def test_oscillation(self):
        rng = random.Random(61)
        for _ in range(30):
            m = random_metric_space(rng, S0123, rng.randint(3, 7))
            target = _random_target(rng, m)
            f = {p: F(rng.randint(0, 8), 4) for p in m.points}
            eps = rng.choice([F(1, 2), F(1), F(3, 2)])

            def accept(prefix, p):
                vals = [f[q] for q in prefix + (p,)]
                return max(vals) - min(vals) < eps

            hit = oscillation_search(m, f, eps, target)
            assert _image(hit, target) == first_injection(
                m, target.matrix(), m.points, accept=accept
            )

    def test_order_embedding(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randint(3, 7)
            m = random_metric_space(rng, S0123, n)
            picked = rng.sample(list(m.points), rng.randint(1, n))
            length = rng.randint(0, n)
            prefix = [row[:length] for row in m.matrix()[:length]]
            cands = [p for p in m.points if p in picked]
            assert find_order_embedding(
                m, picked, length=length
            ) == first_injection(m, prefix, cands, ordered=True)
