import random
from fractions import Fraction as F

import pytest

from distset import (
    ParameterError,
    RSet,
    VERDICT_EXHAUSTIVE,
    cantor_set,
    check_4values,
    check_associativity,
    delta,
    gamma,
    parse_weights,
    remove_middle,
)


class TestGammaDelta:
    def test_middle_third(self):
        assert gamma(0, F(1, 3), 1) == F(1, 3)
        assert delta(0, F(1, 3), 1) == F(2, 3)

    def test_zero_width_meets_at_midpoint(self):
        assert gamma(0, 0, 1) == F(1, 2) == delta(0, 0, 1)

    def test_full_width_leaves_endpoints(self):
        assert gamma(0, 1, 1) == F(0)
        assert delta(0, 1, 1) == F(1)

    def test_algebraic_relations(self):
        rng = random.Random(2)
        for _ in range(50):
            a = F(rng.randint(0, 10), rng.randint(1, 10))
            b = a + F(rng.randint(1, 10), rng.randint(1, 10))
            w = F(rng.randint(0, 8), 8)
            g, d = gamma(a, w, b), delta(a, w, b)
            assert a <= g <= d <= b
            assert d - g == w * (b - a)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            gamma(1, F(1, 2), 1)
        with pytest.raises(ParameterError):
            delta(0, F(3, 2), 1)


class TestRemoveMiddle:
    def test_middle_third(self):
        assert remove_middle(0, F(1, 3), 1) == RSet([(0, F(1, 3)), (F(2, 3), 1)])

    def test_zero_width_is_identity(self):
        assert remove_middle(0, 0, 1) == RSet([(0, 1)])

    def test_half_width(self):
        assert remove_middle(0, F(1, 2), 1) == RSet([(0, F(1, 4)), (F(3, 4), 1)])

    def test_full_width_leaves_points(self):
        assert remove_middle(0, 1, 1) == RSet([0, 1])


class TestCantorSet:
    def test_empty_vector_is_unit_interval(self):
        assert cantor_set([]) == RSet([(0, 1)])

    def test_single_half(self):
        assert cantor_set([F(1, 2)]) == RSet([(0, F(1, 4)), (F(3, 4), 1)])

    def test_depth_two_thirds(self):
        assert cantor_set([F(1, 3), F(1, 3)]) == RSet(
            [
                (0, F(1, 9)),
                (F(2, 9), F(1, 3)),
                (F(2, 3), F(7, 9)),
                (F(8, 9), 1),
            ]
        )

    def test_rejects_degenerate_weights(self):
        with pytest.raises(ParameterError):
            cantor_set([F(1, 2), F(1)])

    def test_structure(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(0, 5)
            vec = [F(rng.randint(1, 7), 8) for _ in range(n)]
            r = cantor_set(vec)
            assert len(r.intervals) == 2**n
            measure = sum(hi - lo for lo, hi in r.intervals)
            expect = F(1)
            for w in vec:
                expect *= 1 - w
            assert measure == expect

    def test_recursion_identity(self):
        # prepending a weight splits the unit interval and scales the
        # tail construction into both halves
        rng = random.Random(6)
        for _ in range(15):
            n = rng.randint(0, 4)
            tail = [F(rng.randint(1, 7), 8) for _ in range(n)]
            w = F(rng.randint(1, 7), 8)
            whole = cantor_set([w] + tail)
            half = F(1, 2) * (1 - w)
            left = cantor_set(tail).scale(half)
            shift = F(1, 2) * (1 + w)
            right = RSet(
                [(lo + shift, hi + shift) for lo, hi in left.intervals]
            )
            assert whole == RSet(list(left.intervals) + list(right.intervals))

    def test_boundary_points_persist(self):
        vec = [F(2, 5), F(1, 2), F(2, 5), F(1, 2)]
        for k in range(len(vec)):
            shallow = cantor_set(vec[:k])
            deep = cantor_set(vec[: k + 1])
            ends_shallow = {e for pair in shallow.intervals for e in pair}
            ends_deep = {e for pair in deep.intervals for e in pair}
            assert ends_shallow <= ends_deep

    def test_scaling_identity(self):
        vec = [F(2, 5), F(1, 2)]
        b, c = F(3, 4), F(5, 2)
        big = cantor_set(vec).scale(c)
        assert cantor_set(vec).scale(b) == big.scale(b / c)


class TestTruncatedSumStability:
    def test_endpoint_sums_stabilize_with_depth(self):
        # for endpoints of a fixed stage, the truncated sum computed in
        # deeper stages is non-increasing and eventually constant
        vec = [F(2, 5)] * 6
        base = cantor_set(vec[:2])
        ends = sorted({e for pair in base.intervals for e in pair})
        for a in ends:
            for b in ends:
                values = [
                    cantor_set(vec[:depth]).oplus(a, b)
                    for depth in range(2, 7)
                ]
                assert values == sorted(values, reverse=True)
                assert values[-1] == values[-2]


class TestWeightsParsing:
    def test_cli_syntax(self):
        assert parse_weights("2/5,1/2,2/5") == (F(2, 5), F(1, 2), F(2, 5))

    def test_bad_weight_rejected(self):
        with pytest.raises(ParameterError):
            parse_weights("2/5,5/2")


class TestFourValuesBehaviour:
    def test_wide_weights_pass(self):
        rng = random.Random(9)
        for _ in range(8):
            n = rng.randint(1, 4)
            vec = [F(rng.randint(9, 23), 24) for _ in range(n)]
            assert all(F(1, 3) < w < 1 for w in vec)
            rep = check_associativity(cantor_set(vec))
            assert rep.verdict == VERDICT_EXHAUSTIVE

    def test_middle_third_depth2_fails_exactly(self):
        rep = check_associativity(cantor_set([F(1, 3), F(1, 3)]))
        assert not rep.passed
        assert (rep.witness["a"], rep.witness["b"], rep.witness["c"]) == (
            F(1, 3),
            F(2, 9),
            F(1, 9),
        )
        assert (rep.lhs, rep.rhs) == (F(1, 3), F(2, 3))
        rep4 = check_4values(cantor_set([F(1, 3), F(1, 3)]))
        assert not rep4.passed
