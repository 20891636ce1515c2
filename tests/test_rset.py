import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distset import (
    MembershipError,
    ParameterError,
    RangeError,
    RSet,
    cantor_set,
)
from oracles import oplus_points

MID2 = cantor_set([F(1, 3), F(1, 3)])  # depth-2 middle-third stage


def rationals(max_num=36, max_den=12):
    return st.builds(
        F, st.integers(0, max_num), st.integers(1, max_den)
    )


def finite_sets():
    return st.sets(rationals(), min_size=0, max_size=7).map(
        lambda s: RSet(sorted(s | {F(0)}))
    )


class TestConstruction:
    def test_merges_touching_intervals(self):
        r = RSet([(0, F(1, 2)), (F(1, 2), 1)])
        assert r.intervals == ((F(0), F(1)),)

    def test_merges_overlap_and_sorts(self):
        r = RSet([(2, 3), (0, 1), (F(1, 2), F(3, 2))])
        assert r.intervals == ((F(0), F(3, 2)), (F(2), F(3)))

    def test_points_and_intervals_mix(self):
        r = RSet([0, (F(1, 3), F(1, 2))])
        assert r.contains(0) and r.contains(F(2, 5)) and not r.contains(F(1, 4))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            RSet([(-1, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            RSet([])

    def test_rejects_reversed(self):
        with pytest.raises(ParameterError):
            RSet([(1, 0)])

    def test_min_positive(self):
        assert RSet([0, F(1, 4), 1]).min_positive == F(1, 4)
        assert RSet([0]).min_positive is None
        assert RSet([(0, 1)]).min_positive is None
        assert RSet([0, (F(1, 2), 1)]).min_positive == F(1, 2)


class TestContains:
    def test_interval_membership(self):
        assert RSet([(0, 1)]).contains(F(1, 2))

    def test_gap(self):
        r = RSet([0, (F(1, 3), F(1, 2))])
        assert not r.contains(F(1, 4))

    def test_removed_middle_third(self):
        # 5/9 sits inside the removed middle (1/3, 2/3)
        assert not MID2.contains(F(5, 9))
        assert MID2.contains(F(2, 9))


class TestOplus:
    def test_finite_matches_bruteforce(self):
        r = RSet([0, 1, 2, 3])
        assert r.oplus(2, 2) == F(3)
        assert r.oplus(2, 2) == oplus_points(r.points(), F(2), F(2))

    def test_interval_exact_sum(self):
        assert RSet([(0, 1)]).oplus(F(1, 2), F(1, 4)) == F(3, 4)

    def test_middle_third_clamps(self):
        assert MID2.oplus(F(1, 3), F(2, 9)) == F(1, 3)
        assert MID2.oplus(MID2.oplus(F(1, 3), F(2, 9)), F(1, 9)) == F(1, 3)
        assert MID2.oplus(F(1, 3), MID2.oplus(F(2, 9), F(1, 9))) == F(2, 3)

    def test_membership_enforced(self):
        with pytest.raises(MembershipError):
            RSet([0, 1]).oplus(F(1, 2), 1)

    @settings(max_examples=150)
    @given(finite_sets(), st.data())
    def test_against_bruteforce_on_random_sets(self, r, data):
        pts = r.points()
        a = data.draw(st.sampled_from(pts))
        b = data.draw(st.sampled_from(pts))
        assert r.oplus(a, b) == oplus_points(pts, a, b)

    @settings(max_examples=150)
    @given(finite_sets(), st.data())
    def test_closure_and_lower_bound(self, r, data):
        pts = r.points()
        a = data.draw(st.sampled_from(pts))
        b = data.draw(st.sampled_from(pts))
        out = r.oplus(a, b)
        assert r.contains(out)
        assert out >= max(a, b)
        assert r.is_metric_triple(out, a, b)

    @settings(max_examples=150)
    @given(finite_sets(), st.data())
    def test_monotone(self, r, data):
        pts = r.points()
        a = data.draw(st.sampled_from(pts))
        b = data.draw(st.sampled_from(pts))
        c = data.draw(st.sampled_from(pts))
        if a < b:
            a, b = b, a
        assert r.oplus(a, c) >= r.oplus(b, c)

    @settings(max_examples=150)
    @given(finite_sets(), st.data())
    def test_metric_maximality(self, r, data):
        # the truncated sum is the largest x with (x, b, c) metric
        pts = r.points()
        b = data.draw(st.sampled_from(pts))
        c = data.draw(st.sampled_from(pts))
        top = r.oplus(b, c)
        for x in pts:
            if r.is_metric_triple(x, b, c):
                assert x <= top

    @settings(max_examples=100)
    @given(finite_sets(), st.data())
    def test_inf_distributivity(self, r, data):
        # a (+) min(S) agrees with the pointwise minimum over S
        pts = r.points()
        a = data.draw(st.sampled_from(pts))
        subset = data.draw(
            st.lists(st.sampled_from(pts), min_size=1, max_size=5)
        )
        lhs = r.oplus(a, min(subset))
        assert lhs == min(r.oplus(a, s) for s in subset)


class TestFold:
    def test_examples(self):
        r = RSet([0, 1, 2, 3])
        assert r.oplus_fold([1, 1, 1]) == F(3)
        assert r.oplus_fold([2, 2, 2]) == F(3)
        assert RSet([(0, 1)]).oplus_fold([F(1, 4)]) == F(1, 4)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            RSet([0, 1]).oplus_fold([])

    def test_prefix_monotone(self):
        r = RSet([0, 1, 2, 3])
        values = [1, 2, 1, 1, 2]
        folds = [r.oplus_fold(values[: k + 1]) for k in range(len(values))]
        assert folds == sorted(folds)


class TestMetricTriple:
    def test_examples(self):
        r = RSet([0, 1, 2, 3])
        assert r.is_metric_triple(1, 2, 3)
        assert RSet([0, 1, 2, 3, 5]).is_metric_triple(1, 2, 5) is False
        assert RSet([(0, 1)]).is_metric_triple(F(1, 3), F(1, 3), 0)


class TestRoundUp:
    def test_examples(self):
        a = RSet([0, F(1, 4), F(1, 2), F(3, 4), 1])
        assert a.round_up(F(3, 10)) == F(1, 2)
        assert a.round_up(F(1, 4)) == F(1, 4)
        assert a.round_up(0) == F(0)

    def test_above_max(self):
        with pytest.raises(RangeError):
            RSet([0, 1]).round_up(F(3, 2))


class TestScaleTruncate:
    def test_scale_interval(self):
        assert RSet([(0, 1)]).scale(F(1, 2)) == RSet([(0, F(1, 2))])

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            RSet([0, 1]).scale(0)

    def test_truncate_points(self):
        assert RSet([0, 1, 2, 3]).truncate(2) == RSet([0, 1, 2])

    def test_truncate_splits_interval(self):
        assert RSet([(0, 1)]).truncate(F(1, 3)) == RSet([(0, F(1, 3))])

    def test_truncate_empty(self):
        with pytest.raises(ParameterError):
            RSet([1, 2]).truncate(F(1, 2))


class TestTranslateUnion:
    def test_two_copies(self):
        assert RSet([0, 1]).translate_union(3, 2) == RSet([0, 1, 3, 4])

    def test_three_copies(self):
        assert RSet([0, 1]).translate_union(3, 3) == RSet([0, 1, 3, 4, 6, 7])

    def test_step_bound_is_strict(self):
        # step must strictly exceed twice the maximum
        with pytest.raises(ParameterError):
            RSet([(0, 1)]).translate_union(2, 2)
        with pytest.raises(ParameterError):
            RSet([(0, 1)]).translate_union(F(3, 2), 2)
        RSet([(0, 1)]).translate_union(F(5, 2), 2)  # 5/2 > 2: accepted

    def test_copies_positive(self):
        with pytest.raises(ParameterError):
            RSet([0, 1]).translate_union(3, 0)

    @pytest.mark.parametrize("copies", [-1, True, False, 2.0, "2", None])
    def test_copies_is_a_plain_int(self, copies):
        with pytest.raises(ParameterError, match="copies must be a positive integer"):
            RSet([0, 1]).translate_union(3, copies)

    def test_translates_stay_associative(self):
        # blocks are too far apart for truncated sums to interact, so
        # the union inherits associativity from the base set
        from distset import check_associativity

        base = RSet([0, 1])
        out = base.translate_union(3, 3)
        assert check_associativity(out).verdict == "PassedExhaustive"


class TestJson:
    def test_round_trip(self):
        r = RSet([0, (F(1, 3), F(1, 2)), 2])
        assert RSet.from_json_obj(r.to_json_obj()) == r

    def test_canonical_strings(self):
        obj = RSet([0, (F(1, 3), F(1, 2))]).to_json_obj()
        assert obj == {"intervals": [["0", "0"], ["1/3", "1/2"]]}


def test_scaled_ints_round_trip():
    r = RSet([0, (F(1, 3), F(1, 2)), F(5, 4)])
    den, los, his = r.scaled()
    assert [F(v, den) for v in los] == [lo for lo, _ in r.intervals]
    assert [F(v, den) for v in his] == [hi for _, hi in r.intervals]


def test_random_membership_consistency():
    rng = random.Random(7)
    r = RSet([0, (F(1, 4), F(1, 2)), (F(3, 4), 1)])
    for _ in range(200):
        q = rng.randint(1, 40)
        x = F(rng.randint(0, 40), q)
        inside = any(lo <= x <= hi for lo, hi in r.intervals)
        assert r.contains(x) == inside
