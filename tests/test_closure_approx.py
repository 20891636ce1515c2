import random
from fractions import Fraction as F
from math import ceil, lcm

import pytest

from distset import (
    ParameterError,
    RSet,
    SubsetError,
    cantor_set,
    check_4values,
    is_eps_approximation,
    make_eps_approximation,
    subadditive_closure,
)
from conftest import random_associative_set, random_finite_set
import oracles

GRID = RSet([0, F(1, 4), F(1, 2), F(3, 4), 1])
UNIT = RSet([(0, 1)])


class TestEpsApproximation:
    def test_quarter_grid_is_good(self):
        assert is_eps_approximation(GRID, UNIT, F(1, 4) + F(1, 100))

    def test_single_point_is_not(self):
        assert not is_eps_approximation(RSet([1]), UNIT, F(1, 2))

    def test_self_approximation(self):
        r = RSet([0, F(1, 3), 2])
        assert is_eps_approximation(r, r, F(1, 1000))

    def test_max_mismatch_fails(self):
        assert not is_eps_approximation(RSet([0, F(1, 2)]), UNIT, F(1, 4))

    def test_subset_enforced(self):
        with pytest.raises(SubsetError):
            is_eps_approximation(RSet([0, F(1, 3), 1]), RSet([0, 1]), 1)

    def test_gap_suprema_with_attainment(self):
        # worst gaps: 3/20 and 1/5 unattained, 1/20 attained; the
        # unattained supremum exactly at eps still passes (strict error)
        r = RSet([0, (F(1, 4), F(1, 2)), (F(3, 4), 1)])
        a = RSet([0, F(1, 4), F(2, 5), F(1, 2), F(4, 5), 1])
        assert not is_eps_approximation(a, r, F(7, 100))
        assert not is_eps_approximation(a, r, F(1, 10))
        assert is_eps_approximation(a, r, F(1, 5))
        assert is_eps_approximation(a, r, F(3, 10))

    def test_probe_consistency(self):
        # randomized member probes never contradict the exact decision
        rng = random.Random(4)
        r = RSet([0, (F(1, 4), F(1, 2)), (F(3, 4), 1)])
        a = RSet([0, F(1, 4), F(2, 5), F(1, 2), F(4, 5), 1])
        for eps in (F(1, 10), F(1, 5), F(7, 100), F(3, 10)):
            verdict = is_eps_approximation(a, r, eps)
            worst = F(0)
            for _ in range(400):
                q = rng.randint(1, 60)
                x = F(rng.randint(0, 60), q)
                if x == 0 or not r.contains(x):
                    continue
                worst = max(worst, a.round_up(x) - x)
            if verdict:
                assert worst < eps


class TestClosure:
    def test_already_closed_grid(self):
        closed, trace = subadditive_closure(GRID, UNIT)
        assert closed == GRID
        assert trace.fixpoint_index == 0
        assert trace.minima == (F(1, 4),)

    def test_third_grows_to_thirds(self):
        closed, trace = subadditive_closure(RSet([F(1, 3), 1]), UNIT)
        assert closed == RSet([F(1, 3), F(2, 3), 1])
        assert trace.rounds >= 1

    def test_top_only(self):
        closed, _ = subadditive_closure(RSet([1]), RSet([0, 1]))
        assert closed == RSet([1])

    def test_zero_member_is_harmless(self):
        closed, _ = subadditive_closure(RSet([0, F(1, 3), 1]), UNIT)
        assert closed == RSet([0, F(1, 3), F(2, 3), 1])

    def test_needs_positive_member(self):
        with pytest.raises(ParameterError):
            subadditive_closure(RSet([0]), RSet([0, 1]))

    def test_trace_minima_growth(self):
        rng = random.Random(21)
        for _ in range(60):
            r = random_finite_set(rng, max_size=7)
            pts = [p for p in r.points() if p > 0]
            if not pts:
                continue
            seed = RSet(
                sorted(rng.sample(pts, rng.randint(1, len(pts))) + [r.max_value])
            )
            closed, trace = subadditive_closure(seed, r)
            w1 = trace.minima[0]
            cap = 2 * ceil(r.max_value / w1) + 2
            assert trace.rounds <= cap
            # minima strictly increase; each is at least the previous
            # truncated-plus-w1, and strict excess forces a full step
            for prev, cur in zip(trace.minima, trace.minima[1:]):
                assert cur > prev
                floor = r.oplus(prev, w1) if r.contains(prev) else None
                if floor is not None:
                    assert cur >= floor
                    if cur > floor:
                        assert cur >= prev + w1
            # fixpoint truly closed
            again, _ = subadditive_closure(closed, r)
            assert again == closed

    def test_closed_sets_pass_four_values(self):
        # needs the ambient set to satisfy the four-values condition
        # itself; closure inside an arbitrary set can fail it
        rng = random.Random(33)
        for _ in range(25):
            r = random_associative_set(rng, max_size=6)
            pts = [p for p in r.points() if p > 0]
            if not pts:
                continue
            seed = RSet(sorted({rng.choice(pts), r.max_value}))
            closed, _ = subadditive_closure(seed, r)
            assert check_4values(closed).passed


class TestMakeEpsApproximation:
    def test_quarter_grid_construction(self):
        s = make_eps_approximation(
            UNIT, F(1, 4) + F(1, 100), RSet([1]), F(1, 4)
        )
        assert s == RSet([0, F(1, 4), F(1, 2), F(3, 4), 1])

    def test_finite_set_with_huge_eps_returns_itself(self):
        r = RSet([0, F(1, 3), F(1, 2), 2])
        assert make_eps_approximation(r, 100, r) == r

    def test_split_interval_set(self):
        r = RSet([0, (F(1, 2), 1)])
        s = make_eps_approximation(r, F(1, 8), None)
        assert s.is_finite()
        assert s.contains(F(1, 2)) and s.contains(1)
        assert is_eps_approximation(s, r, F(1, 8))
        again, trace = subadditive_closure(s, r)
        assert again == s and trace.fixpoint_index == 0
        assert check_4values(s).passed

    def test_requested_minimum_respected(self):
        s = make_eps_approximation(UNIT, F(1, 8), None, F(1, 16))
        assert s.min_positive == F(1, 16)
        assert is_eps_approximation(s, UNIT, F(1, 16))

    def test_seed_below_minimum_rejected(self):
        with pytest.raises(ParameterError):
            make_eps_approximation(UNIT, F(1, 8), RSet([F(1, 100)]), F(1, 16))

    def test_degenerate_zero_set(self):
        assert make_eps_approximation(RSet([0]), F(1, 2), None) == RSet([0])

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            make_eps_approximation(UNIT, 0, None)
        with pytest.raises(ParameterError):
            make_eps_approximation(UNIT, F(1, 8), None, F(1, 4))  # r >= eps
        holed = RSet([0, (F(1, 2), 1)])
        with pytest.raises(ParameterError):
            make_eps_approximation(holed, F(1, 3), None, F(1, 4))  # not a member

    def test_round_up_preserves_metric_triples(self):
        # for a closed approximant sharing the maximum, rounding a
        # metric triple of the ambient set up never breaks the triangle
        rng = random.Random(12)
        checked = 0
        while checked < 40:
            r = random_associative_set(rng, max_size=7)
            positive = [p for p in r.points() if p > 0]
            if not positive:
                continue
            size = rng.randint(1, len(positive))
            seed = RSet(
                sorted(set(rng.sample(positive, size)) | {r.max_value})
            )
            closed, _ = subadditive_closure(seed, r)
            pts = r.points()
            a, b = rng.choice(pts), rng.choice(pts)
            c = rng.choice(pts)
            if not r.is_metric_triple(a, b, c):
                continue
            ra, rb, rc = (closed.round_up(x) for x in (a, b, c))
            assert ra <= rb + rc and rb <= ra + rc and rc <= ra + rb
            checked += 1

    def test_random_postconditions(self):
        rng = random.Random(8)
        for _ in range(20):
            r = random_associative_set(rng, max_size=6)
            if r.max_value == 0:
                continue
            eps = r.max_value / rng.randint(2, 6)
            s = make_eps_approximation(r, eps, None)
            assert s.is_finite()
            assert s.is_subset_of(r)
            assert s.max_value == r.max_value
            assert is_eps_approximation(s, r, eps)
            closed_again, trace = subadditive_closure(s, r)
            assert closed_again == s


def common_den(seed, rset):
    values = [v for iv in rset.intervals for v in iv] + seed.points()
    return lcm(*(v.denominator for v in values))


def oracle_closure(seed, rset):
    """Fixpoint, minima and round count from full oracle rounds on the
    common-denominator image, decoded with ``RSet(...)``."""
    den = common_den(seed, rset)
    los = [int(lo * den) for lo, _ in rset.intervals]
    his = [int(hi * den) for _, hi in rset.intervals]
    its = oracles.closure_iterates([int(p * den) for p in seed.points()], los, his)
    minima = [seed.min_positive] + [
        F(min(set(b) - set(a)), den) for a, b in zip(its, its[1:])
    ]
    return RSet([F(v, den) for v in its[-1]]), tuple(minima), len(its) - 1


def oracle_grid(rset, eps, seed_points, r):
    """The grid ``make_eps_approximation`` documents: endpoints, interior
    points at uniform spacing (at most r, or below eps), seed points and
    the maximum; with r given, positive points below r give way to r."""
    pts = {rset.max_value}
    for lo, hi in rset.intervals:
        pts |= {lo, hi}
        if hi > lo:
            k = ceil((hi - lo) / r) if r is not None else (hi - lo) // eps + 1
            pts |= {lo + (hi - lo) * j / k for j in range(1, k)}
    if seed_points is not None:
        pts |= set(seed_points.points())
    if r is not None:
        pts = {p for p in pts if p == 0 or p >= r} | {r}
    return RSet(sorted(pts))


def random_ambient(rng, kind):
    if kind == 0:
        return RSet([(0, F(rng.randint(1, 9), rng.randint(1, 4)))])
    if kind == 1:
        weight = rng.choice([F(2, 5), F(1, 2), F(3, 7)])
        return cantor_set([weight] * rng.randint(1, 2))
    if kind == 2:
        return random_finite_set(rng, max_size=8)
    out, cur = [0], F(0)
    for _ in range(rng.randint(1, 3)):
        lo = cur + F(rng.randint(1, 6), rng.choice([2, 3, 4]))
        hi = lo + F(rng.randint(0, 6), rng.choice([2, 3, 4]))
        out.append((lo, hi))
        cur = hi
    return RSet(out)


def random_member(rng, rset):
    lo, hi = rng.choice(rset.intervals)
    return lo + (hi - lo) * F(rng.randint(0, 6), 6)


class TestClosurePinning:
    """The semi-naive integer closure against full oracle rounds."""

    def assert_pinned(self, seed, rset):
        closed, trace = subadditive_closure(seed, rset)
        expected, minima, rounds = oracle_closure(seed, rset)
        assert closed == expected
        assert closed.scaled() == expected.scaled()
        assert trace.minima == minima
        assert trace.rounds == trace.fixpoint_index == rounds
        return closed, rounds

    def test_image_sharing_a_factor_with_den(self):
        # den 6 from the ambient set, image {3, 6}: reduced to {1/2, 1}
        rset = RSet([0, (F(1, 6), 1)])
        closed, _ = self.assert_pinned(RSet([F(1, 2), 1]), rset)
        assert closed.scaled() == (2, [1, 2], [1, 2])
        closed, _ = self.assert_pinned(RSet([F(1, 3), 1]), rset)
        assert closed.scaled() == (3, [1, 2, 3], [1, 2, 3])

    def test_seeded_closures(self):
        rng = random.Random(41)
        seen = set()
        for case in range(120):
            rset = random_ambient(rng, case % 4)
            pts = {random_member(rng, rset) for _ in range(rng.randint(1, 4))}
            pts.add(rset.sup_le(rset.max_value / rng.randint(2, 12)))
            pts.add(rset.max_value)
            seed = RSet(sorted(pts))
            if seed.min_positive is None:
                continue
            closed, rounds = self.assert_pinned(seed, rset)
            reduced = closed.scaled()[0] < common_den(seed, rset)
            seen.add("reduced" if reduced else "unreduced")
            seen.add(min(rounds, 2))
        assert seen == {"reduced", "unreduced", 0, 1, 2}

    def test_seeded_approximations(self):
        rng = random.Random(42)
        seen = set()
        for case in range(80):
            rset = random_ambient(rng, case % 4)
            if rset.max_value == 0:
                continue
            eps = rset.max_value / rng.randint(2, 8)
            r = None
            if case % 2:
                below = [rset.sup_le(eps * F(k, 8)) for k in range(1, 8)]
                below = [v for v in below if 0 < v < eps]
                r = rng.choice(below) if below else None
            seeds = None
            if rng.random() < 0.5:
                seeds = RSet([rset.max_value])
            s = make_eps_approximation(rset, eps, seeds, r)
            expected, _, _ = oracle_closure(oracle_grid(rset, eps, seeds, r), rset)
            assert s == expected
            assert s.scaled() == expected.scaled()
            seen.add(r is None)
        assert seen == {True, False}
