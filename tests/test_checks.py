import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distset import (
    RSet,
    VERDICT_EXHAUSTIVE,
    VERDICT_FAILED,
    cantor_set,
    check_4values,
    check_associativity,
    recheck_witness,
)
from distset import _core
from distset._core import ops_py
from distset.checks import CheckReport
from conftest import random_finite_set
from oracles import assoc_holds, four_values_holds, grid_assoc_failure

MID2 = cantor_set([F(1, 3), F(1, 3)])


class TestAssociativity:
    def test_truncated_integer_grid_passes(self):
        rep = check_associativity(RSet([0, 1, 2, 3]))
        assert rep.verdict == VERDICT_EXHAUSTIVE

    def test_gap_set_fails_with_valid_witness(self):
        r = RSet([0, 1, 2, 3, 5])
        rep = check_associativity(r)
        assert rep.verdict == VERDICT_FAILED
        assert recheck_witness(r, rep)
        assert {rep.lhs, rep.rhs} == {F(3), F(5)}

    def test_middle_third_exact_witness(self):
        rep = check_associativity(MID2)
        assert rep.verdict == VERDICT_FAILED
        assert rep.witness == {"a": F(1, 3), "b": F(2, 9), "c": F(1, 9)}
        assert rep.lhs == F(1, 3)
        assert rep.rhs == F(2, 3)
        assert recheck_witness(MID2, rep)

    def test_interval_passes_heuristically(self):
        # named when sampling could only pass this union heuristically;
        # the per-gap search now decides it exactly
        rep = check_associativity(cantor_set([F(2, 5)]))
        assert rep == CheckReport(check="associativity", verdict=VERDICT_EXHAUSTIVE)

    @pytest.mark.parametrize("interval", [(0, 1), (0, 3), (F(1, 2), F(7, 3))])
    def test_one_interval_is_decided(self, interval):
        # x (+) y = min(x + y, M) on [a, M], so every grouping of a
        # triple folds to min(x + y + z, M)
        rep = check_associativity(RSet([interval]))
        assert rep == CheckReport(check="associativity", verdict=VERDICT_EXHAUSTIVE)

    @pytest.mark.parametrize(
        "rset, verdict, triple, lhs, rhs",
        [
            # verdicts and witnesses (a, b, c): the first five come from
            # the candidate scan, pinned so a change to the candidates
            # shows; the rest are the per-gap search's exact verdicts, and
            # the first reproducer scaled by 3/7 fails on its grid triple.
            # Rows 5-7 and 9 keep the ids they had when sampling could only
            # pass them heuristically; they now pass exhaustively
            (MID2, VERDICT_FAILED, (F(1, 3), F(2, 9), F(1, 9)), F(1, 3), F(2, 3)),
            (
                cantor_set([F(1, 3)] * 3),
                VERDICT_FAILED,
                (F(1, 9), F(2, 27), F(1, 27)),
                F(1, 9),
                F(2, 9),
            ),
            (
                cantor_set([F(1, 4)] * 3),
                VERDICT_FAILED,
                (F(9, 64), F(27, 512), F(27, 512)),
                F(9, 64),
                F(63, 256),
            ),
            (
                cantor_set([F(1, 5), F(1, 3), F(1, 4)]),
                VERDICT_FAILED,
                (F(37, 60), F(1, 20), F(1, 20)),
                F(7, 10),
                F(43, 60),
            ),
            (
                RSet([(0, F(1, 4)), (F(1, 2), F(3, 4)), (F(3, 2), 2)]),
                VERDICT_FAILED,
                (F(3, 4), F(1, 2), F(1, 4)),
                F(3, 4),
                F(3, 2),
            ),
            pytest.param(
                cantor_set([F(2, 5)] * 4),
                VERDICT_EXHAUSTIVE,
                None,
                None,
                None,
                id="rset5-PassedHeuristic-None-None-None",
            ),
            pytest.param(
                cantor_set([F(3, 7)] * 3),
                VERDICT_EXHAUSTIVE,
                None,
                None,
                None,
                id="rset6-PassedHeuristic-None-None-None",
            ),
            pytest.param(
                cantor_set([F(2, 5), F(1, 2), F(3, 8)]),
                VERDICT_EXHAUSTIVE,
                None,
                None,
                None,
                id="rset7-PassedHeuristic-None-None-None",
            ),
            (
                RSet([(0, F(5, 6)), (F(5, 3), 2)]).scale(F(3, 7)),
                VERDICT_FAILED,
                (F(5, 14), F(79, 224), F(79, 224)),
                F(5, 14),
                F(5, 7),
            ),
            pytest.param(
                cantor_set([F(2, 5)] * 3).scale(F(5, 2)),
                VERDICT_EXHAUSTIVE,
                None,
                None,
                None,
                id="rset9-PassedHeuristic-None-None-None",
            ),
        ],
    )
    def test_pinned_candidate_scan(self, rset, verdict, triple, lhs, rhs):
        rep = check_associativity(rset)
        witness = None if triple is None else dict(zip("abc", triple))
        assert (rep.verdict, rep.witness, rep.lhs, rep.rhs) == (
            verdict,
            witness,
            lhs,
            rhs,
        )

    def test_sampling_finds_what_the_candidates_miss(self):
        # the candidate scan passes this union; the per-gap search's
        # triple on the 1/32 grid is the witness
        r = RSet([(0, F(1, 6)), F(1, 3)])
        den, los, his = r.scaled()
        cands = _core.closure_step(sorted({*los, *his}), los, his)
        assert _core.scan_assoc(los, his, cands) is None
        rep = check_associativity(r)
        assert rep.verdict == VERDICT_FAILED
        assert rep.witness == {"a": F(1, 6), "b": F(5, 32), "c": F(5, 32)}
        assert (rep.lhs, rep.rhs) == (F(1, 6), F(1, 3))
        assert recheck_witness(r, rep)

    def test_deterministic_given_seed(self):
        # the same set gives the same exact report
        r = RSet([0, (F(1, 2), 1)])
        a = check_associativity(r)
        assert a == check_associativity(r)
        assert a.verdict == VERDICT_EXHAUSTIVE


class TestFourValues:
    def test_grid_passes(self):
        assert check_4values(RSet([0, 1, 2, 3])).verdict == VERDICT_EXHAUSTIVE

    def test_gap_set_fails_with_valid_witness(self):
        r = RSet([0, 1, 2, 3, 5])
        rep = check_4values(r)
        assert rep.verdict == VERDICT_FAILED
        assert recheck_witness(r, rep)

    def test_interval_union_delegates(self):
        for r in (cantor_set([F(2, 5)]), RSet([(0, 1)])):
            rep = check_4values(r)
            assert (rep.check, rep.verdict) == ("four-values", VERDICT_EXHAUSTIVE)
            assert rep.note is not None

    def test_middle_third_delegated_witness(self):
        rep = check_4values(MID2)
        assert rep.verdict == VERDICT_FAILED
        assert rep.witness == {"a": F(1, 3), "b": F(2, 9), "c": F(1, 9)}

    def test_delegated_witness_rechecks_by_shape(self):
        # an interval union's four-values report carries an associativity
        # triple; its recheck follows the witness, not the label
        rep = check_4values(MID2)
        assert recheck_witness(MID2, rep)
        wrong = replace(rep, lhs=rep.rhs, rhs=rep.lhs)
        assert not recheck_witness(MID2, wrong)
        for r in (
            cantor_set([F(1, 4)] * 3),
            RSet([(0, F(1, 4)), (F(1, 2), F(3, 4)), (F(3, 2), 2)]),
        ):
            rep = check_4values(r)
            assert rep.check == "four-values"
            assert rep.verdict == VERDICT_FAILED
            assert recheck_witness(r, rep)

    def test_recheck_rejects_what_does_not_witness_the_failure(self):
        # the quadruple (5, 3, 1, 1) with x = 2, the one value linking
        # (5,3)|(1,1); the window [4, 4] of (5,1)|(1,3) misses the set
        r = RSet([0, 1, 2, 3, 5])
        rep = check_4values(r)
        w = rep.witness
        assert w == {"a": 5, "b": 3, "c": 1, "d": 1, "x": 2}
        assert (rep.lhs, rep.rhs) == (4, 4)
        assert recheck_witness(r, rep)
        rejected = [
            replace(rep, verdict=VERDICT_EXHAUSTIVE),
            replace(rep, witness=None),
            replace(rep, witness={**w, "a": F(2)}),  # max(b, c, d) > a
            replace(rep, witness={**w, "x": F(5)}),  # outside [2, 2]
            replace(rep, lhs=F(3)),  # not the rearranged window
            replace(rep, witness={"a": F(5), "b": F(3)}),  # unknown shape
        ]
        for report in rejected:
            assert not recheck_witness(r, report), report
        # 5 is no member here, and 4 fills the window there
        assert not recheck_witness(RSet([0, 1, 2, 3]), rep)
        assert not recheck_witness(RSet([0, 1, 2, 3, 4, 5]), rep)

    def test_matches_definition_oracle_small(self):
        rng = random.Random(3)
        for _ in range(40):
            r = random_finite_set(rng, max_size=5, max_den=6)
            rep = check_4values(r)
            assert rep.passed == four_values_holds(r.points())
            if not rep.passed:
                assert recheck_witness(r, rep)


class TestEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sets(
            st.builds(F, st.integers(1, 24), st.integers(1, 8)),
            min_size=0,
            max_size=6,
        )
    )
    def test_four_values_iff_associative(self, values):
        r = RSet(sorted(values | {F(0)}))
        assert check_4values(r).passed == check_associativity(r).passed

    def test_scale_and_truncate_preserve_passing(self):
        rng = random.Random(41)
        found = 0
        while found < 12:
            r = random_finite_set(rng, max_size=6)
            if not check_4values(r).passed:
                continue
            found += 1
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            assert check_4values(r.scale(c)).passed
            positives = [p for p in r.points() if p > 0]
            if positives:
                cut = rng.choice(positives)
                assert check_4values(r.truncate(cut)).passed

    def test_oracle_agreement_tiny(self):
        rng = random.Random(11)
        for _ in range(30):
            r = random_finite_set(rng, max_size=5, max_den=5)
            pts = r.points()
            assert check_associativity(r).passed == assoc_holds(pts)
            assert check_4values(r).passed == four_values_holds(pts)


class TestQuadruple:
    def test_admissibility_enforced(self):
        import pytest

        from distset import ParameterError, Quadruple

        Quadruple(a=F(3), b=F(1), c=F(1), d=F(1))
        with pytest.raises(ParameterError):
            Quadruple(a=F(4), b=F(1), c=F(1), d=F(1))  # a > b+c+d
        with pytest.raises(ParameterError):
            Quadruple(a=F(1), b=F(2), c=F(1), d=F(1))  # max(b,c,d) > a

    def test_linking_windows(self):
        from distset import Quadruple

        q = Quadruple(a=F(5), b=F(3), c=F(1), d=F(1))
        assert q.linking_window() == (F(2), F(2))
        assert q.linking_window(swap=True) == (F(4), F(4))


def _seeded_unions(rng, count):
    """Unions of 2-4 intervals on [0, 3] with denominators 3-7, a few of
    their intervals shrunk to points."""
    out = []
    for _ in range(count):
        k, d = rng.randint(2, 4), rng.randint(3, 7)
        ends = sorted(rng.sample(range(3 * d + 1), 2 * k))
        out.append(RSet([
            (F(ends[2 * i], d), F(ends[2 * i + (rng.random() > 0.15)], d))
            for i in range(k)
        ]))
    return out


REPRODUCERS = (
    RSet([(0, F(5, 6)), (F(5, 3), 2)]),
    RSet([(0, F(7, 6)), (F(7, 3), F(17, 6))]),
    RSet([(0, F(7, 6)), (F(7, 3), F(10, 3))]),
)


@pytest.mark.parametrize("scale", [1, F(2**70), F(1, 2**70)])
@pytest.mark.parametrize("base", REPRODUCERS)
def test_known_non_associative_unions_fail(base, scale):
    # the candidate scan passes all three; both checks now fail them,
    # with witnesses that re-evaluate, at any scale
    r = base.scale(scale)
    for check in (check_associativity, check_4values):
        rep = check(r)
        assert rep.verdict == VERDICT_FAILED
        assert recheck_witness(r, rep)


def _oracle_family(rng):
    """Unions of 2-5 intervals with endpoints in (1/d)Z, d = 1-3, spread
    over 2k units of 1/d (about 30% without 0, each interval a point with
    probability 0.15), and Cantor stages of depth 1-2: small enough for
    the grid oracle's cubic scan."""
    sets = []
    for _ in range(40):
        k, d = rng.randint(2, 5), rng.randint(1, 3)
        start = 0 if rng.random() < 0.7 else rng.randint(1, d)
        ends = [start, *sorted(rng.sample(range(start + 1, start + 2 * k + 1), 2 * k - 1))]
        sets.append(RSet([
            (F(ends[2 * i], d), F(ends[2 * i + (rng.random() >= 0.15)], d))
            for i in range(k)
        ]))
    for weights in (
        [F(1, 2)], [F(1, 3)], [F(3, 5)], [F(1, 5)],
        [F(1, 2), F(1, 2)], [F(1, 3), F(1, 3)], [F(1, 2), F(1, 3)],
    ):
        sets.append(cantor_set(weights))
    return sets


def test_gap_search_agrees_with_the_grid_oracle():
    seen = set()
    for r in _oracle_family(random.Random(2101)):
        den, los, his = r.scaled()
        hit = ops_py.assoc_gap_search(los, his)
        ref = grid_assoc_failure(r.intervals, den)
        assert (hit is None) == (ref is None), r.intervals
        rep = check_associativity(r)
        assert rep.passed == (ref is None)
        if ref is not None:
            assert recheck_witness(r, rep)
        seen.add("passes" if ref is None else "fails")
        seen.add("no 0" if r.intervals[0][0] > 0 else "0")
        if any(lo == hi for lo, hi in r.intervals):
            seen.add("point")
    assert seen == {"passes", "fails", "no 0", "0", "point"}


def test_candidate_scan_hits_are_gap_search_hits():
    # the candidate scan runs first and keeps its witnesses; the per-gap
    # search must still fail every union the scan fails, so that it
    # decides alone and the scan could run only to pick a witness
    rng = random.Random(2103)
    stages = [
        cantor_set([rng.choice((F(1, 4), F(1, 3), F(2, 5), F(1, 2))) for _ in range(d)])
        for d in (1, 2, 2, 3, 3)
    ]
    hits = 0
    for r in _seeded_unions(rng, 120) + stages:
        den, los, his = r.scaled()
        cands = _core.closure_step(sorted({*los, *his}), los, his)
        if ops_py.scan_assoc(los, his, cands) is not None:
            hits += 1
            assert ops_py.assoc_gap_search(los, his) is not None, r.intervals
    assert hits > 60


def test_gap_search_agrees_with_the_exhaustive_scan():
    # finite sets are degenerate unions; their exhaustive scan decides
    rng = random.Random(2102)
    for _ in range(300):
        d = rng.randint(1, 8)
        pts = sorted(rng.sample(range(4 * d + 1), rng.randint(2, min(9, 4 * d))))
        hit = ops_py.assoc_gap_search(pts, pts)
        assert (hit is None) == (ops_py.scan_assoc(pts, pts, pts) is None), pts


def test_report_json_shape():
    rep = check_associativity(MID2)
    obj = rep.to_json_obj()
    assert obj["verdict"] == "Failed"
    assert obj["witness"] == {"a": "1/3", "b": "2/9", "c": "1/9"}
    assert obj["lhs"] == "1/3" and obj["rhs"] == "2/3"
