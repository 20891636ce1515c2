import random
from dataclasses import replace
from types import SimpleNamespace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distset import (
    RSet,
    VERDICT_EXHAUSTIVE,
    VERDICT_FAILED,
    VERDICT_HEURISTIC,
    cantor_set,
    check_4values,
    check_associativity,
    recheck_witness,
)
from distset import checks
from distset.checks import MAX_SAMPLE_DEN, CheckReport, random_member
from distset.errors import ParameterError
from conftest import random_finite_set
from oracles import assoc_holds, four_values_holds, sampled_assoc
from oracles import random_member as fraction_random_member

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
        # a union of intervals: one interval is decided exactly (below)
        rep = check_associativity(cantor_set([F(2, 5)]), sample_budget=64, seed=5)
        assert rep.verdict == VERDICT_HEURISTIC
        assert rep.sample_count == 64

    @pytest.mark.parametrize("interval", [(0, 1), (0, 3), (F(1, 2), F(7, 3))])
    def test_one_interval_is_decided(self, interval):
        # x (+) y = min(x + y, M) on [a, M], so every grouping of a
        # triple folds to min(x + y + z, M)
        rep = check_associativity(RSet([interval]), sample_budget=64, seed=5)
        assert rep == CheckReport(check="associativity", verdict=VERDICT_EXHAUSTIVE)

    @pytest.mark.parametrize(
        "rset, verdict, triple, lhs, rhs",
        [
            # verdicts and witnesses (a, b, c) of the exhaustive candidate
            # scan alone, pinned so a change to the candidates shows
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
            (cantor_set([F(2, 5)] * 4), VERDICT_HEURISTIC, None, None, None),
            (cantor_set([F(3, 7)] * 3), VERDICT_HEURISTIC, None, None, None),
            (
                cantor_set([F(2, 5), F(1, 2), F(3, 8)]),
                VERDICT_HEURISTIC,
                None,
                None,
                None,
            ),
            (
                RSet([(0, F(5, 6)), (F(5, 3), 2)]).scale(F(3, 7)),
                VERDICT_HEURISTIC,
                None,
                None,
                None,
            ),
            (
                cantor_set([F(2, 5)] * 3).scale(F(5, 2)),
                VERDICT_HEURISTIC,
                None,
                None,
                None,
            ),
        ],
    )
    def test_pinned_candidate_scan(self, rset, verdict, triple, lhs, rhs):
        rep = check_associativity(rset, sample_budget=0)
        witness = None if triple is None else dict(zip("abc", triple))
        assert (rep.verdict, rep.witness, rep.lhs, rep.rhs) == (
            verdict,
            witness,
            lhs,
            rhs,
        )

    def test_sampling_finds_what_the_candidates_miss(self):
        r = RSet([(0, F(1, 6)), F(1, 3)])
        assert check_associativity(r, sample_budget=0).passed
        rep = check_associativity(r)
        assert rep.verdict == VERDICT_FAILED
        assert rep.witness == {"a": F(1, 6), "b": F(1, 7), "c": F(1, 12)}
        assert (rep.lhs, rep.rhs) == (F(1, 6), F(1, 3))
        assert recheck_witness(r, rep)

    def test_deterministic_given_seed(self):
        r = RSet([0, (F(1, 2), 1)])
        a = check_associativity(r, sample_budget=32, seed=9)
        b = check_associativity(r, sample_budget=32, seed=9)
        assert a == b


class TestFourValues:
    def test_grid_passes(self):
        assert check_4values(RSet([0, 1, 2, 3])).verdict == VERDICT_EXHAUSTIVE

    def test_gap_set_fails_with_valid_witness(self):
        r = RSet([0, 1, 2, 3, 5])
        rep = check_4values(r)
        assert rep.verdict == VERDICT_FAILED
        assert recheck_witness(r, rep)

    def test_interval_union_delegates(self):
        rep = check_4values(cantor_set([F(2, 5)]), sample_budget=32, seed=1)
        assert rep.check == "four-values"
        assert rep.verdict == VERDICT_HEURISTIC
        assert rep.sample_count == 32
        assert rep.note is not None
        rep = check_4values(RSet([(0, 1)]), sample_budget=32, seed=1)
        assert (rep.check, rep.verdict) == ("four-values", VERDICT_EXHAUSTIVE)
        assert rep.sample_count is None and rep.note is not None

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
            rep = check_4values(r, sample_budget=0)
            assert rep.check == "four-values"
            assert rep.verdict == VERDICT_FAILED
            assert recheck_witness(r, rep)

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


def test_random_member_matches_fraction_rounding():
    # integer rounding against ceil/floor on Fractions: equal draws and
    # equal rng states, over unions with one-point intervals, non-integer
    # endpoints and intervals narrow enough that q must double
    rng = random.Random(12)
    seen = set()
    for case in range(200):
        intervals = []
        cur = F(rng.randint(0, 5), rng.choice([1, 3, 7]))
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.25:
                hi = cur
            elif kind < 0.5:
                hi = cur + F(1, rng.randint(200, 5000))
            else:
                hi = cur + F(rng.randint(1, 20), rng.choice([1, 3, 8]))
            intervals.append((cur, hi))
            cur = hi + F(rng.randint(1, 30), rng.choice([1, 2, 10, 1000]))
        rset = RSet(intervals)
        seed = rng.randrange(2**32)
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(30):
            x = random_member(rset, ours)
            assert x == fraction_random_member(rset, ref), (intervals, seed)
            if x.denominator > MAX_SAMPLE_DEN:
                seen.add("doubled")
        assert ours.getstate() == ref.getstate()
        for lo, hi in rset.intervals:
            seen.add("point" if lo == hi else "interval")
            if lo.denominator > 1 or hi.denominator > 1:
                seen.add("non-integer")
    assert seen == {"doubled", "point", "interval", "non-integer"}


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


def test_sampling_matches_the_fraction_path(monkeypatch):
    # the sampling phase on the integer image against its replay on
    # Fractions: equal reports and equal rng states afterwards, on sets
    # whose candidate scan passes (only they reach the samples)
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(checks, "random", SimpleNamespace(Random=Recording))
    rng = random.Random(13)
    stages = [
        cantor_set([rng.choice((F(2, 5), F(1, 2), F(3, 5))) for _ in range(d)])
        for d in (1, 1, 2, 2, 3)
    ]
    seen = set()
    for i, rset in enumerate(_seeded_unions(rng, 80) + stages):
        if check_associativity(rset, 0).verdict != VERDICT_HEURISTIC:
            continue
        runs = [(b, s) for b in (0, 7, 50) for s in (0, 5, 3 + i)]
        if i % 3 == 0:
            runs.append((500, i))
        for budget, seed in runs:
            made.clear()
            rep = check_associativity(rset, budget, seed)
            witness, lhs, rhs, ref = sampled_assoc(rset, budget, seed)
            assert [r.getstate() for r in made] == [ref.getstate()]
            assert (rep.witness, rep.lhs, rep.rhs) == (witness, lhs, rhs)
            if witness is None:
                assert rep == CheckReport(
                    check="associativity",
                    verdict=VERDICT_HEURISTIC,
                    sample_count=budget,
                )
                seen.add("passes")
            else:
                assert rep.verdict == VERDICT_FAILED
                assert recheck_witness(rset, rep)
                seen.add("fails only through sampling")
            seen.add("stage" if rset in stages else "union")
            if budget == 500:
                seen.add("budget 500")
    assert seen == {
        "passes", "fails only through sampling", "stage", "union",
        "budget 500",
    }


@pytest.mark.parametrize("budget", [True, False, 2.0, "50", None])
def test_sample_budget_must_be_a_plain_int(budget):
    # JSON booleans are not numbers; a float or string is no budget
    for rset in (cantor_set([F(2, 5)]), RSet([0, 1, 3]), RSet([(0, 1)])):
        with pytest.raises(ParameterError, match="must be an integer"):
            check_associativity(rset, sample_budget=budget)
        with pytest.raises(ParameterError, match="must be an integer"):
            check_4values(rset, sample_budget=budget)
    with pytest.raises(ParameterError, match="non-negative"):
        check_4values(cantor_set([F(2, 5)]), sample_budget=-1)


def test_report_json_shape():
    rep = check_associativity(MID2)
    obj = rep.to_json_obj()
    assert obj["verdict"] == "Failed"
    assert obj["witness"] == {"a": "1/3", "b": "2/9", "c": "1/9"}
    assert obj["lhs"] == "1/3" and obj["rhs"] == "2/3"
