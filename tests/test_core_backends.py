"""The compiled kernels must agree with the pure-Python twins bit for bit."""

import itertools
import os
import random
import types
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from distset import _core
from distset._core import ops_py
from distset.cantor import cantor_set

import oracles

ops_cy = _core.ops_cy

skip_no_ext = pytest.mark.skipif(
    ops_cy is None, reason="compiled backend not built"
)


def test_extension_importable_unless_disabled():
    # guards against silent build failures: the extension must be
    # present unless explicitly opted out
    if os.environ.get("DISTSET_PURE_PYTHON") == "1":
        pytest.skip("pure-Python mode requested")
    if os.environ.get("DISTSET_NO_EXTENSION") == "1":
        pytest.skip("extension build opted out")
    assert ops_cy is not None
    assert _core.backend_name() == "cython"


def random_set_arrays(rng, max_points=12, top=2000):
    pts = sorted(rng.sample(range(0, top), rng.randint(1, max_points)))
    mode = rng.random()
    if mode < 0.4:
        los = his = pts
    else:
        los, his = [], []
        cur = 0
        for p in pts:
            lo = cur + rng.randint(0, 50)
            hi = lo + rng.randint(0, 40)
            los.append(lo)
            his.append(hi)
            cur = hi + 1
    return los, his


def stage_candidates(weights):
    """``(los, his, cands)`` that ``check_associativity`` scans on the
    Cantor stage of ``weights``: the endpoints closed under one round."""
    _, los, his = cantor_set(weights).scaled()
    return los, his, ops_py.closure_step(sorted({*los, *his}), los, his)


@skip_no_ext
def test_sup_le_agrees():
    rng = random.Random(1)
    for _ in range(300):
        los, his = random_set_arrays(rng)
        s = rng.randint(los[0], his[-1] + 100)
        assert ops_py.sup_le(los, his, s) == ops_cy.sup_le(los, his, s)


@skip_no_ext
def test_scan_assoc_agrees():
    rng = random.Random(2)
    for _ in range(150):
        los, his = random_set_arrays(rng)
        cands = sorted(
            {rng.choice(his) for _ in range(rng.randint(1, 8))}
            | {rng.choice(los) for _ in range(3)}
        )
        assert ops_py.scan_assoc(los, his, cands) == ops_cy.scan_assoc(
            los, his, cands
        )
    # realistic inputs: stage candidates up to depth 5 and one grid
    half, twofifths, third = F(1, 2), F(2, 5), F(1, 3)
    for weights in (
        [twofifths, half, F(3, 7)],
        [third, third, half],
        [F(3, 5), F(2, 3), twofifths, half],
        [twofifths, third, half, F(3, 7)],
        [half, F(4, 7), twofifths, F(3, 7), F(2, 3)],
        [F(3, 10), F(1, 4), half, twofifths, F(3, 5)],
    ):
        los, his, cands = stage_candidates(weights)
        assert ops_py.scan_assoc(los, his, cands) == ops_cy.scan_assoc(
            los, his, cands
        ), weights
    grid = list(range(97))
    assert ops_py.scan_assoc(grid, grid, grid) is None
    assert ops_cy.scan_assoc(grid, grid, grid) is None


@skip_no_ext
def test_check_triples_agrees():
    rng = random.Random(3)
    for _ in range(150):
        los, his = random_set_arrays(rng)
        flat = [rng.choice(his) for _ in range(3 * rng.randint(0, 12))]
        assert ops_py.check_triples(los, his, flat) == ops_cy.check_triples(
            los, his, flat
        )


@skip_no_ext
def test_scan_four_values_agrees():
    rng = random.Random(4)
    for _ in range(200):
        pts = sorted(rng.sample(range(0, 60), rng.randint(1, 8)))
        assert ops_py.scan_four_values(pts) == ops_cy.scan_four_values(pts)


@skip_no_ext
def test_closure_step_agrees():
    rng = random.Random(5)
    for _ in range(150):
        los, his = random_set_arrays(rng)
        pool = [v for v in los + his]
        pts = sorted({rng.choice(pool) for _ in range(rng.randint(1, 6))})
        assert ops_py.closure_step(pts, los, his) == ops_cy.closure_step(
            pts, los, his
        )


@skip_no_ext
def test_all_pairs_completion_agrees():
    rng = random.Random(6)
    for _ in range(80):
        los, his = random_set_arrays(rng)
        if los[0] > 0:  # ground sets carry 0; the kernels assume it
            los = [0] + los
            his = [0] + his
        weights = [h for h in his if h > 0]
        if not weights:
            continue
        n = rng.randint(1, 7)
        flat = [-1] * (n * n)
        for i in range(n):
            flat[i * n + i] = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    w = rng.choice(weights)
                    flat[i * n + j] = flat[j * n + i] = w
        a = list(flat)
        b = list(flat)
        assert ops_py.all_pairs_completion(n, a, los, his) == (
            ops_cy.all_pairs_completion(n, b, los, his)
        )


@skip_no_ext
def test_validate_metric_agrees():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        flat = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    flat[i * n + j] = rng.randint(0, 6)
        if rng.random() < 0.5:  # often make it symmetric and plausible
            for i in range(n):
                for j in range(i + 1, n):
                    flat[j * n + i] = flat[i * n + j]
        assert ops_py.validate_metric(n, flat) == ops_cy.validate_metric(
            n, flat
        )


def test_unrouted_kernels_are_the_python_ones():
    # only scan_assoc, all_pairs_completion and validate_metric are routed;
    # every other kernel is served by ops_py on every backend
    for name in (
        "check_triples", "closure_step", "scan_four_values", "closure_round",
        "sup_le",
    ):
        assert getattr(_core, name) is getattr(ops_py, name), name


def test_pick_is_the_int64_guard(monkeypatch):
    # inclusive bound at 2**60, read off each routed kernel's input: a
    # stand-in extension shows which backend a call went to
    edge = 2**60
    compiled = types.SimpleNamespace(
        scan_assoc=lambda los, his, cands: "compiled",
        all_pairs_completion=lambda n, d, los, his: "compiled",
        validate_metric=lambda n, d: "compiled",
    )
    monkeypatch.setattr(_core, "ops_cy", compiled)
    assert _core._pick(edge) is compiled
    assert _core._pick(edge + 1) is ops_py
    for v in (edge, -edge):
        assert _core.validate_metric(1, [v]) == "compiled"
    for v in (edge + 1, -edge - 1):
        assert _core.validate_metric(1, [v]) == ("diag", 0, 0)
    assert _core.validate_metric(0, []) == "compiled"  # an empty matrix fits
    assert _core.scan_assoc([0], [edge], [0, edge]) == "compiled"
    assert _core.scan_assoc([0], [edge], []) == "compiled"
    assert _core.scan_assoc([0], [edge + 1], [0, edge]) is None
    assert _core.scan_assoc([0], [edge], [0, edge + 1]) is None
    assert _core.all_pairs_completion(1, [0], [0], [edge]) == "compiled"
    assert _core.all_pairs_completion(1, [0], [0], [edge + 1]) == [0]


def test_dispatcher_falls_back_on_huge_ints():
    huge = 2**70
    los = [0, huge]
    his = [0, huge]
    # must route to the Python backend and still be exact
    assert _core.closure_step([huge], los, his) == [huge]
    assert _core.scan_four_values([0, huge]) is None
    # the routed kernels are scale-invariant: the same answers as on the
    # small image, which fits either backend
    small = [0, 1, 2, 4]
    big = [huge * v for v in small]
    assert _core.scan_assoc(small, small, small) == (1, 1, 2)
    assert _core.scan_assoc(big, big, big) == (1, 1, 2)
    assert _core.scan_assoc(los, his, los) is None
    path = [0, 1, -1, 1, 0, 2, -1, 2, 0]  # a-b-c, no edge a-c
    done = _core.all_pairs_completion(3, list(path), small, small)
    assert done == [0, 1, 2, 1, 0, 2, 2, 2, 0]  # 1 + 2 truncates to 2
    assert _core.all_pairs_completion(
        3, [huge * v for v in path], big, big
    ) == [huge * v for v in done]
    bad = [0, 1, 4, 1, 0, 2, 4, 2, 0]  # 4 > 1 + 2
    assert _core.validate_metric(3, bad) == ("tri", 0, 2, 1)
    assert _core.validate_metric(3, [huge * v for v in bad]) == ("tri", 0, 2, 1)
    assert _core.validate_metric(3, [huge * v for v in done]) is None
    assert _core.validate_metric(2, [0, -huge, -huge, 0]) == ("pos", 0, 1)


def test_closure_step_matches_oracle():
    # pure-Python kernel against the double loop, extension or not; the
    # inputs reach every case of the cut at max R
    rng = random.Random(8)
    seen = set()
    for case in range(600):
        los, his = random_set_arrays(rng, max_points=6, top=120)
        top = his[-1]
        members = sorted(
            {rng.randint(lo, hi) for lo, hi in zip(los, his) for _ in "abc"}
        )
        if case % 10 == 0:
            pts = [rng.choice(members)]
        else:
            k = min(len(members), rng.randint(1, 12))
            pts = rng.sample(members, k)
            pts.sort()
        for a in pts:
            for b in pts:
                s = a + b
                if s > top:
                    seen.add("above")
                elif s == top:
                    seen.add("at")
                elif ops_py.sup_le(los, his, s) != s:
                    seen.add("gap")
                else:
                    seen.add("below")
        seen.add("finite" if los == his else "union")
        seen.add(len(pts) == 1)
        assert ops_py.closure_step(pts, los, his) == oracles.closure_step(
            pts, los, his
        ), (pts, los, his)
    assert seen == {"above", "at", "gap", "below", "finite", "union", True, False}


def test_closure_round_matches_oracle():
    # pure-Python round against the oracle, extension or not: on any split
    # of the points into old and fresh it adds the sums with a fresh point,
    # and on the split a first round leaves it equals a second full round.
    # The inputs reach sums past max R that only fresh x old pairs make,
    # sums in gaps, rounds that add nothing and one-point sets
    rng = random.Random(10)
    seen = set()
    for case in range(600):
        los, his = random_set_arrays(rng, max_points=6, top=120)
        top = his[-1]
        members = sorted(
            {rng.randint(lo, hi) for lo, hi in zip(los, his) for _ in "abc"}
        )
        if case % 10 == 0:
            pts = [rng.choice(members)]
        else:
            k = min(len(members), rng.randint(1, 12))
            pts = sorted(rng.sample(members, k))

        old = [p for p in pts if rng.random() < 0.5]
        fresh = [p for p in pts if p not in old]
        sums = {oracles.sup_le_scan(los, his, p + q) for p in fresh for q in pts}
        assert ops_py.closure_round(old, fresh, los, his) == sorted(
            {*pts, *sums}
        ), (old, fresh, los, his)
        with_old = [p + q for p in fresh for q in old]
        with_fresh = [p + q for p in fresh for q in fresh if q >= p]
        if (
            top not in pts
            and any(s > top for s in with_old)
            and all(s <= top for s in with_fresh)
        ):
            seen.add("over from fresh x old only")
        if any(oracles.sup_le_scan(los, his, s) < s for s in with_old if s <= top):
            seen.add("gap")

        first = oracles.closure_step(pts, los, his)
        assert ops_py.closure_round([], pts, los, his) == first
        added = sorted(set(first) - set(pts))
        assert ops_py.closure_round(pts, added, los, his) == (
            oracles.closure_step(first, los, his)
        ), (pts, added, los, his)
        seen.add("finite" if los == his else "union")
        seen.add("one point" if len(pts) == 1 else "points")
        seen.add("added" if added else "none added")
    assert seen == {
        "over from fresh x old only", "gap", "finite", "union",
        "one point", "points", "added", "none added",
    }


def test_scan_assoc_matches_oracle():
    # pure-Python scan against the uncut multiset loop, extension or not;
    # the inputs reach the cut at max R, a hit that only the (x+z)+y
    # grouping exposes while the other two sit at max R, and passes
    rng = random.Random(9)
    seen = set()
    for case in range(300):
        aim = case % 2 == 0
        if not aim:
            los, his = random_set_arrays(rng, max_points=6, top=120)
        else:  # short intervals and short gaps
            los, his, cur = [], [], 0
            for _ in range(rng.randint(1, 5)):
                los.append(cur + rng.randint(0, 6))
                his.append(los[-1] + rng.randint(0, 4))
                cur = his[-1] + 1
        top = his[-1]
        members = {rng.randint(lo, hi) for lo, hi in zip(los, his) for _ in "abc"}
        members = sorted(members | {top})
        cands = sorted(rng.sample(members, min(len(members), rng.randint(1, 8))))
        if aim:  # look for a first hit that only (x+z)+y exposes
            every = [v for lo, hi in zip(los, his) for v in range(lo, hi + 1)]
            for m in itertools.combinations_with_replacement(every, 3):
                p1, p2, p3 = oracles.groupings(los, his, *m)
                if not p1 == p3 == top != p2:
                    continue
                vals = sorted(set(m))
                h = oracles.first_assoc_multiset(los, his, vals)
                p1, p2, p3 = oracles.groupings(los, his, *(vals[t] for t in h))
                if p1 == p3 == top != p2:
                    cands = vals
                    break
        hit = oracles.first_assoc_multiset(los, his, cands)
        assert ops_py.scan_assoc(los, his, cands) == hit, (los, his, cands)
        seen.add("finite" if los == his else "union")
        if hit is None:
            seen.add("pass")
        else:
            p1, p2, p3 = oracles.groupings(los, his, *(cands[t] for t in hit))
            seen.add("hit at max R" if p1 == p3 == top else "hit")
        n = len(cands)
        for ijk in itertools.combinations_with_replacement(range(n), 3):
            if hit is not None and ijk >= hit:
                break
            triple = (cands[t] for t in ijk)
            if ijk[2] < n - 1 and oracles.groupings(los, his, *triple) == (
                (top,) * 3
            ):
                seen.add("cut")
                break
    # realistic inputs of up to 32 candidates: Cantor stages of depth 1-4
    # with strong, weak and mixed weights, and finite grids {0..N}, whole
    # or with one point left out, on which the same sums recur across many
    # multisets, so the pair table and the memo are read more than filled
    half, twofifths, sevenths, third = F(1, 2), F(2, 5), F(3, 7), F(1, 3)
    for weights in (
        [twofifths], [half], [third],
        [twofifths, twofifths], [half, half], [third, third],
        [twofifths, third], [third, half],
        [sevenths, half, twofifths], [third, twofifths, third],
        [twofifths, half, sevenths, half], [half, third, sevenths, half],
        [third, third, third, third],
    ):
        los, his, cands = stage_candidates(weights)
        hit = oracles.first_assoc_multiset(los, his, cands)
        assert ops_py.scan_assoc(los, his, cands) == hit, weights
        seen.add("stage fails" if hit else "stage passes")
        seen.add("32" if len(cands) == 32 else "fewer")
    for top in (1, 2, 9, 17, 26, 40):
        for hole in (None, rng.randint(1, top)):
            pts = [v for v in range(top + 1) if v != hole]
            hit = oracles.first_assoc_multiset(pts, pts, pts)
            assert ops_py.scan_assoc(pts, pts, pts) == hit, (top, hole)
            seen.add("grid fails" if hit else "grid passes")
    assert seen == {
        "finite", "union", "pass", "hit", "hit at max R", "cut",
        "stage fails", "stage passes", "32", "fewer",
        "grid fails", "grid passes",
    }


def test_scan_four_values_matches_oracle():
    # pure-Python scan against the uncut multiset loop, extension or not;
    # the inputs reach values of a in (e2 + e3, e1 + e2 + e3], hits whose
    # a is the first point above e2 + e3, and passes
    rng = random.Random(10)
    seen = set()
    for case in range(600):
        pts = sorted(rng.sample(range(0, 40), rng.randint(1, 8)))
        hit = oracles.first_four_values_multiset(pts)
        assert ops_py.scan_four_values(pts) == hit, pts
        if hit is None:
            seen.add("pass")
        else:
            i, j, k, l = hit
            first = bisect_right(pts, pts[j] + pts[k], k)
            seen.add("hit at cut" if l == first else "hit")
        for i, j, k in itertools.combinations_with_replacement(
            range(len(pts)), 3
        ):
            e1, e2, e3 = pts[i], pts[j], pts[k]
            if any(e2 + e3 < a <= e1 + e2 + e3 for a in pts[k:]):
                seen.add("cut")
    assert seen == {"pass", "hit", "hit at cut", "cut"}


def random_graph_matrix(rng, los, his, n, p):
    """Flat n*n weight matrix with -1 for absent edges: each pair gets a
    random positive member of the set with probability p."""
    weights = [v for lo, hi in zip(los, his) for v in range(lo, hi + 1) if v > 0]
    flat = [-1] * (n * n)
    for i in range(n):
        flat[i * n + i] = 0
        for j in range(i + 1, n):
            if rng.random() < p:
                flat[i * n + j] = flat[j * n + i] = rng.choice(weights)
    return flat


def test_all_pairs_completion_matches_oracle():
    # row-wise kernel against the cell-at-a-time triple loop, extension
    # or not; the inputs reach truncated walk sums, disconnected graphs
    # that keep -1, and graphs whose every pair is an edge
    rng = random.Random(11)
    seen = set()
    for case in range(400):
        los, his = random_set_arrays(rng, max_points=6, top=60)
        if los[0] > 0:  # ground sets carry 0; the kernel assumes it
            los, his = [0] + los, [0] + his
        if his[-1] == 0:
            continue
        n = rng.randint(1, 9)
        flat = random_graph_matrix(rng, los, his, n, rng.choice((0.2, 0.5, 1.0)))
        want = oracles.all_pairs_completion(n, list(flat), los, his)
        given = list(flat)
        got = ops_py.all_pairs_completion(n, given, los, his)
        assert got is given and given == want, (n, flat, los, his)
        untruncated = oracles.all_pairs_completion(n, list(flat), [0], [n * his[-1]])
        seen.add("finite" if los == his else "union")
        if want != untruncated:
            seen.add("truncated" if los == his else "truncated in a gap")
        if -1 in want:
            seen.add("disconnected")
        if -1 not in flat:
            seen.add("complete graph")
    assert seen == {
        "finite", "union", "truncated", "truncated in a gap",
        "disconnected", "complete graph",
    }


def test_validate_metric_matches_oracle():
    # row-wise triangle check against the cell-at-a-time loop, extension
    # or not; the inputs reach every violation kind, first triangle
    # violations past row 0, and rows whose violations come in a
    # different order when k runs outside j
    rng = random.Random(12)
    seen = set()
    for case in range(1500):
        n = rng.randint(1, 8)
        m = [0] * (n * n)
        for i in range(n):
            for j in range(i + 1, n):
                m[i * n + j] = m[j * n + i] = rng.randint(1, 9)
        if case % 3 == 0:  # a metric, then perhaps one or two new entries
            oracles.all_pairs_completion(n, m, [0], [9])
            if case % 2:
                i, j = rng.randrange(n), rng.randrange(n)
                m[i * n + j] = rng.randint(-1, 9)
                if rng.random() < 0.5:
                    m[j * n + i] = m[i * n + j]
        hit = oracles.validate_metric(n, m)
        assert ops_py.validate_metric(n, m) == hit, (n, m)
        seen.add(None if hit is None else hit[0])
        if hit is None or hit[0] != "tri":
            continue
        i = hit[1]
        if i > 0:
            seen.add("tri past row 0")
        row = [
            (j, k)
            for j in range(n)
            for k in range(n)
            if m[i * n + j] > m[i * n + k] + m[k * n + j]
        ]
        if min(row) != min(row, key=lambda jk: jk[::-1]):
            seen.add("order matters within the row")
    assert seen == {
        None, "diag", "sym", "pos", "tri", "tri past row 0",
        "order matters within the row",
    }
