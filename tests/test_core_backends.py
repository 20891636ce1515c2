"""The compiled kernels must agree with the pure-Python twins bit for bit."""

import itertools
import os
import random
import sys
import tracemalloc
import types
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from distset import _core
from distset._core import ops_py
from distset.cantor import cantor_set
from distset.checks import VERDICT_EXHAUSTIVE, check_associativity
from distset.rset import RSet

import oracles
from conftest import extension_needs_build

ops_c = _core.ops_c

skip_no_ext = pytest.mark.skipif(
    ops_c is None, reason="compiled backend not built"
)


def test_extension_importable_unless_disabled():
    # guards against silent build failures: the extension must be
    # present unless explicitly opted out
    if os.environ.get("DISTSET_PURE_PYTHON") == "1":
        pytest.skip("pure-Python mode requested")
    assert ops_c is not None
    assert _core.backend_name() == "c"


def touch(path, mtime):
    path.write_text("")
    os.utime(path, (mtime, mtime))


@pytest.mark.parametrize(
    "built_at, environ, expected",
    [
        (None, {}, True),  # never built
        (50, {}, True),  # older than the source
        (150, {}, False),  # newer than the source
        (150, {"DISTSET_PURE_PYTHON": "0"}, False),
        (None, {"DISTSET_PURE_PYTHON": "1"}, False),
        (50, {"DISTSET_PURE_PYTHON": "1"}, False),
    ],
)
def test_extension_needs_build(tmp_path, built_at, environ, expected):
    source = tmp_path / "_ops_c.c"
    touch(source, 100)
    built = tmp_path / "_ops_c.so"
    if built_at is not None:
        touch(built, built_at)
    assert extension_needs_build(built, source, environ) is expected


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
def test_all_pairs_completion_agrees():
    # every other case is scaled so that max R nears 2**60, the largest
    # entry the compiled kernel accepts
    rng = random.Random(6)
    for case in range(80):
        los, his = random_set_arrays(rng)
        if los[0] > 0:  # ground sets carry 0; the kernels assume it
            los = [0] + los
            his = [0] + his
        weights = [h for h in his if h > 0]
        if not weights:
            continue
        n = rng.randint(1, 40)  # rows of up to 40 fields in ops_py
        flat = [-1] * (n * n)
        for i in range(n):
            flat[i * n + i] = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    w = rng.choice(weights)
                    flat[i * n + j] = flat[j * n + i] = w
        if case % 2:
            scale = 2**60 // his[-1]
            los, his = [scale * v for v in los], [scale * v for v in his]
            flat = [scale * v if v > 0 else v for v in flat]
        a = list(flat)
        b = list(flat)
        assert ops_py.all_pairs_completion(n, a, los, his) == (
            ops_c.all_pairs_completion(n, b, los, his)
        )
    # any negative entry marks an absent edge, and comes back as -1
    for mod in (ops_py, ops_c):
        assert mod.all_pairs_completion(2, [0, -5, -5, 0], [0], [1]) == [
            0, -1, -1, 0,
        ]


@skip_no_ext
def test_validate_metric_agrees():
    rng = random.Random(7)
    for case in range(200):
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
        if case % 2:  # entries up to 6 * 2**57, near the 2**60 bound
            flat = [v << 57 for v in flat]
        assert ops_py.validate_metric(n, flat) == ops_c.validate_metric(
            n, flat
        )


@skip_no_ext
def test_compiled_module_holds_only_the_routed_kernels():
    # a compiled kernel that _core does not route is dead code
    public = {
        name
        for name in dir(ops_c)
        if not name.startswith("_") and callable(getattr(ops_c, name))
    }
    assert public == {"all_pairs_completion", "validate_metric"}


PATH = [0, 1, -1, 1, 0, 2, -1, 2, 0]  # a-b-c, no edge a-c
SMALL = [0, 1, 2, 4]


@skip_no_ext
def test_compiled_error_paths():
    # a walk sum below los[0]: both backends raise and leave d unchanged
    for mod in (ops_py, ops_c):
        d = list(PATH)
        with pytest.raises(ValueError, match="no set element below"):
            mod.all_pairs_completion(3, d, [5], [9])
        assert d == PATH
    with pytest.raises(TypeError, match="float"):
        ops_c.all_pairs_completion(3, [*PATH[:-1], 0.0], SMALL, SMALL)
    with pytest.raises(TypeError, match="NoneType"):
        ops_c.all_pairs_completion(3, list(PATH), [0, None], SMALL)
    with pytest.raises(TypeError, match="str"):
        ops_c.validate_metric(1, ["0"])
    # what C would read out of bounds or wrap is refused
    with pytest.raises(ValueError, match="n \\* n"):
        ops_c.validate_metric(2, [0, 1, 1])
    with pytest.raises(ValueError, match="n \\* n"):
        ops_c.all_pairs_completion(-1, [], SMALL, SMALL)
    with pytest.raises(ValueError, match="differ in length"):
        ops_c.all_pairs_completion(3, list(PATH), SMALL, SMALL[:-1])
    for v in (2**60 + 1, -(2**60) - 1, 2**70):
        with pytest.raises(OverflowError):
            ops_c.validate_metric(1, [v])
    assert ops_c.validate_metric(2, [0, 2**60, 2**60, 0]) is None


@skip_no_ext
def test_compiled_kernels_keep_no_references_or_memory():
    # entries above 256 are ints of their own, so a lost reference to
    # an input or a result shows in a refcount or in traced memory
    big = [0, 300, 600, 900]
    paths = [v * 300 if v > 0 else v for v in PATH]
    bad = [0, 300, 1200, 300, 0, 600, 1200, 600, 0]  # 1200 > 300 + 600

    def calls():
        d = list(paths)
        assert ops_c.all_pairs_completion(3, d, big, big) is d
        assert d == [0, 300, 900, 300, 0, 600, 900, 600, 0]
        assert ops_c.validate_metric(3, d) is None
        assert ops_c.validate_metric(3, bad) == ("tri", 0, 2, 1)
        # plain try blocks: pytest.raises keeps memory of its own
        try:
            ops_c.all_pairs_completion(3, list(paths), [1200], [1200])
        except ValueError:
            pass
        try:
            ops_c.validate_metric(3, [*bad[:-1], None])
        except TypeError:
            pass

    watched = [paths, big, bad, *(v for v in paths + big + bad if v > 256)]
    before = [sys.getrefcount(x) for x in watched]
    calls()
    assert [sys.getrefcount(x) for x in watched] == before
    tracemalloc.start()
    try:
        calls()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            calls()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 8000, grown  # a lost 8-byte buffer a call would add 16 kB


def test_unrouted_kernels_are_the_python_ones():
    # only all_pairs_completion and validate_metric are routed; every
    # other kernel is served by ops_py on every backend
    for name in (
        "check_triples", "closure_step", "scan_four_values", "closure_round",
        "sup_le", "scan_assoc",
    ):
        assert getattr(_core, name) is getattr(ops_py, name), name


def test_overflow_in_the_compiled_kernel_is_answered_by_ops_py(monkeypatch):
    # stand-in extensions: one that returns is used; one that refuses its
    # input with OverflowError is answered by ops_py; nothing else is
    def raising(exc):
        def kernel(*args):
            raise exc("refused")
        return kernel

    def stand_in(kernel):
        return types.SimpleNamespace(
            all_pairs_completion=kernel, validate_metric=kernel
        )

    bad = [0, 1, 4, 1, 0, 2, 4, 2, 0]  # 4 > 1 + 2
    monkeypatch.setattr(_core, "ops_c", stand_in(lambda *args: "compiled"))
    assert _core.all_pairs_completion(3, list(PATH), SMALL, SMALL) == "compiled"
    assert _core.validate_metric(3, bad) == "compiled"
    monkeypatch.setattr(_core, "ops_c", stand_in(raising(OverflowError)))
    assert _core.all_pairs_completion(3, list(PATH), SMALL, SMALL) == (
        ops_py.all_pairs_completion(3, list(PATH), SMALL, SMALL)
    )
    assert _core.validate_metric(3, bad) == ("tri", 0, 2, 1)
    monkeypatch.setattr(_core, "ops_c", stand_in(raising(TypeError)))
    with pytest.raises(TypeError, match="refused"):
        _core.all_pairs_completion(3, list(PATH), SMALL, SMALL)
    with pytest.raises(TypeError, match="refused"):
        _core.validate_metric(3, bad)


@skip_no_ext
def test_compiled_kernels_guard_the_int64_range():
    # inclusive at 2**60 in d, los and his alike; a refused d is left as
    # it was, and _core then returns what ops_py returns
    edge = 2**60
    ground = [0, 1, 2, edge]
    for v in (edge, -edge):
        assert ops_c.validate_metric(1, [v]) == ("diag", 0, 0)
    assert ops_c.validate_metric(2, [0, edge, edge, 0]) is None
    assert ops_c.all_pairs_completion(
        3, [0, 1, -edge, 1, 0, edge, -edge, edge, 0], ground, ground
    ) == [0, 1, edge, 1, 0, edge, edge, edge, 0]
    over = edge + 1
    refused = [  # (d, los, his); each completion would write d
        ([0, 1, -over, 1, 0, 2, -over, 2, 0], SMALL, SMALL),
        ([0, 1, -1, 1, 0, over, -1, over, 0], [0, 1, 2, over], [0, 1, 2, over]),
        (list(PATH), [0, 1, 2, over], [0, 1, 2, 4]),
        (list(PATH), [0, 1, 2, 4], [0, 1, 2, over]),
    ]
    for d, los, his in refused:
        given = list(d)
        with pytest.raises(OverflowError):
            ops_c.all_pairs_completion(3, d, los, his)
        assert d == given
        want = ops_py.all_pairs_completion(3, list(given), los, his)
        assert want != given
        assert _core.all_pairs_completion(3, d, los, his) == want
    for v in (over, -over):
        d = [0, v, v, 0]
        with pytest.raises(OverflowError):
            ops_c.validate_metric(2, d)
        assert d == [0, v, v, 0]
        assert _core.validate_metric(2, d) == ops_py.validate_metric(2, d)
    assert _core.validate_metric(2, [0, over, over, 0]) is None
    assert _core.validate_metric(2, [0, -over, -over, 0]) == ("pos", 0, 1)
    # an n no matrix can have is refused, not handed to ops_py, whose
    # completion would build 2**70 rows
    for n in (2**70, -(2**70)):
        with pytest.raises(ValueError, match="index-sized"):
            _core.validate_metric(n, [0])
        with pytest.raises(ValueError, match="index-sized"):
            _core.all_pairs_completion(n, [0], [0], [1])


def test_dispatcher_falls_back_on_huge_ints():
    huge = 2**70
    los = [0, huge]
    his = [0, huge]
    # must route to the Python backend and still be exact
    assert _core.closure_step([huge], los, his) == [huge]
    assert _core.scan_four_values([0, huge]) is None
    assert _core.scan_assoc(los, his, los) is None
    # the kernels are scale-invariant: the same answers as on the small
    # image, which fits either backend
    small = [0, 1, 2, 4]
    big = [huge * v for v in small]
    assert _core.scan_assoc(small, small, small) == (1, 1, 2)
    assert _core.scan_assoc(big, big, big) == (1, 1, 2)
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


def completion_cases():
    """The seeded ``(los, his, n, flat)`` inputs of the completion oracle
    test.  After 400 small graphs over random sets come 16 graphs over
    {0, 1} (max R = 1, the narrowest field), 16 over random sets and 8
    over one interval [0, M], of up to 40 vertices, so a packed row
    spans several machine words.  Every fourth graph is scaled by 2**70,
    so its fields are wider than 64 bits."""
    rng = random.Random(11)
    for case in range(440):
        if case < 400:
            los, his = random_set_arrays(rng, max_points=6, top=60)
            sizes = (1, 9)
        elif case < 416:
            los = his = [0, 1]
            sizes = (2, 40)
        elif case < 432:
            los, his = random_set_arrays(rng, max_points=4, top=60)
            sizes = (20, 40)
        else:
            los, his = [0], [rng.randint(1, 60)]
            sizes = (20, 40)
        if los[0] > 0:  # ground sets carry 0; the kernel assumes it
            los, his = [0] + los, [0] + his
        if his[-1] == 0:
            continue
        n = rng.randint(*sizes)
        p = rng.choice((0.2, 0.5, 1.0) if n < 10 else (0.04, 0.1, 0.5))
        flat = random_graph_matrix(rng, los, his, n, p)
        if case % 4 == 3:
            big = 2**70
            los, his = [big * v for v in los], [big * v for v in his]
            flat = [big * v if v > 0 else v for v in flat]
        yield los, his, n, flat


def test_all_pairs_completion_matches_oracle():
    # packed-row kernel against the cell-at-a-time triple loop, extension
    # or not; the inputs reach truncated walk sums, disconnected graphs
    # that keep -1, graphs whose every pair is an edge, vertices with no
    # edge, and a sum at the largest value a field holds: an edge i-k of
    # weight max R while k has no walk to some j, so round k forms
    # d_ik + absent = max R + absent
    seen = set()
    for los, his, n, flat in completion_cases():
        top = his[-1]
        want = oracles.all_pairs_completion(n, list(flat), los, his)
        given = list(flat)
        got = ops_py.all_pairs_completion(n, given, los, his)
        assert got is given and given == want, (n, flat, los, his)
        untruncated = oracles.all_pairs_completion(n, list(flat), [0], [n * top])
        seen.add("finite" if los == his else "union")
        seen.add("max R = 1" if top == 1 else "wide" if top > 2**64 else "narrow")
        if n >= 20:
            seen.add("many fields")
        if want != untruncated:
            seen.add("truncated" if los == his else "truncated in a gap")
        if -1 in want:
            seen.add("disconnected")
        if -1 not in flat:
            seen.add("complete graph")
        rows = [flat[i * n : i * n + n] for i in range(n)]
        if n > 1 and any(row.count(-1) == n - 1 for row in rows):
            seen.add("isolated vertex")
        if any(
            flat[i * n + k] == top == want[i * n + k] and -1 in want[k * n : k * n + n]
            for i in range(n)
            for k in range(n)
        ):
            seen.add("sum at field max")
    assert seen == {
        "finite", "union", "max R = 1", "narrow", "wide", "many fields",
        "truncated", "truncated in a gap", "disconnected", "complete graph",
        "isolated vertex", "sum at field max",
    }


def test_completions_over_associative_sets_are_metric():
    # a completion of a connected graph over a ground set whose
    # associativity is decided exhaustively is a metric whose entries are
    # all members, so validating it again proves nothing new
    verdicts = {}
    seen = set()
    for los, his, n, flat in completion_cases():
        out = ops_py.all_pairs_completion(n, list(flat), los, his)
        if -1 in out:
            continue
        key = (tuple(los), tuple(his))
        if key not in verdicts:
            ground = RSet(list(zip(los, his)))
            verdicts[key] = check_associativity(ground).verdict
        if verdicts[key] != VERDICT_EXHAUSTIVE:
            continue
        assert ops_py.validate_metric(n, out) is None, (n, flat, los, his)
        assert all(ops_py.sup_le(los, his, v) == v for v in out)
        seen.add("finite" if los == his else "interval")
        seen.add("many fields" if n >= 20 else "few fields")
        seen.add("wide" if his[-1] > 2**64 else "narrow")
    assert seen == {
        "finite", "interval", "many fields", "few fields", "wide", "narrow",
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
