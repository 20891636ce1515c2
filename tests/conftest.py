import os
import random
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

ROOT = Path(__file__).resolve().parents[1]
CORE = ROOT / "src" / "distset" / "_core"
BUILT_EXTENSION = CORE / ("_ops_c" + sysconfig.get_config_var("EXT_SUFFIX"))
EXTENSION_SOURCE = CORE / "_ops_c.c"


def extension_needs_build(built, source, environ) -> bool:
    """Whether the compiled kernels must be (re)built in the source tree:
    ``DISTSET_PURE_PYTHON=1`` is not set, and the built module is missing
    or older than the C source it is built from."""
    if environ.get("DISTSET_PURE_PYTHON") == "1":
        return False
    return not built.exists() or source.stat().st_mtime > built.stat().st_mtime


def build_extension_in_place():
    """Run ``setup.py build_ext --inplace --force`` from the committed
    sources; return the build's output if it failed, else None."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return None if proc.returncode == 0 else proc.stdout + proc.stderr


# Backend selection happens once, when ``distset._core`` is first imported
# (just below), so the build has to run before it.  A failed build is not
# swallowed: the tests run on pure Python, the summary shows the compiler
# output, and test_extension_importable_unless_disabled fails.
BUILD_FAILURE = (
    build_extension_in_place()
    if extension_needs_build(BUILT_EXTENSION, EXTENSION_SOURCE, os.environ)
    else None
)


def pytest_terminal_summary(terminalreporter):
    if BUILD_FAILURE is not None:
        terminalreporter.write_sep("=", "building the compiled kernels failed")
        terminalreporter.write_line(BUILD_FAILURE)


from distset import (
    BridgeInput,
    FiniteMetricSpace,
    RGraph,
    RSet,
    check_associativity,
)
from distset import _core


def pytest_report_header():
    return f"distset backend: {_core.backend_name()}"


@pytest.fixture
def ground_0123():
    return RSet([0, 1, 2, 3])


@pytest.fixture
def desk_bridge(ground_0123):
    """Three-point U, two-point V paired on the first two indices, r = 1."""
    space_u = FiniteMetricSpace(
        ground_0123,
        ["u0", "u1", "u2"],
        [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
    )
    space_v = FiniteMetricSpace(
        ground_0123, ["v0", "v1"], [[0, 2], [2, 0]]
    )
    return BridgeInput(
        ground_set=ground_0123,
        space_u=space_u,
        space_v=space_v,
        index_map=(0, 1),
        r=Fraction(1),
    )


def random_finite_set(rng: random.Random, max_size=8, max_den=12, top=3):
    """Random finite distance set containing 0, denominators <= max_den."""
    size = rng.randint(1, max_size - 1)
    values = {Fraction(0)}
    while len(values) < size + 1:
        q = rng.randint(1, max_den)
        p = rng.randint(1, top * q)
        values.add(Fraction(p, q))
    return RSet(sorted(values))


def random_associative_set(rng: random.Random, max_size=8):
    """Random finite set passing the associativity check.

    Rejection-samples a few times, then falls back to an arithmetic grid
    capped at its top (always associative)."""
    for _ in range(40):
        cand = random_finite_set(rng, max_size=max_size)
        if check_associativity(cand).passed:
            return cand
    g = Fraction(1, rng.randint(1, 8))
    k = rng.randint(1, max_size - 1)
    return RSet([g * i for i in range(k + 1)])


def random_metric_space(rng: random.Random, ground: RSet, n: int, prefix="m"):
    """Random space over a finite ground set: random positive weights on
    the complete graph, closed under (min, truncated sum)."""
    positive = [v for v in ground.points() if v > 0]
    den, los, his = ground.scaled()
    flat = [-1] * (n * n)
    for i in range(n):
        flat[i * n + i] = 0
    for i in range(n):
        for j in range(i + 1, n):
            w = int(rng.choice(positive) * den)
            flat[i * n + j] = w
            flat[j * n + i] = w
    _core.all_pairs_completion(n, flat, los, his)
    d = [
        [Fraction(flat[i * n + j], den) for j in range(n)] for i in range(n)
    ]
    points = [f"{prefix}{i}" for i in range(n)]
    return FiniteMetricSpace(ground, points, d)


def random_unit_interval_space(rng: random.Random, n: int, max_den=16, prefix="m"):
    """Random space with rational distances in (0, 1]: random weights on
    the complete graph closed under (min, sum-capped-at-1)."""
    ground = RSet([(0, 1)])
    pts = [f"{prefix}{i}" for i in range(n)]
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.randint(1, max_den)
            w = Fraction(rng.randint(1, q), q)
            d[i][j] = d[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cand = min(d[i][k] + d[k][j], Fraction(1))
                if 0 < cand < d[i][j]:
                    d[i][j] = cand
    return FiniteMetricSpace(ground, pts, d)


def random_connected_metric_graph(rng: random.Random, ground: RSet, n: int):
    """Connected metric graph: a random spanning-connected edge subset of
    a random space over the ground set, weighted by its distances."""
    space = random_metric_space(rng, ground, n, prefix="g")
    pts = space.points
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    extra = rng.randint(0, n * (n - 1) // 2 - (n - 1))
    all_pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n)
    ]
    rng.shuffle(all_pairs)
    for pair in all_pairs:
        if len(edges) >= (n - 1) + extra:
            break
        edges.add(pair)
    graph = RGraph(
        ground,
        pts,
        [
            (pts[i], pts[j], space.dist_by_index(i, j))
            for i, j in sorted(edges)
        ],
    )
    return graph, space
