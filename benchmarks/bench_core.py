#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python twins.

Workloads mirror the dominant acceptance suites: the endpoint-candidate
associativity scan over a deep Cantor-type stage, the exhaustive
four-values scan over a mid-size point set, the all-pairs completion of
a dense weighted graph, and repeated closure rounds.

Run:  python3 benchmarks/bench_core.py
"""

import time
from fractions import Fraction as F

from distset import RSet, cantor_set
from distset._core import ops_py

try:
    from distset._core import _ops_cy as ops_cy
except ImportError:
    ops_cy = None


def timed(fn, *args, repeat=3):
    """Best time of ``repeat`` calls, each on fresh copies of the list
    arguments (``all_pairs_completion`` rewrites its matrix in place)."""
    best = None
    result = None
    for _ in range(repeat):
        fresh = [list(a) if isinstance(a, list) else a for a in args]
        t0 = time.perf_counter()
        result = fn(*fresh)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def workloads():
    deep = cantor_set([F(2, 5)] * 6)
    _, los, his = deep.scaled()
    cands = ops_py.closure_step(sorted({*los, *his}), los, his)
    yield (
        f"assoc scan, depth-6 stage ({len(cands)} candidates)",
        "scan_assoc",
        (los, his, cands),
    )

    grid = RSet([F(n, 12) for n in range(0, 37)])
    _, pts, _ = grid.scaled()
    yield (
        f"four-values scan, {len(pts)}-point grid",
        "scan_four_values",
        (pts,),
    )

    n = 48
    den = 97
    flat = [-1] * (n * n)
    for i in range(n):
        flat[i * n + i] = 0
    for i in range(n):
        for j in range(i + 1, n):
            w = (i * 31 + j * 17) % den + 1
            flat[i * n + j] = flat[j * n + i] = w
    los48 = [0]
    his48 = [den]
    yield (
        f"all-pairs completion, {n} vertices",
        "all_pairs_completion",
        (n, flat, los48, his48),
    )

    seed = sorted({(i * 37) % 1080 + 1 for i in range(24)} | {1080})
    los_c = [0] + seed
    his_c = los_c
    yield (
        f"closure rounds, {len(seed)} seeds",
        "closure_step",
        (seed, los_c, his_c),
    )


def main() -> None:
    if ops_cy is None:
        print("compiled backend unavailable; nothing to compare")
    for label, fname, args in workloads():
        t_py, r_py = timed(getattr(ops_py, fname), *args)
        line = f"{label:48s} python {t_py * 1e3:9.2f} ms"
        if ops_cy is not None:
            t_cy, r_cy = timed(getattr(ops_cy, fname), *args)
            assert r_py == r_cy, f"backend mismatch on {label}"
            line += f"   cython {t_cy * 1e3:9.2f} ms   speedup {t_py / t_cy:6.1f}x"
        print(line)


if __name__ == "__main__":
    main()
