#!/usr/bin/env python3
"""Same-process interleaved A/B of two ``distset`` source trees, op by op.

Usage, from the root of a checkout::

    git archive HEAD~1 | tar -x -C /tmp/parent
    DISTSET_PURE_PYTHON=1 python3 tools/ab_ops.py \\
        --parent /tmp/parent/src --change src \\
        --workload set-check --seed 1 --ops 400

Both packages are imported into one process: each is imported from its
own ``src/`` directory and its modules are taken out of ``sys.modules``,
then swapped back in, untimed, before each op of that side.  The ops are
those of one seeded stream of a workload in ``perfbench/``
(``run.OpStream``), which this tool imports but does not change.  Both
sides first run the workload's warm-up op, as ``perfbench/run.py`` does.
Op i runs on the parent first for even i and on the change first for odd
i; each result is verified by the workload, untimed, on its own side.

Separate-process runs of the two sides move with the machine's load
between them; here both sides of an op run back to back, so the ratios
resolve changes of a few percent.  The report (JSON on stdout) holds the
change/parent ratio of the summed op times, the median of the per-op
ratios, and per kind the median op time of each side and their ratio.
The two sides must import the same kernel backend.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SIDES = ("parent", "change")


def _take_distset() -> dict:
    """Remove the ``distset`` modules from ``sys.modules``; return them."""
    names = [n for n in sys.modules if n == "distset" or n.startswith("distset.")]
    return {name: sys.modules.pop(name) for name in names}


def load(src: Path) -> dict:
    """Import the ``distset`` package under ``src``; return its modules,
    leaving none of them in ``sys.modules``."""
    src = src.resolve()
    if not (src / "distset" / "__init__.py").is_file():
        raise SystemExit(f"no distset package under {src}")
    outer = _take_distset()
    sys.path.insert(0, str(src))
    try:
        ds = importlib.import_module("distset")
        if not Path(ds.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"imported distset from {ds.__file__}, not {src}")
        return _take_distset()
    finally:
        sys.path.remove(str(src))
        sys.modules.update(outer)


def enter(modules: dict):
    """Make ``modules`` the ``distset`` of ``sys.modules``; return it."""
    _take_distset()
    sys.modules.update(modules)
    return modules["distset"]


def perfbench_run():
    """``perfbench/run.py`` as a module, with its workload modules."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(bench, sides: dict, workload, seed: int, ops: int) -> dict:
    """Run the first ``ops`` ops of the workload's stream for ``seed`` on
    both sides, alternating which goes first; return per-op times and
    kinds and the verification problems."""
    stream = bench.OpStream(workload, seed)
    times = {side: [] for side in SIDES}
    kinds, problems = [], []
    clock = time.perf_counter
    for side in SIDES:
        ds = enter(sides[side])
        warm = workload.warmup(random.Random(f"{workload.NAME}:warmup"))
        problem = bench._verify(ds, workload, warm, workload.run(ds, warm))
        if problem:
            problems.append([side, "warm-up", problem])
    for i in range(ops):
        spec = stream.spec(i)
        kinds.append(spec.kind)
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            ds = enter(sides[side])
            start = clock()
            try:
                result = workload.run(ds, spec)
            except Exception as exc:  # an op that raises is a failed op
                problem = f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            times[side].append(clock() - start)
            if problem is None:
                problem = bench._verify(ds, workload, spec, result)
            if problem:
                problems.append([side, i, problem])
    return {"times": times, "kinds": kinds, "problems": problems}


def summarize(times: dict, kinds: list) -> dict:
    """Change/parent ratios of ``times`` (per side, one entry per op):
    of the sums, the median per-op ratio, and per kind of the medians."""
    p, c = times["parent"], times["change"]
    per_kind = {}
    for kind in sorted(set(kinds)):
        pk = [t for t, k in zip(p, kinds) if k == kind]
        ck = [t for t, k in zip(c, kinds) if k == kind]
        pm, cm = statistics.median(pk), statistics.median(ck)
        per_kind[kind] = {
            "ops": len(pk),
            "parent_median_s": round(pm, 7),
            "change_median_s": round(cm, 7),
            "change_over_parent": round(cm / pm, 4),
        }
    return {
        "ops": len(kinds),
        "parent_sum_s": round(sum(p), 6),
        "change_sum_s": round(sum(c), 6),
        "sum_change_over_parent": round(sum(c) / sum(p), 4),
        "median_op_change_over_parent": round(
            statistics.median(cv / pv for pv, cv in zip(p, c)), 4
        ),
        "kinds": per_kind,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="src/ directory")
    ap.add_argument("--change", required=True, type=Path, help="src/ directory")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be positive")

    bench = perfbench_run()
    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    sides = {"parent": load(args.parent), "change": load(args.change)}
    backends = {side: mods["distset"].backend_name() for side, mods in sides.items()}
    if backends["parent"] != backends["change"]:
        raise SystemExit(f"the sides import different backends: {backends}")

    outer = _take_distset()
    try:
        run = compare(bench, sides, workload, args.seed, args.ops)
    finally:
        _take_distset()
        sys.modules.update(outer)
    out = {
        "workload": workload.NAME,
        "seed": args.seed,
        "backend": backends["parent"],
        "order": "op i runs the parent first for even i, the change first for odd i",
        **summarize(run["times"], run["kinds"]),
        "problems": run["problems"],
    }
    print(json.dumps(out, indent=1))
    return 1 if run["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
