#!/usr/bin/env python3
"""Alternating parent/change runs of ``perfbench/run.py``, summarised into
a ``BENCH_<n>.json`` file.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload set-check --seeds 31,32,33 \\
        --what "..." --out BENCH_11.json

``--change`` also takes a tree, so uncommitted work can be measured as
the tree ``git write-tree`` makes of the index.  Each run lasts the
``run_seconds`` of ``BENCHMARK.json``, and the end-to-end metrics and
their directions come from the same file.

Each side is exported with ``git archive`` into a fresh directory, so no
build output of the checkout (such as an in-place ``_ops_c`` module) is
carried over, and each copy imports whichever backend it finds.  For
every workload, pair k runs both sides on seed k, the parent first for
even k and the change first for odd k.  A pair whose two runs report
different backends in their metadata line is refused: the comparison
would measure the backends, not the change.

The output holds, per workload and end-to-end metric, the medians and
quartiles of each side, the number of pairs in which the change was
better (direction from ``BENCHMARK.json``) and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = (
    "python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
    "--trace 0"
)
ORDER = "pair k runs the parent first for even k and the change first for odd k"
QUARTILES = "statistics.quantiles(n=4, method='inclusive')"
SRC_GLOBS = ("src/distset/*.py", "src/distset/_core/*.py", "src/distset/_core/*.c")
SRC_LINES = "wc -l " + " ".join(SRC_GLOBS)


class BackendMismatch(ValueError):
    """The two runs of a pair used different kernel backends."""


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The metadata and the result of one run: its first and last
    stdout lines."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    meta = json.loads(lines[0])["meta"]
    result = json.loads(lines[-1])
    return meta, result


def check_pair(parent: tuple[dict, dict], change: tuple[dict, dict]) -> str:
    """The backend both runs of a pair used; raise ``BackendMismatch``
    if they differ."""
    a, b = parent[0]["backend"], change[0]["backend"]
    if a != b:
        raise BackendMismatch(
            f"parent ran backend {a!r} but change ran {b!r} "
            f"(workload {parent[0]['workload']}, seed {parent[0]['seed']})"
        )
    return a


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, better: dict[str, str]) -> dict:
    """Per-metric summary of ``pairs``, a list of (parent, change) runs
    as ``parse_run`` returns them; ``better`` maps a metric to "lower"
    or "higher"."""
    out = {}
    for name, direction in better.items():
        p = [run[1]["metrics"][name]["value"] for run, _ in pairs]
        c = [run[1]["metrics"][name]["value"] for _, run in pairs]
        if direction == "lower":
            wins = sum(cv < pv for pv, cv in zip(p, c))
        else:
            wins = sum(cv > pv for pv, cv in zip(p, c))
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        out[name] = {
            "parent_median": round(pm, 6),
            "parent_q1": round(p1, 6),
            "parent_q3": round(p3, 6),
            "change_median": round(cm, 6),
            "change_q1": round(c1, 6),
            "change_q3": round(c3, 6),
            "change_better_pairs": wins,
            "change_over_parent": round(cm / pm, 4) if pm else None,
        }
    return out


def src_lines(root: Path) -> int:
    """Lines of the library's source files under ``root``: the Python
    modules and the extension's C file."""
    total = 0
    for pattern in SRC_GLOBS:
        for path in sorted(glob.glob(str(root / pattern))):
            with open(path, encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(copy: Path, workload: str, seed: int, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True, check=True,
    )
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default="HEAD", help="git revision or tree")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated ints")
    ap.add_argument("--what", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as base:
        sides = {side: Path(base, side) for side in ("parent", "change")}
        export(args.parent, sides["parent"])
        export(args.change, sides["change"])
        lines = {side: src_lines(copy) for side, copy in sides.items()}
        workloads = {}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(seeds):
                order = (
                    ("parent", "change") if k % 2 == 0 else ("change", "parent")
                )
                runs = {
                    side: run_once(sides[side], workload, seed, seconds)
                    for side in order
                }
                pair = (runs["parent"], runs["change"])
                backend = check_pair(*pair)
                pairs.append(pair)
                print(f"{workload} seed {seed}: pair {k + 1} of {len(seeds)}",
                      file=sys.stderr)
            workloads[workload] = {
                "seeds": seeds,
                "pairs": len(pairs),
                "metrics": summarize(pairs, better),
            }
    meta = pairs[-1][0][0]

    revs = {
        side: subprocess.run(
            ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    out = {
        "what": args.what,
        **revs,
        "command": COMMAND.format(seconds=seconds),
        "copies": "fresh git archive copies of each side's tracked files",
        "backend": backend,
        "python": meta["python"],
        "nproc": meta["nproc"],
        "machine": f"{platform.machine()}, {os.cpu_count()} cores visible",
        "order": ORDER,
        "quartiles": QUARTILES,
        "src_lines": {"command": SRC_LINES, **lines},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
