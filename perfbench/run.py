#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``distset``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload set-check --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring for its mix and expected results):
``set-check`` (setcheck.py), ``graph-bridge`` (graphbridge.py) and
``approx-saturate`` (approxsat.py).  Each is a closed loop with one caller
in one process and one thread: the next op starts when the previous one
has returned and been verified.  Inputs come in blocks of 20 ops with a
fixed mix of kinds; block b is generated from ``(workload, seed, b)`` with
the standard library only, so the same seed gives the same op list and
``distset`` sees only the generated values.

The run imports ``distset`` from ``src/`` of the checkout and uses
whichever kernel backend that import selects (``distset.backend_name()``,
recorded in the metadata line); it never builds, forces or picks one.

Set-up, timed SETUP_REPS times with ``distset`` imported afresh each time
(median reported as ``setup_s``): the import, generating the first block
from the seed, and one warm-up op of the workload's median kind.  The
warm-up op is the same for every seed, so set-up time does not depend on
it; its result is verified, outside the timed set-up.  The warm-up fills
``rgraph``'s ``_associativity_report`` cache for its ground set, so timed
ops run with that cache warm, as a long-lived API caller would;
``checks.check_associativity.calls`` in the traced run shows whether a
change alters that.

``--trace 0`` runs ops until their summed wall time reaches ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` does the same with the
wrappers of spans.py installed, reports the per-layer metrics, then runs
the same ops again untraced to report the tracing overhead; its spans go
to ``.perfbench/spans-<workload>-<seed>.jsonl``.

Every op's result is verified right after it, outside its timed region
and outside any span.  An op that raises or fails verification counts in
``failed`` and makes ``correct`` false; so does a failed self-check: the
op list must regenerate identically from the seed, and the verifier must
reject a tampered result (a flipped verdict or a wrong distance).

A workload may name ``PROBES``: inputs that show a documented library
defect, so they are kept out of the timed op stream (where every op must
succeed) and run once each after it, untimed and verified.  set-check
probes the three non-associative unions that ``check_4values`` passes
(see setcheck.py); the metadata line and stderr report how many still
show the defect.  A probe result that is wrong in any other way makes
``correct`` false.

Stdout: one metadata JSON line, then the result as the last line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import approxsat  # noqa: E402  (the benchmark's own modules, next to this file)
import graphbridge  # noqa: E402
import setcheck  # noqa: E402
from spec import KNOWN_DEFECT  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = {m.NAME: m for m in (setcheck, graphbridge, approxsat)}
BLOCK = 20
SETUP_REPS = 9
SELF_CHECK_OPS = 2 * BLOCK


class OpStream:
    """The seeded op list of a workload, generated a block at a time."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.blocks = []

    def spec(self, i):
        b, k = divmod(i, BLOCK)
        while len(self.blocks) <= b:
            n = len(self.blocks)
            rng = random.Random(f"{self.workload.NAME}:{self.seed}:{n}")
            ops = self.workload.block(rng, n)
            assert len(ops) == BLOCK
            self.blocks.append(ops)
        return self.blocks[b][k]


def import_distset():
    for name in [n for n in sys.modules if n == "distset" or n.startswith("distset.")]:
        del sys.modules[name]
    return importlib.import_module("distset")


def setup(workload, seed):
    """Import, first block, warm-up op; returns (seconds, ds, stream, problem)."""
    start = time.perf_counter()
    ds = import_distset()
    stream = OpStream(workload, seed)
    stream.spec(0)
    warm = workload.warmup(random.Random(f"{workload.NAME}:warmup"))
    result = workload.run(ds, warm)
    seconds = time.perf_counter() - start
    return seconds, ds, stream, workload.verify(ds, warm, result)


class Pass:
    """Per-op records of one loop over the op stream."""

    def __init__(self):
        self.times = []
        self.busy = 0.0
        self.kinds = Counter()
        self.kind_times = {}
        self.problems = []  # (op index, kind, problem)
        self.samples = {}  # kind -> (spec, result) of its first verified op


def run_ops(ds, workload, stream, seconds=None, count=None, tracer=None):
    """Run ops until their summed time reaches ``seconds`` (or ``count``
    ops), verifying each one after its timed region."""
    done = Pass()
    clock = time.perf_counter
    i = 0
    while (done.busy < seconds) if count is None else (i < count):
        spec = stream.spec(i)
        error = result = None
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        start = clock()
        try:
            result = workload.run(ds, spec)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        done.times.append(elapsed)
        done.busy += elapsed
        done.kinds[spec.kind] += 1
        done.kind_times.setdefault(spec.kind, []).append(elapsed)
        if error is None:
            error = _verify(ds, workload, spec, result)
        if error is None:
            done.samples.setdefault(spec.kind, (spec, result))
        else:
            done.problems.append((i, spec.kind, error))
        i += 1
    return done


def run_probes(ds, workload):
    """(defects still shown, other problems) of the workload's probes."""
    shown, problems = 0, []
    for spec in getattr(workload, "PROBES", ()):
        try:
            error = _verify(ds, workload, spec, workload.run(ds, spec))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error == KNOWN_DEFECT:
            shown += 1
        elif error is not None:
            problems.append(f"probe {spec.kind}: {error}")
    return shown, problems


def _verify(ds, workload, spec, result):
    try:
        return workload.verify(ds, spec, result)
    except Exception as exc:  # a result the verifier cannot read is wrong
        return f"verification raised {type(exc).__name__}: {exc}"


def self_check(ds, workload, stream, done):
    """Problems with the benchmark itself: op list not reproducible from
    the seed, or a tampered result that the verifier accepts."""
    problems = []
    fresh = OpStream(workload, stream.seed)
    if any(fresh.spec(i) != stream.spec(i) for i in range(SELF_CHECK_OPS)):
        problems.append("the same seed gave a different op list")
    tampered = 0
    for kind, (spec, result) in sorted(done.samples.items()):
        bad = workload.tamper(ds, spec, result)
        if bad is None:
            continue
        tampered += 1
        if _verify(ds, workload, spec, bad) is None:
            problems.append(f"verifier accepted a tampered {kind} result")
    if tampered == 0:
        problems.append("no result could be tampered with")
    return problems


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "distset" / "__init__.py").is_file():
        print(f"no distset package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_runs, problems = [], []
    for _ in range(SETUP_REPS):  # only the last import is kept
        seconds, ds, stream, problem = setup(workload, args.seed)
        setup_runs.append(seconds)
        if problem:
            problems.append(f"warm-up: {problem}")
    if not Path(ds.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported distset from {ds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    gc.collect()  # the module trees of the earlier imports are cyclic garbage

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    done = run_ops(ds, workload, stream, seconds=args.seconds, tracer=tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    replay = None
    if tracer is not None:
        tracer.uninstall()
        replay = run_ops(ds, workload, stream, count=len(done.times))

    problems += self_check(ds, workload, stream, done)
    defects_shown, probe_problems = run_probes(ds, workload)
    problems += probe_problems
    unexpected = done.problems + (replay.problems if replay is not None else [])
    attempted = len(done.times)
    failed = len(done.problems)

    if tracer is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"spans-{workload.NAME}-{args.seed}.jsonl"
        tracer.dump(trace_file)
        layer = tracer.layer_metrics()
        layer["trace.ops"] = (attempted, "count")
        layer["trace.overhead_frac"] = (done.busy / replay.busy - 1, "ratio")
        layer["core.compiled_backend"] = (int(ds.backend_name() != "python"), "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        trace_file = None
        metrics = {
            "op_p50_s": {"value": statistics.median(done.times), "unit": "s"},
            "op_p90_s": {"value": quantile(done.times, 90), "unit": "s"},
            "ops_per_s": {"value": attempted / done.busy, "unit": "1/s"},
            "verified_ops_frac": {
                "value": (attempted - failed) / attempted,
                "unit": "ratio",
            },
            "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    meta = {
        "workload": workload.NAME,
        "seed": args.seed,
        "trace": args.trace,
        "backend": ds.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds,
        "busy_s": done.busy,
        "ops_by_kind": dict(sorted(done.kinds.items())),
        "median_s_by_kind": {
            k: statistics.median(v) for k, v in sorted(done.kind_times.items())
        },
        "failed_ops_frac": failed / attempted,
        "probes": len(getattr(workload, "PROBES", ())),
        "probes_showing_known_defect": defects_shown,
        "problems": [list(p) for p in unexpected[:10]] + problems,
        "setup_runs_s": setup_runs,
        "cache_policy": (
            "warm-up op fills rgraph._associativity_report; timed ops run with it warm"
        ),
        "trace_file": None if trace_file is None else str(trace_file.relative_to(ROOT)),
    }
    print(json.dumps({"meta": meta}))
    summary = dict(metrics)
    if not args.trace:
        summary["failed_ops_frac"] = {"value": failed / attempted, "unit": "ratio"}
    for name, m in summary.items():
        print(f"{workload.NAME} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if meta["probes"]:
        print(
            f"{workload.NAME} probes showing the known defect = "
            f"{defects_shown} of {meta['probes']}",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": not unexpected and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
