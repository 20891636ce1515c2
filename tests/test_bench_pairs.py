"""Summary and pairing logic of ``tools/bench_pairs.py`` on canned
``perfbench/run.py`` output; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def canned(backend="python", seed=1, **values):
    meta = {"meta": {"workload": "set-check", "seed": seed, "trace": 0,
                     "backend": backend, "python": "3.11.7", "nproc": 2}}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        name: {"value": v, "unit": "s"} for name, v in values.items()
    }}
    return json.dumps(meta) + "\n" + json.dumps(result) + "\n"


def test_parse_run_reads_first_and_last_line():
    meta, result = bench_pairs.parse_run(canned(seed=7, op_p50_s=0.5) + "\n")
    assert meta["seed"] == 7 and meta["backend"] == "python"
    assert result["metrics"]["op_p50_s"]["value"] == 0.5


def test_pair_with_different_backends_is_refused():
    a = bench_pairs.parse_run(canned("python", op_p50_s=0.1))
    b = bench_pairs.parse_run(canned("cython", op_p50_s=0.1))
    assert bench_pairs.check_pair(a, a) == "python"
    assert bench_pairs.check_pair(b, b) == "cython"
    with pytest.raises(bench_pairs.BackendMismatch, match="'python'.*'cython'"):
        bench_pairs.check_pair(a, b)
    with pytest.raises(bench_pairs.BackendMismatch):
        bench_pairs.check_pair(b, a)


def test_summary_medians_quartiles_and_wins():
    parent_p50 = [0.4, 0.1, 0.3, 0.2]
    change_p50 = [0.2, 0.2, 0.1, 0.3]
    parent_ops = [10.0, 20.0, 30.0, 40.0]
    change_ops = [20.0, 10.0, 40.0, 50.0]
    pairs = [
        (bench_pairs.parse_run(canned(op_p50_s=p, ops_per_s=po)),
         bench_pairs.parse_run(canned(op_p50_s=c, ops_per_s=co)))
        for p, c, po, co in zip(parent_p50, change_p50, parent_ops, change_ops)
    ]
    out = bench_pairs.summarize(
        pairs, {"op_p50_s": "lower", "ops_per_s": "higher"}
    )
    p50 = out["op_p50_s"]
    assert p50["parent_median"] == 0.25
    assert (p50["parent_q1"], p50["parent_q3"]) == (0.175, 0.325)
    assert p50["change_median"] == 0.2
    assert p50["change_better_pairs"] == 2  # pairs 1 and 3; a tie is no win
    assert p50["change_over_parent"] == 0.8
    ops = out["ops_per_s"]
    assert ops["parent_median"] == 25.0 and ops["change_median"] == 30.0
    assert ops["change_better_pairs"] == 3
    assert ops["change_over_parent"] == 1.2
    assert set(p50) == {
        "parent_median", "parent_q1", "parent_q3", "change_median",
        "change_q1", "change_q3", "change_better_pairs", "change_over_parent",
    }


def test_summary_of_one_pair():
    pair = (bench_pairs.parse_run(canned(setup_s=0.2)),
            bench_pairs.parse_run(canned(setup_s=0.1)))
    s = bench_pairs.summarize([pair], {"setup_s": "lower"})["setup_s"]
    assert s["parent_q1"] == s["parent_median"] == s["parent_q3"] == 0.2
    assert s["change_better_pairs"] == 1 and s["change_over_parent"] == 0.5


def test_summary_layout_matches_bench_10():
    committed = json.loads(
        (_PATH.parents[1] / "BENCH_10.json").read_text()
    )["workloads"]["set-check"]["metrics"]["op_p50_s"]
    pair = (bench_pairs.parse_run(canned(op_p50_s=0.2)),) * 2
    out = bench_pairs.summarize([pair], {"op_p50_s": "lower"})
    assert set(out["op_p50_s"]) == set(committed)
