"""``tools/ab_ops.py``: its summary on canned times, and a short run with
both sides pointed at this checkout's ``src/``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "ab_ops.py"
_SPEC = importlib.util.spec_from_file_location("ab_ops", _PATH)
ab_ops = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_ops)


def test_summary_sums_medians_and_kinds():
    times = {"parent": [1.0, 2.0, 4.0, 8.0], "change": [1.0, 1.0, 2.0, 16.0]}
    kinds = ["a", "b", "a", "b"]
    out = ab_ops.summarize(times, kinds)
    assert out["ops"] == 4
    assert (out["parent_sum_s"], out["change_sum_s"]) == (15.0, 20.0)
    assert out["sum_change_over_parent"] == 1.3333
    assert out["median_op_change_over_parent"] == 0.75  # of 1, .5, .5, 2
    assert out["kinds"] == {
        "a": {"ops": 2, "parent_median_s": 2.5, "change_median_s": 1.5,
              "change_over_parent": 0.6},
        "b": {"ops": 2, "parent_median_s": 5.0, "change_median_s": 8.5,
              "change_over_parent": 1.7},
    }


def test_load_leaves_sys_modules_as_it_was():
    import distset

    before = {n: m for n, m in sys.modules.items() if n.startswith("distset")}
    mods = ab_ops.load(_ROOT / "src")
    after = {n: m for n, m in sys.modules.items() if n.startswith("distset")}
    assert after == before and sys.modules["distset"] is distset
    assert mods["distset"] is not distset
    assert mods["distset.checks"].check_4values is not distset.check_4values


def test_same_tree_on_both_sides_runs_and_verifies():
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--parent", "src", "--change", "src",
         "--workload", "approx-saturate", "--seed", "3", "--ops", "4"],
        cwd=_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["workload"], out["seed"], out["ops"]) == ("approx-saturate", 3, 4)
    assert out["problems"] == []
    assert sum(k["ops"] for k in out["kinds"].values()) == 4
    assert out["parent_sum_s"] > 0 and out["change_sum_s"] > 0
    assert out["sum_change_over_parent"] > 0
