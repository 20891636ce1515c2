"""Spans around the calls into each ``distset`` layer, from outside it.

:func:`install` wraps the public functions listed in :data:`TARGETS` in
place: every attribute of a ``distset`` module that holds the function
(its home module and every module that imported it by name) is pointed at
the wrapper, and methods are replaced on their class.  Callers look these
names up at call time, so calls between layers pass through the wrappers.
Per-element methods (``RSet.contains``, ``RSet.sup_le``, ``RSet.oplus``)
are left alone; their cost lands in the caller's self time.

A wrapper records a span only while :attr:`Tracer.active` is set, so the
verification that follows each op runs outside any span.  Spans stay in
memory as ``(op, span, parent, name, start, end)`` and are written out
once at the end.  A layer's self time is its spans' duration minus the
time its child spans cover.

Work counts are computed by the benchmark from arguments and return
values (``COUNTS``); they are not counters inside ``distset``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from math import ceil

# metric prefix -> (module, attribute path); the prefix is the module's
# name inside the package, with ``_core`` written ``core``
TARGETS = {
    "cantor.cantor_set": ("distset.cantor", "cantor_set"),
    "rset.RSet.__init__": ("distset.rset", "RSet.__init__"),
    "rset.RSet.scaled": ("distset.rset", "RSet.scaled"),
    "rset.scaled_with": ("distset.rset", "scaled_with"),
    "checks.check_4values": ("distset.checks", "check_4values"),
    "checks.check_associativity": ("distset.checks", "check_associativity"),
    "approx.make_eps_approximation": ("distset.approx", "make_eps_approximation"),
    "approx.subadditive_closure": ("distset.approx", "subadditive_closure"),
    "rgraph.RGraph.__init__": ("distset.rgraph", "RGraph.__init__"),
    "rgraph.RGraph.components": ("distset.rgraph", "RGraph.components"),
    "rgraph.is_metric": ("distset.rgraph", "is_metric"),
    "rgraph.complete_to_metric_space": ("distset.rgraph", "complete_to_metric_space"),
    "rgraph.FiniteMetricSpace.__init__": ("distset.rgraph", "FiniteMetricSpace.__init__"),
    "rgraph.FiniteMetricSpace.validate": ("distset.rgraph", "FiniteMetricSpace.validate"),
    "construction.BridgeInput.__post_init__": (
        "distset.construction",
        "BridgeInput.__post_init__",
    ),
    "construction.build_bridge_graph": ("distset.construction", "build_bridge_graph"),
    "construction.derive_companion_W": ("distset.construction", "derive_companion_W"),
    "construction.build_tree": ("distset.construction", "build_tree"),
    "construction.build_H_and_L": ("distset.construction", "build_H_and_L"),
    "construction.find_nearby_copy": ("distset.construction", "find_nearby_copy"),
    "spaces.build_saturated_space": ("distset.spaces", "build_saturated_space"),
    "spaces.check_universality": ("distset.spaces", "check_universality"),
    "spaces.indivisibility_search": ("distset.spaces", "indivisibility_search"),
    "spaces.partition_distance_function": (
        "distset.spaces",
        "partition_distance_function",
    ),
    "spaces.oscillation_search": ("distset.spaces", "oscillation_search"),
    "core.scan_assoc": ("distset._core", "scan_assoc"),
    "core.check_triples": ("distset._core", "check_triples"),
    "core.scan_four_values": ("distset._core", "scan_four_values"),
    "core.closure_step": ("distset._core", "closure_step"),
    "core.all_pairs_completion": ("distset._core", "all_pairs_completion"),
    "core.validate_metric": ("distset._core", "validate_metric"),
}


def _closure(args, result):
    rset, trace = args[1], result[1]
    return {
        "approx.closure_rounds": trace.rounds,
        "approx.closure_cap": 2 * ceil(rset.max_value / trace.minima[0]) + 2,
    }


def _search(args, result):
    return {"spaces.searches": 1, "spaces.search_hits": result is not None}


# metric prefix -> fn(args, result) giving work counts to add, run after
# the span has ended
COUNTS = {
    "core.scan_assoc": lambda a, r: {"core.scan_assoc.cands": len(a[2])},
    "core.check_triples": lambda a, r: {"core.check_triples.triples": len(a[2]) // 3},
    "core.scan_four_values": lambda a, r: {"core.scan_four_values.points": len(a[0])},
    "core.closure_step": lambda a, r: {
        "core.closure_step.pairs": len(a[0]) * (len(a[0]) + 1) // 2
    },
    "core.all_pairs_completion": lambda a, r: {"core.all_pairs_completion.cells3": a[0] ** 3},
    "core.validate_metric": lambda a, r: {"core.validate_metric.cells3": a[0] ** 3},
    "checks.check_associativity": lambda a, r: {
        "checks.interval_checks": not a[0].is_finite()
    },
    "approx.subadditive_closure": _closure,
    "construction.build_tree": lambda a, r: {"construction.tree_nodes": len(r[0])},
    "spaces.build_saturated_space": lambda a, r: {"spaces.saturated_points": len(r.points)},
    "spaces.indivisibility_search": _search,
    "spaces.oscillation_search": _search,
}

COUNT_NAMES = (
    "core.scan_assoc.cands",
    "core.check_triples.triples",
    "core.scan_four_values.points",
    "core.closure_step.pairs",
    "core.all_pairs_completion.cells3",
    "core.validate_metric.cells3",
    "checks.interval_checks",
    "approx.closure_rounds",
    "approx.closure_cap",
    "construction.tree_nodes",
    "spaces.saturated_points",
    "spaces.searches",
)


class Tracer:
    """In-memory span recorder shared by the installed wrappers."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._restore = []

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans[sid] = (self.op, sid, parent, name, start, end)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "distset" or n.startswith("distset.")]
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[module]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, path)
            wrapper = self.wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def layer_metrics(self):
        """``<name>.calls`` and ``<name>.self_s`` for every target, plus
        the computed work counts and their ratios."""
        calls = Counter()
        child = defaultdict(float)
        for op, sid, parent, name, start, end in self.spans:
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for op, sid, parent, name, start, end in self.spans:
            self_s[name] += end - start - child[sid]
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        c = self.counts
        out["checks.sampled_frac"] = (
            _ratio(calls["core.check_triples"], c["checks.interval_checks"]),
            "ratio",
        )
        out["approx.rounds_over_cap"] = (
            _ratio(c["approx.closure_rounds"], c["approx.closure_cap"]),
            "ratio",
        )
        out["spaces.search_hit_frac"] = (
            _ratio(c["spaces.search_hits"], c["spaces.searches"]),
            "ratio",
        )
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0
