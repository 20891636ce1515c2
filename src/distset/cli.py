"""Command-line interface.

One binary, one subcommand per pipeline, JSON in / JSON out with exact
rationals as "p/q" strings.  Output is deterministic for fixed inputs,
flags and seed.  Exit codes: 0 success (including searches that find
nothing), 1 a check reported Failed (the report JSON is still printed),
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import approx, cantor, checks, construction, rgraph, spaces
from .errors import DistSetError, ParameterError
from .rationals import as_rational, is_int
from .rgraph import FiniteMetricSpace, RGraph
from .rset import RSet


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise DistSetError(f"cannot read {path}: {exc}") from exc


def _load_rset(path: str) -> RSet:
    return RSet.from_json_obj(_load_json(path))


def _load_graph(path: str) -> RGraph:
    return RGraph.from_json_obj(_load_json(path))


def _load_space(path: str) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_json_obj(_load_json(path))


def _emit(obj, args) -> None:
    indent = 2 if args.pretty else None
    separators = None if args.pretty else (",", ":")
    text = json.dumps(obj, indent=indent, separators=separators, sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DistSetError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def _report_exit(report: checks.CheckReport, args) -> int:
    _emit(report.to_json_obj(), args)
    return 0 if report.passed else 1


# -- subcommand bodies -------------------------------------------------------


def _cmd_set_check(args) -> int:
    rset = _load_rset(args.input)
    report = checks.check_4values(rset)
    return _report_exit(report, args)


def _cmd_set_approx(args) -> int:
    rset = _load_rset(args.input)
    seed_points = _load_rset(args.b) if args.b else None
    result = approx.make_eps_approximation(
        rset,
        as_rational(args.eps),
        seed_points=seed_points,
        min_positive=as_rational(args.r) if args.r else None,
    )
    _emit(result.to_json_obj(), args)
    return 0


def _cmd_set_scale(args) -> int:
    _emit(_load_rset(args.input).scale(as_rational(args.c)).to_json_obj(), args)
    return 0


def _cmd_set_truncate(args) -> int:
    _emit(_load_rset(args.input).truncate(as_rational(args.c)).to_json_obj(), args)
    return 0


def _cmd_set_union(args) -> int:
    result = _load_rset(args.input).translate_union(as_rational(args.l), args.copies)
    _emit(result.to_json_obj(), args)
    return 0


def _cmd_cantor_gen(args) -> int:
    weights = cantor.parse_weights(args.weights) if args.weights else ()
    _emit(cantor.cantor_set(weights).to_json_obj(), args)
    return 0


def _cmd_graph_check(args) -> int:
    return _report_exit(rgraph.is_metric(_load_graph(args.graph)), args)


def _cmd_graph_complete(args) -> int:
    space = rgraph.complete_to_metric_space(_load_graph(args.graph))
    _emit(space.to_json_obj(), args)
    return 0


def _cmd_graph_shortcut(args) -> int:
    graph = rgraph.add_shortcut(_load_graph(args.graph), args.a, args.b)
    _emit(graph.to_json_obj(), args)
    return 0


def _cmd_graph_connect(args) -> int:
    graph = rgraph.connect(_load_graph(args.graph), as_rational(args.r))
    _emit(graph.to_json_obj(), args)
    return 0


def _cmd_construct_bridge(args) -> int:
    bridge = construction.BridgeInput.from_json_obj(_load_json(args.input))
    _emit(construction.build_bridge_graph(bridge).to_json_obj(), args)
    return 0


def _cmd_construct_companion(args) -> int:
    bridge = construction.BridgeInput.from_json_obj(_load_json(args.input))
    _emit(construction.derive_companion_W(bridge).to_json_obj(), args)
    return 0


def _bridge_and_depth(args) -> tuple:
    obj = _load_json(args.input)
    bridge = construction.BridgeInput.from_json_obj(obj)
    depth = args.depth if args.depth is not None else obj.get("depth")
    if depth is None:
        raise DistSetError("give --depth or a 'depth' key in the input JSON")
    if not is_int(depth):
        raise ParameterError(f"depth must be an integer: {depth!r}")
    return bridge, depth


def _cmd_construct_tree(args) -> int:
    bridge, depth = _bridge_and_depth(args)
    companion = construction.derive_companion_W(bridge)
    nodes, tree = construction.build_tree(
        bridge, companion, depth, node_budget=args.budget
    )
    _emit(
        {
            "depth": depth,
            "nodes": [node.node_id for node in nodes],
            "graph": tree.to_json_obj(),
            "branch_lengths": construction.maximal_branch_lengths(nodes),
        },
        args,
    )
    return 0


def _cmd_construct_full(args) -> int:
    bridge, depth = _bridge_and_depth(args)
    graph_h, space_l = construction.build_H_and_L(
        bridge, depth, node_budget=args.budget
    )
    _emit(
        {
            "depth": depth,
            "H": graph_h.to_json_obj(),
            "L": space_l.to_json_obj(),
        },
        args,
    )
    return 0


def _cmd_construct_copy(args) -> int:
    bridge, depth = _bridge_and_depth(args)
    _, space_l = construction.build_H_and_L(
        bridge, depth, node_budget=args.budget
    )
    try:
        embedding = [int(p) for p in args.embedding.split(",") if p.strip()]
    except ValueError as exc:
        raise ParameterError(f"embedding indices must be integers: {exc}") from exc
    copy = construction.find_nearby_copy(space_l, embedding, bridge, depth)
    _emit(copy.to_json_obj(), args)
    return 0


def _cmd_space_build(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", spaces.SaturationCapWarning)
        space = spaces.build_saturated_space(
            _load_rset(args.input),
            max_points=args.max_points,
            witness_arity=args.arity,
            seed=args.seed,
        )
    _emit(space.to_json_obj(), args)
    for note in caught:
        print(f"note: {note.message}", file=sys.stderr)
    return 0


def _cmd_space_universal(args) -> int:
    report = spaces.check_universality(
        _load_space(args.space), _load_rset(args.input), args.n, budget=args.budget
    )
    return _report_exit(report, args)


def _cmd_space_extension(args) -> int:
    report = spaces.check_extension_property(
        _load_space(args.space), args.k, budget=args.budget
    )
    return _report_exit(report, args)


def _cmd_space_color(args) -> int:
    space = _load_space(args.space)
    coloring = spaces.Coloring.from_json_obj(_load_json(args.coloring))
    target = _load_space(args.target)
    hit = spaces.indivisibility_search(
        space, coloring, target, as_rational(args.eps), budget=args.budget
    )
    if hit is None:
        _emit({"found": False}, args)
    else:
        colour, mapping = hit
        _emit({"found": True, "color": colour, "embedding": mapping}, args)
    return 0


def _cmd_space_oscillate(args) -> int:
    space = _load_space(args.space)
    func = spaces.KatetovFunction.from_json_obj(_load_json(args.f)).values
    target = _load_space(args.target)
    hit = spaces.oscillation_search(
        space, func, as_rational(args.eps), target, budget=args.budget
    )
    if hit is None:
        _emit({"found": False}, args)
    else:
        _emit({"found": True, "embedding": hit}, args)
    return 0


def _cmd_space_embed(args) -> int:
    space = _load_space(args.space)
    targets = [part.strip() for part in args.points.split(",") if part.strip()]
    hit = spaces.find_order_embedding(
        space, targets, budget=args.budget, length=args.length
    )
    if hit is None:
        _emit({"found": False}, args)
    else:
        _emit({"found": True, "map": list(hit)}, args)
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument("--output", help="write JSON here instead of stdout")
    parser.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distset",
        description="exact computation with closed rational distance sets",
    )
    top = parser.add_subparsers(dest="group", required=True)

    g_set = top.add_parser("set", help="distance-set operations")
    sub = g_set.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="four-values / associativity check")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_set_check)

    p = sub.add_parser("approx", help="finite closed eps-approximation")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--r", help="requested smallest positive member")
    p.add_argument("--b", help="finite set JSON that must be contained")
    _add_common(p)
    p.set_defaults(func=_cmd_set_approx)

    p = sub.add_parser("scale", help="pointwise scaling")
    p.add_argument("--input", required=True)
    p.add_argument("--c", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_set_scale)

    p = sub.add_parser("truncate", help="cut above a bound")
    p.add_argument("--input", required=True)
    p.add_argument("--c", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_set_truncate)

    p = sub.add_parser("union", help="union of separated translates")
    p.add_argument("--input", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--copies", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_set_union)

    g_cantor = top.add_parser("cantor", help="Cantor-type set generators")
    sub = g_cantor.add_subparsers(dest="command", required=True)
    p = sub.add_parser("gen", help="iterated middle-interval removal")
    p.add_argument(
        "--weights", default="", help="comma-separated rationals, e.g. 2/5,1/2"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_cantor_gen)

    g_graph = top.add_parser("graph", help="weighted-graph operations")
    sub = g_graph.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="does every edge realize its distance")
    p.add_argument("--graph", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_graph_check)

    p = sub.add_parser("complete", help="all-pairs completion to a space")
    p.add_argument("--graph", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_graph_complete)

    p = sub.add_parser("shortcut", help="insert an edge at distance weight")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_graph_shortcut)

    p = sub.add_parser("connect", help="join components at weight r")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_graph_connect)

    g_con = top.add_parser("construct", help="bridge/tree construction")
    sub = g_con.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bridge", help="bridge graph of a pairing")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_construct_bridge)

    p = sub.add_parser("companion", help="companion space of a pairing")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_construct_companion)

    p = sub.add_parser("tree", help="order-isometry tree at a depth")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, help="defaults to the input's depth key")
    p.add_argument("--budget", type=int, default=20000)
    _add_common(p)
    p.set_defaults(func=_cmd_construct_tree)

    p = sub.add_parser("full", help="anchored graph H and completion L")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, help="defaults to the input's depth key")
    p.add_argument("--budget", type=int, default=20000)
    _add_common(p)
    p.set_defaults(func=_cmd_construct_full)

    p = sub.add_parser("copy", help="copy of V near an embedded copy of U")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, help="defaults to the input's depth key")
    p.add_argument("--embedding", required=True, help="comma-separated indices")
    p.add_argument("--budget", type=int, default=20000)
    _add_common(p)
    p.set_defaults(func=_cmd_construct_copy)

    g_space = top.add_parser("space", help="finite saturated spaces")
    sub = g_space.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="saturate under one-point extensions")
    p.add_argument("--input", required=True, help="finite distance-set JSON")
    p.add_argument("--max-points", type=int, default=60)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_space_build)

    p = sub.add_parser("universal", help="embed every small space")
    p.add_argument("--space", required=True)
    p.add_argument("--input", required=True, help="finite distance-set JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=5_000_000)
    _add_common(p)
    p.set_defaults(func=_cmd_space_universal)

    p = sub.add_parser("extension", help="one-point extension of isometries")
    p.add_argument("--space", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=_cmd_space_extension)

    p = sub.add_parser("color", help="monochromatic-copy search")
    p.add_argument("--space", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--eps", default="0")
    p.add_argument("--budget", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=_cmd_space_color)

    p = sub.add_parser("oscillate", help="low-oscillation copy search")
    p.add_argument("--space", required=True)
    p.add_argument("--f", required=True, help="function JSON")
    p.add_argument("--eps", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=_cmd_space_oscillate)

    p = sub.add_parser("embed", help="enumeration-order embedding search")
    p.add_argument("--space", required=True)
    p.add_argument("--points", required=True, help="comma-separated point ids")
    p.add_argument("--length", type=int)
    p.add_argument("--budget", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=_cmd_space_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DistSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
