"""Command-line front end.

Subcommands: detect, score, verify, gen, oracle, mincut.  Graph input is an
edge-list file or '-' for stdin.  Exit codes: 0 success, 1 verification
failure, 2 malformed input or invalid arguments.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .engine import detect_communities, format_trace_csv
from .generators import complete_binary_tree, daisy_graph, tree_core_partition
from .graph import Graph, format_edge_list, load_edge_list, min_cut
from .modularity import bounds_report
from .measures import CommunityAggregates
from .oracle import best_partition
from .partition import Partition, format_partition, parse_partition, refine_connected


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_graph(path: str) -> tuple[Graph, list[str]]:
    return load_edge_list(_read_text(path))


def _parse_t(text: str, name: str = "t") -> Fraction:
    try:
        t = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a number, got {text!r}") from None
    if t <= 0:
        raise ValueError(f"{name} must be positive, got {text}")
    return t


def _cmd_detect(args) -> int:
    graph, labels = _read_graph(args.graph)
    t_min = _parse_t(args.t_min, "--t-min")
    part, trace = detect_communities(graph, t_min)
    if args.ensure_connected:
        part = refine_connected(graph, part)
    agg = CommunityAggregates.from_partition(graph, part)
    q_tmin = agg.score(t_min)
    q_1 = agg.score(1)
    final = trace[-1]
    print(f"n {graph.n}")
    print(f"z {graph.z}")
    print(f"t_min {float(t_min):.12g}")
    print(f"communities {len(part)}")
    print(f"q_t_min {float(q_tmin):.12g}")
    print(f"q_1 {float(q_1):.12g}")
    print(f"final_resolution {final.t:.12g}")
    print(f"sweeps {len(trace) - 1}")
    if args.exact_report:
        fr = final.t_exact
        print(f"final_resolution_exact {fr.numerator}/{fr.denominator}")
    if args.trace:
        _write_text(args.trace, format_trace_csv(trace))
    if args.output:
        _write_text(args.output, format_partition(part, labels))
    return 0


def _cmd_score(args) -> int:
    graph, labels = _read_graph(args.graph)
    part = parse_partition(_read_text(args.partition), labels)
    t = _parse_t(args.t, "--t")
    agg = CommunityAggregates.from_partition(graph, part)
    q = agg.score(t)
    qbar = (1 - t) - q
    if args.exact_report:
        print(f"t_exact {t.numerator}/{t.denominator}")
    print(f"q_t {float(q):.12g}")
    print(f"q_bar_t {float(qbar):.12g}")
    print(f"k {len(part)}")
    print(f"alpha {float(agg.alpha()):.12g}")
    return 0


def _cmd_verify(args) -> int:
    graph, labels = _read_graph(args.graph)
    part = parse_partition(_read_text(args.partition), labels)
    t = _parse_t(args.t, "--t")
    report = bounds_report(graph, part, t)
    if args.exact_report:
        print(f"t_exact {t.numerator}/{t.denominator}")
    print(report.render())
    print(f"RESULT {'PASS' if report.all_pass else 'FAIL'}")
    return 0 if report.all_pass else 1


def _cmd_gen(args) -> int:
    if args.kind == "daisy":
        graph = daisy_graph(args.r)
        _write_text(args.output, format_edge_list(graph))
    elif args.kind == "tree":
        graph = complete_binary_tree(args.height)
        _write_text(args.output, format_edge_list(graph))
    else:  # tree-partition
        part = tree_core_partition(args.height)
        _write_text(args.output, format_partition(part))
    return 0


def _cmd_oracle(args) -> int:
    graph, labels = _read_graph(args.graph)
    t = _parse_t(args.t, "--t")
    result = best_partition(graph, t)
    print(f"best_q {result.best_q:.12g}")
    print(f"partitions_examined {result.partitions_examined}")
    text = format_partition(result.best_partition, labels)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_mincut(args) -> int:
    graph, _ = _read_graph(args.graph)
    print(min_cut(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modsweep",
        description="Community detection on weighted graphs via exact resolution sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the resolution sweep on an edge list")
    p.add_argument("graph", nargs="?", default="-", help="edge-list file, '-' for stdin")
    p.add_argument("--t-min", default="1", help="stop once the resolution falls below this")
    p.add_argument("--trace", help="write the per-resolution trace CSV here")
    p.add_argument("--output", help="write the final partition here")
    p.add_argument("--ensure-connected", action="store_true",
                   help="split any disconnected community (never lowers the score)")
    p.add_argument("--exact-report", action="store_true",
                   help="also print resolutions as integer fractions")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("score", help="score a partition file against a graph")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--t", default="1")
    p.add_argument("--exact-report", action="store_true")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("verify", help="check every bound and the stability certificate")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--t", default="1")
    p.add_argument("--exact-report", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a generated example graph or partition")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("daisy", help="hub with 25*r three-vertex petals")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--output", default="-")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("tree", help="complete binary tree")
    g.add_argument("--height", type=int, required=True)
    g.add_argument("--output", default="-")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("tree-partition", help="core-plus-branches tree partition")
    g.add_argument("--height", type=int, required=True)
    g.add_argument("--output", default="-")
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="exhaustive optimum for small graphs")
    p.add_argument("graph")
    p.add_argument("--t", default="1")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mincut", help="global minimum cut of a connected graph")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=_cmd_mincut)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
