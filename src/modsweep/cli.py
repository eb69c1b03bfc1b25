"""Command-line front end.

Subcommands: detect, score, verify, gen, oracle, mincut.  Graph input is an
edge-list file or '-' for stdin.  Exit codes: 0 success, 1 verification
failure, 2 malformed input, invalid arguments, an unwritable output path,
or a value to print outside float range.

A command only formats: it returns its exit code, its stdout text and the
named files it produces, and ``main`` alone writes.  An output sent to '-'
joins stdout where it would have been printed.  ``main`` writes every named
file, in order, and then stdout in one write, so an exit 2 prints nothing;
the files written before an unwritable one remain.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .engine import detect_communities, format_trace_csv
from .generators import complete_binary_tree, daisy_graph, tree_core_partition
from .graph import Graph, format_edge_list, load_edge_list, min_cut
from .modularity import CommunityAggregates, bounds_report
from .oracle import best_partition
from .partition import Partition, format_partition, parse_partition
from .rational import int_text, positive_fraction, rounded

Outputs = tuple[int, str, list[tuple[str, str]]]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _outputs(code: int, *pieces: tuple[str, str]) -> Outputs:
    """Split ``(destination, text)`` pieces, in print order, into the exit
    code, the stdout text (every '-' piece) and the named files."""
    return (code, "".join(text for path, text in pieces if path == "-"),
            [(path, text) for path, text in pieces if path != "-"])


def _exact(x: Fraction) -> str:
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def _cmd_detect(args) -> Outputs:
    graph, labels = load_edge_list(_read_text(args.graph))
    t_min = positive_fraction(args.t_min, "--t-min")
    part, trace = detect_communities(graph, t_min)
    final = trace[-1]  # the returned partition's exact record
    q_t_min = final.q_1 + (1 - t_min) * final.alpha
    lines = [f"n {graph.n}", f"z {int_text(graph.z)}", f"t_min {rounded(t_min)}",
             f"communities {len(part)}", f"q_t_min {rounded(q_t_min)}",
             f"q_1 {rounded(final.q_1)}", f"final_resolution {rounded(final.t_exact)}",
             f"sweeps {len(trace) - 1}"]
    if args.exact_report:
        lines.append(f"final_resolution_exact {_exact(final.t_exact)}")
    pieces = [("-", "\n".join(lines) + "\n")]
    if args.trace:
        pieces.append((args.trace, format_trace_csv(trace)))
    if args.output:
        pieces.append((args.output, format_partition(part, labels)))
    return _outputs(0, *pieces)


def _read_scored(args) -> tuple[Graph, Partition, Fraction, list[str]]:
    """``score``'s and ``verify``'s inputs, and ``t_exact`` under ``--exact-report``."""
    graph, labels = load_edge_list(_read_text(args.graph))
    part = parse_partition(_read_text(args.partition), labels)
    t = positive_fraction(args.t, "--t")
    return graph, part, t, [f"t_exact {_exact(t)}"] if args.exact_report else []


def _cmd_score(args) -> Outputs:
    graph, part, t, lines = _read_scored(args)
    agg = CommunityAggregates.from_partition(graph, part)
    q = agg.score(t)
    lines += [f"q_t {rounded(q)}", f"q_bar_t {rounded((1 - t) - q)}",
              f"k {len(part)}", f"alpha {rounded(agg.alpha())}"]
    return _outputs(0, ("-", "\n".join(lines) + "\n"))


def _cmd_verify(args) -> Outputs:
    graph, part, t, lines = _read_scored(args)
    report = bounds_report(graph, part, t)
    lines += [report.render(), f"RESULT {'PASS' if report.all_pass else 'FAIL'}"]
    return _outputs(0 if report.all_pass else 1, ("-", "\n".join(lines) + "\n"))


def _cmd_gen(args) -> Outputs:
    if args.kind == "daisy":
        text = format_edge_list(daisy_graph(args.r))
    elif args.kind == "tree":
        text = format_edge_list(complete_binary_tree(args.height))
    else:  # tree-partition
        text = format_partition(tree_core_partition(args.height))
    return _outputs(0, (args.output, text))


def _cmd_oracle(args) -> Outputs:
    graph, labels = load_edge_list(_read_text(args.graph))
    t = positive_fraction(args.t, "--t")
    result = best_partition(graph, t)
    summary = (f"best_q {rounded(result.best_q)}\n"
               f"partitions_examined {result.partitions_examined}\n")
    return _outputs(0, ("-", summary),
                    (args.output or "-", format_partition(result.best_partition, labels)))


def _cmd_mincut(args) -> Outputs:
    graph, _ = load_edge_list(_read_text(args.graph))
    return _outputs(0, ("-", int_text(min_cut(graph)) + "\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modsweep",
        description="Community detection on weighted graphs via exact resolution sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    graph_help = "edge-list file, '-' for stdin"
    t_help = "resolution, e.g. 1, 0.7 or 3/2 (default 1)"

    p = sub.add_parser("detect", help="run the resolution sweep on an edge list")
    p.add_argument("graph", nargs="?", default="-", help=graph_help)
    p.add_argument("--t-min", default="1", help="stop once the resolution falls below this")
    p.add_argument("--trace", help="write the per-resolution trace CSV here")
    p.add_argument("--output", help="write the final partition here")
    p.add_argument("--exact-report", action="store_true",
                   help="also print resolutions as integer fractions")
    p.set_defaults(func=_cmd_detect)

    for name, func, text in (
            ("score", _cmd_score, "score a partition file against a graph"),
            ("verify", _cmd_verify, "check every bound and the stability certificate")):
        p = sub.add_parser(name, help=text)
        p.add_argument("graph", help=graph_help)
        p.add_argument("partition", help="file of 'vertexLabel communityId' lines")
        p.add_argument("--t", default="1", help=t_help)
        p.add_argument("--exact-report", action="store_true",
                       help="also print t as an integer fraction")
        p.set_defaults(func=func)

    p = sub.add_parser("gen", help="emit a generated example graph or partition")
    gsub = p.add_subparsers(dest="kind", required=True)
    for kind, size, size_help, text in (
            ("daisy", "--r", "petal groups of 25, at least 1", "hub with 25*r three-vertex petals"),
            ("tree", "--height", "root-to-leaf edges, at least 1", "complete binary tree"),
            ("tree-partition", "--height", "root-to-leaf edges, at least 3",
             "core-plus-branches tree partition")):
        g = gsub.add_parser(kind, help=text)
        g.add_argument(size, type=int, required=True, help=size_help)
        g.add_argument("--output", default="-", help="write here, '-' for stdout (default)")
        g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="exhaustive optimum for small graphs")
    p.add_argument("graph", help=graph_help)
    p.add_argument("--t", default="1", help=t_help)
    p.add_argument("--output", help="write the best partition here, not to stdout")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mincut", help="global minimum cut of a connected graph")
    p.add_argument("graph", nargs="?", default="-", help=graph_help)
    p.set_defaults(func=_cmd_mincut)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, out, files = args.func(args)
        for path, text in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(out)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code

