"""The traced run: spans around every layer call, and the per-layer report.

The traced run does what ``modsweep detect`` (or ``modsweep verify``) does,
but drives the engine through its public stepwise API so that each layer is
a separate call with its own span.  Where one public function calls another
inside the program (``load_edge_list`` builds through
``Graph.from_edge_list``; ``bounds_report`` calls
``CommunityAggregates.from_partition``, ``is_merge_stable`` and
``min_cut``), the inner function is wrapped for the length of the run, so
its time shows as a child span.  After the run, a ``check`` span certifies
its result with the layers the command itself does not use, so every layer
has work on every workload.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import modsweep as ms

from harness import T_MIN, Inputs, Run, SpeedClock, Tally, quiet_heap, run_cli

_modularity = importlib.import_module("modsweep.modularity")

# (owner, attribute, span name) of program functions called by other ones.
INNER_CALLS = (
    (ms.Graph, "from_edge_list", "graph.build"),
    (ms.CommunityAggregates, "from_partition", "measures.aggregates"),
    (_modularity, "is_merge_stable", "modularity.stable"),
    (_modularity, "min_cut", "graph.min_cut"),
)

# Spans outside every program layer: the CLI's own reading, printing and writing.
CLI_OTHER = ("run", "cli.read", "cli.print", "cli.write")
SOLVE_DETECT = ("engine.init", "engine.record", "engine.resolution", "engine.sweep",
                "engine.check", "partition.build")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Spans of one or more traced runs, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, perf_counter(), math.nan, parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def inner_calls(self):
        """Wrap INNER_CALLS in spans; missing attributes are left alone."""
        saved = []
        for owner, attr, name in INNER_CALLS:
            if attr not in vars(owner):
                print(f"bench: no {attr} on {owner.__name__}; {name} is not traced",
                      file=sys.stderr)
                continue
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._wrapped(getattr(owner, attr), name))
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def _wrapped(self, fn, name):
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def self_times(self, run: str) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        totals: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            if s.run == run:
                totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child[i]
        return totals

    def durations(self, run: str, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.run == run and s.name == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "run": s.run, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")


def _sweep(tr: Tracer, g, labels):
    """The library part of ``modsweep detect``, one span per call.

    Returns the partition, the trace, the scores at t_min and at 1, and the
    trace and partition file texts.
    """
    with tr.span("engine.init"):
        eng = ms.SweepEngine(g)
    with tr.span("engine.record"):
        eng.record_trace()
    while True:
        with tr.span("engine.resolution"):
            t = eng.resolution()
        if t < T_MIN:
            break
        with tr.span("engine.sweep"):
            eng.resolution_sweep()
    with tr.span("engine.check"):
        eng.check_stable(T_MIN)
    with tr.span("partition.build"):
        part = eng.partition()
    trace = list(eng.trace)
    with tr.span("modularity.score"):
        q_tmin = ms.modularity(g, part, T_MIN)
    with tr.span("modularity.score"):
        q_1 = ms.modularity(g, part, Fraction(1))
    with tr.span("engine.trace_csv"):
        trace_csv = ms.format_trace_csv(trace)
    with tr.span("partition.format"):
        parts = ms.format_partition(part, labels)
    return part, trace, q_tmin, q_1, trace_csv, parts


def traced_detect(tr: Tracer, inputs: Inputs):
    """``modsweep detect`` step by step, then a check of its output.

    The check reads the partition file back and runs ``bounds_report`` on
    the quotient graph (one vertex per community), whose merge-stability
    certificate is the partition's.  Returns the partition, the trace, the
    printed summary, and whether the check passed.
    """
    out = inputs.graph.parent
    with tr.span("run"):
        with tr.span("cli.read"):
            text = inputs.graph.read_text()
        with tr.span("graph.load"):
            g, labels = ms.load_edge_list(text)
        part, trace, q_tmin, q_1, trace_csv, parts = _sweep(tr, g, labels)
        with tr.span("cli.print"):
            summary = (f"n {g.n}\nz {g.z}\ncommunities {len(part)}\nq_t_min {float(q_tmin):.12g}\n"
                       f"q_1 {float(q_1):.12g}\nfinal_resolution {trace[-1].t:.12g}\n"
                       f"sweeps {len(trace) - 1}\n")
        with tr.span("cli.write"):
            (out / "traced.trace.csv").write_text(trace_csv)
            (out / "traced.parts").write_text(parts)
    with tr.span("check"):
        with tr.span("partition.parse"):
            reread = ms.parse_partition((out / "traced.parts").read_text(), labels)
        coarse = ms.quotient(g, reread)
        with tr.span("modularity.bounds"):
            report = ms.bounds_report(coarse, ms.singleton_partition(coarse), T_MIN)
    return part, trace, summary, reread == part and report.all_pass


def traced_verify(tr: Tracer, inputs: Inputs):
    """``modsweep verify`` step by step, then a check of its input.

    The check re-derives the input partition with the engine, which must
    format to the partition file exactly.  Returns the printed report, the
    re-derivation's trace, and whether the check passed.
    """
    with tr.span("run"):
        with tr.span("cli.read"):
            graph_text = inputs.graph.read_text()
            part_text = inputs.partition.read_text()
        with tr.span("graph.load"):
            g, labels = ms.load_edge_list(graph_text)
        with tr.span("partition.parse"):
            part = ms.parse_partition(part_text, labels)
        with tr.span("modularity.bounds"):
            report = ms.bounds_report(g, part, T_MIN)
        with tr.span("cli.print"):
            text = report.render() + f"\nRESULT {'PASS' if report.all_pass else 'FAIL'}\n"
    with tr.span("check"):
        _, trace, _, _, _, parts = _sweep(tr, g, labels)
    return text, trace, parts == part_text


def traced_run(tr: Tracer, inputs: Inputs, run: str):
    """One traced run of the workload's command, under run id ``run``."""
    tr.run = run
    with quiet_heap(), tr.inner_calls():
        if inputs.verify:
            return traced_verify(tr, inputs)
        return traced_detect(tr, inputs)


def solve_seconds(tr: Tracer, run: str, verify: bool) -> float:
    """What the library call (detect_communities or bounds_report) took in the run.

    The check after the run uses the other command's layers, so the names
    counted here occur only inside the ``run`` span.
    """
    names = ("modularity.bounds",) if verify else SOLVE_DETECT
    return sum(sum(tr.durations(run, name)) for name in names)


def layer_metrics(tr: Tracer, scale: dict[str, float], verify: bool, trace,
                  cli_s: float) -> dict[str, float]:
    """Per-layer metrics of the run "full", with "half" the same command at
    half size; ``scale`` holds each run's SpeedClock factor."""
    own = tr.self_times("full")
    f = scale["full"]

    def t(*names: str) -> float:
        return f * sum(own.get(name, 0.0) for name in names)

    sweep_s = t("engine.record", "engine.resolution", "engine.sweep")
    ks = [r.k for r in trace]
    merges = ks[0] - ks[-1] if ks else 0
    return {
        "graph.load_s": t("graph.load"),
        "graph.build_s": t("graph.build"),
        "graph.min_cut_s": t("graph.min_cut"),
        "engine.init_s": t("engine.init"),
        "engine.sweep_s": sweep_s,
        "engine.sweep_max_s": f * max(tr.durations("full", "engine.sweep"), default=0.0),
        "engine.merges_per_s": merges / sweep_s if sweep_s else 0.0,
        "engine.check_s": t("engine.check"),
        "engine.sweeps": max(len(ks) - 1, 0),
        "engine.merges": merges,
        "engine.max_group": max((a - b for a, b in zip(ks, ks[1:])), default=0),
        "measures.aggregates_s": t("measures.aggregates"),
        "modularity.stable_s": t("modularity.stable"),
        "modularity.score_s": t("modularity.score"),
        "modularity.bounds_s": t("modularity.bounds"),
        "partition.build_s": t("partition.build"),
        "partition.format_s": t("partition.format"),
        "partition.parse_s": t("partition.parse"),
        "engine.trace_csv_s": t("engine.trace_csv"),
        "cli.other_s": t(*CLI_OTHER),
        "scale.exponent": math.log2(f * solve_seconds(tr, "full", verify)
                                    / (scale["half"] * solve_seconds(tr, "half", verify))),
        "trace.overhead_s": f * sum(tr.durations("full", "run")) - cli_s,
    }


def report_text(tr: Tracer, run: str) -> str:
    """Self time per span name, largest first, with its share of the run."""
    own = tr.self_times(run)
    total = sum(tr.durations(run, "run"))
    lines = [f"self time of traced run {run} (run span {total:.4f} s)"]
    for name, secs in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:22s} {secs:10.4f} s  {100 * secs / total:6.1f} %")
    return "\n".join(lines) + "\n"


def _reference(inputs: Inputs, tally: Tally):
    """Untraced library result for ``inputs``, checked like any other."""
    run = Run(inputs, tally)
    g, labels, part, _ = run.setup()
    result, _ = run.solve(g, part)
    run.check_solve(g, part, result)
    return run, labels, result


def _same(inputs: Inputs, traced, reference, cli_stdout: str) -> list[str]:
    """Differences between a traced run and the untraced library and CLI runs."""
    if inputs.verify:
        text, _, rederived = traced
        problems = [] if text == cli_stdout else ["traced report differs from modsweep verify"]
        if not rederived:
            problems.append("the engine does not re-derive the input partition")
        return problems
    part, trace, summary, certified = traced
    ref_part, ref_trace = reference
    problems = [] if certified else ["traced output failed its check"]
    if part != ref_part:
        problems.append("traced partition differs from detect_communities")
    if [r.t_exact for r in trace] != [r.t_exact for r in ref_trace]:
        problems.append("traced t_exact trace differs from detect_communities")
    if not set(summary.splitlines()) <= set(cli_stdout.splitlines()):
        problems.append("traced summary differs from modsweep detect")
    return problems


def measure_traced(inputs: Inputs, half: Inputs, tally: Tally, spans: Path) -> dict[str, float]:
    """Per-layer metrics from traced runs at full and half size.

    Each traced run must reproduce the untraced results exactly.  Its times
    are rescaled by the SpeedClock like the end-to-end ones.  The spans go
    to ``spans`` as JSON lines (wall-clock), and the self-time report next
    to it.
    """
    tr = Tracer()
    clock = SpeedClock()
    scale: dict[str, float] = {}
    for size, case in (("full", inputs), ("half", half)):
        run, labels, reference = _reference(case, tally)
        clock.mark()
        code, stdout, seconds = run_cli(case.cli_args())
        cli_factor = clock.factor()
        run.check_cli(code, stdout, labels)
        clock.mark()
        result = traced_run(tr, case, size)
        scale[size] = clock.factor()
        tally.record(f"traced run, {size} size", _same(case, result, reference, stdout))
        if size == "full":
            cli_s, traced = seconds * cli_factor, result
    metrics = layer_metrics(tr, scale, inputs.verify, traced[1], cli_s)
    tr.write(spans)
    text = report_text(tr, "full") + report_text(tr, "half")
    spans.with_suffix(".txt").write_text(text)
    print(text, end="", file=sys.stderr)
    return metrics
