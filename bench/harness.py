"""Workload inputs, output checks and the untraced measurement loop.

The program is only called through its public entry points: ``cli.main``
for what a CLI user waits for, and ``load_edge_list`` followed by
``detect_communities`` (or ``bounds_report`` for ``verify``) for what a
library user waits for.  Every output is checked; an output that fails a
check counts against the run in ``Tally``.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import io
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import modsweep as ms
from modsweep import cli

import gen

T_MIN = Fraction(1)
SRC = Path(ms.__file__).resolve().parents[1]


@dataclass(frozen=True)
class Inputs:
    """Generated files for one workload, seed and size."""
    workload: str
    graph: Path
    partition: Path | None

    @property
    def verify(self) -> bool:
        return self.partition is not None

    def cli_args(self) -> list[str]:
        if self.verify:
            return ["verify", str(self.graph), str(self.partition), "--t", "1"]
        out = self.graph.parent
        return ["detect", str(self.graph), "--t-min", "1",
                "--trace", str(out / "out.trace.csv"), "--output", str(out / "out.parts")]


def make_inputs(work: Path, workload: str, seed: int, div: int = 1) -> Inputs:
    """Write the seeded input files for a workload; ``div`` 2 halves the size.

    The ``verify`` partition is what ``detect_communities`` returns for the
    generated graph, so it is merge-stable and the cut checks apply.
    """
    rng = random.Random(f"{workload}/{seed}/{div}")
    text = gen.edge_list_text(gen.FAMILIES[workload](rng, div), rng)
    folder = work / f"{workload}-seed{seed}-div{div}"
    folder.mkdir(parents=True, exist_ok=True)
    graph = folder / "graph.edges"
    graph.write_text(text)
    partition = None
    if workload == "verify":
        g, labels = ms.load_edge_list(text)
        part, _ = ms.detect_communities(g, T_MIN)
        partition = folder / "graph.parts"
        partition.write_text(ms.format_partition(part, labels))
    return Inputs(workload, graph, partition)


class Tally:
    """Counts checked operations and those that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"bench: FAIL {what}: {p}", file=sys.stderr)


def partition_problems(g, part) -> list[str]:
    """Coverage plus an independent certificate computed on the input graph."""
    if len(part.assign) != g.n:
        return [f"partition covers {len(part.assign)} of {g.n} vertices"]
    stable, witness = ms.is_merge_stable(g, part, T_MIN)
    return [] if stable else [f"blocks {witness} are not merge-stable at t={T_MIN}"]


def newman_q(g, part) -> Fraction:
    """Modularity at t = 1, summed here from the graph's rows rather than by
    the program's own ``modularity``."""
    assign = part.assign
    block_degree = [0] * len(part)
    inside = 0
    for u, row in enumerate(g.adj):
        block_degree[assign[u]] += sum(row.values())
        inside += sum(w for v, w in row.items() if assign[v] == assign[u])
    z = sum(block_degree)
    return Fraction(inside, z) - Fraction(sum(d * d for d in block_degree), z * z)


def decreasing_problems(ts) -> list[str]:
    if all(a > b for a, b in zip(ts, ts[1:])):
        return []
    return ["trace t column does not strictly decrease"]


def printed(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        name, _, value = line.partition(" ")
        if name == key:
            return value
    return None


@contextlib.contextmanager
def quiet_heap():
    """Collect garbage, then keep objects that already exist out of later
    collections, so a timing does not depend on what the benchmark holds."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# The calibration loop takes CALIBRATION_S seconds on the reference machine.
CALIBRATION_STEPS = 80_000
CALIBRATION_S = 0.1


def calibration_loop() -> float:
    """Fixed pure-Python work of the engine's kind (tuple heap pushes and
    pops, dict updates, integer arithmetic); returns its wall time."""
    with quiet_heap():
        t0 = perf_counter()
        heap: list = []
        row: dict[int, int] = {}
        x = 12345
        for i in range(CALIBRATION_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x / 0x7FFFFFFF, i, x))
            row[x & 4095] = row.get(x & 4095, 0) + i
            if i & 1:
                heapq.heappop(heap)
        return perf_counter() - t0


class SpeedClock:
    """Rescales wall times to the reference machine speed.

    On a shared host the speed of the machine drifts by a fifth to a half
    over tens of seconds, which would swamp the differences the benchmark
    must show.  The
    calibration loop runs before and after each timed call, and the call's
    wall time is multiplied by CALIBRATION_S over the mean of the two.
    The program's own work never enters the factor.
    """

    def __init__(self) -> None:
        self.mark()

    def mark(self) -> None:
        """Calibrate now, as the start of the next timed call."""
        self._last = calibration_loop()

    def factor(self) -> float:
        """Calibrate again; the factor for the call timed since the last one."""
        after = calibration_loop()
        factor = CALIBRATION_S / ((self._last + after) / 2)
        self._last = after
        return factor

    def rescale(self, wall: float) -> float:
        return wall * self.factor()


def run_cli(args: list[str]) -> tuple[int, str, float]:
    """Call ``cli.main`` in process; returns exit code, stdout and seconds."""
    buf = io.StringIO()
    with quiet_heap(), contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        code = cli.main(args)
        elapsed = perf_counter() - t0
    return code, buf.getvalue(), elapsed


def preflight(karate_out: Path, tally: Tally) -> None:
    """Karate must give 4 communities with q_1 = 0.405."""
    karate = SRC / "modsweep" / "data" / "karate.edges"
    code, out, _ = run_cli(["detect", str(karate), "--output", str(karate_out)])
    q1 = printed(out, "q_1")
    ok = code == 0 and printed(out, "communities") == "4" and q1 is not None \
        and f"{float(q1):.3f}" == "0.405"
    tally.record("karate pre-flight", [] if ok else [f"exit {code}, output {out!r}"])


class Run:
    """One seed of one workload: reference results and the checks against them.

    The first library result is checked in full on the input graph; every
    later result, and every CLI output, must then equal it exactly.
    """

    def __init__(self, inputs: Inputs, tally: Tally) -> None:
        self.inputs = inputs
        self.tally = tally
        self.graph_text = inputs.graph.read_text()
        self.part_text = inputs.partition.read_text() if inputs.verify else None
        self.assign: list[int] | None = None
        self.q_1: Fraction | None = None
        self.cli_stdout: str | None = None
        self.cli_files: tuple[str, ...] | None = None

    # -- the three timed calls ---------------------------------------------

    def setup(self, repeat: int = 1):
        """Load the input ``repeat`` times; returns the last result and the
        mean seconds per load."""
        with quiet_heap():
            t0 = perf_counter()
            for _ in range(repeat):
                g, labels = ms.load_edge_list(self.graph_text)
                part = ms.parse_partition(self.part_text, labels) if self.inputs.verify else None
            elapsed = perf_counter() - t0
        return g, labels, part, elapsed / repeat

    def solve(self, g, part):
        with quiet_heap():
            t0 = perf_counter()
            if self.inputs.verify:
                result = ms.bounds_report(g, part, T_MIN)
            else:
                result = ms.detect_communities(g, T_MIN)
            elapsed = perf_counter() - t0
        return result, elapsed

    # -- checks ---------------------------------------------------------------

    def check_solve(self, g, part, result) -> None:
        if self.inputs.verify:
            report = result
            problems = [] if report.all_pass else ["bounds report does not pass"]
            cut = [row for row in report.checks if row.name == "cut_window"]
            if not cut or cut[0].passed is not True:
                problems.append("cut_window is not reported PASS")
        else:
            part, trace = result
            problems = decreasing_problems([r.t_exact for r in trace])
        if self.assign is None:
            problems += partition_problems(g, part)
            self.assign = part.assign
            self.q_1 = newman_q(g, part)
        elif part.assign != self.assign:
            problems.append("partition differs from the first run of this seed")
        self.tally.record("solve", problems)

    def check_cli(self, code: int, stdout: str, labels: list[str]) -> None:
        problems = [] if code == 0 else [f"exit code {code}"]
        q_key = "q_t" if self.inputs.verify else "q_1"
        expected = f"{float(self.q_1):.12g}"
        if printed(stdout, q_key) != expected:
            problems.append(f"printed {q_key} {printed(stdout, q_key)} is not {expected}")
        if self.inputs.verify:
            lines = stdout.splitlines()
            if "RESULT PASS" not in lines:
                problems.append("verify did not print RESULT PASS")
            if not any(line.startswith("cut_window PASS") for line in lines):
                problems.append("cut_window is not reported PASS")
            files: tuple[str, ...] = ()
        else:
            files = self.detect_files()
            problems += self.detect_file_problems(files, labels)
        if self.cli_stdout is None:
            self.cli_stdout, self.cli_files = stdout, files
        elif (stdout, files) != (self.cli_stdout, self.cli_files):
            problems.append("output differs from the first run of this seed")
        self.tally.record("cli", problems)

    def detect_files(self) -> tuple[str, ...]:
        out = self.inputs.graph.parent
        try:
            return ((out / "out.parts").read_text(), (out / "out.trace.csv").read_text())
        except OSError:
            return ("", "")

    def detect_file_problems(self, files: tuple[str, ...], labels: list[str]) -> list[str]:
        parts_text, trace_text = files
        try:
            part = ms.parse_partition(parts_text, labels)
        except ValueError as exc:
            return [f"partition file: {exc}"]
        problems = []
        if part.assign != self.assign:
            problems.append("partition file differs from detect_communities")
        try:
            ts = [float(row.split(",")[1]) for row in trace_text.splitlines()[1:]]
        except (IndexError, ValueError):
            return problems + ["trace file is not the expected CSV"]
        return problems + decreasing_problems(ts)

    # -- peak memory ----------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh process that runs the CLI command once.

        The process reads its own high-water mark (VmHWM) when the command
        ends: the kernel's rusage figure would also count the memory of this
        process, which the child shares until it execs.
        """
        out = self.inputs.graph.parent / "rss.stdout"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(out, "w") as fh:
            proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *self.inputs.cli_args()],
                                  stdout=fh, stderr=subprocess.PIPE, env=env, text=True)
        fields = proc.stderr.split()
        stdout = out.read_text()
        files = () if self.inputs.verify else self.detect_files()
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        if (stdout, files) != (self.cli_stdout, self.cli_files):
            problems.append("output differs from the in-process CLI run")
        reported = fields[:1] == ["VmHWM:"]
        if not reported:
            problems.append(f"no peak RSS reported: {proc.stderr!r}")
        self.tally.record("peak-rss run", problems)
        return int(fields[1]) / 1024 if reported else 0.0


# Runs the CLI with the given arguments, then prints its own VmHWM line.
_PEAK_CHILD = """\
import sys
from modsweep import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    sys.stderr.write("".join(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""

# The first SETUP_SHARE of a run takes set-up samples, each of which loads
# the input often enough to take at least SETUP_SAMPLE_S.
SETUP_SHARE = 0.12
SETUP_SAMPLE_S = 0.25


def measure(inputs: Inputs, seconds: float, tally: Tally) -> dict[str, float]:
    """End-to-end metrics, untraced.

    Set-up samples come first; then rounds of one solve and one CLI run,
    on the last loaded graph, until ``seconds`` are used.  The peak-RSS
    process runs once, after the first round.  Each time is rescaled by the
    SpeedClock, and the median of each metric's samples is reported.
    """
    run = Run(inputs, tally)
    start = perf_counter()
    deadline = start + seconds
    clock = SpeedClock()
    wall: dict[str, list[float]] = {"setup_s": [], "solve_s": [], "cli_s": []}
    samples: dict[str, list[float]] = {name: [] for name in wall}

    def keep(name: str, seconds_wall: float) -> None:
        wall[name].append(seconds_wall)
        samples[name].append(clock.rescale(seconds_wall))

    repeat = 1
    while not wall["setup_s"] or perf_counter() < start + SETUP_SHARE * seconds:
        g, labels, part, setup_s = run.setup(repeat)
        keep("setup_s", setup_s)
        repeat = max(repeat, math.ceil(SETUP_SAMPLE_S / setup_s))
    rss = None
    while True:
        round_start = perf_counter()
        result, solve_s = run.solve(g, part)
        keep("solve_s", solve_s)
        run.check_solve(g, part, result)
        del result
        code, stdout, cli_s = run_cli(inputs.cli_args())
        keep("cli_s", cli_s)
        run.check_cli(code, stdout, labels)
        spent = perf_counter() - round_start
        if rss is None:
            rss = run.peak_rss_mb()
        if perf_counter() + spent > deadline:
            break
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = rss
    metrics["q_1"] = float(run.q_1)
    print(f"bench: {inputs.workload}: {len(wall['setup_s'])} set-ups, {len(wall['cli_s'])} rounds;"
          " median wall seconds "
          + ", ".join(f"{name} {statistics.median(v):.4f}" for name, v in wall.items()),
          file=sys.stderr)
    return metrics
