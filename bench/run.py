"""Run the modsweep benchmark.

    python3 bench/run.py --workload hub --seed 1 --seconds 20 --trace 0

generates the workload's inputs from the seed, runs the program on them,
checks every output, and prints as the last line of stdout one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  Without ``--workload`` it runs every workload both ways and
prints one table.  Metric names, units and workloads are listed in
BENCHMARK.json and explained in bench/METRICS.md.  Inputs, program outputs
and span files go to ``.bench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, help="one workload; all when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's own ``src/`` first on the path; stop if it is absent."""
    src = ROOT / "src"
    if not (src / "modsweep" / "__init__.py").is_file():
        sys.exit(f"bench: the program source {src / 'modsweep'} is missing")
    sys.path.insert(0, str(src))


def run_workload(spec, workload: str, seed: int, seconds: float, trace: int) -> dict:
    import harness
    import tracing

    WORK.mkdir(exist_ok=True)
    tally = harness.Tally()
    harness.preflight(WORK / "karate.parts", tally)
    inputs = harness.make_inputs(WORK, workload, seed)
    if trace:
        half = harness.make_inputs(WORK, workload, seed, div=2)
        metrics = tracing.measure_traced(inputs, half, tally,
                                         WORK / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = harness.measure(inputs, seconds, tally)
    table = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in table} ^ set(metrics)
    if missing:
        sys.exit(f"bench: metrics do not match BENCHMARK.json: {sorted(missing)}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table},
    }


def run_all(spec, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w['name']}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            status |= not result["correct"]
            print(f"{w['name']} (trace {trace}): correct {result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"  {name:24s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    import_program()
    if args.workload is None:
        return run_all(spec, args.seed, args.seconds)
    result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
