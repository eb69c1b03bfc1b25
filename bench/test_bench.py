"""Tests of the benchmark's own code: generators, checks and span accounting."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import modsweep as ms  # noqa: E402

import gen  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402


def _text(workload: str, seed: int, div: int = 2) -> str:
    rng = random.Random(seed)
    return gen.edge_list_text(gen.FAMILIES[workload](rng, div), rng)


def test_generators_repeat_per_seed_and_differ_across_seeds():
    for workload in ("hub", "planted", "verify"):
        assert _text(workload, 1) == _text(workload, 1)
        assert _text(workload, 1) != _text(workload, 2)


def test_tree_relabelling_is_a_seeded_permutation():
    a, b = _text("tree", 1, div=32), _text("tree", 2, div=32)
    assert a != b
    (ga, _), (gb, _) = ms.load_edge_list(a), ms.load_edge_list(b)
    assert ga.n == gb.n == (1 << 10) - 1 and ga.z == 2 * (ga.n - 1)
    assert sorted(ga.deg) == sorted(gb.deg)
    assert len(ms.connected_components(ga)) == 1


def test_windmill_hub_degree():
    g, _ = ms.load_edge_list(_text("hub", 3))
    degrees = sorted(g.deg)
    assert g.n == 1001
    assert degrees[-1] == 1000 and degrees[-2] == 2


def test_planted_graph_has_no_isolated_vertex():
    rng = random.Random(5)
    edges = gen.planted(300, rng, deg=(2, 40), size=(10, 80))
    used = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    assert used == set(range(300))
    assert all(1 <= w <= 4 for _, _, w in edges)


def test_verify_graph_is_connected():
    g, _ = ms.load_edge_list(_text("verify", 4))
    assert len(ms.connected_components(g)) == 1


def test_merge_unstable_partition_counts_as_failure():
    # two triangles joined by a bridge
    g = ms.Graph.from_edge_list([(0, 1, 1), (1, 2, 1), (0, 2, 1),
                                 (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)])
    good = ms.Partition([0, 0, 0, 1, 1, 1])
    # each triangle split in two: both halves of a triangle want to merge
    bad = ms.Partition([0, 0, 1, 2, 3, 3])
    tally = harness.Tally()
    tally.record("good", harness.partition_problems(g, good))
    tally.record("bad", harness.partition_problems(g, bad))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_corrupted_partition_file_fails_the_cli_check(tmp_path):
    inputs = harness.make_inputs(tmp_path, "tree", seed=1, div=2048)
    tally = harness.Tally()
    run = harness.Run(inputs, tally)
    g, labels, part, _ = run.setup()
    result, _ = run.solve(g, part)
    run.check_solve(g, part, result)
    code, stdout, _ = harness.run_cli(inputs.cli_args())
    run.check_cli(code, stdout, labels)
    assert (tally.attempted, tally.failed) == (2, 0)
    parts = inputs.graph.parent / "out.parts"
    lines = parts.read_text().splitlines()
    lines[0] = lines[0].split()[0] + " corrupted"
    parts.write_text("\n".join(lines) + "\n")
    run.check_cli(code, stdout, labels)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_newman_q_matches_the_program_on_karate():
    g, _ = ms.load_edge_list((harness.SRC / "modsweep" / "data" / "karate.edges").read_text())
    part, _ = ms.detect_communities(g, 1)
    assert harness.newman_q(g, part) == ms.modularity(g, part, Fraction(1))
    assert f"{float(harness.newman_q(g, part)):.3f}" == "0.405"


def test_decreasing_trace_check():
    assert harness.decreasing_problems([3.0, 2.0, 1.0]) == []
    assert harness.decreasing_problems([3.0, 3.0, 1.0])


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.run = "r"
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10_000))
    own = tr.self_times("r")
    outer = tr.durations("r", "outer")[0]
    assert abs(own["outer"] + own["inner"] - outer) < 1e-9
    assert 0 <= own["outer"] < outer


def test_traced_run_matches_detect_communities(tmp_path):
    inputs = harness.make_inputs(tmp_path, "planted", seed=2, div=16)
    g, _ = ms.load_edge_list(inputs.graph.read_text())
    part, trace = ms.detect_communities(g, harness.T_MIN)
    tr = tracing.Tracer()
    traced_part, traced_trace, _, certified = tracing.traced_run(tr, inputs, "r")
    assert certified and traced_part == part
    assert [r.t_exact for r in traced_trace] == [r.t_exact for r in trace]
    assert tr.durations("r", "graph.build"), "Graph.from_edge_list is wrapped during the run"
    assert vars(ms.Graph)["from_edge_list"].__class__ is classmethod, "and restored after it"


def test_traced_verify_rederives_its_input_partition(tmp_path):
    inputs = harness.make_inputs(tmp_path, "verify", seed=3, div=2)
    tr = tracing.Tracer()
    text, trace, rederived = tracing.traced_run(tr, inputs, "r")
    assert rederived and text.endswith("RESULT PASS\n")
    assert len(trace) > 1
    assert tr.durations("r", "graph.min_cut") and tr.durations("r", "engine.sweep")
