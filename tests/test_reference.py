"""Differential fuzz: the engine against a slow reference sweep.

The reference rebuilds the block aggregates from scratch after every merge
and merges the lexicographically smallest pair at the exact maximum
observed/expected ratio.  Dense block ids follow first appearance over the
vertex index, so they order blocks by smallest member, as the engine's
community ids do, and the lexicographic tie rules coincide.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modsweep import (
    CommunityAggregates,
    Graph,
    Partition,
    SweepEngine,
    compose,
    detect_communities,
    load_edge_list,
    singleton_partition,
)

from conftest import full_sweep, relabelled, zero_pairs


def reference_sweep(graph: Graph, t_min: Fraction
                    ) -> tuple[Partition, list[tuple[Fraction, int]], list[tuple[int, int]]]:
    """Partition, (t_exact, k) trace and merge pairs, recomputed from scratch
    per merge.  Each pair names its blocks by their smallest members, as
    ``SweepEngine.merge_step`` does."""
    part = singleton_partition(graph)
    agg = CommunityAggregates.from_partition(graph, part)
    trace = [(agg.resolution(), len(part))]
    pairs = []
    while agg.resolution() >= t_min:
        t = agg.resolution()
        while agg.resolution() == t:
            pair = zero_pairs(graph, part, t)[0]
            pairs.append(pair)
            a, b = (part.assign[v] for v in pair)
            part = compose(part, Partition([a if c == b else c for c in range(len(part))]))
            agg = CommunityAggregates.from_partition(graph, part)
        trace.append((agg.resolution(), len(part)))
    return part, trace, pairs


T_MINS = (Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1, 10**6))


@st.composite
def graphs(draw) -> Graph:
    """Up to 12 vertices: loops, duplicate edges, disconnected parts, and
    weights up to 2**70.  Weights a few apart just below 2**70 give distinct
    exact ratios that round to the same float."""
    ends = st.integers(0, 11)
    weight = st.one_of(st.integers(1, 4), st.integers(1, 2**70), st.integers(2**70 - 3, 2**70))
    edges = draw(st.lists(st.tuples(ends, ends, weight), min_size=1, max_size=30))
    dense = {v: i for i, v in enumerate(sorted({x for u, v, _ in edges for x in (u, v)}))}
    return Graph.from_edge_list([(dense[u], dense[v], w) for u, v, w in edges])


@st.composite
def hub_graphs(draw) -> Graph:
    """A hub joined to both ends of 3-25 blades, weights 1-4 or near 2**70,
    a few blade-blade edges, and a seeded relabelling, so that orientation
    flips and moves of the smaller row run often."""
    blades = draw(st.integers(3, 25))
    weight = st.one_of(st.integers(1, 4), st.integers(2**70 - 3, 2**70))
    edges = []
    for i in range(blades):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a, draw(weight)), (0, b, draw(weight)), (a, b, draw(weight))]
    blade = st.integers(1, 2 * blades)
    edges += draw(st.lists(st.tuples(blade, blade, weight), max_size=4))
    label = list(range(2 * blades + 1))
    random.Random(draw(st.integers(0, 2**32))).shuffle(label)
    return Graph.from_edge_list([(label[u], label[v], w) for u, v, w in edges])


def check_against_reference(g: Graph, t_mins) -> None:
    for t_min in t_mins:
        part, trace = detect_communities(g, t_min)
        ref_part, ref_trace, ref_pairs = reference_sweep(g, t_min)
        assert part == ref_part
        assert [(r.t_exact, r.k) for r in trace] == ref_trace
        assert full_sweep(g, t_min)[0] == ref_pairs


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs())
def test_engine_matches_reference_sweep(g):
    check_against_reference(g, T_MINS)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(hub_graphs())
def test_engine_matches_reference_sweep_on_hubs(g):
    check_against_reference(g, (Fraction(1), Fraction(1, 10**6)))


def test_engine_matches_reference_on_seeded_sparse_graphs():
    """3,000 seeded graphs of 6-9 vertices: a random spanning tree, 1-3
    chords, weights 1-4, a loop on each vertex with probability 0.2 and
    shuffled labels.  Sparse rows often file a merged pair in front of a
    neighbour's row, whose republication the strategies above do not test."""
    t_min = Fraction(1, 10**9)
    rng = random.Random(1)
    for _ in range(3000):
        n = rng.randint(6, 9)
        edges = [(v, rng.randrange(v), rng.randint(1, 4)) for v in range(1, n)]
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(1, 4)))
        edges += [(v, v, rng.randint(1, 4)) for v in range(n) if rng.random() < 0.2]
        label = list(range(n))
        rng.shuffle(label)
        g = relabelled(edges, label)
        _, ref_trace, ref_pairs = reference_sweep(g, t_min)
        assert full_sweep(g, t_min) == (ref_pairs, ref_trace)


def test_row_keys_closer_than_float_resolution_merge_larger_first():
    """Two pairs in the hub's row whose row ratios w/d are closer together
    than a float can resolve: the integer row key still merges the larger
    one, with the larger partner id, first.  The row twin of the engine's
    global-level test."""
    w = 2**60
    g = Graph.from_edge_list([(0, 1, w), (0, 2, w), (1, 1, 1)])
    assert g.deg[0] > g.deg[1] > g.deg[2]  # vertex 0 owns both pairs
    assert w / g.deg[1] == w / g.deg[2] == 1.0
    assert Fraction(w, g.deg[1]) < Fraction(w, g.deg[2])
    eng = SweepEngine(g)
    assert zero_pairs(g, eng.partition(), eng.resolution()) == [(0, 2)]
    assert eng.merge_step() == (0, 2)
    assert eng.merge_step() == (0, 1)
    assert eng.resolution() == 0
    check_against_reference(g, (Fraction(1, 10**6),))


def test_merged_pair_filed_in_front_of_a_neighbour_row():
    """Merging 3 into 2 adds the pair (0, 3) into (0, 2) and files it under
    0, which outgrew 2 after their pair was filed in 2's row.  The new entry
    fronts 0's row at the ratio of the stale (0, 3) entry it passes, so 0's
    row must be published again under the pair (0, 2)."""
    g = Graph.from_edge_list([(0, 2, 4), (0, 5, 4), (1, 5, 2), (2, 3, 2), (2, 4, 3), (3, 5, 1)])
    eng = SweepEngine(g)
    pairs = [eng.merge_step() for _ in range(5)]
    assert pairs == [(1, 5), (2, 4), (0, 1), (2, 3), (0, 2)]
    assert eng.resolution() == 0
    check_against_reference(g, (Fraction(1, 10**6),))


def test_weights_beyond_float_range():
    """Heap keys and trace records are exact, so the engine and
    ``detect_communities`` sweep weights beyond float range exactly."""
    g, _ = load_edge_list(f"a b {10**400}\nc d 1\n")
    eng = SweepEngine(g)
    assert eng.resolution() == 2 * 10**400 + 2
    steps = [(eng.resolution(), len(eng.partition()))]
    pairs = []
    while eng.resolution() > 0:
        pairs.append(eng.merge_step())
        steps.append((eng.resolution(), len(eng.partition())))
    assert pairs == [(2, 3), (0, 1)]
    ref_part, ref_trace, ref_pairs = reference_sweep(g, Fraction(1, 10**6))
    assert eng.partition() == ref_part
    assert steps == ref_trace
    assert pairs == ref_pairs
    part, trace = detect_communities(g, 1)
    ref_part, ref_trace, _ = reference_sweep(g, Fraction(1))
    assert part == ref_part
    assert [(r.t_exact, r.k) for r in trace] == ref_trace
