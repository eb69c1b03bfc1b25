"""Differential fuzz: the engine against a slow reference sweep.

The reference rebuilds the block aggregates from scratch after every merge
and merges the lexicographically smallest pair at the exact maximum
observed/expected ratio.  Dense block ids follow first appearance over the
vertex index, so they order blocks by smallest member, as the engine's
community ids do, and the lexicographic tie rules coincide.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from modsweep import (
    CommunityAggregates,
    Graph,
    Partition,
    compose,
    detect_communities,
    singleton_partition,
)


def reference_sweep(graph: Graph, t_min: Fraction) -> tuple[Partition, list[tuple[Fraction, int]]]:
    """Partition and (t_exact, k) trace, recomputed from scratch per merge."""
    part = singleton_partition(graph)
    agg = CommunityAggregates.from_partition(graph, part)
    trace = [(agg.resolution(), len(part))]
    while agg.resolution() >= t_min:
        t = agg.resolution()
        while agg.resolution() == t:
            a, b = min((a, b) for a, b, _ in agg.pairs() if agg.excess(a, b, t) == 0)
            part = compose(part, Partition([a if c == b else c for c in range(len(part))]))
            agg = CommunityAggregates.from_partition(graph, part)
        trace.append((agg.resolution(), len(part)))
    return part, trace


T_MINS = (Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1, 10**6))


@st.composite
def graphs(draw) -> Graph:
    """Up to 12 vertices: loops, duplicate edges, disconnected parts, and
    weights up to 2**70.  Weights a few apart just below 2**70 give distinct
    exact ratios that share a float heap key."""
    ends = st.integers(0, 11)
    weight = st.one_of(st.integers(1, 4), st.integers(1, 2**70), st.integers(2**70 - 3, 2**70))
    edges = draw(st.lists(st.tuples(ends, ends, weight), min_size=1, max_size=30))
    dense = {v: i for i, v in enumerate(sorted({x for u, v, _ in edges for x in (u, v)}))}
    return Graph.from_edge_list([(dense[u], dense[v], w) for u, v, w in edges])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs())
def test_engine_matches_reference_sweep(g):
    for t_min in T_MINS:
        part, trace = detect_communities(g, t_min)
        ref_part, ref_trace = reference_sweep(g, t_min)
        assert part == ref_part
        assert [(r.t_exact, r.k) for r in trace] == ref_trace
