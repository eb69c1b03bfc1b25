"""Shared fixtures: tiny hand-checked graphs and seeded random instances."""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from importlib.resources import files

import pytest

from modsweep import (CommunityAggregates, DisconnectedError, Graph, Partition, SweepEngine,
                      load_edge_list)

TRIANGLE_EDGES = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
# two triangles joined by a single bridge edge, 7 edges, z = 14
BARBELL_EDGES = TRIANGLE_EDGES + [(3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)]
TWO_TRIANGLES_EDGES = TRIANGLE_EDGES + [(3, 4, 1), (4, 5, 1), (3, 5, 1)]


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edge_list(TRIANGLE_EDGES)


@pytest.fixture
def barbell() -> Graph:
    return Graph.from_edge_list(BARBELL_EDGES)


@pytest.fixture
def two_triangles() -> Graph:
    return Graph.from_edge_list(TWO_TRIANGLES_EDGES)


@pytest.fixture(scope="session")
def karate() -> tuple[Graph, list[str]]:
    text = files("modsweep").joinpath("data/karate.edges").read_text()
    return load_edge_list(text)


def random_graph(rng: random.Random, n: int, p: float = 0.35, max_w: int = 3,
                 connected: bool = False, loops: bool = True) -> Graph:
    """Random weighted graph with no isolated vertices."""
    acc: dict[tuple[int, int], int] = {}

    def add(u, v, w):
        key = (min(u, v), max(u, v))
        acc[key] = acc.get(key, 0) + w

    if connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            add(order[i], order[rng.randrange(i)], rng.randint(1, max_w))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                add(u, v, rng.randint(1, max_w))
    if loops:
        for v in range(n):
            if rng.random() < 0.1:
                add(v, v, rng.randint(1, max_w))
    for v in range(n):
        if not any(v in key for key in acc):
            if n == 1:
                add(v, v, 1)
            else:
                other = rng.choice([u for u in range(n) if u != v])
                add(v, other, rng.randint(1, max_w))
    return Graph.from_edge_list([(u, v, w) for (u, v), w in acc.items()])


def blocks(part: Partition) -> list[list[int]]:
    """The vertices of each block of ``part`` in ascending order, by block id."""
    out: list[list[int]] = [[] for _ in range(len(part))]
    for v, c in enumerate(part.assign):
        out[c].append(v)
    return out


def random_partition(rng: random.Random, n: int, k: int | None = None) -> Partition:
    if k is None:
        k = rng.randint(1, n)
    return Partition([rng.randrange(k) for _ in range(n)])


def brute_force_min_cut(graph: Graph) -> tuple[int, set[int]]:
    """Minimum one-orientation crossing weight over all 2**(n-1) - 1 cuts."""
    n = graph.n
    adj = graph.adj  # rebuilt on each access, so read once
    best = None
    best_side: set[int] = set()
    # every cut appears once as the side avoiding vertex n-1
    for mask in range(1, 1 << (n - 1)):
        side = {v for v in range(n - 1) if mask >> v & 1}
        cut = 0
        for u in side:
            for v, w in adj[u].items():
                if v not in side and v != u:
                    cut += w
        if best is None or cut < best:
            best, best_side = cut, side
    assert best is not None
    return best, best_side


def stoer_wagner_min_cut(graph: Graph) -> int:
    """Reference global minimum cut (Stoer-Wagner, one contraction per phase).

    Each phase is a maximum-adjacency ordering from vertex 0 on a loop-free
    copy of the adjacency; the last vertex's key is a cut, and the last
    vertex is then contracted into the one added before it.  Raises
    ``DisconnectedError("graph is not connected")`` when the first ordering
    runs out of vertices to add, as ``min_cut`` does.
    """
    if graph.n < 2:
        raise ValueError("minimum cut needs at least two vertices")
    adj: list[dict[int, int]] = [
        {v: w for v, w in nbrs.items() if v != u} for u, nbrs in enumerate(graph.adj)
    ]
    alive = graph.n
    best = graph.z
    while alive > 1:
        # vertex 0 leads every phase, so it is never the one contracted away
        added = [False] * graph.n
        key = [0] * graph.n
        heap: list[tuple[int, int]] = [(0, 0)]
        prev = last = 0
        count = 0
        while count < alive:
            while True:
                if not heap:
                    raise DisconnectedError("graph is not connected")
                negk, v = heapq.heappop(heap)
                if not added[v] and key[v] == -negk:
                    break
            added[v] = True
            count += 1
            prev, last = last, v
            for u, w in adj[v].items():
                if not added[u]:
                    key[u] += w
                    heapq.heappush(heap, (-key[u], u))
        best = min(best, key[last])
        adj[prev].pop(last, None)
        adj[last].pop(prev, None)
        for u, w in adj[last].items():
            adj[u].pop(last)
            nw = adj[prev].get(u, 0) + w
            adj[prev][u] = nw
            adj[u][prev] = nw
        adj[last] = {}
        alive -= 1
    return best


def relabelled(edges, label: list[int]) -> Graph:
    """Graph on the edge list with vertex v renamed ``label[v]``."""
    return Graph.from_edge_list([(label[u], label[v], w) for u, v, w in edges])


def windmill_edges(blades: int) -> list[tuple[int, int, int]]:
    """Hub 0 joined to both ends of ``blades`` disjoint edges (2*blades + 1 vertices)."""
    edges = []
    for i in range(blades):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a, 1), (0, b, 1), (a, b, 1)]
    return edges


def windmill_labels(blades: int, order: str, seed: int = 0) -> list[int]:
    """Labels for ``windmill_edges``: the hub ``first`` or ``last`` with the
    blade vertices shuffled by ``seed``, or every vertex ``shuffled``."""
    n = 2 * blades + 1
    rng = random.Random(seed)
    if order == "shuffled":
        label = list(range(n))
        rng.shuffle(label)
        return label
    blade = list(range(1, n)) if order == "first" else list(range(n - 1))
    rng.shuffle(blade)
    hub = 0 if order == "first" else n - 1
    return [hub] + blade


def zero_pairs(graph: Graph, part: Partition, t) -> list[tuple[int, int]]:
    """Adjacent block pairs with exactly zero excess mass at ``t``, sorted,
    each naming its blocks by their smallest members, as
    ``SweepEngine.merge_step`` does."""
    agg = CommunityAggregates.from_partition(graph, part)
    first = [vs[0] for vs in blocks(part)]
    return sorted((first[a], first[b])
                  for a, b, _ in agg.pairs() if agg.excess(a, b, t) == 0)


def full_sweep(graph: Graph, t_min: Fraction | None = None
               ) -> tuple[list[tuple[int, int]], list[tuple[Fraction, int]]]:
    """Every ``merge_step`` pair and every traced ``(t_exact, k)`` of the
    sweep that ``detect_communities`` runs down to ``t_min``, by default down
    to resolution 0."""
    eng = SweepEngine(graph)
    eng.record_trace()
    pairs = []
    while eng.resolution() > 0 and (t_min is None or eng.resolution() >= t_min):
        t = eng.resolution()
        while eng.resolution() == t:
            pairs.append(eng.merge_step())
        eng.record_trace()
    return pairs, [(r.t_exact, r.k) for r in eng.trace]
