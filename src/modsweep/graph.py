"""Symmetric integer-weighted graphs.

Weights are kept as a symmetric map ``m(u, v)`` over ordered vertex pairs.
The total weight ``z`` sums over ordered pairs, so each undirected edge is
counted twice while a stored diagonal entry counts once.  A self-loop line
``v v w`` in the edge-list format therefore stores ``m(v, v) += 2*w``, which
makes the weighted degree ``deg(v)`` equal the usual adjacency-matrix row
sum.  All weights are positive integers and every vertex must have positive
degree.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from .errors import DisconnectedError, FormatError, IsolatedVertexError
from .measures import CommunityAggregates
from .partition import Partition, refine_connected


class Graph:
    """Immutable weighted graph over dense vertex indices 0..n-1.

    ``adj[u]`` maps each neighbour ``v`` (possibly ``u`` itself) to the
    integer weight ``m(u, v)``.  Construction computes weighted degrees and
    the ordered-pair total ``z``; treat instances as read-only afterwards.
    """

    __slots__ = ("n", "adj", "deg", "z")

    def __init__(self, adj: list[dict[int, int]], validate: bool = True):
        if not adj:
            raise ValueError("a graph needs at least one vertex")
        self.n = len(adj)
        self.adj = adj
        self.deg = [sum(nbrs.values()) for nbrs in adj]
        self.z = sum(self.deg)
        if validate:
            self._validate()

    def _validate(self) -> None:
        for u, nbrs in enumerate(self.adj):
            if self.deg[u] <= 0:
                raise IsolatedVertexError(f"vertex {u} has zero total degree")
            for v, w in nbrs.items():
                if not (0 <= v < self.n):
                    raise ValueError(f"neighbour {v} of vertex {u} out of range")
                if type(w) is not int or w <= 0:
                    raise ValueError(f"weight m({u},{v})={w!r} is not a positive integer")
                if self.adj[v].get(u) != w:
                    raise ValueError(f"asymmetric weights between {u} and {v}")

    @classmethod
    def from_edge_list(cls, edges: Iterable[tuple[int, int, int]], n: int | None = None) -> "Graph":
        """Build a graph from (u, v, w) triples.

        Duplicate triples accumulate.  A triple with ``u == v`` adds ``2*w``
        to the stored diagonal, mirroring the edge-list loop convention.
        """
        edges = list(edges)
        if n is None:
            n = 1 + max(max(u, v) for u, v, _ in edges)
        adj: list[dict[int, int]] = [dict() for _ in range(n)]
        for u, v, w in edges:
            if u == v:
                adj[u][u] = adj[u].get(u, 0) + 2 * w
            else:
                adj[u][v] = adj[u].get(v, 0) + w
                adj[v][u] = adj[v].get(u, 0) + w
        return cls(adj)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each unordered pair once as (u, v, w) with u <= v.

        The diagonal entry, when present, is yielded once with its stored
        (doubled) value.
        """
        for u, nbrs in enumerate(self.adj):
            for v, w in nbrs.items():
                if v >= u:
                    yield u, v, w


def load_edge_list(source) -> tuple[Graph, list[str]]:
    """Parse a line-oriented edge list into a graph plus its label table.

    Each non-comment line is ``u v [w]`` with arbitrary string labels and an
    optional positive integer weight (default 1).  ``#`` starts a comment.
    Duplicate lines accumulate; a line ``v v w`` adds a self-loop storing
    ``2*w`` on the diagonal.  Labels are assigned dense indices in order of
    first appearance; the returned list maps index back to label.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    index: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise FormatError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        w = 1
        if len(parts) == 3:
            try:
                w = int(parts[2])
            except ValueError:
                raise FormatError(f"line {lineno}: weight {parts[2]!r} is not an integer") from None
            if w <= 0:
                raise FormatError(f"line {lineno}: weight must be positive, got {w}")
        uv = []
        for name in parts[:2]:
            i = index.get(name)
            if i is None:
                i = index[name] = len(labels)
                labels.append(name)
            uv.append(i)
        edges.append((uv[0], uv[1], w))
    if not edges:
        raise FormatError("no edges found in input")
    return Graph.from_edge_list(edges, n=len(labels)), labels


def format_edge_list(graph: Graph, labels: list[str] | None = None) -> str:
    """Render a graph in the edge-list format accepted by load_edge_list."""
    if labels is None:
        labels = [str(v) for v in range(graph.n)]
    out = []
    for u, v, w in graph.edges():
        if u == v:
            if w % 2:
                raise ValueError(f"diagonal weight at {u} is odd, cannot express as loop lines")
            w //= 2
        if w == 1:
            out.append(f"{labels[u]} {labels[v]}")
        else:
            out.append(f"{labels[u]} {labels[v]} {w}")
    return "\n".join(out) + "\n"


def quotient(graph: Graph, partition: Partition) -> Graph:
    """Collapse each block to one vertex, summing weights.

    Preserves the total weight ``z`` and block degree sums; the diagonal of
    block ``C`` accumulates all internal ordered pairs.
    """
    agg = CommunityAggregates.from_partition(graph, partition)
    adj: list[dict[int, int]] = [{c: w} if w else {} for c, w in enumerate(agg.internal)]
    for a, b, w in agg.pairs():
        adj[a][b] = adj[b][a] = w
    return Graph(adj, validate=False)


def connected_components(graph: Graph) -> Partition:
    """Partition the vertex set into connected components (loops ignored)."""
    return refine_connected(graph, Partition([0] * graph.n))


def min_cut(graph: Graph) -> int:
    """Global minimum cut weight of a connected graph (Stoer-Wagner).

    Returns the minimum over nonempty proper subsets S of the one-orientation
    crossing weight ``sum(m(u, v) for u in S, v not in S)``.  Under the
    ordered-pair total this crossing mass is counted twice, so
    ``z * edge_fraction(S x complement) == 2 * min_cut``.  Self-loops are
    ignored.
    """
    if graph.n < 2:
        raise ValueError("minimum cut needs at least two vertices")
    if len(connected_components(graph)) > 1:
        raise DisconnectedError("graph is not connected")
    adj: list[dict[int, int]] = [
        {v: w for v, w in nbrs.items() if v != u} for u, nbrs in enumerate(graph.adj)
    ]
    alive = list(range(graph.n))
    best: int | None = None
    while len(alive) > 1:
        # maximum-adjacency ordering from the smallest alive vertex
        start = alive[0]
        added = [False] * graph.n
        key = [0] * graph.n
        heap: list[tuple[int, int]] = [(0, start)]
        prev = last = start
        lastkey = 0
        count = 0
        while count < len(alive):
            while True:
                negk, v = heapq.heappop(heap)
                if not added[v] and key[v] == -negk:
                    break
            added[v] = True
            count += 1
            prev, last = last, v
            lastkey = -negk
            for u, w in adj[v].items():
                if not added[u]:
                    key[u] += w
                    heapq.heappush(heap, (-key[u], u))
        if best is None or lastkey < best:
            best = lastkey
        # contract last into prev
        adj[prev].pop(last, None)
        adj[last].pop(prev, None)
        for u, w in adj[last].items():
            adj[u].pop(last)
            nw = adj[prev].get(u, 0) + w
            adj[prev][u] = nw
            adj[u][prev] = nw
        adj[last] = {}
        alive.remove(last)
    assert best is not None
    return best
