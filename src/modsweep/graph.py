"""Symmetric integer-weighted graphs, their quotients, components and cuts.

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
from .partition import Partition, _fields


class Graph:
    """Immutable weighted graph over dense vertex indices 0..n-1.

    ``adj[u]`` maps each neighbour ``v`` (possibly ``u`` itself) to the
    integer weight ``m(u, v)``; treat instances as read-only.  ``Graph(adj)``
    checks that each row is a dict, then every entry's key type (an int),
    range, weight and symmetry; ``from_edge_list`` checks each triple and
    writes both directions.  Both reject an empty vertex set and any
    isolated vertex.  ``quotient`` sums a checked graph and skips the check.
    """

    __slots__ = ("n", "adj", "deg", "z")

    def __init__(self, adj: list[dict[int, int]]):
        for u, nbrs in enumerate(adj):
            if not isinstance(nbrs, dict):
                raise ValueError(f"row of vertex {u} is not a dict")
        for u, nbrs in enumerate(adj):
            if not nbrs:
                raise IsolatedVertexError(f"vertex {u} has zero total degree")
            for v, w in nbrs.items():
                if type(v) is not int:
                    raise ValueError(f"neighbour {v!r} of vertex {u} is not an int")
                if not (0 <= v < len(adj)):
                    raise ValueError(f"neighbour {v} of vertex {u} out of range")
                if type(w) is not int or w <= 0:
                    raise ValueError(f"weight m({u},{v})={w!r} is not a positive integer")
                if adj[v].get(u) != w:
                    raise ValueError(f"asymmetric weights between {u} and {v}")
        self._build(adj)

    def _build(self, adj: list[dict[int, int]]) -> "Graph":
        """Set ``n``, ``adj``, ``deg`` and ``z``; reject an empty vertex set."""
        if not adj:
            raise ValueError("a graph needs at least one vertex")
        self.n = len(adj)
        self.adj = adj
        self.deg = [sum(nbrs.values()) for nbrs in adj]
        self.z = sum(self.deg)
        return self

    @classmethod
    def from_edge_list(cls, edges: Iterable[tuple[int, int, int]]) -> "Graph":
        """Build a graph from (u, v, w) triples, read in one pass.

        The vertices are ``0..n-1``, where ``n`` is one more than the largest
        vertex named, so each of them must appear in a triple.  Each vertex
        must be a non-negative int and each weight a positive int.
        Duplicate triples accumulate.  A triple with ``u == v`` adds ``2*w``
        to the stored diagonal, mirroring the edge-list loop convention.
        """
        adj: list[dict[int, int]] = []
        for u, v, w in edges:
            if type(w) is not int or w <= 0:
                raise ValueError(f"edge {(u, v, w)} has a weight that is not a positive integer")
            if type(u) is not int or type(v) is not int or u < 0 or v < 0:
                raise ValueError(f"edge {(u, v, w)} has a vertex that is not a non-negative integer")
            try:
                row, col = adj[u], adj[v]
            except IndexError:  # grow by an eighth or more, so this runs O(log n) times
                adj += [{} for _ in range(max(u, v) + 1 + len(adj) // 8 - len(adj))]
                row, col = adj[u], adj[v]
            if u == v:
                row[u] = row.get(u, 0) + 2 * w
            else:
                row[v] = row.get(v, 0) + w
                col[u] = col.get(u, 0) + w
        while adj and not adj[-1]:  # the largest vertex named has a nonempty row
            adj.pop()
        graph = cls.__new__(cls)._build(adj)
        if 0 in graph.deg:
            raise IsolatedVertexError(f"vertex {graph.deg.index(0)} has zero total degree")
        return graph

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
    optional positive weight in ASCII digits (default 1).  ``#`` starts a
    comment.  Duplicate lines accumulate; a line ``v v w`` adds a self-loop
    storing ``2*w`` on the diagonal.  Labels are assigned dense indices in
    order of first appearance; the returned list maps index back to label.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int, int]] = []
    for lineno, raw, parts in _fields(source):
        if len(parts) not in (2, 3):
            raise FormatError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        w = 1
        if len(parts) == 3:
            try:
                w = int(parts[2])
                if w > 0 and not (parts[2].isascii() and parts[2].isdigit()):
                    raise ValueError(parts[2])  # '+5', '1_0' or non-ASCII digits
            except ValueError:
                raise FormatError(f"line {lineno}: weight {parts[2]!r} is not an integer") from None
            if w <= 0:
                raise FormatError(f"line {lineno}: weight must be positive, got {w}")
        u = index.setdefault(parts[0], len(index))
        v = index.setdefault(parts[1], len(index))
        edges.append((u, v, w))
    if not edges:
        raise FormatError("no edges found in input")
    return Graph.from_edge_list(edges), list(index)


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

    The one place block rows are summed: block ``C``'s diagonal holds its
    internal ordered-pair weight and its entry for an adjacent block the
    one-orientation crossing weight, so ``z`` and the block degrees are
    preserved.  A checked graph gives checked rows, so none is re-checked.
    """
    assign = partition.assign
    if len(assign) != graph.n:
        raise ValueError("partition does not cover this graph's vertex set")
    rows: list[dict[int, int]] = [{} for _ in range(partition.k)]
    for u, nbrs in enumerate(graph.adj):
        row = rows[assign[u]]
        for v, w in nbrs.items():
            c = assign[v]
            row[c] = row.get(c, 0) + w
    return Graph.__new__(Graph)._build(rows)


def singleton_partition(graph: Graph) -> Partition:
    """One block per vertex."""
    return Partition(range(graph.n))


def refine_connected(graph: Graph, partition: Partition) -> Partition:
    """Split every block into the connected components of its induced subgraph.

    The result refines the input, is internally connected, and never lowers
    the modularity score at any resolution.
    """
    assign = partition.assign
    if len(assign) != graph.n:
        raise ValueError("partition does not cover this graph's vertex set")
    label = [-1] * graph.n
    nxt = 0
    for v0 in range(graph.n):
        if label[v0] >= 0:
            continue
        c = assign[v0]
        label[v0] = nxt
        stack = [v0]
        while stack:
            u = stack.pop()
            for v in graph.adj[u]:
                if label[v] < 0 and assign[v] == c:
                    label[v] = nxt
                    stack.append(v)
        nxt += 1
    return Partition(label)


def connected_components(graph: Graph) -> Partition:
    """Partition the vertex set into connected components (loops ignored)."""
    return refine_connected(graph, Partition([0] * graph.n))


def _root(parent: list[int], v: int) -> int:
    """Root of ``v`` in a union-find forest, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def min_cut(graph: Graph) -> int:
    """Global minimum cut weight of a connected graph (CAPFOREST contraction).

    Returns the minimum over nonempty proper subsets S of the one-orientation
    crossing weight ``sum(m(u, v) for u in S, v not in S)``.  Under the
    ordered-pair total this crossing mass is counted twice, so
    ``z * edge_fraction(S x complement) == 2 * min_cut``.  Self-loops are
    ignored.

    Each pass is one maximum-adjacency scan (Nagamochi & Ibaraki 1992;
    Henzinger, Noe, Schulz & Strash 2018).  ``best``, the least cut seen,
    first drops to the least loop-free vertex degree.  An edge whose scan
    value ``key[u]`` reaches ``best`` joins vertices no cut below ``best``
    separates, so they are unioned.  The last vertex's key ends at its
    loop-free degree, at least ``best``, so every pass unions a pair.  A
    popped vertex with exactly two loop-free neighbours is unioned with the
    heavier one (Padberg & Rinaldi 1990), the first on a tie: moving it to
    that side never grows a cut, and a strictly lightest edge of a chain is
    no vertex's heavier one, so a minimum cut below ``best`` survives.  So
    a cycle takes one pass.  ``quotient`` contracts the unions.
    DisconnectedError comes from the first scan.
    """
    if graph.n < 2:
        raise ValueError("minimum cut needs at least two vertices")
    best = graph.z
    while graph.n > 1:
        best = min(best, min(d - graph.adj[v].get(v, 0) for v, d in enumerate(graph.deg)))
        parent = list(range(graph.n))
        added = [False] * graph.n
        key = [0] * graph.n
        heap: list[tuple[int, int]] = [(0, 0)]
        for _ in range(graph.n):
            while heap and added[heap[0][1]]:
                heapq.heappop(heap)
            if not heap:
                raise DisconnectedError("graph is not connected")
            v = heapq.heappop(heap)[1]
            added[v] = True
            nbrs = graph.adj[v]
            if len(nbrs) - (v in nbrs) == 2:
                u = max((x for x in nbrs if x != v), key=nbrs.__getitem__)
                parent[_root(parent, u)] = _root(parent, v)
            for u, w in nbrs.items():
                if not added[u]:
                    key[u] += w
                    heapq.heappush(heap, (-key[u], u))
                    if key[u] >= best:
                        parent[_root(parent, u)] = _root(parent, v)
        graph = quotient(graph, Partition([_root(parent, v) for v in range(graph.n)]))
    return best
