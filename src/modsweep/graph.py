"""Symmetric integer-weighted graphs, their quotients, components and cuts.

Weights form a symmetric map ``m(u, v)`` over ordered vertex pairs.  The
total weight ``z`` sums over ordered pairs, so each undirected edge is
counted twice while a diagonal entry counts once.  A self-loop line
``v v w`` in the edge-list format therefore adds ``2*w`` to ``m(v, v)``,
which makes the weighted degree ``deg(v)`` equal the usual adjacency-matrix
row sum.  All weights are positive integers and every vertex must have
positive degree.

A graph is held in flat arrays, not one map per vertex: ``loop[u]`` is
``m(u, u)``, and row ``u``'s other entries are the slice ``off[u]:off[u+1]``
of ``nbr`` (neighbour ids, an ``array('q')``) and ``wt`` (weights, a list of
unbounded ints), in order of first appearance.  ``adj`` is a derived view.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import accumulate, chain, islice, repeat
from operator import add, sub
from typing import Iterable, Iterator

from .errors import DisconnectedError, FormatError, IsolatedVertexError
from .partition import Partition, _fields


class Graph:
    """Read-only weighted graph on vertices 0..n-1, in the module's flat arrays
    with degrees ``deg`` and total ``z``.  No rows are accepted from outside:
    ``from_edge_list`` checks each triple, and ``quotient`` sums a checked graph."""

    __slots__ = ("n", "deg", "z", "loop", "off", "nbr", "wt")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Graph with Graph.from_edge_list")

    def _build(self, loop: list, deg: list, off: array, nbr: array, wt: list) -> "Graph":
        self.n, self.z = len(loop), sum(deg)
        self.loop, self.deg, self.off, self.nbr, self.wt = loop, deg, off, nbr, wt
        return self

    @classmethod
    def from_edge_list(cls, edges: Iterable[tuple[int, int, int]]) -> "Graph":
        """Build a graph from (u, v, w) triples, read in one pass.

        The vertices are ``0..n-1``, where ``n`` is one more than the largest
        vertex named, so each of them must appear in a triple.  Each vertex
        must be a non-negative int and each weight a positive int.
        Duplicate triples accumulate.  A triple with ``u == v`` adds ``2*w``
        to the diagonal, mirroring the edge-list loop convention.
        """
        pairs: dict[tuple[int, int], int] = {}  # (low, high): weight, first seen first
        loops: dict[int, int] = {}
        get, top = pairs.get, -1
        for u, v, w in edges:
            if type(w) is not int or w <= 0:
                raise ValueError(f"edge {(u, v, w)} has a weight that is not a positive integer")
            if type(u) is not int or type(v) is not int or u < 0 or v < 0:
                raise ValueError(f"edge {(u, v, w)} has a vertex that is not a non-negative integer")
            if u > v:
                u, v = v, u
            if v > top:
                top = v
            if u == v:
                loops[u] = loops.get(u, 0) + 2 * w
            else:
                key = u, v
                pairs[key] = get(key, 0) + w
        n = top + 1
        if not n:
            raise ValueError("a graph needs at least one vertex")
        if n > 2 * len(pairs) + len(loops):  # a vertex is unnamed: find it before any row exists
            named = {*loops, *chain.from_iterable(pairs)}
            raise IsolatedVertexError(
                f"vertex {next(v for v in range(n) if v not in named)} has zero total degree")
        loop = list(map(loops.get, range(n), repeat(0)))
        size = [0] * n
        for u, v in pairs:
            size[u] += 1
            size[v] += 1
        off = array("q", accumulate(size, initial=0))
        at = off.tolist()  # the next free slot of each row
        nbr, wt, deg = [0] * off[-1], [0] * off[-1], loop[:]
        for (u, v), w in pairs.items():
            j = at[u]
            nbr[j], wt[j], at[u] = v, w, j + 1
            j = at[v]
            nbr[j], wt[j], at[v] = u, w, j + 1
            deg[u] += w
            deg[v] += w
        if 0 in deg:
            raise IsolatedVertexError(f"vertex {deg.index(0)} has zero total degree")
        return cls.__new__(cls)._build(loop, deg, off, array("q", nbr), wt)

    def rows(self) -> Iterator[Iterator[tuple[int, int]]]:
        """Each vertex's (neighbour, weight) pairs, row after row; read each to its end."""
        sizes = map(sub, islice(self.off, 1, None), self.off)
        return map(islice, repeat(zip(self.nbr, self.wt)), sizes)

    @property
    def adj(self) -> list[dict[int, int]]:
        """Per-vertex maps of ``m(u, v)``, loop first: a view rebuilt on each access."""
        return [dict(chain([(u, d)] if d else (), row))
                for u, (d, row) in enumerate(zip(self.loop, self.rows()))]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each unordered pair once as (u, v, w) with u <= v, row by
        row, the diagonal first, with its (doubled) value."""
        for u, (d, row) in enumerate(zip(self.loop, self.rows())):
            yield from [(u, u, d)] if d else ()
            yield from ((u, v, w) for v, w in row if v > u)


def load_edge_list(source) -> tuple[Graph, list[str]]:
    """Parse a line-oriented edge list into a graph plus its label table.

    Each non-comment line is ``u v [w]`` with arbitrary string labels and an
    optional positive weight in ASCII digits (default 1).  ``#`` starts a
    comment.  Duplicate lines accumulate; a line ``v v w`` adds a self-loop
    storing ``2*w`` on the diagonal.  Labels are assigned dense indices in
    order of first appearance; the returned list maps index back to label.
    """
    index: dict[str, int] = {}
    us, vs, ws = [], [], []  # the triples, one list per field: lighter than a tuple per line
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
        us.append(index.setdefault(parts[0], len(index)))
        vs.append(index.setdefault(parts[1], len(index)))
        ws.append(w)
    if not ws:
        raise FormatError("no edges found in input")
    return Graph.from_edge_list(zip(us, vs, ws)), list(index)


def format_edge_list(graph: Graph, labels: list[str] | None = None) -> str:
    """Render a graph in the edge-list format accepted by load_edge_list."""
    if labels is None:
        labels = [str(v) for v in range(graph.n)]
    out = []
    for u, v, w in graph.edges():
        if u == v:  # every stored diagonal is even: loops store 2*w
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
    loop = [0] * partition.k
    rows: list[dict[int, int]] = [{} for _ in loop]
    for c, d, row in zip(assign, graph.loop, graph.rows()):
        loop[c] += d
        block = rows[c]
        for v, w in row:
            b = assign[v]
            if b == c:
                loop[c] += w
            else:
                block[b] = block.get(b, 0) + w
    weights = list(map(dict.values, rows))
    deg = list(map(add, loop, map(sum, weights)))
    off = array("q", accumulate(map(len, rows), initial=0))
    nbr = array("q", chain.from_iterable(rows))
    return Graph.__new__(Graph)._build(loop, deg, off, nbr, list(chain.from_iterable(weights)))


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
            for v in graph.nbr[graph.off[u]:graph.off[u + 1]]:
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
        off, nbr, wt = graph.off, graph.nbr, graph.wt
        best = min(best, min(map(sub, graph.deg, graph.loop)))
        ids = list(range(graph.n))  # heap entries share these ints, not one per read
        parent = ids[:]
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
            a, b = off[v], off[v + 1]
            if b - a == 2:
                u = nbr[a] if wt[a] >= wt[a + 1] else nbr[a + 1]
                parent[_root(parent, u)] = _root(parent, v)
            for j in range(a, b):
                u = ids[nbr[j]]
                if not added[u]:
                    key[u] += wt[j]
                    heapq.heappush(heap, (-key[u], u))
                    if key[u] >= best:
                        parent[_root(parent, u)] = _root(parent, v)
        graph = quotient(graph, Partition([_root(parent, v) for v in range(graph.n)]))
    return best
