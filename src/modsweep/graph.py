"""Symmetric integer-weighted graphs, their quotients, components and cuts.

Weights form a symmetric map ``m(u, v)`` over ordered vertex pairs.  The
total weight ``z`` sums over ordered pairs, so each undirected edge is
counted twice while a diagonal entry counts once.  A self-loop line
``v v w`` in the edge-list format therefore adds ``2*w`` to ``m(v, v)``,
which makes the weighted degree ``deg(v)`` equal the usual adjacency-matrix
row sum.  All weights are positive integers and every vertex must have
positive degree.

A graph is held in flat arrays: ``loop[u]`` is ``m(u, u)``, and row ``u``'s
other entries are the slice ``off[u]:off[u+1]`` of ``nbr`` (neighbour ids, an
``array('q')``) and ``wt`` (unbounded int weights), laid out by ``_build``:
an input graph's rows in first-seen pair order, a quotient's in block order.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import accumulate, chain, islice, repeat
from operator import sub
from typing import Collection, Iterable, Iterator

from .errors import DisconnectedError, FormatError, IsolatedVertexError
from .partition import Partition, _fields
from .rational import too_long


class Graph:
    """Read-only weighted graph on vertices 0..n-1, in the module's flat arrays
    with degrees ``deg`` and total ``z``.  No rows are accepted from outside:
    ``from_edge_list`` checks each triple, and ``quotient`` sums a checked graph."""

    __slots__ = ("n", "deg", "z", "loop", "off", "nbr", "wt")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Graph with Graph.from_edge_list")

    def _build(self, loop: list, pairs: Collection[tuple[tuple[int, int], int]]) -> "Graph":
        """The one layout: size the rows, then write each ``((u, v), w)`` of ``pairs`` to both."""
        size = [0] * len(loop)
        for (u, v), _ in pairs:
            size[u] += 1
            size[v] += 1
        off = array("q", accumulate(size, initial=0))
        at = off.tolist()  # the next free slot of each row
        nbr, wt, deg = [0] * off[-1], [0] * off[-1], loop[:]
        for (u, v), w in pairs:
            j = at[u]
            nbr[j], wt[j], at[u] = v, w, j + 1
            j = at[v]
            nbr[j], wt[j], at[v] = u, w, j + 1
            deg[u] += w
            deg[v] += w
        self.n, self.z = len(loop), sum(deg)
        self.loop, self.deg, self.off, self.nbr, self.wt = loop, deg, off, array("q", nbr), wt
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
        graph = cls.__new__(cls)._build(list(map(loops.get, range(n), repeat(0))), pairs.items())
        if 0 in graph.deg:
            raise IsolatedVertexError(f"vertex {graph.deg.index(0)} has zero total degree")
        return graph

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
                why = too_long(parts[2]) or f"{parts[2]!r} is not an integer"
                raise FormatError(f"line {lineno}: weight {why}") from None
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
    internal ordered-pair weight, its entry for an adjacent block the
    one-orientation crossing weight (so ``z`` and the block degrees are
    preserved).  Rows are in block order; a checked graph is not re-checked.
    """
    assign = partition.assign
    if len(assign) != graph.n:
        raise ValueError("partition does not cover this graph's vertex set")
    k = partition.k
    loop = [0] * k
    pairs: dict[int, int] = {}  # c * k + b, for blocks c < b, sorts as (c, b): weight
    get = pairs.get
    for c, d, row in zip(assign, graph.loop, graph.rows()):
        ck = c * k
        for v, w in row:
            b = assign[v]
            if b == c:
                d += w
            elif c < b:  # a row of block b adds the same weight the other way
                pairs[ck + b] = get(ck + b, 0) + w
        loop[c] += d
    return Graph.__new__(Graph)._build(loop, [(divmod(cb, k), pairs[cb]) for cb in sorted(pairs)])


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
    label = [-1] * graph.n  # each component takes its first vertex as its label
    for v0 in range(graph.n):
        if label[v0] >= 0:
            continue
        c = assign[v0]
        label[v0] = v0
        stack = [v0]
        while stack:
            u = stack.pop()
            for v in graph.nbr[graph.off[u]:graph.off[u + 1]]:
                if label[v] < 0 and assign[v] == c:
                    label[v] = v0
                    stack.append(v)
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
    crossing weight ``sum(m(u, v) for u in S, v not in S)``: the
    ``CommunityAggregates.boundary`` of S as a block, which the ordered-pair
    total ``z`` counts twice.  Self-loops are ignored.

    Each pass is one scan (Nagamochi & Ibaraki 1992).  ``best``, the least cut
    seen, first drops to the least loop-free vertex degree.  The scan takes
    the largest key ``min(r, best)``, ``r`` a vertex's weight to the scanned
    set A (Henzinger, Noe, Schulz & Strash 2018), then the least vertex: the
    order of the heap's ints ``u - key * n``.  A key at ``best`` unions its
    edge's ends, as the Stoer-Wagner induction holds on ``min(r, best)``: if a
    cut C parts scanned v_i from unscanned y, each u_l that C parts from its
    predecessor has, after the previous such u_j, min(w(A_{l-1}, u_l), best)
    <= min(w(A_{j-1}, u_l), best) + w(A_{l-1} - A_{j-1}, u_l) <= w(C_j) +
    w(A_{l-1} - A_{j-1}, u_l) <= w(C_l), so min(r_i(y), best) <= w(C).  The
    last key ends at ``best``, so every pass unions a pair.  A popped vertex
    with exactly two loop-free neighbours joins the heavier, the first on a
    tie (Padberg & Rinaldi 1990): that side never grows a cut, and a strictly
    lightest chain edge is no vertex's heavier one, so a minimum cut below
    ``best`` survives, and a cycle takes one pass.  ``quotient`` contracts the
    unions.  DisconnectedError comes from the first scan.
    """
    if graph.n < 2:
        raise ValueError("minimum cut needs at least two vertices")
    best = graph.z
    while graph.n > 1:
        n, off, nbr, wt = graph.n, graph.off, graph.nbr, graph.wt
        best = min(best, min(map(sub, graph.deg, graph.loop)))
        parent = list(range(n))
        key = [0] * n  # best + 1 once scanned
        heap, push, pop = [0], heapq.heappush, heapq.heappop
        for _ in range(n):
            while heap and key[heap[0] % n] > best:
                pop(heap)
            if not heap:
                raise DisconnectedError("graph is not connected")
            v = pop(heap) % n
            key[v] = best + 1
            rv = _root(parent, v)
            a, b = off[v], off[v + 1]
            if b - a == 2:
                u = nbr[a] if wt[a] >= wt[a + 1] else nbr[a + 1]
                parent[_root(parent, u)] = rv
            for u, w in zip(nbr[a:b], wt[a:b]):
                k = key[u]
                if k < best:
                    k += w
                    key[u] = k = k if k < best else best
                    push(heap, u - k * n)
                if k == best:
                    parent[_root(parent, u)] = rv
        graph = quotient(graph, Partition([_root(parent, v) for v in range(n)]))
    return best
