"""Vertex partitions, the refinement order, and partition file I/O.

Community ids are always renumbered densely in order of first appearance
over the vertex index, so equal partitions have equal ``assign`` arrays and
output is reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import FormatError

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph


class Partition:
    """A partition of vertices 0..n-1 into nonempty blocks.

    ``assign[v]`` is the dense community id of vertex ``v``; ``blocks[c]``
    lists the vertices of community ``c`` in ascending order.
    """

    __slots__ = ("assign", "blocks")

    def __init__(self, assignment: Iterable):
        assignment = list(assignment)
        if not assignment:
            raise ValueError("cannot partition an empty vertex set")
        remap: dict = {}
        assign = [0] * len(assignment)
        for v, raw in enumerate(assignment):
            cid = remap.get(raw)
            if cid is None:
                cid = remap[raw] = len(remap)
            assign[v] = cid
        blocks: list[list[int]] = [[] for _ in range(len(remap))]
        for v, c in enumerate(assign):
            blocks[c].append(v)
        self.assign = assign
        self.blocks = blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.assign == other.assign

    def __repr__(self) -> str:
        return f"Partition({len(self.assign)} vertices, {len(self.blocks)} blocks)"

    def block_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(b) for b in self.blocks)


def singleton_partition(graph: "Graph") -> Partition:
    """One block per vertex."""
    return Partition(range(graph.n))


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of ``q`` is contained in a block of ``p``."""
    if len(p.assign) != len(q.assign):
        raise ValueError("partitions cover different vertex sets")
    rep: dict[int, int] = {}
    for qb, pb in zip(q.assign, p.assign):
        if rep.setdefault(qb, pb) != pb:
            return False
    return True


def refine_connected(graph: "Graph", partition: Partition) -> Partition:
    """Split every block into the connected components of its induced subgraph.

    The result refines the input, is internally connected, and never lowers
    the modularity score at any resolution.
    """
    assign = partition.assign
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


def compose(partition: Partition, block_partition: Partition) -> Partition:
    """Coarsen ``partition`` by grouping its blocks per ``block_partition``."""
    if len(block_partition.assign) != len(partition.blocks):
        raise ValueError("block partition does not cover the block set")
    return Partition([block_partition.assign[c] for c in partition.assign])


def format_partition(partition: Partition, labels: list[str] | None = None) -> str:
    """Render as one 'vertexLabel communityId' pair per line, vertex order."""
    if labels is None:
        labels = [str(v) for v in range(len(partition.assign))]
    return "\n".join(f"{labels[v]} {c}" for v, c in enumerate(partition.assign)) + "\n"


def parse_partition(source, labels: list[str]) -> Partition:
    """Read a partition file for a graph with the given label table.

    Every vertex must be assigned exactly once; community ids are arbitrary
    tokens and get renumbered densely.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    index = {lab: i for i, lab in enumerate(labels)}
    raw: list = [None] * len(labels)
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'vertexLabel communityId'")
        v = index.get(parts[0])
        if v is None:
            raise FormatError(f"line {lineno}: unknown vertex label {parts[0]!r}")
        if raw[v] is not None:
            raise FormatError(f"line {lineno}: vertex {parts[0]!r} assigned twice")
        raw[v] = parts[1]
    missing = [labels[v] for v, c in enumerate(raw) if c is None]
    if missing:
        raise FormatError(f"vertices without a community: {', '.join(missing[:5])}")
    return Partition(raw)
