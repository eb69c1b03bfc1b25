"""Vertex partitions, the refinement order, and partition file I/O.

Community ids are always renumbered densely in order of first appearance
over the vertex index, so equal partitions have equal ``assign`` arrays and
output is reproducible.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FormatError


class Partition:
    """A partition of vertices 0..n-1 into nonempty blocks.

    ``assign[v]`` is the dense community id of vertex ``v`` and ``k`` is the
    number of blocks, so the ids are exactly ``0..k-1``.
    """

    __slots__ = ("assign", "k")

    def __init__(self, assignment: Iterable):
        remap: dict = {}
        self.assign = [remap.setdefault(raw, len(remap)) for raw in assignment]
        if not self.assign:
            raise ValueError("cannot partition an empty vertex set")
        self.k = len(remap)

    def __len__(self) -> int:
        return self.k

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.assign == other.assign

    def __repr__(self) -> str:
        return f"Partition({len(self.assign)} vertices, {self.k} blocks)"


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of ``q`` is contained in a block of ``p``."""
    if len(p.assign) != len(q.assign):
        raise ValueError("partitions cover different vertex sets")
    rep: dict[int, int] = {}
    for qb, pb in zip(q.assign, p.assign):
        if rep.setdefault(qb, pb) != pb:
            return False
    return True


def compose(partition: Partition, block_partition: Partition) -> Partition:
    """Coarsen ``partition`` by grouping its blocks per ``block_partition``."""
    if len(block_partition.assign) != partition.k:
        raise ValueError("block partition does not cover the block set")
    return Partition([block_partition.assign[c] for c in partition.assign])


def format_partition(partition: Partition, labels: list[str] | None = None) -> str:
    """Render as one 'vertexLabel communityId' pair per line, vertex order."""
    if labels is None:
        labels = [str(v) for v in range(len(partition.assign))]
    return "\n".join(f"{labels[v]} {c}" for v, c in enumerate(partition.assign)) + "\n"


def _fields(source) -> Iterator[tuple[int, str, list[str]]]:
    """Yield (line number, line, fields) for each line, as ``str.splitlines``
    cuts a text or each line of a stream, that has fields; ``#`` starts a comment."""
    lines = source.splitlines() if isinstance(source, str) else (
        piece for line in source for piece in line.splitlines() or [line])
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, raw, parts


def parse_partition(source, labels: list[str]) -> Partition:
    """Read a partition file for a graph with the given label table.

    Every vertex must be assigned exactly once; community ids are arbitrary
    tokens and get renumbered densely.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    raw: list = [None] * len(labels)
    for lineno, _, parts in _fields(source):
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
