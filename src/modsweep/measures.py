"""Edge-mass and null-model measures over community rectangles.

For a partition, all scores reduce to the quotient graph's rows: ``rows[c]``
maps block ``c`` and each block adjacent to it to an integer weight.  The
diagonal ``rows[c][c]`` is the internal weight ``w(C)`` (ordered pairs
inside ``C``, so twice the undirected internal edge weight plus stored loop
weight); ``rows[c][c']`` is the one-orientation crossing weight
``w(C, C')``, stored in both rows; a row sums to the block degree ``d(C)``.
Zero entries are not stored.  All derived measures are exact ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .rational import positive_fraction

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph
    from .partition import Partition


class CommunityAggregates:
    """Integer aggregates of a graph under a fixed partition.

    ``rows`` is the quotient graph's adjacency: each diagonal entry holds a
    block's internal weight, each off-diagonal one a crossing weight.
    ``block_degree`` holds the row sums and ``internal`` the diagonals.
    ``from_partition`` is the one place block aggregates are summed; scores,
    certificates, bounds and quotient graphs all read them from here.  The
    brute-force oracles sum their own, so tests can compare against them.
    """

    __slots__ = ("z", "k", "rows", "block_degree", "internal")

    def __init__(self, rows: list[dict[int, int]]):
        self.rows = rows
        self.k = len(rows)
        self.block_degree = [sum(row.values()) for row in rows]
        self.internal = [row.get(c, 0) for c, row in enumerate(rows)]
        self.z = sum(self.block_degree)

    @classmethod
    def from_partition(cls, graph: "Graph", partition: "Partition") -> "CommunityAggregates":
        if len(partition.assign) != graph.n:
            raise ValueError("partition does not cover this graph's vertex set")
        assign = partition.assign
        rows: list[dict[int, int]] = [{} for _ in range(len(partition))]
        for u, nbrs in enumerate(graph.adj):
            row = rows[assign[u]]
            for v, w in nbrs.items():
                c = assign[v]
                row[c] = row.get(c, 0) + w
        return cls(rows)

    def _check(self, c: int) -> None:
        if not 0 <= c < self.k:
            raise ValueError(f"unknown community id {c}")

    def cross_weight(self, a: int, b: int) -> int:
        """Integer one-orientation crossing weight between two blocks."""
        self._check(a)
        self._check(b)
        return self.rows[a].get(b, 0)

    def edge_fraction(self, a: int, b: int) -> Fraction:
        """Fraction of the total edge mass in the rectangle a x b."""
        return Fraction(self.cross_weight(a, b), self.z)

    def expected_fraction(self, a: int, b: int) -> Fraction:
        """Null-model mass of the rectangle a x b: d(a)*d(b)/z**2."""
        self._check(a)
        self._check(b)
        return Fraction(self.block_degree[a] * self.block_degree[b], self.z * self.z)

    def excess(self, a: int, b: int, t) -> Fraction:
        """Observed minus t times expected mass; signed and exact."""
        tf = positive_fraction(t)
        return self.edge_fraction(a, b) - tf * self.expected_fraction(a, b)

    def boundary_fraction(self, c: int) -> Fraction:
        """Edge mass leaving block c: (d(C) - w(C)) / z."""
        self._check(c)
        return Fraction(self.block_degree[c] - self.internal[c], self.z)

    def degree_fraction(self, c: int) -> Fraction:
        self._check(c)
        return Fraction(self.block_degree[c], self.z)

    def alpha(self) -> Fraction:
        """Null-model mass on the diagonal: sum(d(C)**2) / z**2."""
        return Fraction(sum(d * d for d in self.block_degree), self.z * self.z)

    def score(self, t=1) -> Fraction:
        """Exact score at resolution t: sum(w(C))/z - t * sum(d(C)**2)/z**2."""
        return Fraction(sum(self.internal), self.z) - positive_fraction(t) * self.alpha()

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Adjacent block pairs as (a, b, crossing weight), a < b, sorted."""
        for a, row in enumerate(self.rows):
            for b in sorted(row):
                if b > a:
                    yield a, b, row[b]

    def resolution(self) -> Fraction:
        """Largest ratio observed/expected over distinct adjacent pairs.

        Returns 0 when no distinct pair carries edge mass, i.e. when the
        partition refines the connected components.
        """
        z = self.z
        bd = self.block_degree
        best_num, best_den = 0, 1
        for a, b, w in self.pairs():
            num = z * w
            den = bd[a] * bd[b]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        return Fraction(best_num, best_den)
