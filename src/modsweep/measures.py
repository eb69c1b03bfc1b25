"""Edge-mass and null-model measures over community rectangles.

For a partition, all scores reduce to its ``quotient`` graph's rows:
``rows[c]`` maps block ``c`` and each block adjacent to it to an integer
weight.  The diagonal ``rows[c][c]`` is the internal weight ``w(C)``
(ordered pairs inside ``C``, so twice the undirected internal edge weight
plus stored loop weight); ``rows[c][c']`` is the one-orientation crossing
weight ``w(C, C')``, stored in both rows; a row sums to the block degree
``d(C)``.  Zero entries are not stored.  Measures are exact ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .graph import Graph, quotient
from .partition import Partition
from .rational import positive_fraction


class CommunityAggregates:
    """Integer aggregates of a graph under a fixed partition.

    Read from the partition's quotient graph: ``rows`` is its adjacency,
    ``k`` its vertex count, ``block_degree`` its degrees and ``z`` its
    total; only ``internal``, the diagonals, is computed here.  Scores,
    certificates and bounds read block aggregates from here.  The
    brute-force oracles sum their own, so tests can compare against them.
    """

    __slots__ = ("z", "k", "rows", "block_degree", "internal")

    def __init__(self, coarse: Graph):
        self.rows, self.k, self.block_degree, self.z = coarse.adj, coarse.n, coarse.deg, coarse.z
        self.internal = [row.get(c, 0) for c, row in enumerate(self.rows)]

    @classmethod
    def from_partition(cls, graph: Graph, partition: Partition) -> "CommunityAggregates":
        return cls(quotient(graph, partition))

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
