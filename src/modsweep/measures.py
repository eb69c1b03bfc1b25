"""Edge-mass and null-model measures over community rectangles.

For a partition, all scores reduce to three integer aggregates: the block
degree ``d(C)``, the internal weight ``w(C)`` (ordered pairs inside ``C``,
so twice the undirected internal edge weight plus stored loop weight), and
the one-orientation crossing weight ``w(C, C')`` between adjacent blocks.
Non-adjacent block pairs have crossing weight 0 implicitly and are not
stored.  All derived measures are exact ``Fraction`` values.
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

    ``from_partition`` is the one place block aggregates are summed; scores,
    certificates, bounds and quotient graphs all read them from here.  The
    brute-force oracles sum their own, so tests can compare against them.
    """

    __slots__ = ("z", "k", "block_degree", "internal", "cross")

    def __init__(self, z: int, block_degree: list[int], internal: list[int],
                 cross: dict[tuple[int, int], int]):
        self.z = z
        self.k = len(block_degree)
        self.block_degree = block_degree
        self.internal = internal
        self.cross = cross

    @classmethod
    def from_partition(cls, graph: "Graph", partition: "Partition") -> "CommunityAggregates":
        if len(partition.assign) != graph.n:
            raise ValueError("partition does not cover this graph's vertex set")
        assign = partition.assign
        deg = graph.deg
        k = len(partition)
        block_degree = [0] * k
        internal = [0] * k
        cross: dict[tuple[int, int], int] = {}
        for u, nbrs in enumerate(graph.adj):
            cu = assign[u]
            block_degree[cu] += deg[u]
            for v, w in nbrs.items():
                cv = assign[v]
                if cv == cu:
                    internal[cu] += w
                elif u < v:
                    key = (cu, cv) if cu < cv else (cv, cu)
                    cross[key] = cross.get(key, 0) + w
        return cls(graph.z, block_degree, internal, cross)

    def _check(self, c: int) -> None:
        if not 0 <= c < self.k:
            raise ValueError(f"unknown community id {c}")

    def cross_weight(self, a: int, b: int) -> int:
        """Integer one-orientation crossing weight between two blocks."""
        self._check(a)
        self._check(b)
        if a == b:
            return self.internal[a]
        key = (a, b) if a < b else (b, a)
        return self.cross.get(key, 0)

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
        for a, b in sorted(self.cross):
            yield a, b, self.cross[(a, b)]

    def resolution(self) -> Fraction:
        """Largest ratio observed/expected over distinct adjacent pairs.

        Returns 0 when no distinct pair carries edge mass, i.e. when the
        partition refines the connected components.
        """
        z = self.z
        bd = self.block_degree
        best_num, best_den = 0, 1
        for (a, b), w in self.cross.items():
            num = z * w
            den = bd[a] * bd[b]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        return Fraction(best_num, best_den)
