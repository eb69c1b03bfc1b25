"""Brute-force ground truth for small instances.

Set partitions are enumerated as restricted-growth strings, which lists
every partition exactly once in a canonical order.  These enumerations are
test and CLI tooling only; the sweep engine never calls them.  Every
decision compares exact integers, so ties are decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .errors import SizeLimitError
from .graph import Graph
from .partition import Partition
from .rational import positive_fraction

MAX_EXHAUSTIVE = 12

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)


def set_partitions(n: int) -> Iterator[list[int]]:
    """Yield every assignment of n items to blocks, restricted-growth order.

    The empty set has one partition, so ``n == 0`` yields one empty list.
    """
    if n <= 0:
        if n == 0:
            yield []
        return
    a = [0] * n
    b = [1] * n
    while True:
        yield a.copy()
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        nb = b[i] + (1 if a[i] == b[i] else 0)
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = nb


class OracleResult(NamedTuple):
    """The first exact maximizer, its exact score and the partitions examined."""
    best_q: Fraction
    best_partition: Partition
    partitions_examined: int


def _block_scorer(graph: Graph, partition: Partition, tf: Fraction
                  ) -> Callable[[list[int]], int]:
    """Exact scorer of the coarsenings of ``partition`` at resolution ``tf``.

    Sums the blocks once, independently of CommunityAggregates.
    ``score(rgs)`` groups block ``c`` into ``rgs[c]`` and returns the integer
    ``td * z * W - tn * S``, which is the score times ``td * z**2``.
    """
    tn, td = tf.numerator, tf.denominator
    z = graph.z
    k = len(partition)
    assign = partition.assign
    block_deg = [0] * k
    for v in range(graph.n):
        block_deg[assign[v]] += graph.deg[v]
    intra = 0
    cross: dict[tuple[int, int], int] = {}
    for u, v, w in graph.edges():
        cu, cv = assign[u], assign[v]
        if cu == cv:
            intra += w if u == v else 2 * w
        else:
            key = (cu, cv) if cu < cv else (cv, cu)
            cross[key] = cross.get(key, 0) + w
    cross_items = list(cross.items())

    def score(rgs: list[int]) -> int:
        w_int = intra
        for (a, b), w in cross_items:
            if rgs[a] == rgs[b]:
                w_int += 2 * w
        sums = [0] * (max(rgs) + 1)
        for c in range(k):
            sums[rgs[c]] += block_deg[c]
        return td * z * w_int - tn * sum(s * s for s in sums)

    return score


def best_partition(graph: Graph, t) -> OracleResult:
    """Exhaustive optimum of the score at resolution t.

    Scores are exact integers, so ties are decided exactly: the first
    maximizer in enumeration order wins.  Refuses vertex counts above
    MAX_EXHAUSTIVE.
    """
    n = graph.n
    if n > MAX_EXHAUSTIVE:
        raise SizeLimitError(f"exhaustive search limited to {MAX_EXHAUSTIVE} vertices")
    tf = positive_fraction(t)
    score = _block_scorer(graph, Partition(range(n)), tf)
    best = max(set_partitions(n), key=score)  # max keeps the first maximizer
    best_q = Fraction(score(best), tf.denominator * graph.z * graph.z)
    return OracleResult(best_q, Partition(best), BELL[n])


def is_coarsening_optimal(graph: Graph, partition: Partition, t) -> bool:
    """Check, by enumeration, that no coarsening scores higher at t.

    Compares integer-scaled scores, so the verdict is exact.  Refuses
    partitions with more than MAX_EXHAUSTIVE blocks.
    """
    k = len(partition)
    if k > MAX_EXHAUSTIVE:
        raise SizeLimitError(f"exhaustive search limited to {MAX_EXHAUSTIVE} blocks")
    score = _block_scorer(graph, partition, positive_fraction(t))
    base = score(list(range(k)))
    return all(score(rgs) <= base for rgs in set_partitions(k))
