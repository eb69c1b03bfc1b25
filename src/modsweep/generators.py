"""Deterministic example graphs and their reference partitions.

Two families: the daisy, a hub joined to many three-vertex petals, which
shows how stable community sizes are pinned by the total weight rather than
by visible structure; and complete binary trees, for which a sharp upper
bound on the best achievable score has a closed form.  Every generator
builds its graph through ``Graph.from_edge_list``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .graph import Graph, connected_components, refine_connected
from .modularity import CommunityAggregates
from .partition import Partition
from .rational import positive_fraction


def daisy_graph(r: int) -> Graph:
    """Star center of degree 25*r plus 25*r petals (hub and two leaves).

    Vertex order: center 0, then petals as (hub, leaf, leaf).  Total weight
    is 150*r.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    edges = []
    for hub in range(1, 1 + 75 * r, 3):
        edges += [(0, hub, 1), (hub, hub + 1, 1), (hub, hub + 2, 1)]
    return Graph.from_edge_list(edges)


def daisy_reference_modularity(r: int) -> Fraction:
    """Score of the best daisy partition at resolution 1: (4/25)(4 - 1/(6r))."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return Fraction(4, 25) * (4 - Fraction(1, 6 * r))


def daisy_stable_petal_count(r: int, t) -> int:
    """Smallest petal count in the center community that makes it stable.

    The center paired with an outside petal stops being an improving merge
    once the center holds at least ``r * (6/t - 5)`` petals; the result is
    clamped to the feasible range [0, 25*r].
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    tf = positive_fraction(t)
    if tf > Fraction(6, 5):
        raise ValueError("t must lie in (0, 6/5]")
    need = r * (Fraction(6) / tf - 5)
    return min(max(math.ceil(need), 0), 25 * r)


def complete_binary_tree(height: int) -> Graph:
    """Complete binary tree with breadth-first vertex labels from the root.

    2**(height+1) - 1 vertices, total weight 2**(height+2) - 4.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    n = (1 << (height + 1)) - 1
    return Graph.from_edge_list([((v - 1) >> 1, v, 1) for v in range(1, n)])


class TreeBound(NamedTuple):
    """Closed-form score ceiling for any tree of total weight z."""
    z: int
    blocks: int
    bound: Fraction


def tree_score_profile(blocks: int, z: int) -> Fraction:
    """Cost term 2*(s-1)/z + 1/s whose minimum yields the tree bound."""
    if blocks < 1:
        raise ValueError("block count must be positive")
    return Fraction(2 * (blocks - 1), z) + Fraction(1, blocks)


def tree_bound(z: int) -> TreeBound:
    """Best-possible score of a tree partition, maximized over block counts.

    The optimal block count is floor((1 + sqrt(1 + 2z)) / 2); the bound is
    1 minus the profile there.
    """
    if z < 2 or z % 2:
        raise ValueError("a tree's total weight is even and at least 2")
    s = (1 + math.isqrt(1 + 2 * z)) // 2
    return TreeBound(z, s, 1 - tree_score_profile(s, z))


def _core_height(height: int) -> int:
    # smallest h with the dangling subtrees no taller than the core region
    return (height - 1) // 2


def tree_core_partition(height: int) -> Partition:
    """Reference partition of the complete binary tree: core plus branches.

    The core block is the top subtree of height ceil((height-2)/2); every
    remaining component (a dangling subtree) forms its own block, giving
    1 + 2**(h+1) blocks, labelled in one pass since parents come first.
    """
    if height < 3:
        raise ValueError("height must be at least 3")
    n = (1 << (height + 1)) - 1
    h = _core_height(height)
    core_end = (1 << (h + 1)) - 1
    label = [0] * core_end
    for v in range(core_end, n):
        parent = (v - 1) >> 1
        label.append(v if parent < core_end else label[parent])
    return Partition(label)


def tree_core_modularity(height: int) -> Fraction:
    """Exact score at resolution 1 of the core-plus-branches partition.

    Evaluated from block degree and edge counts in closed form, so it works
    for heights far beyond what is practical to materialize; equality with
    the materialized partition is covered by tests at small heights.
    """
    if height < 3:
        raise ValueError("height must be at least 3")
    h = _core_height(height)
    m = height - h - 1
    z = (1 << (height + 2)) - 4
    branches = 1 << (h + 1)
    d_core = 3 * branches - 4
    w_core = 2 * (branches - 2)
    d_branch = (1 << (m + 2)) - 3
    w_branch = (1 << (m + 2)) - 4
    w_total = w_core + branches * w_branch
    deg_sq = d_core * d_core + branches * d_branch * d_branch
    return Fraction(w_total, z) - Fraction(deg_sq, z * z)


def tree_modularity_identity(graph: Graph, partition: Partition) -> tuple[Fraction, Fraction]:
    """Two routes to the score of an internally connected tree partition.

    Returns ``(direct, via_counts)`` where the second value is
    ``1 - 2(k-1)/z - 1/k - sum((d(C)/z - 1/k)**2)``; the two agree exactly
    because collapsing an internally connected partition of a tree yields a
    tree again, with exactly k - 1 crossing edges.
    """
    if any(graph.loop):
        raise ValueError("graph has self-loops, not a tree")
    if len(connected_components(graph)) != 1:
        raise ValueError("graph is disconnected, not a tree")
    if graph.z != 2 * (graph.n - 1):
        raise ValueError("edge count does not match a tree")
    if refine_connected(graph, partition) != partition:
        raise ValueError("partition blocks must induce connected subgraphs")
    agg = CommunityAggregates.from_partition(graph, partition)
    k, z = agg.k, agg.z
    direct = agg.score(1)
    spread = sum((agg.degree_fraction(c) - Fraction(1, k)) ** 2 for c in range(k))
    via_counts = 1 - Fraction(2 * (k - 1), z) - Fraction(1, k) - spread
    return direct, via_counts
