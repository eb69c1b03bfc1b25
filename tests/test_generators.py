"""Example generators: daisies, complete binary trees, and tree bounds."""

import random
from fractions import Fraction

import pytest

from modsweep import (
    CommunityAggregates,
    Graph,
    Partition,
    complete_binary_tree,
    daisy_graph,
    daisy_reference_modularity,
    daisy_stable_petal_count,
    modularity,
    refine_connected,
    singleton_partition,
    tree_bound,
    tree_core_modularity,
    tree_core_partition,
    tree_modularity_identity,
    tree_score_profile,
)

from conftest import random_partition

# (height, best-possible bound, core-partition score) checked to 1e-7
TREE_TABLE = [
    (3, 0.5357143, 0.505102),
    (5, 0.7620968, 0.757024),
    (6, 0.8297258, 0.824263),
    (10, 0.9562724, 0.9539936),
    (20, 0.9986194, 0.998536),
]


class TestDaisy:
    def test_counts_r1(self):
        g = daisy_graph(1)
        assert g.n == 76
        assert sum(1 for _ in g.edges()) == 75
        assert g.z == 150
        assert g.deg[0] == 25

    def test_total_weight_scales_linearly(self):
        for r in (1, 2, 3):
            assert daisy_graph(r).z == 150 * r

    def test_structure(self):
        g = daisy_graph(2)
        assert g.deg[0] == 50
        hubs = [v for v in range(1, g.n) if g.deg[v] == 3]
        leaves = [v for v in range(1, g.n) if g.deg[v] == 1]
        assert len(hubs) == 50 and len(leaves) == 100

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            daisy_graph(0)

    def test_reference_modularity_values(self):
        assert daisy_reference_modularity(1) == pytest.approx(0.613333, abs=1e-6)
        assert daisy_reference_modularity(2) == pytest.approx(0.626667, abs=1e-6)
        # large-r limit approaches 16/25
        assert daisy_reference_modularity(10 ** 6) == pytest.approx(0.64, abs=1e-6)

    def test_reference_is_the_one_petal_center_score(self):
        # partition: center plus first petal together, every other petal alone
        g = daisy_graph(1)
        label = [0] * g.n
        for i in range(1, 25):
            hub = 1 + 3 * i
            label[hub] = label[hub + 1] = label[hub + 2] = i
        p = Partition(label)
        assert float(modularity(g, p, Fraction(1))) == pytest.approx(
            daisy_reference_modularity(1), abs=1e-12
        )


class TestDaisyStablePetals:
    @pytest.mark.parametrize(
        "r,t,expect",
        [(1, 1, 1), (1, Fraction(6, 5), 0), (2, 1, 2), (3, Fraction(1, 2), 21)],
    )
    def test_values(self, r, t, expect):
        assert daisy_stable_petal_count(r, t) == expect

    def test_rejects_t_out_of_range(self):
        with pytest.raises(ValueError):
            daisy_stable_petal_count(1, Fraction(13, 10))
        with pytest.raises(ValueError):
            daisy_stable_petal_count(1, 0)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("t", [Fraction(4, 5), Fraction(1), Fraction(11, 10)])
    def test_threshold_matches_direct_excess(self, r, t):
        """The returned count is the smallest petal load whose center block
        has non-positive excess against an outside petal."""
        g = daisy_graph(r)
        m = 25 * r

        def center_excess(n_petals):
            label = list(range(g.n))
            for i in range(n_petals):
                hub = 1 + 3 * i
                label[hub] = label[hub + 1] = label[hub + 2] = 0
            for i in range(n_petals, m):
                hub = 1 + 3 * i
                label[hub + 1] = label[hub + 2] = hub
            p = Partition(label)
            agg = CommunityAggregates.from_partition(g, p)
            outside = p.assign[1 + 3 * n_petals]
            return agg.excess(p.assign[0], outside, t)

        n_star = daisy_stable_petal_count(r, t)
        assert center_excess(n_star) <= 0
        if n_star > 0:
            assert center_excess(n_star - 1) > 0


class TestCompleteBinaryTree:
    @pytest.mark.parametrize("height,n,z", [(1, 3, 4), (3, 15, 28), (5, 63, 124)])
    def test_counts(self, height, n, z):
        g = complete_binary_tree(height)
        assert g.n == n
        assert g.z == z
        assert sum(1 for _ in g.edges()) == n - 1

    def test_counts_formula_up_to_12(self):
        for height in range(1, 13):
            g = complete_binary_tree(height)
            assert g.n == 2 ** (height + 1) - 1
            assert g.z == 2 ** (height + 2) - 4

    def test_breadth_first_labels(self):
        g = complete_binary_tree(3)
        assert g.adj[0][1] == g.adj[0][2] == 1
        assert g.adj[3][1] == 1
        assert g.deg[0] == 2 and g.deg[1] == 3 and g.deg[14] == 1

    def test_rejects_bad_height(self):
        with pytest.raises(ValueError):
            complete_binary_tree(0)


class TestTreeBound:
    @pytest.mark.parametrize("height,bound,_", TREE_TABLE)
    def test_table_values(self, height, bound, _):
        z = 2 ** (height + 2) - 4
        assert tree_bound(z).bound == pytest.approx(bound, abs=1e-7)

    def test_daisy_weight_bound(self):
        tb = tree_bound(150)
        assert tb.blocks == 9
        assert tb.bound == pytest.approx(0.7822222, abs=1e-6)

    def test_block_count_minimizes_profile(self):
        for z in range(6, 600, 2):
            tb = tree_bound(z)
            profile = tree_score_profile(tb.blocks, z)
            for s in range(1, 40):
                assert profile <= tree_score_profile(s, z)

    def test_bound_range(self):
        for z in range(6, 2000, 2):
            assert 0 < tree_bound(z).bound < 1

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            tree_bound(7)
        with pytest.raises(ValueError):
            tree_bound(0)


class TestTreeCorePartition:
    def test_block_count(self):
        assert len(tree_core_partition(5)) == 9
        assert len(tree_core_partition(3)) == 5
        assert len(tree_core_partition(10)) == 33

    def test_blocks_are_connected(self):
        for height in (3, 4, 5, 6):
            g = complete_binary_tree(height)
            p = tree_core_partition(height)
            assert refine_connected(g, p) == p

    @pytest.mark.parametrize("height,_,score", TREE_TABLE[:4])
    def test_materialized_score_matches_closed_form(self, height, _, score):
        g = complete_binary_tree(height)
        p = tree_core_partition(height)
        exact = modularity(g, p, Fraction(1))
        assert exact == tree_core_modularity(height)
        assert float(exact) == pytest.approx(score, abs=1e-6)

    def test_closed_form_large_height(self):
        assert float(tree_core_modularity(20)) == pytest.approx(0.998536, abs=1e-6)

    def test_rejects_small_heights(self):
        with pytest.raises(ValueError):
            tree_core_partition(2)


class TestTreeIdentity:
    def test_core_partition_both_sides(self):
        g = complete_binary_tree(5)
        lhs, rhs = tree_modularity_identity(g, tree_core_partition(5))
        assert lhs == rhs
        assert float(lhs) == pytest.approx(0.757024, abs=1e-6)

    def test_whole_set_is_zero(self):
        g = complete_binary_tree(3)
        lhs, rhs = tree_modularity_identity(g, Partition([0] * g.n))
        assert lhs == rhs == 0

    def test_exhaustive_on_tiny_trees(self):
        """Every internally connected partition of every tree on <= 5 vertices."""
        from modsweep import set_partitions

        paths = [
            Graph.from_edge_list([(i, i + 1, 1) for i in range(k)]) for k in (1, 2, 3, 4)
        ]
        star = Graph.from_edge_list([(0, i, 1) for i in (1, 2, 3)])
        spider = Graph.from_edge_list([(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1)])
        for g in paths + [star, spider]:
            for rgs in set_partitions(g.n):
                p = Partition(rgs)
                if refine_connected(g, p) != p:
                    continue
                lhs, rhs = tree_modularity_identity(g, p)
                assert lhs == rhs

    def test_random_partitions_on_binary_trees(self):
        rng = random.Random(61)
        for height in (3, 4):
            g = complete_binary_tree(height)
            for _ in range(25):
                p = refine_connected(g, random_partition(rng, g.n))
                lhs, rhs = tree_modularity_identity(g, p)
                assert lhs == rhs

    def test_rejects_non_trees(self, triangle, two_triangles):
        with pytest.raises(ValueError):
            tree_modularity_identity(triangle, singleton_partition(triangle))
        with pytest.raises(ValueError):
            tree_modularity_identity(two_triangles, singleton_partition(two_triangles))

    def test_rejects_disconnected_blocks(self):
        g = complete_binary_tree(2)
        # leaves 3 and 6 hang from different subtrees
        with pytest.raises(ValueError):
            tree_modularity_identity(g, Partition([0, 0, 0, 1, 0, 0, 1]))
