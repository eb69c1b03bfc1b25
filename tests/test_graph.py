"""Graph construction, loading, quotients, components, and minimum cuts."""

import random

import pytest

from modsweep import (
    DisconnectedError,
    FormatError,
    Graph,
    IsolatedVertexError,
    Partition,
    connected_components,
    format_edge_list,
    load_edge_list,
    min_cut,
    quotient,
    singleton_partition,
)

from conftest import BARBELL_EDGES, brute_force_min_cut, random_graph, random_partition


class TestLoadEdgeList:
    def test_triangle(self):
        g, labels = load_edge_list("a b\nb c\nc a\n")
        assert g.n == 3
        assert g.z == 6
        assert g.deg == [2, 2, 2]
        assert labels == ["a", "b", "c"]

    def test_weighted_edge_is_symmetric(self):
        g, labels = load_edge_list("a b 3")
        assert g.adj[0][1] == g.adj[1][0] == 3
        assert g.z == 6

    def test_duplicate_lines_accumulate(self):
        g, _ = load_edge_list("a b 2\nb a 3\n")
        assert g.adj[0][1] == 5

    def test_self_loop_doubles_diagonal(self):
        g, _ = load_edge_list("a b\na a 2\n")
        assert g.adj[0][0] == 4
        assert g.deg[0] == 5
        assert g.z == 6

    def test_comments_and_blank_lines(self):
        g, labels = load_edge_list("# header\n\na b # trailing\n")
        assert g.n == 2 and labels == ["a", "b"]

    def test_bad_weight_rejected(self):
        with pytest.raises(FormatError):
            load_edge_list("a b 1.5")
        with pytest.raises(FormatError):
            load_edge_list("a b 0")
        with pytest.raises(FormatError):
            load_edge_list("a b -2")

    def test_bad_arity_rejected(self):
        with pytest.raises(FormatError):
            load_edge_list("a\n")
        with pytest.raises(FormatError):
            load_edge_list("a b c d\n")

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            load_edge_list("# nothing here\n")

    def test_karate_fixture_totals(self, karate):
        g, labels = karate
        # degree total must equal twice the number of (unweighted) edge lines
        assert g.n == 34
        assert g.z == 2 * 78
        assert len(labels) == 34


class TestGraphInvariants:
    def test_zero_degree_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            Graph([{1: 1}, {0: 1}, {}])

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(ValueError):
            Graph([{1: 1}, {0: 2}])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Graph([{1: 0}, {0: 0}])

    def test_degree_sum_equals_total(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 12))
            assert sum(g.deg) == g.z
            for u, nbrs in enumerate(g.adj):
                for v, w in nbrs.items():
                    assert g.adj[v][u] == w

    def test_format_round_trip(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 9))
            g2, labels = load_edge_list(format_edge_list(g))
            # the loader indexes labels by first appearance; map back
            back = [int(lab) for lab in labels]
            remapped: list[dict[int, int]] = [dict() for _ in range(g.n)]
            for u, nbrs in enumerate(g2.adj):
                for v, w in nbrs.items():
                    remapped[back[u]][back[v]] = w
            assert remapped == g.adj


class TestQuotient:
    def test_identity_on_singletons(self, barbell):
        q = quotient(barbell, singleton_partition(barbell))
        assert q.adj == barbell.adj

    def test_total_collapse(self, barbell):
        q = quotient(barbell, Partition([0] * 6))
        assert q.n == 1
        assert q.adj[0][0] == barbell.z
        assert q.z == barbell.z

    def test_barbell_two_blocks(self, barbell):
        q = quotient(barbell, Partition([0, 0, 0, 1, 1, 1]))
        assert q.n == 2
        assert q.adj[0][0] == 6
        assert q.adj[1][1] == 6
        assert q.adj[0][1] == q.adj[1][0] == 1
        assert q.z == 14

    def test_preserves_totals_random(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 50)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            q = quotient(g, p)
            assert q.z == g.z
            sums = [0] * len(p)
            for v in range(n):
                sums[p.assign[v]] += g.deg[v]
            assert q.deg == sums


class TestConnectedComponents:
    def test_triangle_is_one_block(self, triangle):
        assert len(connected_components(triangle)) == 1

    def test_two_triangles(self, two_triangles):
        comp = connected_components(two_triangles)
        assert [set(b) for b in comp.blocks] == [{0, 1, 2}, {3, 4, 5}]

    def test_loops_do_not_connect(self):
        g = Graph.from_edge_list([(0, 1, 1), (2, 2, 1)])
        assert len(connected_components(g)) == 2


class TestMinCut:
    def test_barbell_bridge(self, barbell):
        assert min_cut(barbell) == 1

    def test_triangle(self, triangle):
        assert min_cut(triangle) == 2

    def test_tree_always_one(self):
        from modsweep import complete_binary_tree

        for height in (1, 3, 5):
            assert min_cut(complete_binary_tree(height)) == 1

    def test_disconnected_rejected(self, two_triangles):
        with pytest.raises(DisconnectedError):
            min_cut(two_triangles)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            min_cut(Graph([{0: 2}]))

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, connected=True)
            got = min_cut(g)
            want, side = brute_force_min_cut(g)
            assert got == want
            # the ordered-pair mass across the optimal cut is twice the cut
            mass = sum(w for u in side for v, w in g.adj[u].items() if v not in side)
            assert mass == want

    def test_weighted_bridge(self):
        g = Graph.from_edge_list(BARBELL_EDGES[:-1] + [(2, 3, 5)])
        assert min_cut(g) == 2  # isolating a plain triangle vertex beats the heavy bridge
