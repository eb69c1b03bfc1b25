"""Exhaustive enumeration oracles and their agreement with the engine."""

import random
from fractions import Fraction

import pytest

from modsweep import (
    Graph,
    Partition,
    SizeLimitError,
    best_partition,
    complete_binary_tree,
    detect_communities,
    is_coarsening_optimal,
    is_merge_stable,
    modularity,
    set_partitions,
    singleton_partition,
)
from modsweep.oracle import BELL

from conftest import random_graph, random_partition


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_bell_counts(self, n):
        assert sum(1 for _ in set_partitions(n)) == BELL[n]

    def test_canonical_and_unique(self):
        seen = set()
        for rgs in set_partitions(5):
            assert rgs[0] == 0
            for i in range(1, 5):
                assert rgs[i] <= max(rgs[:i]) + 1
            seen.add(tuple(rgs))
        assert len(seen) == BELL[5]

    def test_order_is_lexicographic(self):
        listing = [tuple(a) for a in set_partitions(4)]
        assert listing == sorted(listing)
        assert listing[0] == (0, 0, 0, 0)
        assert listing[-1] == (0, 1, 2, 3)


class TestBestPartition:
    def test_barbell(self, barbell):
        res = best_partition(barbell, 1)
        assert res.best_q == pytest.approx(5 / 14, abs=1e-12)
        assert res.best_partition == Partition([0, 0, 0, 1, 1, 1])
        assert res.partitions_examined == BELL[6]

    def test_triangle_prefers_whole_set(self, triangle):
        res = best_partition(triangle, 1)
        assert res.best_q == pytest.approx(0.0, abs=1e-12)
        assert res.best_partition == Partition([0, 0, 0])
        assert res.partitions_examined == 5

    def test_two_disjoint_triangles(self, two_triangles):
        res = best_partition(two_triangles, 1)
        assert res.best_q == pytest.approx(0.5, abs=1e-12)
        assert res.best_partition == Partition([0, 0, 0, 1, 1, 1])

    def test_optimum_dominates_random_partitions(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 7))
            res = best_partition(g, 1)
            for _ in range(30):
                p = random_partition(rng, g.n)
                assert modularity(g, p, 1.0) <= res.best_q + 1e-12

    def test_optimum_is_merge_stable(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7))
            t = rng.choice((Fraction(7, 10), Fraction(1)))
            res = best_partition(g, t)
            ok, _ = is_merge_stable(g, res.best_partition, t)
            assert ok

    def test_exact_tie_keeps_first_maximizer(self):
        """[0,0,0,1] and [0,1,0,0] both score exactly -73/260; a float
        comparison picks the later one.  The score is returned exactly."""
        g = Graph.from_edge_list([(0, 2, 7), (1, 2, 1), (2, 3, 5)])
        res = best_partition(g, Fraction(13, 10))
        assert res.best_partition == Partition([0, 0, 0, 1])
        assert res.best_q == Fraction(-73, 260)

    def test_exact_score_beyond_float_range(self):
        g = complete_binary_tree(2)
        res = best_partition(g, 10**400)
        assert res.best_q == modularity(g, res.best_partition, 10**400)

    def test_first_exact_maximizer_of_modularity(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7))
            t = rng.choice((Fraction(7, 10), Fraction(1), Fraction(13, 10)))
            best = max(set_partitions(g.n), key=lambda a: modularity(g, Partition(a), t))
            assert best_partition(g, t).best_partition == Partition(best)

    def test_size_limit(self):
        g = random_graph(random.Random(7), 13)
        with pytest.raises(SizeLimitError):
            best_partition(g, 1)

    def test_result_repr_and_immutability(self):
        g = Graph.from_edge_list([(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 2)])
        res = best_partition(g, 1)
        assert repr(res) == ("OracleResult(best_q=Fraction(23, 72), best_partition="
                             "Partition(5 vertices, 2 blocks), partitions_examined=52)")
        with pytest.raises(AttributeError):
            res.best_q = 0


class TestCoarseningOptimal:
    def test_whole_set_trivially_optimal(self, triangle):
        assert is_coarsening_optimal(triangle, Partition([0, 0, 0]), 1)

    def test_triangle_singletons_not_optimal(self, triangle):
        assert not is_coarsening_optimal(triangle, singleton_partition(triangle), 1)

    def test_matches_stability_certificate(self):
        """Exhaustive coarsening comparison agrees with the pairwise check."""
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            t = rng.choice((Fraction(7, 10), Fraction(1), Fraction(13, 10)))
            ok, _ = is_merge_stable(g, p, t)
            assert ok == is_coarsening_optimal(g, p, t)

    def test_size_limit(self):
        g = random_graph(random.Random(13), 13)
        with pytest.raises(SizeLimitError):
            is_coarsening_optimal(g, singleton_partition(g), 1)


class TestEngineAgainstOracle:
    def test_engine_never_beats_oracle_and_is_coarsening_optimal(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            part, _ = detect_communities(g, 1)
            assert is_coarsening_optimal(g, part, 1)
            res = best_partition(g, 1)
            assert float(modularity(g, part, 1.0)) <= res.best_q + 1e-12
