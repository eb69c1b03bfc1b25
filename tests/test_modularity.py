"""Scores, complements, merge gains, stability certificates, and bounds."""

import random
from fractions import Fraction

import pytest

from modsweep import (
    CommunityAggregates,
    Partition,
    best_partition,
    bounds_report,
    compose,
    is_coarsening_optimal,
    is_merge_stable,
    merge_gain,
    modularity,
    modularity_complement,
    resolution,
    singleton_partition,
)

from conftest import random_graph, random_partition


class TestModularity:
    def test_whole_set_is_one_minus_t(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 8))
            p = Partition([0] * g.n)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            assert modularity(g, p, t) == 1 - t

    def test_triangle_singletons(self, triangle):
        assert modularity(triangle, singleton_partition(triangle), Fraction(1)) == Fraction(-1, 3)

    def test_barbell_two_blocks_is_optimal(self, barbell):
        p = Partition([0, 0, 0, 1, 1, 1])
        q = modularity(barbell, p, Fraction(1))
        assert q == Fraction(5, 14)
        oracle = best_partition(barbell, 1)
        assert oracle.best_q == pytest.approx(float(q), abs=1e-12)
        assert oracle.best_partition == p

    def test_float_matches_exact(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 10))
            p = random_partition(rng, g.n)
            exact = modularity(g, p, Fraction(7, 10))
            assert modularity(g, p, 0.7) == exact

    def test_rejects_nonpositive_t(self, triangle):
        p = singleton_partition(triangle)
        with pytest.raises(ValueError):
            modularity(triangle, p, 0.0)
        with pytest.raises(ValueError):
            modularity(triangle, p, Fraction(-1))


class TestComplement:
    def test_whole_set_is_zero(self, barbell):
        assert modularity_complement(barbell, Partition([0] * 6), Fraction(1)) == 0

    def test_triangle_singletons(self, triangle):
        p = singleton_partition(triangle)
        assert modularity_complement(triangle, p, Fraction(1)) == Fraction(1, 3)

    def test_sum_rule_and_direct_offdiagonal(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10))
            p = random_partition(rng, g.n)
            t = Fraction(rng.randint(1, 12), rng.randint(1, 8))
            comp = modularity_complement(g, p, t)
            assert modularity(g, p, t) + comp == 1 - t
            agg = CommunityAggregates.from_partition(g, p)
            direct = sum(
                agg.excess(a, b, t)
                for a in range(agg.k) for b in range(agg.k) if a != b
            )
            assert comp == direct


class TestMergeGain:
    def test_triangle_pair(self, triangle):
        agg = CommunityAggregates.from_partition(triangle, singleton_partition(triangle))
        assert merge_gain(agg, 0, 1, Fraction(1)) == Fraction(1, 9)

    def test_no_edge_pair_is_negative(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 9))
            p = random_partition(rng, g.n)
            agg = CommunityAggregates.from_partition(g, p)
            t = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            for a in range(agg.k):
                for b in range(a + 1, agg.k):
                    if agg.cross_weight(a, b) == 0:
                        gain = merge_gain(agg, a, b, t)
                        assert gain == -2 * t * agg.expected_fraction(a, b)
                        assert gain < 0

    def test_barbell_consistency(self, barbell):
        p = Partition([0, 0, 0, 1, 1, 1])
        agg = CommunityAggregates.from_partition(barbell, p)
        gain = merge_gain(agg, 0, 1, Fraction(1))
        assert gain == -Fraction(5, 14)
        assert modularity(barbell, p, Fraction(1)) + gain == modularity(
            barbell, Partition([0] * 6), Fraction(1)
        )

    def test_matches_score_difference_exactly(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            if len(p) < 2:
                continue
            a, b = sorted(rng.sample(range(len(p)), 2))
            t = Fraction(rng.randint(1, 12), rng.randint(1, 8))
            agg = CommunityAggregates.from_partition(g, p)
            merged = compose(p, Partition([a if c == b else c for c in range(len(p))]))
            assert modularity(g, merged, t) - modularity(g, p, t) == merge_gain(agg, a, b, t)
            tf = float(t)
            got = merge_gain(agg, a, b, tf)
            want = modularity(g, merged, tf) - modularity(g, p, tf)
            assert got == pytest.approx(want, abs=1e-12)

    def test_self_merge_rejected(self, triangle):
        agg = CommunityAggregates.from_partition(triangle, singleton_partition(triangle))
        with pytest.raises(ValueError):
            merge_gain(agg, 1, 1, 1)


class TestMergeStable:
    def test_barbell_blocks_stable(self, barbell):
        ok, witness = is_merge_stable(barbell, Partition([0, 0, 0, 1, 1, 1]), 1)
        assert ok and witness is None

    def test_triangle_singletons_unstable(self, triangle):
        ok, witness = is_merge_stable(triangle, singleton_partition(triangle), 1)
        assert not ok
        assert witness is not None

    def test_stable_at_own_resolution(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 10))
            p = random_partition(rng, g.n)
            r = resolution(g, p)
            t = r if r > 0 else Fraction(1)
            ok, _ = is_merge_stable(g, p, t)
            assert ok
            # equivalence: stable exactly when t >= resolution
            smaller = t / 2
            if r > 0:
                ok2, _ = is_merge_stable(g, p, smaller)
                assert ok2 == (smaller >= r)

    def test_agrees_with_exhaustive_coarsening(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(150):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            t = rng.choice((Fraction(7, 10), Fraction(1), Fraction(13, 10)))
            ok, _ = is_merge_stable(g, p, t)
            assert ok == is_coarsening_optimal(g, p, t)
            checked += 1
        assert checked == 150

    def test_stable_implies_nonnegative_diagonal(self):
        """At t <= 1 every block of a stable partition has nonnegative excess."""
        rng = random.Random(23)
        found = 0
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            t = Fraction(rng.randint(1, 10), 10)
            ok, _ = is_merge_stable(g, p, t)
            if not ok:
                continue
            found += 1
            agg = CommunityAggregates.from_partition(g, p)
            for c in range(agg.k):
                assert agg.excess(c, c, t) >= 0
        assert found > 20


class TestResolution:
    def test_triangle_singletons(self, triangle):
        assert resolution(triangle, singleton_partition(triangle)) == Fraction(3, 2)

    def test_whole_set_is_zero(self, triangle):
        assert resolution(triangle, Partition([0, 0, 0])) == 0

    def test_component_partition_is_zero(self, two_triangles):
        assert resolution(two_triangles, Partition([0, 0, 0, 1, 1, 1])) == 0

    def test_monotone_under_coarsening(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            grouped = compose(p, random_partition(rng, len(p)))
            assert resolution(g, grouped) <= resolution(g, p)
            assert resolution(g, p) <= resolution(g, singleton_partition(g))


class TestBoundsReport:
    def test_barbell_report(self, barbell):
        rep = bounds_report(barbell, Partition([0, 0, 0, 1, 1, 1]), 1)
        assert rep.all_pass
        assert rep.stable
        assert rep.min_cut_value == 1
        assert rep.max_blocks == pytest.approx(14.0)
        assert rep.k == 2 < rep.max_blocks
        assert rep.q_t == pytest.approx(5 / 14)

    def test_floor_for_stable_partitions(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 9))
            p = random_partition(rng, g.n)
            t = Fraction(rng.randint(1, 10), 10)
            ok, _ = is_merge_stable(g, p, t)
            if ok:
                assert modularity(g, p, t) >= 1 - t >= 0

    def test_fixed_k_bound_always(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10))
            p = random_partition(rng, g.n)
            t = Fraction(rng.randint(1, 15), rng.randint(1, 6))
            assert modularity(g, p, t) <= 1 - t / len(p)

    def test_unconditional_rows_pass_on_random_inputs(self):
        # arbitrary partitions are usually not merge-stable, so that row may
        # fail by design; every inequality row must still hold
        rng = random.Random(41)
        stable_seen = False
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), connected=True, loops=False)
            p = random_partition(rng, g.n)
            t = Fraction(rng.randint(1, 15), 10)
            rep = bounds_report(g, p, t)
            for row in rep.checks:
                if row.name != "merge_stable":
                    assert row.passed is not False, rep.render()
            if rep.stable:
                stable_seen = True
                assert rep.all_pass, rep.render()
        assert stable_seen

    def test_disconnected_skips_cut_rows(self, two_triangles):
        rep = bounds_report(two_triangles, Partition([0, 0, 0, 1, 1, 1]), 1)
        names = {row.name: row for row in rep.checks}
        assert names["cut_window"].passed is None
        assert names["block_count_bound"].passed is None
        assert rep.all_pass  # skipped rows do not fail the report

    def test_render_contains_verdict_rows(self, barbell):
        text = bounds_report(barbell, Partition([0, 0, 0, 1, 1, 1]), 1).render()
        assert "merge_stable PASS" in text
        assert "q_stability_floor PASS" in text
