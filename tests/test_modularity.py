"""Block aggregates, scores, complements, merge gains, stability
certificates, and bounds."""

import hashlib
import random
from fractions import Fraction

import pytest

from modsweep import (
    CommunityAggregates,
    Graph,
    Partition,
    best_partition,
    bounds_report,
    complete_binary_tree,
    compose,
    detect_communities,
    is_coarsening_optimal,
    is_merge_stable,
    merge_gain,
    modularity,
    modularity_complement,
    resolution,
    singleton_partition,
    tree_core_partition,
)

from conftest import blocks, random_graph, random_partition


@pytest.fixture
def tri_singletons(triangle):
    return CommunityAggregates.from_partition(triangle, singleton_partition(triangle))


@pytest.fixture
def barbell_blocks(barbell):
    return CommunityAggregates.from_partition(barbell, Partition([0, 0, 0, 1, 1, 1]))


def test_community_id_is_an_int_in_range(barbell_blocks):
    """A block id is an int in 0..k-1; a bool or a float equal to one is
    not, so no accessor reads block 1 for ``True`` or fails on ``1.0``
    with a bare TypeError."""
    agg = barbell_blocks
    pair_reads = (agg.cross_weight, agg.edge_fraction, agg.expected_fraction,
                  lambda a, b: agg.excess(a, b, 1))
    for bad in (True, 1.0, -1, agg.k):
        for read, args in ([(f, (bad, 0)) for f in pair_reads] + [(f, (0, bad)) for f in pair_reads]
                           + [(agg.boundary_fraction, (bad,)), (agg.degree_fraction, (bad,))]):
            with pytest.raises(ValueError, match=f"^unknown community id {bad!r}$"):
                read(*args)


class TestEdgeFraction:
    def test_triangle_pair(self, tri_singletons):
        assert tri_singletons.edge_fraction(0, 1) == Fraction(1, 6)

    def test_whole_diagonal_is_total_mass(self, triangle):
        agg = CommunityAggregates.from_partition(triangle, Partition([0, 0, 0]))
        assert agg.edge_fraction(0, 0) == 1

    def test_barbell_cross(self, barbell_blocks):
        assert barbell_blocks.edge_fraction(0, 1) == Fraction(1, 14)

    def test_unknown_community(self, tri_singletons):
        with pytest.raises(ValueError):
            tri_singletons.edge_fraction(0, 99)


class TestExpectedFraction:
    def test_triangle_pair(self, tri_singletons):
        assert tri_singletons.expected_fraction(0, 1) == Fraction(1, 9)

    def test_barbell_diagonal(self, barbell_blocks):
        assert barbell_blocks.expected_fraction(0, 0) == Fraction(1, 4)

    def test_total_mass_is_one(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            agg = CommunityAggregates.from_partition(g, random_partition(rng, n))
            total = sum(
                agg.expected_fraction(a, b)
                for a in range(agg.k) for b in range(agg.k)
            )
            assert total == 1


class TestExcess:
    def test_triangle_pair_positive(self, tri_singletons):
        assert tri_singletons.excess(0, 1, 1) == Fraction(1, 18)

    def test_zero_at_own_ratio(self, barbell_blocks):
        t = Fraction(barbell_blocks.edge_fraction(0, 1), barbell_blocks.expected_fraction(0, 1))
        assert barbell_blocks.excess(0, 1, t) == 0

    def test_barbell_cross_negative(self, barbell_blocks):
        assert barbell_blocks.excess(0, 1, 1) == Fraction(1, 14) - Fraction(1, 4)

    def test_rejects_nonpositive_t(self, tri_singletons):
        with pytest.raises(ValueError):
            tri_singletons.excess(0, 1, 0)


class TestBoundaryFraction:
    def test_whole_set(self, triangle):
        agg = CommunityAggregates.from_partition(triangle, Partition([0, 0, 0]))
        assert agg.boundary_fraction(0) == 0

    def test_barbell_block(self, barbell_blocks):
        assert barbell_blocks.boundary_fraction(0) == Fraction(1, 14)

    def test_triangle_singleton(self, tri_singletons):
        assert tri_singletons.boundary_fraction(0) == Fraction(2, 6)


class TestAggregateInvariants:
    def test_totals_and_marginals(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 12)
            g = random_graph(rng, n)
            agg = CommunityAggregates.from_partition(g, random_partition(rng, n))
            assert sum(agg.block_degree) == agg.z
            cross_total = 2 * sum(w for _, _, w in agg.pairs())
            assert sum(agg.internal) + cross_total == agg.z
            for c in range(agg.k):
                others = sum(agg.cross_weight(c, d) for d in range(agg.k) if d != c)
                assert agg.block_degree[c] == agg.internal[c] + others

    def test_diagonal_plus_offdiagonal_marginal(self):
        """excess(C, C, t) + excess(C, rest, t) == (1 - t) * degree_fraction(C)."""
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            agg = CommunityAggregates.from_partition(g, random_partition(rng, n))
            t = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            for c in range(agg.k):
                off = sum(agg.excess(c, d, t) for d in range(agg.k) if d != c)
                assert agg.excess(c, c, t) + off == (1 - t) * agg.degree_fraction(c)

    def test_degree_split_and_rho_chain(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            agg = CommunityAggregates.from_partition(g, random_partition(rng, n))
            for c in range(agg.k):
                rho = agg.boundary_fraction(c)
                m_e = agg.edge_fraction(c, c)
                assert agg.degree_fraction(c) == m_e + rho
                assert m_e + rho <= m_e + 2 * rho <= 1

    def test_per_set_bounds(self):
        """The four diagonal bounds, plus the lower bound for t <= 1."""
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            agg = CommunityAggregates.from_partition(g, random_partition(rng, n))
            t = Fraction(rng.randint(1, 20), rng.randint(10, 20))
            for c in range(agg.k):
                m_e = agg.edge_fraction(c, c)
                m_v = agg.degree_fraction(c)
                rho = agg.boundary_fraction(c)
                mu = agg.excess(c, c, t)
                assert mu == m_e * (1 - t * (m_e + 2 * rho)) - t * rho * rho
                assert mu <= m_e * (1 - t * m_v)
                assert mu <= m_e * (1 - 2 * t * rho)
                if t <= 1:
                    assert mu >= -t * rho * rho


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


class TestNetworkxCrossCheck:
    """Optional: networkx's modularity under the same loop convention (a
    loop line of weight w is one networkx self-loop of weight w)."""

    @staticmethod
    def nx_modularity(nx, g, part, t):
        G = nx.Graph()
        G.add_weighted_edges_from((u, v, w // 2 if u == v else w) for u, v, w in g.edges())
        return nx.community.modularity(G, [set(b) for b in blocks(part)], resolution=t)

    @pytest.mark.parametrize("t", [Fraction(1), Fraction(3, 2)])
    def test_karate(self, karate, t):
        nx = pytest.importorskip("networkx")
        g, _ = karate
        rng = random.Random(29)
        parts = [detect_communities(g, t)[0], singleton_partition(g)]
        parts += [random_partition(rng, g.n) for _ in range(5)]
        for p in parts:
            assert float(modularity(g, p, t)) == pytest.approx(
                self.nx_modularity(nx, g, p, float(t)), abs=1e-12)

    def test_random_weighted_graphs_with_loops(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 12), max_w=9)
            p = random_partition(rng, g.n)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            assert float(modularity(g, p, t)) == pytest.approx(
                self.nx_modularity(nx, g, p, float(t)), abs=1e-12)


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

    def test_witness_is_least_positive_pair(self):
        """The witness is the lexicographically least block pair with
        positive excess, and ``resolution`` the largest observed/expected
        ratio, both against block sums taken straight from the edges."""
        rng = random.Random(37)
        several = 0
        for _ in range(200):
            n = rng.randint(2, 12)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            bd = [0] * len(p)
            for v, d in enumerate(g.deg):
                bd[p.assign[v]] += d
            cross: dict[tuple[int, int], int] = {}
            for u, v, w in g.edges():
                a, b = sorted((p.assign[u], p.assign[v]))
                if a != b:
                    cross[a, b] = cross.get((a, b), 0) + w
            ratios = [Fraction(g.z * w, bd[a] * bd[b]) for (a, b), w in cross.items()]
            assert resolution(g, p) == max(ratios, default=0)
            for t in (Fraction(1, 3), Fraction(1), Fraction(2)):
                positive = sorted(pair for pair, w in cross.items()
                                  if g.z * w > t * bd[pair[0]] * bd[pair[1]])
                ok, witness = is_merge_stable(g, p, t)
                assert (ok, witness) == (not positive, positive[0] if positive else None)
                several += len(positive) > 1
        assert several > 100

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
        assert rep.max_blocks == 14
        assert rep.k == 2 < rep.max_blocks
        assert rep.q_t == Fraction(5, 14)

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

    def test_exact_beyond_float_range(self):
        """The report holds exact values at a resolution beyond the float
        range; only rendering it rounds, and that overflows."""
        g, p, t = complete_binary_tree(3), tree_core_partition(3), 10**400
        rep = bounds_report(g, p, t)
        assert rep.q_t == modularity(g, p, t)
        assert rep.stable and rep.all_pass
        assert rep.max_blocks == Fraction(t * g.z, rep.min_cut_value)
        rows = {row.name: row for row in rep.checks}
        assert rows["q_upper_fixed_k"].lhs == rep.q_t
        assert rows["q_upper_fixed_k"].rhs == 1 - Fraction(t, rep.k)
        with pytest.raises(OverflowError):
            rep.render()

    def test_disconnected_skips_cut_rows(self, two_triangles):
        rep = bounds_report(two_triangles, Partition([0, 0, 0, 1, 1, 1]), 1)
        names = {row.name: row for row in rep.checks}
        assert names["cut_window"].passed is None
        assert names["block_count_bound"].passed is None
        assert rep.all_pass  # skipped rows do not fail the report

    def test_certificate_matches_is_merge_stable(self):
        """The report's verdict, witness and ``merge_stable`` row are those
        of ``is_merge_stable`` on the same input."""
        rng = random.Random(43)
        unstable = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12))
            p = random_partition(rng, g.n)
            for t in (Fraction(1, 3), 1, 2):
                stable, witness = is_merge_stable(g, p, t)
                rep = bounds_report(g, p, t)
                row = next(row for row in rep.checks if row.name == "merge_stable")
                assert (rep.stable, rep.witness) == (stable, witness)
                assert row.passed == stable
                assert row.note == ("" if stable else f"witness pair {witness}")
                unstable += not stable
        assert 0 < unstable < 600

    def test_render_contains_verdict_rows(self, barbell):
        text = bounds_report(barbell, Partition([0, 0, 0, 1, 1, 1]), 1).render()
        assert "merge_stable PASS" in text
        assert "q_stability_floor PASS" in text

    def test_repr_is_pinned(self, karate):
        """The report's ``repr`` keeps its fields, their order and its text:
        sha256 on karate's t = 1 sweep output and on a seeded connected
        400-vertex planted graph's."""
        rng = random.Random(71)
        n = 400
        block = [rng.randrange(12) for _ in range(n)]
        edges = [(v, (v + 1) % n, 1) for v in range(n)]
        edges += [(u, v, rng.randint(1, 4)) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < (0.1 if block[u] == block[v] else 0.004)]
        digests = []
        for g in (karate[0], Graph.from_edge_list(edges)):
            part, _ = detect_communities(g, 1)
            digests.append(hashlib.sha256(repr(bounds_report(g, part, 1)).encode()).hexdigest())
        assert digests == [
            "82ae0aec6fd2b966695ac3c44cdd1d81cd2b0adf53ff4c2e45601f5bb2a99695",
            "59ae166ef19d753c0fd3a7d81e7a69398748420f7ad6f6c327196457439fdb87",
        ]

    def test_records_are_immutable(self, barbell):
        rep = bounds_report(barbell, Partition([0, 0, 0, 1, 1, 1]), 1)
        for record, name in ((rep, "k"), (rep.checks[0], "passed"), (rep.scaling[0], "passed")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
