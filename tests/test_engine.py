"""The resolution-sweep engine: merges, sweeps, traces, and contracts."""

import random
from fractions import Fraction

import pytest

from modsweep import (
    Graph,
    IllegalStateError,
    Partition,
    SweepEngine,
    compose,
    connected_components,
    detect_communities,
    format_trace_csv,
    is_merge_stable,
    modularity,
    quotient,
    refine_connected,
    refines,
    resolution,
    singleton_partition,
)

from conftest import TWO_TRIANGLES_EDGES, random_graph


class TestResolution:
    def test_triangle_singletons(self, triangle):
        assert SweepEngine(triangle).resolution() == Fraction(3, 2)

    def test_whole_set_after_collapse(self, triangle):
        eng = SweepEngine(triangle)
        eng.merge_step()
        eng.merge_step()
        assert eng.community_count == 1
        assert eng.resolution() == 0

    def test_component_partition_is_zero(self, two_triangles):
        eng = SweepEngine(two_triangles)
        while eng.resolution() > 0:
            eng.merge_step()
        assert eng.community_count == 2
        assert eng.resolution() == 0

    def test_matches_partition_resolution_throughout(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12))
            eng = SweepEngine(g)
            while True:
                assert eng.resolution() == resolution(g, eng.partition())
                if eng.resolution() == 0:
                    break
                eng.merge_step()


class TestMergeStep:
    def test_score_conserved_exactly(self, triangle):
        eng = SweepEngine(triangle)
        t = eng.resolution()
        assert t == Fraction(3, 2)
        before = eng.q_at(t)
        assert before == Fraction(-1, 2)
        pair = eng.merge_step()
        assert pair == (0, 1)  # smallest pair wins the tie-break
        assert eng.q_at(t) == before

    def test_triangle_symmetry_keeps_pair_in_zero_set(self, triangle):
        eng = SweepEngine(triangle)
        eng.merge_step()
        # the merged pair {0,1} against {2} still sits at ratio 3/2
        assert eng.resolution() == Fraction(3, 2)
        assert eng.zero_pairs() == [(0, 2)]

    def test_alpha_increment(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 12), connected=True)
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                pair = min(eng.zero_pairs())
                da = Fraction(eng.deg[pair[0]], g.z)
                db = Fraction(eng.deg[pair[1]], g.z)
                alpha_before = eng.alpha()
                assert eng.merge_step() == pair
                assert eng.alpha() == alpha_before + 2 * da * db
                assert eng.alpha() > alpha_before

    def test_zero_set_strictly_shrinks(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 10), connected=True)
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                t = eng.resolution()
                size_before = len(eng.zero_pairs(t))
                assert size_before > 0
                eng.merge_step()
                assert len(eng.zero_pairs(t)) < size_before

    def test_score_conserved_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 10))
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                t = eng.resolution()
                before = eng.q_at(t)
                eng.merge_step()
                assert eng.q_at(t) == before
                assert eng.community_count == len(eng.partition())

    def test_illegal_when_nothing_to_merge(self, triangle):
        eng = SweepEngine(triangle)
        eng.merge_step()
        eng.merge_step()
        with pytest.raises(IllegalStateError):
            eng.merge_step()


class TestResolutionSweep:
    def test_triangle_collapses_in_one_sweep(self, triangle):
        eng = SweepEngine(triangle)
        rec = eng.resolution_sweep()
        assert eng.community_count == 1
        assert rec.t == 0.0
        assert rec.k == 1

    def test_barbell_first_sweep_at_seven_halves(self, barbell):
        eng = SweepEngine(barbell)
        assert eng.resolution() == Fraction(7, 2)
        rec = eng.resolution_sweep()
        assert rec.t_exact == Fraction(7, 3)
        assert eng.community_count == 4

    def test_resolution_strictly_drops(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12))
            eng = SweepEngine(g)
            last = eng.resolution()
            while eng.resolution() > 0:
                eng.resolution_sweep()
                now = eng.resolution()
                assert now < last
                last = now

    def test_score_update_across_resolutions(self):
        """Score at the new resolution equals old score plus alpha times the drop."""
        rng = random.Random(19)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 12), connected=True)
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                t_old = eng.resolution()
                q_old = eng.q_at(t_old)
                eng.resolution_sweep()
                t_new = eng.resolution()
                if t_new == 0:
                    break
                assert eng.q_at(t_new) == q_old + eng.alpha() * (t_old - t_new)
                # float sanity at the documented tolerance
                assert float(eng.q_at(t_new)) == pytest.approx(
                    float(q_old) + float(eng.alpha()) * float(t_old - t_new), abs=1e-12
                )

    def test_score_strictly_improves_below_the_sweep(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 12), connected=True)
            eng = SweepEngine(g)
            s = Fraction(1, 100)  # far below any live resolution
            while eng.resolution() > s:
                before = eng.q_at(s)
                eng.resolution_sweep()
                assert eng.q_at(s) > before


class TestDetect:
    def test_two_disjoint_triangles(self, two_triangles):
        part, trace = detect_communities(two_triangles, 1)
        assert part.block_sets() == frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5})})
        assert modularity(two_triangles, part, Fraction(1)) == Fraction(1, 2)

    def test_returns_singletons_when_resolution_already_low(self):
        g = Graph.from_edge_list(TWO_TRIANGLES_EDGES)
        part, trace = detect_communities(g, 100)
        assert part == singleton_partition(g)
        assert len(trace) == 1

    def test_output_always_stable(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 14))
            t_min = rng.choice((Fraction(7, 10), Fraction(1), Fraction(13, 10)))
            part, _ = detect_communities(g, t_min)
            ok, witness = is_merge_stable(g, part, t_min)
            assert ok, witness

    def test_never_merges_across_components(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 12), p=0.15)
            part, _ = detect_communities(g, Fraction(1, 2))
            assert refines(connected_components(g), part)

    def test_output_is_internally_connected(self):
        rng = random.Random(37)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 12))
            part, _ = detect_communities(g, 1)
            assert refine_connected(g, part) == part

    def test_trace_monotonicity(self, karate):
        g, _ = karate
        part, trace = detect_communities(g, 1)
        for a, b in zip(trace, trace[1:]):
            assert b.t_exact < a.t_exact
            assert b.k < a.k
            assert b.alpha > a.alpha

    def test_trace_chords_match_alpha(self):
        """Consecutive score differences divided by the resolution drop equal
        the next snapshot's alpha, so the score curve is convex in t."""
        rng = random.Random(41)
        for _ in range(15):
            g = random_graph(rng, rng.randint(4, 14), connected=True)
            eng = SweepEngine(g)
            eng.record_trace()
            while eng.resolution() > 0:
                eng.resolution_sweep()
            tr = eng.trace
            slopes = []
            for a, b in zip(tr, tr[1:]):
                drop = a.t_exact - b.t_exact
                assert drop > 0
                slope = (Fraction(b.q_t) - Fraction(a.q_t)) / drop
                slopes.append(float(slope))
                assert float(slope) == pytest.approx(b.alpha, abs=1e-9)
            # alpha grows, so the slope of q against falling t steepens: convexity
            assert all(x < y for x, y in zip(slopes, slopes[1:]))

    def test_rejects_nonpositive_t_min(self, triangle):
        with pytest.raises(ValueError):
            detect_communities(triangle, 0)

    def test_float_t_min_means_its_decimal(self, karate):
        """Karate reaches t = 13/5 exactly; the binary value of 2.6 lies just
        above it, so only the decimal reading sweeps that resolution."""
        g, _ = karate
        for t, exact in ((0.7, Fraction(7, 10)), (2.6, Fraction(13, 5))):
            part_f, trace_f = detect_communities(g, t)
            part_q, trace_q = detect_communities(g, exact)
            assert part_f == part_q
            assert [r.t_exact for r in trace_f] == [r.t_exact for r in trace_q]

    def test_certificate_reads_the_input_graph(self, karate, monkeypatch):
        """A partition the engine's bookkeeping did not produce is caught."""
        g, _ = karate
        monkeypatch.setattr(SweepEngine, "partition", lambda self: Partition(range(self.n)))
        with pytest.raises(IllegalStateError):
            detect_communities(g, 1)

    def test_single_vertex_with_loop(self):
        g = Graph([{0: 2}])
        part, trace = detect_communities(g, 1)
        assert len(part) == 1
        assert trace[0].t == 0.0


class TestExactTieHandling:
    def test_float_key_collision_resolved_exactly(self):
        """Two pair ratios that round to the same float but differ exactly:
        the engine must treat only the true maximum as mergeable."""
        b = 2 ** 53
        a = b + 1
        g = Graph.from_edge_list([(0, 1, a), (2, 3, b)])
        z = g.z
        # premise: the float images collide, the exact ratios do not
        assert (z * a) / (a * a) == (z * b) / (b * b)
        assert Fraction(z, a) != Fraction(z, b)
        eng = SweepEngine(g)
        assert eng.resolution() == Fraction(z, b)
        assert eng.zero_pairs() == [(2, 3)]
        # despite (0, 1) being lexicographically first with an equal float
        # key, the exact maximum pair merges first
        assert eng.merge_step() == (2, 3)
        assert eng.resolution() == Fraction(z, a)
        assert eng.merge_step() == (0, 1)
        assert eng.resolution() == 0


class TestQuotientRestart:
    def test_restarting_from_quotient_is_equivalent(self):
        """Collapsing the live state to its quotient graph and resuming
        produces the same final partition and the same resolution tail."""
        rng = random.Random(43)
        for _ in range(15):
            g = random_graph(rng, rng.randint(6, 30), connected=True)
            full, _ = detect_communities(g, Fraction(1, 3))

            eng = SweepEngine(g)
            eng.record_trace()
            sweeps = rng.randint(1, 3)
            for _ in range(sweeps):
                if eng.resolution() >= Fraction(1, 3):
                    eng.resolution_sweep()
            mid = eng.partition()
            tail_a = []
            eng2 = SweepEngine(quotient(g, mid))
            while eng2.resolution() >= Fraction(1, 3):
                rec = eng2.resolution_sweep()
                tail_a.append((rec.t_exact, rec.k))
            composed = compose(mid, eng2.partition())
            assert composed.block_sets() == full.block_sets()

    def test_quotient_scores_agree(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 12))
            part, _ = detect_communities(g, 1)
            q = quotient(g, part)
            t = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            assert modularity(q, singleton_partition(q), t) == modularity(g, part, t)


class TestTraceCsv:
    def test_columns_and_digits(self, barbell):
        _, trace = detect_communities(barbell, 1)
        text = format_trace_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "step,t,k,q_t,q_1,alpha"
        assert len(lines) == len(trace) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "6"
