"""The resolution-sweep engine: merges, sweeps, traces, and contracts."""

import copy
import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modsweep import (
    CommunityAggregates,
    Graph,
    IllegalStateError,
    Partition,
    SweepEngine,
    complete_binary_tree,
    compose,
    connected_components,
    detect_communities,
    format_trace_csv,
    is_merge_stable,
    load_edge_list,
    modularity,
    quotient,
    refine_connected,
    refines,
    resolution,
    singleton_partition,
)
from modsweep.engine import _key
from modsweep.rational import positive_fraction, rounded

from conftest import (
    TWO_TRIANGLES_EDGES,
    full_sweep,
    random_graph,
    relabelled,
    windmill_edges,
    windmill_labels,
    zero_pairs,
)


class TestResolution:
    def test_triangle_singletons(self, triangle):
        assert SweepEngine(triangle).resolution() == Fraction(3, 2)

    def test_whole_set_after_collapse(self, triangle):
        eng = SweepEngine(triangle)
        eng.merge_step()
        eng.merge_step()
        assert len(eng.partition()) == 1
        assert eng.resolution() == 0

    def test_component_partition_is_zero(self, two_triangles):
        eng = SweepEngine(two_triangles)
        while eng.resolution() > 0:
            eng.merge_step()
        assert len(eng.partition()) == 2
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

    @pytest.mark.parametrize("call", ["resolution", "merge_step", "resolution_sweep",
                                      "record_trace"])
    def test_pair_above_the_last_resolution_is_illegal(self, karate, call):
        """The resolution never rises; a live pair whose ratio exceeds the
        one last read means corrupted bookkeeping, and every call that reads
        the resolution raises rather than sweeping on."""
        eng = SweepEngine(karate[0])
        eng.resolution()
        eng._t_num, eng._t_den = 1, 10**6
        with pytest.raises(IllegalStateError, match="exceeded the current resolution"):
            getattr(eng, call)()


class TestMergeStep:
    def test_score_conserved_exactly(self, triangle):
        eng = SweepEngine(triangle)
        t = eng.resolution()
        assert t == Fraction(3, 2)
        before = modularity(triangle, eng.partition(), t)
        assert before == Fraction(-1, 2)
        pair = eng.merge_step()
        assert pair == (0, 1)  # smallest pair wins the tie-break
        assert modularity(triangle, eng.partition(), t) == before

    def test_triangle_symmetry_keeps_pair_in_zero_set(self, triangle):
        eng = SweepEngine(triangle)
        eng.merge_step()
        # the merged pair {0,1} against {2} still sits at ratio 3/2
        assert eng.resolution() == Fraction(3, 2)
        assert zero_pairs(triangle, eng.partition(), eng.resolution()) == [(0, 2)]

    def test_alpha_increment(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 12), connected=True)
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                pair = min(zero_pairs(g, eng.partition(), eng.resolution()))
                da = Fraction(eng.deg[pair[0]], g.z)
                db = Fraction(eng.deg[pair[1]], g.z)
                alpha_before = CommunityAggregates.from_partition(g, eng.partition()).alpha()
                assert eng.merge_step() == pair
                alpha = CommunityAggregates.from_partition(g, eng.partition()).alpha()
                assert alpha == alpha_before + 2 * da * db
                assert alpha > alpha_before

    def test_zero_set_strictly_shrinks(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 10), connected=True)
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                t = eng.resolution()
                size_before = len(zero_pairs(g, eng.partition(), t))
                assert size_before > 0
                eng.merge_step()
                assert len(zero_pairs(g, eng.partition(), t)) < size_before

    def test_score_conserved_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 10))
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                t = eng.resolution()
                before = modularity(g, eng.partition(), t)
                eng.merge_step()
                assert modularity(g, eng.partition(), t) == before
                assert eng.n - eng.merges == len(eng.partition())

    def test_illegal_when_nothing_to_merge(self, triangle):
        eng = SweepEngine(triangle)
        eng.merge_step()
        eng.merge_step()
        with pytest.raises(IllegalStateError):
            eng.merge_step()
        with pytest.raises(IllegalStateError):
            eng.resolution_sweep()


class TestResolutionSweep:
    def test_triangle_collapses_in_one_sweep(self, triangle):
        eng = SweepEngine(triangle)
        rec = eng.resolution_sweep()
        assert len(eng.partition()) == 1
        assert rec.t == 0.0
        assert rec.k == 1

    def test_barbell_first_sweep_at_seven_halves(self, barbell):
        eng = SweepEngine(barbell)
        assert eng.resolution() == Fraction(7, 2)
        rec = eng.resolution_sweep()
        assert rec.t_exact == Fraction(7, 3)
        assert len(eng.partition()) == 4

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
                q_old = modularity(g, eng.partition(), t_old)
                eng.resolution_sweep()
                t_new = eng.resolution()
                if t_new == 0:
                    break
                q_new = modularity(g, eng.partition(), t_new)
                alpha = CommunityAggregates.from_partition(g, eng.partition()).alpha()
                assert q_new == q_old + alpha * (t_old - t_new)
                # float sanity at the documented tolerance
                assert float(q_new) == pytest.approx(
                    float(q_old) + float(alpha) * float(t_old - t_new), abs=1e-12
                )

    def test_score_strictly_improves_below_the_sweep(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 12), connected=True)
            eng = SweepEngine(g)
            s = Fraction(1, 100)  # far below any live resolution
            while eng.resolution() > s:
                before = modularity(g, eng.partition(), s)
                eng.resolution_sweep()
                assert modularity(g, eng.partition(), s) > before


class TestDetect:
    def test_two_disjoint_triangles(self, two_triangles):
        part, trace = detect_communities(two_triangles, 1)
        assert part == Partition([0, 0, 0, 1, 1, 1])
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
                slope = (b.q_t - a.q_t) / drop
                slopes.append(slope)
                assert slope == b.alpha
            # alpha grows, so the slope of q against falling t steepens: convexity
            assert all(x < y for x, y in zip(slopes, slopes[1:]))

    def test_rejects_nonpositive_t_min(self, triangle):
        with pytest.raises(ValueError):
            detect_communities(triangle, 0)

    def test_rejects_non_numeric_t_min(self, karate):
        g, _ = karate
        for t_min in ("1/0", None):
            with pytest.raises(ValueError, match="t_min must be a number"):
                detect_communities(g, t_min)
        with pytest.raises(ValueError, match="t must be a number"):
            positive_fraction(None)

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
        g = Graph.from_edge_list([(0, 0, 1)])
        part, trace = detect_communities(g, 1)
        assert len(part) == 1
        assert trace[0].t == 0.0


class TestExactTieHandling:
    def test_ratios_closer_than_float_resolution_merge_larger_first(self):
        """Two pair ratios closer together than a float can resolve: the
        integer keys still order them, so only the larger ratio is in the
        zero set and it merges first."""
        b = 2 ** 53
        a = b + 1
        g = Graph.from_edge_list([(0, 1, a), (2, 3, b)])
        z = g.z
        # premise: the gap is below float resolution, the ratios differ
        assert (z * a) / (a * a) == (z * b) / (b * b)
        assert Fraction(z, a) != Fraction(z, b)
        eng = SweepEngine(g)
        assert eng.resolution() == Fraction(z, b)
        assert zero_pairs(g, eng.partition(), eng.resolution()) == [(2, 3)]
        # (0, 1) comes first lexicographically; the larger ratio merges first
        assert eng.merge_step() == (2, 3)
        assert eng.resolution() == Fraction(z, a)
        assert eng.merge_step() == (0, 1)
        assert eng.resolution() == 0

    def test_global_keys_closer_than_float_resolution_merge_larger_first(self):
        """Two row fronts whose global ratios w / (d_low * d_owner) are
        closer together than a float can resolve: the integer global key
        still merges the larger one first, ahead of the smaller pair."""
        b = 2 ** 60
        a = b + 1
        g = Graph.from_edge_list([(0, 1, a), (2, 3, b)])
        # premise: the gap is below float resolution, the ratios differ
        assert a / (a * a) == b / (b * b)
        assert Fraction(a, a * a) != Fraction(b, b * b)
        eng = SweepEngine(g)
        assert eng.merge_step() == (2, 3)
        assert eng.merge_step() == (0, 1)
        assert eng.resolution() == 0

    @settings(derandomize=True, max_examples=200)
    @given(st.data())
    def test_key_orders_bounded_ratios_exactly(self, data):
        """For ratios n/d with 0 < n <= B and 1 <= d <= B, keys scaled by B*B
        order the ratios exactly, largest first, and equal ratios share a key.
        Half the draws are Farey neighbours, whose gap is exactly 1/(d1*d2)."""
        bound = data.draw(st.one_of(st.integers(2, 12), st.integers(2, 2**70)))
        if data.draw(st.booleans()):
            d1 = data.draw(st.integers(2, bound))
            n1 = data.draw(st.integers(1, d1 - 1))
            g = gcd(n1, d1)
            n1, d1 = n1 // g, d1 // g
            # the largest d2 <= B with n2*d1 - n1*d2 == 1
            r = -pow(n1, -1, d1) % d1
            d2 = r + (bound - r) // d1 * d1
            n2 = (1 + n1 * d2) // d1
            assert n2 * d1 - n1 * d2 == 1 and 0 < n2 <= d2 <= bound
        else:
            n1, d1, n2, d2 = (data.draw(st.integers(1, bound)) for _ in range(4))
        k1, k2 = (_key(n, d, bound * bound) for n, d in ((n1, d1), (n2, d2)))
        exact = (n1 * d2 > n2 * d1) - (n1 * d2 < n2 * d1)
        assert (k2 > k1) - (k2 < k1) == exact


class TestGoldenMergeSequence:
    """sha256 of (merge pairs, t_exact trace) of the sweep down to resolution
    0.  Any change to the merge order or to an exact resolution changes it."""

    @staticmethod
    def digest(graph):
        pairs, trace = full_sweep(graph)
        text = repr((pairs, [(t.numerator, t.denominator) for t, _ in trace]))
        return hashlib.sha256(text.encode()).hexdigest()

    def test_karate(self, karate):
        assert self.digest(karate[0]) == (
            "265310bccc707f8714909a53203b09c5f0dc3ac7dd492ac0ef01010273219088")

    def test_relabelled_tree(self):
        tree = complete_binary_tree(10)
        label = list(range(tree.n))
        random.Random(10).shuffle(label)
        assert self.digest(relabelled(tree.edges(), label)) == (
            "5fa7abb81853bcb2c8d7c4ad0ad3d86a479ce932333b8fc08603080d7963efbd")

    def test_windmill_hub_labelled_last(self):
        g = relabelled(windmill_edges(1000), windmill_labels(1000, "last", seed=1000))
        assert self.digest(g) == (
            "554f75185af3525aaa4b79bbcc1338037dd9c19d22d43d79b0e1407c35faec29")


def _k2n(s):
    return [(hub, 2 + i, 1) for hub in (0, 1) for i in range(s)]


def _wheel(s):
    return [(0, 1 + i, 1) for i in range(s)] + [(1 + i, 1 + (i + 1) % s, 1) for i in range(s)]


def _caterpillar(s):
    return [(i, i + 1, 1) for i in range(s - 1)] + [(i, s + i, 1) for i in range(s)]


def _ring_of_k4s(s):
    return ([(4 * i + a, 4 * i + b, 1) for i in range(s) for a in range(4) for b in range(a + 1, 4)]
            + [(4 * i + 3, 4 * ((i + 1) % s), 1) for i in range(s)])


def _grid(s, rows=16):
    return ([(r * s + j, r * s + j + 1, 1) for r in range(rows) for j in range(s - 1)]
            + [(r * s + j, (r + 1) * s + j, 1) for r in range(rows - 1) for j in range(s)])


def _star_of_stars(s, leaves=4):
    return [(0, 1 + i, 1) for i in range(s)] + [
        (1 + i, 1 + s + leaves * i + j, 1) for i in range(s) for j in range(leaves)]


# each family's edge list at size s, and its first size: about 1,000 edges
GROWTH_FAMILIES = {"K(2,n)": (_k2n, 512), "wheel": (_wheel, 512),
                   "caterpillar": (_caterpillar, 512), "ring of K4s": (_ring_of_k4s, 128),
                   "grid": (_grid, 32), "star of stars": (_star_of_stars, 192),
                   "windmill": (windmill_edges, 320)}


class TestRowInvariant:
    """The rule both filing sites keep, ``_merge``'s loop for moved pairs
    and ``_file`` for lapsed ones, checked after every merge."""

    @staticmethod
    def live_slots(eng) -> dict[int, int]:
        """Public id -> slot of each live community, whose id is a root of
        the merge forest.  An absorbed slot keeps its last ``_pid`` but loses
        its ``_adj``; a community no merge touched still lives in the slot of
        its only vertex."""
        slots = {p: s for s, p in enumerate(eng._pid) if eng._adj[s] is not None}
        for root in (v for v, parent in enumerate(eng._parent) if parent == v):
            slots.setdefault(root, root)
        assert len(slots) == eng.n - eng.merges
        return slots

    @staticmethod
    def weights(eng, s: int) -> dict[int, int]:
        """Cross weights of live slot s, from the input when no merge wrote them."""
        if eng._adj[s] is not None:
            return eng._adj[s]
        g = eng.graph
        return {g.nbr[j]: g.wt[j] for j in range(g.off[s], g.off[s + 1])}

    def check(self, eng) -> None:
        """Every current entry sits in its owner's row under the key of
        w / d_low; every live pair has an entry with its weight in one of its
        two rows."""
        scale = eng.z * eng.z
        deg, pid, rows = eng.deg, eng._pid, eng._rows
        slots = self.live_slots(eng)
        filed = set()
        for o in slots.values():
            weights = self.weights(eng, o)
            for key, p, ps, d, w in rows[o] or ():
                filed.add((o, ps, w))
                if deg[p] == d and weights.get(ps) == w:  # current
                    assert slots[p] == ps
                    do = deg[pid[o]]
                    assert do > d or (do == d and o > ps)
                    assert key == _key(w, d, scale)
        for o in slots.values():
            for v, w in self.weights(eng, o).items():
                assert (o, v, w) in filed or (v, o, w) in filed

    def test_rows_after_every_merge(self, karate):
        tree = complete_binary_tree(8)
        label = list(range(tree.n))
        random.Random(8).shuffle(label)
        graphs = [karate[0], relabelled(tree.edges(), label),
                  relabelled(windmill_edges(100), windmill_labels(100, "shuffled", seed=100))]
        rng = random.Random(35)
        graphs += [random_graph(rng, rng.randint(2, 30), max_w=rng.choice([1, 9, 2**40]))
                   for _ in range(100)]
        merges = 0
        for g in graphs:
            eng = SweepEngine(g)
            self.check(eng)
            while eng.resolution() > 0:
                eng.merge_step()
                self.check(eng)
            merges += eng.merges
        assert merges > 2000


class TestCounters:
    @pytest.mark.parametrize("family", list(GROWTH_FAMILIES))
    def test_work_per_edge_is_flat_across_doublings(self, family):
        """Heap work per edge, ``(heap_pushes + stale_pops) / m``, of a full
        sweep of a seeded relabelling grows at most 1.15 times per doubling
        of the family's size, over three doublings.  The most measured is
        1.02 times (grid); a quadratic path would double it."""
        edges_of, size = GROWTH_FAMILIES[family]
        per_edge = []
        for s in (size, 2 * size, 4 * size, 8 * size):
            edges = edges_of(s)
            label = list(range(1 + max(max(u, v) for u, v, _ in edges)))
            random.Random(f"{family}/{s}").shuffle(label)
            eng = SweepEngine(relabelled(edges, label))
            while eng.resolution() > 0:
                eng.resolution_sweep()
            per_edge.append((eng.heap_pushes + eng.stale_pops) / len(edges))
        assert all(b <= 1.15 * a for a, b in zip(per_edge, per_edge[1:])), per_edge

    @pytest.mark.parametrize("order", ["first", "last", "shuffled"])
    def test_windmill_work_grows_subquadratically(self, order):
        """A hub that absorbs its blades one at a time: heap work grows about
        linearly with the blade count, and no merge moves a large row."""
        pushes = []
        stale = []
        for blades in (500, 1000, 2000):
            g = relabelled(windmill_edges(blades), windmill_labels(blades, order, seed=blades))
            eng = SweepEngine(g)
            while eng.resolution() > 0:
                eng.resolution_sweep()
            assert eng.merges == 2 * blades
            assert eng.max_rewired <= 2
            pushes.append(eng.heap_pushes)
            stale.append(eng.stale_pops)
        assert all(b <= 2.5 * a for a, b in zip(pushes, pushes[1:]))
        # a lapsed pair filed again and again would show here
        assert all(b <= 2.5 * a for a, b in zip(stale, stale[1:]))

    @pytest.mark.parametrize("name, expected", [
        ("karate", (33, 103, 106, 4)),
        ("tree", (2046, 4221, 3194, 5)),
        ("weighted", (299, 7188, 5111, 40)),
    ])
    def test_exact_counts_of_a_full_sweep(self, karate, name, expected):
        """The counters are deterministic: merges, heap pushes, stale pops
        and the largest rewiring of a full sweep down to resolution 0.  A
        merge of the weighted graph moves up to 40 pairs."""
        g = {"karate": karate[0], "tree": complete_binary_tree(10),
             "weighted": random_graph(random.Random(35), 300, p=0.05, max_w=4)}[name]
        eng = SweepEngine(g)
        while eng.resolution() > 0:
            eng.resolution_sweep()
        assert (eng.merges, eng.heap_pushes, eng.stale_pops, eng.max_rewired) == expected

    def test_exact_counts_on_graphs_with_loops(self):
        """Loops do not move the counters: one digest of the counters, the
        final partition and the exact trace of full sweeps on 200 seeded
        graphs of 2 to 40 vertices, weights 1 to 9, with a ring through every
        vertex and random pairs and loops on top."""
        rng = random.Random(59)
        runs = []
        for _ in range(200):
            n = rng.randint(2, 40)
            edges = [(v, (v + 1) % n, rng.randint(1, 9)) for v in range(n)]
            edges += [(rng.randrange(n), rng.randrange(n), rng.randint(1, 9))
                      for _ in range(rng.randint(0, 2 * n))]
            edges += [(v, v, rng.randint(1, 9)) for v in range(n) if rng.random() < 0.3]
            eng = SweepEngine(Graph.from_edge_list(edges))
            eng.record_trace()
            while eng.resolution() > 0:
                eng.resolution_sweep()
            runs.append((eng.merges, eng.heap_pushes, eng.stale_pops, eng.max_rewired,
                         eng.partition().assign, [r.t_exact for r in eng.trace]))
        assert hashlib.sha256(repr(runs).encode()).hexdigest() == (
            "88da386d814df8f36d54df0bab0c744542bb695bf0590f5cecbb9b0b55d174d9")

    @pytest.mark.parametrize("name", ["karate", "tree"])
    def test_max_group_is_the_largest_drop_in_k(self, karate, name):
        """``max_group``, the most merges in one resolution sweep, equals the
        largest drop in the community count between consecutive records."""
        g = karate[0] if name == "karate" else complete_binary_tree(10)
        eng = SweepEngine(g)
        eng.record_trace()
        while eng.resolution() > 0:
            eng.resolution_sweep()
        ks = [rec.k for rec in eng.trace]
        assert eng.max_group == max(a - b for a, b in zip(ks, ks[1:])) > 1


class TestInputGraph:
    def test_a_run_never_writes_its_input(self, karate):
        """The engine builds a slot's row as its own dict from the input
        graph's arrays at the first merge that touches the slot.  The final
        certificate reads the input graph, so a write into it would corrupt
        it: its arrays, ``loop``, ``deg`` and ``z`` equal copies taken before
        the run."""
        tree = complete_binary_tree(10)
        label = list(range(tree.n))
        random.Random(10).shuffle(label)
        graphs = [karate[0], relabelled(tree.edges(), label),
                  relabelled(windmill_edges(500), windmill_labels(500, "shuffled", seed=500))]
        rng = random.Random(61)
        graphs += [random_graph(rng, rng.randint(2, 30), max_w=rng.choice([1, 9, 2**40]))
                   for _ in range(50)]
        def state(g):  # weights are immutable ints, so shallow copies suffice
            return [copy.copy(x) for x in (g.off, g.nbr, g.wt, g.loop, g.deg)], g.z

        for g in graphs:
            before = state(g)
            detect_communities(g, Fraction(1, 10**6))
            assert state(g) == before

    def test_every_row_key_is_a_slot_int(self):
        """Rows share the engine's slot ints instead of keeping a new int per
        array read: after sweeps to t = 1, every key of every owned row, the
        partner id and slot of every row entry, and the ids and slot of every
        global entry are the very ints of ``_slots`` (ids above 256, which
        CPython does not cache)."""
        tree = complete_binary_tree(12)
        label = list(range(tree.n))
        random.Random(12).shuffle(label)
        graphs = [relabelled(tree.edges(), label)]
        rng = random.Random(27)
        graphs += [random_graph(rng, rng.randint(300, 400), p=0.02, max_w=rng.choice([1, 2**40]))
                   for _ in range(4)]
        for g in graphs:
            eng = SweepEngine(g)
            rec = eng.record_trace()
            while rec.t_exact >= 1:
                rec = eng.resolution_sweep()
            slots = eng._slots
            owned = [row for row in eng._adj if row is not None]
            assert owned and all(slots[v] is v for row in owned for v in row)
            entries = [e for row in eng._rows if row for e in row]
            assert entries and all(slots[e[1]] is e[1] and slots[e[2]] is e[2] for e in entries)
            assert eng._heap and all(slots[a] is a and slots[b] is b and slots[o] is o
                                     for _, a, b, o, _ in eng._heap)

    def test_graph_and_engine_memory_per_vertex(self):
        """tracemalloc peak of ``from_edge_list`` plus ``SweepEngine`` on a
        relabelled height-14 tree, per vertex.  One dict per input row read
        487 B; flat arrays read 300 B, both on CPython 3.11 (489 and 301 at
        height 16)."""
        tree = complete_binary_tree(14)
        label = list(range(tree.n))
        random.Random(14).shuffle(label)
        triples = [(label[u], label[v], w) for u, v, w in tree.edges()]
        tracemalloc.start()
        try:
            g = Graph.from_edge_list(triples)
            SweepEngine(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.n < 450

    def test_sweep_memory_per_vertex(self):
        """tracemalloc peak from engine init to the end of a sweep to t = 1 on
        a relabelled height-12 tree, per vertex.  A slot's row is built as a
        dict, keyed by the engine's slot ints, only at the first merge that
        touches the slot; that reads 325 B on CPython 3.11 (309 B at height
        14)."""
        tree = complete_binary_tree(12)
        label = list(range(tree.n))
        random.Random(12).shuffle(label)
        g = relabelled(tree.edges(), label)
        tracemalloc.start()
        try:
            eng = SweepEngine(g)
            rec = eng.record_trace()
            while rec.t_exact >= 1:
                rec = eng.resolution_sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.n <= 400


class TestBookkeeping:
    def test_running_sums_match_the_kernel(self):
        """After every merge the engine's internal weight, squared-degree sum
        and community count equal the aggregate kernel's on its partition,
        and every trace record holds the kernel's exact values, with weights
        up to 2**70."""
        rng = random.Random(43)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), max_w=rng.choice((4, 2**40, 2**70)))
            eng = SweepEngine(g)

            def kernel():
                agg = CommunityAggregates.from_partition(g, eng.partition())
                assert eng.w_internal == sum(agg.internal)
                assert eng.deg_sq == sum(d * d for d in agg.block_degree)
                assert eng.n - eng.merges == agg.k
                return agg

            while True:
                rec = eng.record_trace()
                agg = kernel()
                t = rec.t_exact
                assert t == agg.resolution() and rec.t == float(t) and rec.k == agg.k
                q_t = agg.score(t) if t else Fraction(sum(agg.internal), agg.z)
                assert rec.q_t == q_t
                assert rec.q_1 == agg.score(1)
                assert rec.alpha == agg.alpha()
                if t == 0:
                    break
                while eng.resolution() == t:
                    eng.merge_step()
                    kernel()


class TestQuotientRestart:
    def test_restarting_from_quotient_is_equivalent(self):
        """Collapsing the live state to its quotient graph and resuming
        produces the same final partition and the same resolution tail."""
        rng = random.Random(43)
        for _ in range(15):
            g = random_graph(rng, rng.randint(6, 30), connected=True)
            full, trace = detect_communities(g, Fraction(1, 3))

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
            assert composed == full
            assert tail_a == [(r.t_exact, r.k) for r in trace[len(eng.trace):]]

    def test_resume_from_every_trace_partition(self, karate):
        """The sweep depends only on its partition: a fresh engine on the
        quotient of the partition at trace record i reproduces records i to
        the end, and composing its result gives the full run's partition."""
        t_min = Fraction(1, 10**6)

        def sweep(eng):
            """The trace fields of a run down to t_min, and its partitions."""
            rec = eng.record_trace()
            parts = [eng.partition()]
            while rec.t_exact >= t_min:
                rec = eng.resolution_sweep()
                parts.append(eng.partition())
            return [(r.t_exact, r.k, r.q_t, r.q_1, r.alpha) for r in eng.trace], parts

        rng = random.Random(53)
        graphs = [karate[0], complete_binary_tree(6), complete_binary_tree(8)]
        graphs += [random_graph(rng, rng.randint(2, 30), max_w=rng.choice([1, 9, 2**40]))
                   for _ in range(100)]
        resumes = 0
        for g in graphs:
            full, parts = sweep(SweepEngine(g))
            for i, part in enumerate(parts):
                tail, tail_parts = sweep(SweepEngine(quotient(g, part)))
                assert tail == full[i:]
                assert compose(part, tail_parts[-1]) == parts[-1]
            resumes += len(parts)
        assert resumes > 1000

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

    def test_integer_pairs_print_as_their_fractions(self):
        """Each column rounds its record's integer pair, and prints exactly
        what rounding the reduced Fraction prints, on graphs with loops and
        weights up to 2**40, negative ``q_t`` included."""
        rng = random.Random(59)
        negative = rows = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 25), max_w=rng.choice((1, 9, 2**20, 2**40)))
            _, trace = detect_communities(g, Fraction(1, 10**6))
            lines = [f"{r.step},{rounded(Fraction(r.tn, r.td))},{r.k},{rounded(r.q_t)},"
                     f"{rounded(r.q_1)},{rounded(r.alpha)}" for r in trace]
            assert format_trace_csv(trace) == "\n".join(["step,t,k,q_t,q_1,alpha", *lines]) + "\n"
            negative += sum(r.q_t < 0 for r in trace)
            rows += len(trace)
        assert negative > 0 and rows > 300

    def test_below_float_range(self):
        """A trace value too small for a normal float raises, as one too
        large does; the record keeps it exactly."""
        g, _ = load_edge_list(f"a a {10**400}\nb b {10**400}\na b 1\n")
        _, trace = detect_communities(g, 1)
        assert trace[0].t_exact == Fraction(2, 2 * 10**400 + 1)
        with pytest.raises(OverflowError):
            format_trace_csv(trace)

    @pytest.mark.parametrize("digits", [400, 310])
    def test_record_t_below_float_range(self, digits):
        """``TraceRecord.t`` raises where the CSV does, not returning 0.0 or
        a subnormal; an exact 0 stays 0.0."""
        loop = 10**digits
        g, _ = load_edge_list(f"a a {loop}\nb b {loop}\na b 1\n")
        _, trace = detect_communities(g, 1)
        assert trace[0].t_exact == Fraction(2, 2 * loop + 1)
        with pytest.raises(OverflowError):
            trace[0].t
        eng = SweepEngine(g)
        while eng.resolution() > 0:
            eng.resolution_sweep()
        assert eng.trace[-1].tn == 0 and eng.trace[-1].t == 0.0
