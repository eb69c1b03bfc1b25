"""Graph construction, loading, quotients, components, and minimum cuts."""

import heapq
import io
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import modsweep.graph
from modsweep import (
    CommunityAggregates,
    DisconnectedError,
    FormatError,
    Graph,
    IsolatedVertexError,
    Partition,
    bounds_report,
    complete_binary_tree,
    compose,
    connected_components,
    format_edge_list,
    is_merge_stable,
    load_edge_list,
    min_cut,
    modularity,
    quotient,
    singleton_partition,
)

from conftest import (
    BARBELL_EDGES,
    blocks,
    brute_force_min_cut,
    random_graph,
    random_partition,
    relabelled,
    stoer_wagner_min_cut,
    windmill_edges,
)


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

    @pytest.mark.parametrize("weight,message", [
        ("1_0", "is not an integer"), ("+5", "is not an integer"),
        ("\u0663", "is not an integer"), ("\uff15", "is not an integer"),
        ("x", "is not an integer"), ("1.5", "is not an integer"),
        ("0", "must be positive, got 0"), ("-1", "must be positive, got -1")])
    def test_weight_is_ascii_digits(self, weight, message):
        """int() also reads underscores, a sign and non-ASCII digits; the
        format takes a weight only as ASCII digits."""
        with pytest.raises(FormatError, match=message):
            load_edge_list(f"a b {weight}")

    def test_bad_arity_rejected(self):
        with pytest.raises(FormatError):
            load_edge_list("a\n")
        with pytest.raises(FormatError):
            load_edge_list("a b c d\n")

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            load_edge_list("# nothing here\n")

    def test_iterable_of_lines(self):
        g, labels = load_edge_list(io.StringIO("a b 2\n# comment\nb c\n"))
        assert labels == ["a", "b", "c"]
        assert g.adj == [{1: 2}, {0: 2, 2: 1}, {1: 1}]

    def test_karate_fixture_totals(self, karate):
        g, labels = karate
        # degree total must equal twice the number of (unweighted) edge lines
        assert g.n == 34
        assert g.z == 2 * 78
        assert len(labels) == 34


class TestGraphInvariants:
    def test_rows_are_never_accepted(self):
        """``Graph`` has no rows constructor: any call raises and names the
        one public builder."""
        for args in (([{1: 1}, {0: 1}],), (), ([],)):
            with pytest.raises(TypeError, match=re.escape("Graph.from_edge_list")):
                Graph(*args)
        with pytest.raises(TypeError, match=re.escape("Graph.from_edge_list")):
            Graph(adj=[{0: 2}])

    @pytest.mark.parametrize("edges, bad", [
        ([(0, 1, -1), (0, 1, 2)], (0, 1, -1)),
        ([(0, 1, 2), (0, 1, -1)], (0, 1, -1)),
        ([(0, 1, True)], (0, 1, True)),
        ([(0, 1, 0)], (0, 1, 0)),
        ([(0, 1, 1.0)], (0, 1, 1.0)),
    ])
    def test_each_edge_weight_checked(self, edges, bad):
        """Each triple is checked, not the accumulated weight, as the
        edge-list parser checks each line."""
        with pytest.raises(ValueError, match=re.escape(f"edge {bad} has a weight")):
            Graph.from_edge_list(edges)

    def test_vertex_not_a_nonnegative_int_rejected(self):
        """A vertex is a non-negative int; a bool or a float equal to one is
        not, and the error names the triple."""
        for bad in [(True, 0, 1), (0.0, 1, 1), (0, 1.0, 1), (-1, 0, 1)]:
            with pytest.raises(ValueError, match=re.escape(f"edge {bad} has a vertex that is not a")):
                Graph.from_edge_list([(0, 1, 1), bad])

    def test_empty_edge_list_needs_vertex_count(self):
        """``from_edge_list`` reads its vertex count from the triples, so an
        empty triple list (list or one-shot iterator) names no vertex."""
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match="^a graph needs at least one vertex$"):
                Graph.from_edge_list(empty)

    def test_trusted_build_rejects_isolated_and_empty(self):
        """``from_edge_list`` checks every triple, and rejects isolated
        vertices and an empty vertex set.  Its vertices are 0..n-1 for the
        largest vertex named, so a vertex below that which no triple names is
        isolated.  A self-loop makes the cheap count of named vertices pass,
        so the check on the filled degrees finds the gap."""
        for edges in ([(0, 2, 1)], [(0, 2, 1), (0, 0, 1)], [(0, 2, 1), (2, 2, 1)]):
            with pytest.raises(IsolatedVertexError, match="^vertex 1 has zero total degree$"):
                Graph.from_edge_list(edges)
        with pytest.raises(ValueError, match="^a graph needs at least one vertex$"):
            Graph.from_edge_list([])

    def test_degree_sum_equals_total(self):
        rng = random.Random(7)
        for _ in range(25):
            assert_well_formed(random_graph(rng, rng.randint(1, 12)))

    def test_format_round_trip(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 9))
            g2, labels = load_edge_list(format_edge_list(g))
            # the loader indexes labels by first appearance; map back
            assert relabelled_rows(g2, labels) == g.adj


def assert_well_formed(g: Graph) -> None:
    """Every row is nonempty, keyed by in-range ints and weighted by
    positive ints; rows are symmetric, diagonals even (a loop line stores
    twice its weight), and ``deg`` and ``z`` are the row sums."""
    adj = g.adj  # rebuilt on each access, so read once
    assert g.n == len(adj) >= 1
    for u, row in enumerate(adj):
        assert type(row) is dict and row, u
        for v, w in row.items():
            assert type(v) is int and 0 <= v < g.n, (u, v)
            assert type(w) is int and w > 0, (u, v, w)
            assert adj[v].get(u) == w, (u, v)
        assert row.get(u, 0) % 2 == 0, u
    assert g.deg == [sum(row.values()) for row in adj]
    assert g.z == sum(g.deg)


def relabelled_rows(g: Graph, labels: list[str]) -> list[dict[int, int]]:
    """``g``'s rows with vertex ``i`` renamed ``int(labels[i])``."""
    back = [int(lab) for lab in labels]
    rows: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, nbrs in enumerate(g.adj):
        for v, w in nbrs.items():
            rows[back[u]][back[v]] = w
    return rows


class TestTrustedBuild:
    """No builder re-checks the adjacency it builds; everything either
    builds must be well formed."""

    def test_random_triple_lists(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(1, 10)
            triples = []
            for _ in range(rng.randint(0, 3 * n)):
                if triples and rng.random() < 0.2:
                    triples.append(rng.choice(triples))
                    continue
                u = rng.randrange(n)
                v = u if rng.random() < 0.15 else rng.randrange(n)
                triples.append((u, v, rng.choice((1, rng.randint(1, 9), rng.randint(1, 2**70)))))
            covered = {x for u, v, _ in triples for x in (u, v)}
            triples += [(v, v, rng.randint(1, 3)) for v in range(n) if v not in covered]
            rng.shuffle(triples)
            # the triples are read in one pass, so a one-shot iterator is enough
            g = Graph.from_edge_list(iter(triples))
            assert g.n == n
            assert_well_formed(g)
            assert [list(row.items()) for row in Graph.from_edge_list(triples).adj] == (
                [list(row.items()) for row in g.adj])

    def test_random_edge_list_texts(self):
        rng = random.Random(17)
        labels = ["a", "b", "c", "d", "e", "x1", "0", "10"]
        for _ in range(300):
            lines = []
            for _ in range(rng.randint(1, 12)):
                u = rng.choice(labels)
                v = u if rng.random() < 0.15 else rng.choice(labels)
                w = rng.choice(("", " 1", f" {rng.randint(1, 9)}", f" {rng.randint(1, 2**70)}"))
                lines.append(f"{u} {v}{w}")
                if rng.random() < 0.1:
                    lines.append("# comment")
            lines += rng.choices(lines, k=rng.randint(0, 3))
            g, _ = load_edge_list("\n".join(lines))
            assert_well_formed(g)

    def test_random_quotients(self):
        """``quotient`` builds from a checked graph; its rows are well formed
        and its edge-list text reads back to the same rows."""
        rng = random.Random(18)
        for _ in range(500):
            n = rng.randint(1, 30)
            g = random_graph(rng, n, p=rng.choice((0.1, 0.35)))
            q = quotient(g, random_partition(rng, n))
            assert_well_formed(q)
            back, labels = load_edge_list(format_edge_list(q))
            assert relabelled_rows(back, labels) == q.adj


def dict_rows(triples) -> list[dict[int, int]]:
    """One dict per vertex, filled triple by triple: the per-vertex build
    the flat arrays replaced, kept here as the reference."""
    rows: list[dict[int, int]] = [{} for _ in range(1 + max(max(u, v) for u, v, _ in triples))]
    for u, v, w in triples:
        if u == v:
            rows[u][u] = rows[u].get(u, 0) + 2 * w
        else:
            rows[u][v] = rows[u].get(v, 0) + w
            rows[v][u] = rows[v].get(u, 0) + w
    return rows


def loop_first(rows: list[dict[int, int]]) -> list[list[tuple[int, int]]]:
    """Each row's items with the diagonal moved to the front, the order the
    ``adj`` view and ``edges`` read a row in."""
    return [([(u, row[u])] if u in row else []) + [(v, w) for v, w in row.items() if v != u]
            for u, row in enumerate(rows)]


class TestArrayBuild:
    def test_sparse_ids_rejected_before_any_row_exists(self):
        """A vertex no triple names is found from the named ids, so a lone
        far vertex costs no row per vertex below it."""
        for far in (10**6, 2**70):
            tracemalloc.start()
            try:
                with pytest.raises(IsolatedVertexError, match="^vertex 1 has zero total degree$"):
                    Graph.from_edge_list([(0, far, 1)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_builder_matches_the_dict_reference(self):
        """Seeded triples with duplicates, loops and weights up to 2**70 and
        10**30: the ``adj`` view (row order included), ``deg``, ``z``,
        ``edges`` and ``format_edge_list`` equal those of per-vertex dicts;
        quotients equal the reference block sums, each row in block order
        after its loop; and ``min_cut`` equals the brute-force cut."""
        rng = random.Random(26)
        for _ in range(150):
            n = rng.randint(1, 11)
            triples = [(v, (v + 1) % n, 1) for v in range(n)]  # a ring keeps it connected
            for _ in range(rng.randint(0, 3 * n)):
                if rng.random() < 0.2:
                    triples.append(rng.choice(triples))
                    continue
                u = rng.randrange(n)
                v = u if rng.random() < 0.15 else rng.randrange(n)
                triples.append((u, v, rng.choice(
                    (1, rng.randint(1, 9), rng.randint(1, 2**70), rng.randint(1, 10**30)))))
            rng.shuffle(triples)
            g, ref = Graph.from_edge_list(triples), dict_rows(triples)
            view = g.adj
            assert view == ref
            assert [list(row.items()) for row in view] == loop_first(ref)
            assert (g.deg, g.z) == ([sum(row.values()) for row in ref], sum(map(sum, map(dict.values, ref))))
            edges = [(u, v, w) for u, row in enumerate(loop_first(ref)) for v, w in row if v >= u]
            assert list(g.edges()) == edges
            assert format_edge_list(g) == "".join(
                f"{u} {v}\n" if w == 1 + (u == v) else f"{u} {v} {w // (1 + (u == v))}\n"
                for u, v, w in edges)
            for _ in range(3):
                p = random_partition(rng, n)
                blocks: list[dict[int, int]] = [{} for _ in range(len(p))]
                for u, row in enumerate(ref):
                    for v, w in row.items():
                        a, b = p.assign[u], p.assign[v]
                        blocks[a][b] = blocks[a].get(b, 0) + w
                q = quotient(g, p)
                assert [list(row.items()) for row in q.adj] == loop_first(
                    [dict(sorted(row.items())) for row in blocks])
                assert (q.deg, q.z) == ([sum(row.values()) for row in blocks], g.z)
            if n > 1:
                assert min_cut(g) == brute_force_min_cut(g)[0]


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
            # every entry, diagonal included, is its block sum; none is stored as 0
            block = [[0] * len(p) for _ in range(len(p))]
            for u, nbrs in enumerate(g.adj):
                for v, w in nbrs.items():
                    block[p.assign[u]][p.assign[v]] += w
            rows = q.adj
            for a in range(len(p)):
                assert [rows[a].get(b, 0) for b in range(len(p))] == block[a]
                assert 0 not in rows[a].values()

    def test_certificate_and_contraction_read_the_quotient(self):
        """A partition's certificate is its quotient's singleton one, witness
        included; every quotient row is in block order; and quotients
        compose: the chain ``min_cut`` contracts through gives the rows, in
        row order, of one contraction."""
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(1, 30)
            g = random_graph(rng, n, p=rng.choice((0.1, 0.35)))
            p = random_partition(rng, n)
            q = quotient(g, p)
            for a in range(q.n):
                ids = q.nbr[q.off[a]:q.off[a + 1]]
                assert all(x < y for x, y in zip(ids, ids[1:])), (a, ids)
            for t in (Fraction(1, 3), 1, 2):
                assert is_merge_stable(g, p, t) == is_merge_stable(q, singleton_partition(q), t)
            r = random_partition(rng, q.n)
            twice, once = quotient(q, r), quotient(g, compose(p, r))
            assert ((twice.loop, twice.off, twice.nbr, twice.wt, twice.deg, twice.z)
                    == (once.loop, once.off, once.nbr, once.wt, once.deg, once.z))


    @pytest.mark.parametrize("assign", ([0] * 15 + [1] * 5, [0] * 7 + [1] * 7))
    def test_partition_must_cover_the_vertex_set(self, assign):
        """A partition of more or fewer vertices than the graph has is
        refused by every reader of the quotient, not scored."""
        g, p = complete_binary_tree(3), Partition(assign)
        for read in (quotient, modularity, is_merge_stable, bounds_report,
                     CommunityAggregates.from_partition):
            with pytest.raises(ValueError, match="does not cover"):
                read(g, p)


class TestConnectedComponents:
    def test_triangle_is_one_block(self, triangle):
        assert len(connected_components(triangle)) == 1

    def test_two_triangles(self, two_triangles):
        comp = connected_components(two_triangles)
        assert blocks(comp) == [[0, 1, 2], [3, 4, 5]]

    def test_loops_do_not_connect(self):
        g = Graph.from_edge_list([(0, 1, 1), (2, 2, 1)])
        assert len(connected_components(g)) == 2


def cut_or_error(cut, graph):
    """The cut value, or the text of the DisconnectedError raised instead."""
    try:
        return cut(graph)
    except DisconnectedError as exc:
        return str(exc)


def clustered_graph(rng: random.Random, n: int) -> Graph:
    """Cliques of 3 to 8 vertices with weights 4 to 9, chained by unit edges,
    plus a few unit edges between random vertices."""
    edges, heads, start = [], [], 0
    while start < n:
        block = range(start, min(n, start + rng.randint(3, 8)))
        edges += [(u, v, rng.randint(4, 9)) for u in block for v in block if u < v]
        heads.append(rng.choice(block))
        start = block.stop
    edges += [(a, b, 1) for a, b in zip(heads, heads[1:])]
    edges += [(rng.randrange(n), rng.randrange(n), 1) for _ in range(len(heads) // 2)]
    return Graph.from_edge_list(edges)


def grid_edges(side: int) -> list[tuple[int, int, int]]:
    """Unit edges of a side x side grid."""
    return ([(v, v + 1, 1) for v in range(side * side) if (v + 1) % side] +
            [(v, v + side, 1) for v in range(side * (side - 1))])


@pytest.fixture
def quotient_sizes(monkeypatch):
    """Vertex count of each graph ``min_cut`` contracts to, one per pass."""
    sizes: list[int] = []
    real = modsweep.graph.quotient

    def counted(graph, partition):
        sizes.append(len(partition))
        return real(graph, partition)

    monkeypatch.setattr(modsweep.graph, "quotient", counted)
    return sizes


@pytest.fixture
def heap_work(monkeypatch):
    """How many times ``min_cut`` pushes to and pops from its scan heap."""
    work = Counter()

    def pushed(heap, item):
        work["push"] += 1
        heapq.heappush(heap, item)

    def popped(heap):
        work["pop"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(modsweep.graph, "heapq", SimpleNamespace(heappush=pushed, heappop=popped))
    return work


def cored_graph(rng: random.Random, n: int, max_w: int, shape: int) -> Graph:
    """A dense core on n vertices (p = 0.5, weights 1..max_w, a path keeps it
    connected) with, by ``shape``: 0, one to three unit pendant vertices; 1, a
    second core of 3 to 8 vertices behind a unit bridge; 2, that core apart.
    The vertices are relabelled at random, so the scan's ties fall anywhere."""
    def core(lo: int, hi: int) -> list[tuple[int, int, int]]:
        return ([(u, v, rng.randint(1, max_w)) for u in range(lo, hi)
                 for v in range(u + 1, hi) if rng.random() < 0.5] +
                [(u, u + 1, rng.randint(1, max_w)) for u in range(lo, hi - 1)])

    edges = core(0, n)
    if shape == 0:
        edges += [(v, rng.randrange(n), 1) for v in range(n, n + rng.randint(1, 3))]
    else:
        m = rng.randint(3, 8)
        edges += core(n, n + m) + ([(rng.randrange(n), n + rng.randrange(m), 1)] if shape == 1 else [])
    size = 1 + max(max(u, v) for u, v, _ in edges)
    label = list(range(size))
    rng.shuffle(label)
    return relabelled(edges, label)


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
        # vertex 0's only edge is a loop
        with pytest.raises(DisconnectedError):
            min_cut(Graph.from_edge_list([(0, 0, 1), (1, 2, 1)]))
        # vertex 0 lies in the larger component
        with pytest.raises(DisconnectedError):
            min_cut(Graph.from_edge_list([(0, 1, 1), (1, 2, 1), (3, 4, 1)]))

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            min_cut(Graph.from_edge_list([(0, 0, 1)]))

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for i in range(60):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, max_w=(1, 5, 2**40)[i % 3], connected=True)
            got = min_cut(g)
            want, side = brute_force_min_cut(g)
            assert got == want == stoer_wagner_min_cut(g)
            # the ordered-pair mass across the optimal cut is twice the cut
            adj = g.adj
            mass = sum(w for u in side for v, w in adj[u].items() if v not in side)
            assert mass == want

    def test_matches_reference_on_larger_graphs(self, quotient_sizes):
        rng = random.Random(43)
        disconnected = 0
        for i in range(150):
            n = rng.randint(13, 40)
            max_w = rng.choice((1, 5, 2**40))
            if i % 3 == 0:  # mostly disconnected
                g = random_graph(rng, n, p=0.04, max_w=max_w)
            elif i % 3 == 1:
                g = random_graph(rng, n, p=rng.choice((0.15, 0.5)), max_w=max_w, connected=True)
            else:
                g = clustered_graph(rng, n)
            quotient_sizes.clear()
            got, want = cut_or_error(min_cut, g), cut_or_error(stoer_wagner_min_cut, g)
            assert got == want
            disconnected += got == "graph is not connected"
            if i % 3 == 2:
                # one scan certifies several contractions inside the clusters
                assert quotient_sizes[0] < n - 1
        assert disconnected >= 25

    def test_passes_on_trees_grids_and_hubs(self, quotient_sizes):
        from modsweep import complete_binary_tree

        assert min_cut(complete_binary_tree(14)) == 1
        assert quotient_sizes == [1]
        for edges in (grid_edges(30), windmill_edges(1000)):
            quotient_sizes.clear()
            assert min_cut(Graph.from_edge_list(edges)) == 2
            assert len(quotient_sizes) <= 2
        n = 1000
        quotient_sizes.clear()
        assert min_cut(Graph.from_edge_list([(v, (v + 1) % n, 1) for v in range(n)])) == 2
        assert quotient_sizes == [1]
        # a ladder with rails of weight 2 and rungs of weight 1
        rails = [(v + s, v + s + 1, 2) for s in (0, n) for v in range(n - 1)]
        quotient_sizes.clear()
        assert min_cut(Graph.from_edge_list(rails + [(v, v + n, 1) for v in range(n)])) == 3
        assert len(quotient_sizes) <= 2

    def test_keys_stop_at_the_bound(self, heap_work):
        # K_n with a pendant on vertex 0: vertex 0's scan takes every key to
        # the bound, so no later scan pushes (uncapped keys push
        # n + (n-1)(n-2)/2 times, 436 at n = 30)
        for n in (30, 60):
            for clique_w, pendant_w in ((1, 1), (3, 2)):
                heap_work.clear()
                edges = [(u, v, clique_w) for u in range(n) for v in range(u + 1, n)]
                assert min_cut(Graph.from_edge_list(edges + [(0, n, pendant_w)])) == pendant_w
                assert heap_work["push"] <= n

    def test_capped_ties_match_reference(self, quotient_sizes):
        # a dense core behind pendants or a light bridge holds best far below
        # most keys, so many capped keys tie at best and the least id leads
        rng = random.Random(47)
        disconnected = 0
        for i in range(108):
            n = rng.randint(4, 9) if i % 4 == 0 else rng.randint(13, 40)
            g = cored_graph(rng, n, (1, 5, 2**40)[i % 3], i // 3 % 3)
            quotient_sizes.clear()
            got, want = cut_or_error(min_cut, g), cut_or_error(stoer_wagner_min_cut, g)
            assert got == want
            if got == "graph is not connected":
                disconnected += 1
                assert quotient_sizes == []  # raised by the first scan
            elif g.n <= 12:
                assert got == brute_force_min_cut(g)[0]
        assert disconnected == 36

    def test_scan_work_is_pinned(self, quotient_sizes, heap_work):
        """The passes, heap pushes and heap pops of ``min_cut`` on seeded
        graphs, pinned as counted before its scan read each row as one zip
        of slices and clamped keys without ``min``: the loop does the same
        heap work, disconnected graphs included."""
        rng = random.Random(89)
        work = []
        for i in range(12):
            max_w = (1, 5, 2**40)[i % 3]
            if i % 2:
                g = cored_graph(rng, rng.randint(13, 40), max_w, i // 2 % 3)
            else:
                g = random_graph(rng, rng.randint(13, 40), p=rng.choice((0.15, 0.5)), max_w=max_w,
                                 connected=True)
            quotient_sizes.clear()
            heap_work.clear()
            assert cut_or_error(min_cut, g) == cut_or_error(stoer_wagner_min_cut, g)
            work.append((quotient_sizes[:], heap_work["push"], heap_work["pop"]))
        assert work == [
            ([2, 1], 26, 17), ([1], 37, 38), ([16, 2, 1], 299, 51), ([8, 3, 1], 138, 103),
            ([3, 1], 58, 19), ([], 40, 41), ([2, 1], 45, 26), ([1], 31, 32),
            ([20, 2, 1], 396, 57), ([2, 1], 58, 35), ([1], 27, 22), ([], 7, 8),
        ]

    def test_chain_keeps_its_lightest_edges(self):
        # joining every edge with 2w >= the degree of an endpoint would
        # contract the whole path and report its least degree, 4
        assert min_cut(Graph.from_edge_list([(1, 0, 4), (0, 4, 3), (4, 2, 3), (2, 3, 4)])) == 3

    def test_weighted_bridge(self):
        g = Graph.from_edge_list(BARBELL_EDGES[:-1] + [(2, 3, 5)])
        assert min_cut(g) == 2  # isolating a plain triangle vertex beats the heavy bridge
