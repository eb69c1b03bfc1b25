"""Partition semantics, the refinement order, and file I/O."""

import io
import random
from fractions import Fraction

import pytest

from modsweep import (
    FormatError,
    Graph,
    Partition,
    compose,
    complete_binary_tree,
    format_partition,
    load_edge_list,
    modularity,
    parse_partition,
    refine_connected,
    refines,
    singleton_partition,
)

from conftest import blocks, random_graph, random_partition


class TestPartitionBasics:
    def test_dense_renumbering_by_first_seen(self):
        p = Partition([7, 7, 3, 7, 3])
        assert p.assign == [0, 0, 1, 0, 1]
        assert blocks(p) == [[0, 1, 3], [2, 4]]
        assert repr(p) == "Partition(5 vertices, 2 blocks)"
        rng = random.Random(17)
        for _ in range(200):
            alphabet = rng.choice((range(rng.randint(1, 30)), "abcdefgh", (None, -1, 2.5, "x", (0,))))
            tokens = [rng.choice(alphabet) for _ in range(rng.randint(1, 40))]
            seen: list = []
            for tok in tokens:
                if tok not in seen:
                    seen.append(tok)
            p = Partition(iter(tokens))
            assert p.assign == [seen.index(tok) for tok in tokens]
            assert len(p) == len(set(tokens)) == max(p.assign) + 1
            for wrong in (len(p) - 1, len(p) + 1):
                if wrong:
                    with pytest.raises(ValueError, match="does not cover the block set"):
                        compose(p, Partition(range(wrong)))
            assert compose(p, Partition(range(len(p)))) == p

    def test_singletons(self, triangle):
        assert len(singleton_partition(triangle)) == 3
        assert len(singleton_partition(Graph.from_edge_list([(0, 0, 1)]))) == 1

    def test_karate_singletons(self, karate):
        g, _ = karate
        assert len(singleton_partition(g)) == 34

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Partition([])


class TestRefines:
    def test_extremes(self, triangle):
        whole = Partition([0, 0, 0])
        single = singleton_partition(triangle)
        assert refines(whole, single)
        assert not refines(single, whole)

    def test_reflexive(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_partition(rng, rng.randint(1, 10))
            assert refines(p, p)

    def test_partial_order(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 9)
            p = random_partition(rng, n)
            q = random_partition(rng, n)
            r = random_partition(rng, n)
            # antisymmetry
            if refines(p, q) and refines(q, p):
                assert p == q
            # transitivity
            if refines(p, q) and refines(q, r):
                assert refines(p, r)

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            refines(Partition([0, 0]), Partition([0, 0, 0]))


class TestRefineConnected:
    def test_connected_blocks_unchanged(self, barbell):
        p = Partition([0, 0, 0, 1, 1, 1])
        assert refine_connected(barbell, p) == p

    def test_disconnected_block_splits(self, barbell):
        # {everything except one bridge endpoint} is disconnected: vertex 2
        # is what joins the two triangles
        p = Partition([0, 0, 1, 0, 0, 0])
        r = refine_connected(barbell, p)
        assert len(r) == 3
        assert r == Partition([0, 0, 1, 2, 2, 2])

    def test_whole_set_of_connected_graph(self, barbell):
        assert len(refine_connected(barbell, Partition([0] * 6))) == 1

    @pytest.mark.parametrize("n", [14, 20])
    def test_partition_of_another_vertex_set_rejected(self, n):
        g = complete_binary_tree(3)
        assert g.n == 15
        with pytest.raises(ValueError, match="does not cover"):
            refine_connected(g, Partition([0] * n))

    def test_never_lowers_score(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 12)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            r = refine_connected(g, p)
            assert refines(p, r)
            for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                assert modularity(g, r, t) >= modularity(g, p, t)


class TestPartitionIO:
    def test_round_trip(self):
        rng = random.Random(13)
        labels = ["alpha", "b", "c-3", "d", "e"]
        p = random_partition(rng, 5)
        text = format_partition(p, labels)
        assert parse_partition(text, labels) == p

    def test_arbitrary_community_tokens(self):
        p = parse_partition("a x\nb y\nc x\n", ["a", "b", "c"])
        assert p.assign == [0, 1, 0]

    def test_unknown_label_rejected(self):
        with pytest.raises(FormatError):
            parse_partition("z 0\n", ["a"])

    def test_missing_vertex_rejected(self):
        with pytest.raises(FormatError):
            parse_partition("a 0\n", ["a", "b"])

    def test_double_assignment_rejected(self):
        with pytest.raises(FormatError):
            parse_partition("a 0\na 1\nb 0\n", ["a", "b"])

    def test_malformed_line_rejected(self):
        with pytest.raises(FormatError, match="line 2: expected 'vertexLabel communityId'"):
            parse_partition("a 0\nb 0 extra\n", ["a", "b"])

    def test_iterable_of_lines(self):
        p = parse_partition(io.StringIO("a x\n# comment\nb y\nc x\n"), ["a", "b", "c"])
        assert p.assign == [0, 1, 0]

    @pytest.mark.parametrize("sep", [
        "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r", "\r\n", "\n"])
    @pytest.mark.parametrize("probe", ["a b{sep}c d", "a b{sep}c", "a b 2{sep}{sep}x y z w"])
    def test_text_and_stream_split_alike(self, probe, sep):
        """A text and a stream of it give the same lines, wherever
        ``str.splitlines`` breaks: equal results, or equal errors with
        equal line numbers."""
        text = probe.format(sep=sep)
        for read in (_graph_rows, lambda source: parse_partition(source, ["a", "c"]).assign):
            want = _result_or_error(read, text)
            for stream in (io.StringIO(text), io.StringIO(text, newline="")):
                assert _result_or_error(read, stream) == want

    @pytest.mark.parametrize("probe", ["a b\nc a", "# mark\na b\nc a", "\na b\nc a"])
    def test_one_leading_byte_order_mark_is_dropped(self, probe):
        """A U+FEFF that opens a text or a stream of lines is no part of the
        first label, of a graph or of a partition."""
        want = _graph_rows(probe)
        for source in ("\ufeff" + probe, io.StringIO("\ufeff" + probe), ["\ufeff" + probe]):
            assert _graph_rows(source) == want
        part = "\ufeff" + "".join(f"{label} {c}\n" for c, label in enumerate(want[0]))
        for source in (part, io.StringIO(part)):
            assert parse_partition(source, want[0]).assign == [0, 1, 2]

    def test_only_the_first_byte_order_mark_is_dropped(self):
        """A second mark, or one that opens a later line, stays in its label."""
        assert _graph_rows("\ufeff\ufeffa b\nc a")[0] == ["\ufeffa", "b", "c", "a"]
        for source in ("a b\n\ufeffc a", ["a b\n", "\ufeffc a"]):
            assert _graph_rows(source)[0] == ["a", "b", "\ufeffc"]
        with pytest.raises(FormatError) as exc:
            parse_partition("\ufeff\ufeffa 0\nb 0\n", ["a", "b"])
        assert str(exc.value) == "line 1: unknown vertex label '\\ufeffa'"


def _graph_rows(source):
    g, labels = load_edge_list(source)
    return labels, g.adj


def _result_or_error(read, source):
    """``read(source)``, or the text of the FormatError it raises."""
    try:
        return read(source)
    except FormatError as exc:
        return str(exc)


class TestCompose:
    def test_grouping_blocks(self):
        p = Partition([0, 0, 1, 2])
        q = Partition([0, 0, 1])  # group p's first two blocks
        assert compose(p, q).assign == [0, 0, 0, 1]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Partition([0, 1]), Partition([0, 0, 1]))
