import pytest
from hypothesis import given

from indomatic import (
    VertexPartition,
    directed_cycle,
    lambda_number,
    make_digraph,
    subdivision,
)
from indomatic.fileio import (
    ParseError,
    parse_digraph,
    parse_partition,
    write_arc_partition,
    write_digraph,
    write_dot,
    write_partition,
)

from .conftest import digraphs


class TestDigraphRoundTrip:
    def test_canonical_byte_identity(self, k3):
        text = write_digraph(k3)
        assert write_digraph(parse_digraph(text)) == text

    @given(digraphs())
    def test_round_trip_any(self, D):
        text = write_digraph(D)
        assert parse_digraph(text) == D
        assert write_digraph(parse_digraph(text)) == text

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\nn 3\n0 1\n# middle\n1 2\n2 0\n"
        assert parse_digraph(text) == directed_cycle(3)

    def test_canonical_form_is_sorted(self, k3):
        lines = write_digraph(k3).splitlines()
        assert lines[0] == "n 3"
        assert lines[1:] == sorted(lines[1:])


class TestDigraphParseErrors:
    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_digraph("# nothing\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_digraph("m 3\n")

    def test_non_integer_endpoint(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_digraph("n 2\n0 x\n")

    def test_arc_out_of_range_carries_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_digraph("n 2\n0 1\n0 5\n")

    def test_loop_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_digraph("n 2\n1 1\n")

    def test_duplicate_carries_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_digraph("n 2\n0 1\n0 1\n")

    @pytest.mark.parametrize(
        "arcs,bad",
        [
            ([(0, 1), (1, 2), (2, 2), (2, 0)], 2),
            ([(0, 1), (1, 2), (2, 3), (2, 0)], 2),
            ([(0, 1), (1, 2), (2, 0), (1, 2)], 3),
        ],
        ids=["loop", "range", "duplicate"],
    )
    def test_arc_rules_blame_the_first_bad_arc_line(self, arcs, bad):
        # A comment and a blank line precede the header, and a blank or a
        # comment line precedes each arc, so arc i sits on line 5 + 2 * i.
        text = "# header next\n\nn 3\n" + "".join(
            f"# arc {i}\n{u} {v}\n" if i % 2 else f"\n{u} {v}\n"
            for i, (u, v) in enumerate(arcs)
        )
        with pytest.raises(ValueError) as expected:
            make_digraph(3, arcs)
        with pytest.raises(ParseError) as got:
            parse_digraph(text)
        assert str(got.value) == f"line {5 + 2 * bad}: {expected.value}"

    @pytest.mark.parametrize("text", ["n -1\n", "n -1\n0 1\n", "# c\nn -1\n\n1 0\n"])
    def test_negative_vertex_count_blames_the_header(self, text):
        header = 1 + text.startswith("#")
        with pytest.raises(ParseError) as got:
            parse_digraph(text)
        assert str(got.value) == f"line {header}: vertex_count must be nonnegative, got -1"

    def test_malformed_arc_line_is_reported_before_the_vertex_count(self):
        with pytest.raises(ParseError) as got:
            parse_digraph("n -1\n0 1\n0 x\n")
        assert str(got.value) == "line 3: non-integer endpoint in '0 x'"


class TestPartitionFiles:
    def test_round_trip(self, k4):
        P = VertexPartition.from_blocks([[0, 2], [1], [3]])
        text = write_partition(P)
        assert set(parse_partition(text, k4).blocks()) == set(P.blocks())
        assert write_partition(parse_partition(text, k4)) == text

    def test_canonical_block_order(self, k4):
        P = VertexPartition.from_blocks([[3], [0, 2], [1]])
        assert write_partition(P) == "0 2\n1\n3\n"

    def test_vertex_out_of_range(self, k3):
        with pytest.raises(ParseError, match="outside"):
            parse_partition("0 1\n2 7\n", k3)

    def test_duplicate_vertex(self, k3):
        with pytest.raises(ParseError, match="already"):
            parse_partition("0 1\n1 2\n", k3)

    def test_missing_vertex(self, k3):
        with pytest.raises(ParseError, match="no block"):
            parse_partition("0 1\n", k3)

    def test_empty_file(self, k3):
        with pytest.raises(ParseError):
            parse_partition("# only comments\n", k3)


class TestArcPartitionListing:
    def test_lambda_witness(self, k3):
        result = lambda_number(k3)
        text = write_arc_partition(result.witness)
        lines = text.splitlines()
        assert len(lines) == result.value
        tokens = " ".join(lines).split()
        assert len(tokens) == len(k3.arcs)
        assert all("," in t for t in tokens)


class TestDotExport:
    def test_plain(self, c3):
        dot = write_dot(c3)
        assert dot.startswith("digraph G {")
        assert "  0 -> 1;" in dot

    def test_tagged_labels(self, c3):
        S, tags = subdivision(c3)
        dot = write_dot(S, tags)
        assert 'label="v0"' in dot
        assert 'label="a(0,1)"' in dot
