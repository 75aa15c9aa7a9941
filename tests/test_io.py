import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    generalized_splitting,
    path_graph,
    read_edge_list,
    read_graph_text,
    read_matrix_market,
    star_graph,
    write_edge_list,
    write_graph_text,
    write_matrix_market,
)

from graphenergy import io
from conftest import random_graphs


@st.composite
def graphs(draw, max_order=30):
    n = draw(st.integers(min_value=1, max_value=max_order))
    nbits = n * (n - 1) // 2
    bits = draw(st.lists(st.booleans(), min_size=nbits, max_size=nbits))
    a = np.zeros((n, n), dtype=np.uint8)
    k = 0
    for col in range(1, n):
        for row in range(col):
            a[row, col] = a[col, row] = bits[k]
            k += 1
    return Graph(a)


GENERATOR_SAMPLES = [
    complete_graph(1),
    complete_graph(3),
    complete_graph(8),
    complete_bipartite(2, 3),
    complete_bipartite(4, 4),
    cycle_graph(4),
    cycle_graph(7),
    path_graph(5),
    star_graph(4),
    empty_graph(6),
    disjoint_union([complete_graph(7), complete_graph(8)]),
]


class TestGraph6:
    def test_single_vertex(self):
        assert encode_graph6(complete_graph(1)) == b"@"
        assert decode_graph6(b"@") == complete_graph(1)

    def test_empty_two_vertices(self):
        assert encode_graph6(empty_graph(2)) == b"A?"
        assert decode_graph6("A?") == empty_graph(2)

    def test_triangle(self):
        assert encode_graph6(complete_graph(3)) == b"Bw"
        assert decode_graph6(b"Bw") == complete_graph(3)

    def test_optional_format_header(self):
        assert decode_graph6(b">>graph6<<Bw") == complete_graph(3)

    @pytest.mark.parametrize("g", GENERATOR_SAMPLES, ids=repr)
    def test_round_trip_generators(self, g):
        assert decode_graph6(encode_graph6(g)) == g

    def test_round_trip_random(self):
        for g in random_graphs(100, 30, seed=101):
            assert decode_graph6(encode_graph6(g)) == g

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, g):
        assert decode_graph6(encode_graph6(g)) == g

    def test_long_size_header(self):
        for n in (63, 100):
            g = empty_graph(n)
            data = encode_graph6(g)
            assert data[0] == 126
            assert decode_graph6(data) == g

    def test_rejects_nonprintable(self):
        with pytest.raises(ValueError, match="non-printable"):
            decode_graph6(b"B\x1fw")

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            decode_graph6(b"?")

    def test_rejects_truncated_payload(self):
        with pytest.raises(ValueError, match="payload"):
            decode_graph6(b"B")

    def test_rejects_extra_payload(self):
        with pytest.raises(ValueError, match="payload"):
            decode_graph6(b"Bww")

    def test_rejects_nonzero_padding(self):
        # order 3 uses 3 of 6 bits; 'w' + 1 sets a padding bit
        with pytest.raises(ValueError, match="padding"):
            decode_graph6(bytes([66, 119 + 1]))

    def test_rejects_truncated_size_header(self):
        with pytest.raises(ValueError, match="size header"):
            decode_graph6(b"~?")

    def test_rejects_a_long_size_header_for_a_short_order(self):
        # orders up to 62 take the one-byte header
        with pytest.raises(ValueError, match="^graph6 long-form size header with order 6$"):
            decode_graph6(b"~??E")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            decode_graph6(b"")


class TestMatrixMarket:
    def test_single_vertex_has_no_entries(self):
        text = write_matrix_market(complete_graph(1))
        assert text.splitlines()[0] == "%%MatrixMarket matrix coordinate pattern symmetric"
        assert text.splitlines()[-1] == "1 1 0"

    def test_single_edge(self):
        text = write_matrix_market(complete_bipartite(1, 1))
        lines = [l for l in text.splitlines() if not l.startswith("%")]
        assert lines == ["2 2 1", "2 1"]

    def test_coordinates_are_one_based_lower_triangle(self):
        for line in write_matrix_market(cycle_graph(5)).splitlines()[3:]:
            i, j = map(int, line.split())
            assert i > j >= 1

    @pytest.mark.parametrize("g", GENERATOR_SAMPLES, ids=repr)
    def test_round_trip_generators(self, g):
        assert read_matrix_market(write_matrix_market(g)) == g

    def test_round_trip_random(self):
        for g in random_graphs(100, 30, seed=202):
            assert read_matrix_market(write_matrix_market(g)) == g

    def test_round_trip_operator_graph(self):
        g = generalized_splitting(cycle_graph(4), 2, 2)
        assert read_matrix_market(write_matrix_market(g)) == g

    def test_rejects_general_symmetry(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n"
        with pytest.raises(ValueError, match="symmetric"):
            read_matrix_market(text)

    def test_rejects_array_format(self):
        text = "%%MatrixMarket matrix array pattern symmetric\n2 2\n"
        with pytest.raises(ValueError, match="^unsupported Matrix Market type matrix array$"):
            read_matrix_market(text)

    def test_rejects_real_field(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1.0\n"
        with pytest.raises(ValueError, match="pattern"):
            read_matrix_market(text)

    def test_rejects_self_loop(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 1\n"
        with pytest.raises(ValueError, match="^self-loop entry at vertex 1 is not allowed$"):
            read_matrix_market(text)

    def test_rejects_upper_triangle_entry(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n"
        with pytest.raises(ValueError, match="above the diagonal"):
            read_matrix_market(text)

    def test_rejects_duplicate(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 1\n2 1\n"
        with pytest.raises(ValueError, match="duplicate"):
            read_matrix_market(text)

    def test_rejects_a_line_of_one_token_when_the_block_holds_pairs_of_tokens(self):
        # four tokens would read as the entries (2, 1) and (3, 1)
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2\n1 3 1\n"
        with pytest.raises(ValueError, match="^malformed coordinate line: '2'$"):
            read_matrix_market(text)

    def test_rejects_count_mismatch(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 1\n"
        with pytest.raises(ValueError, match="expected 2 entries"):
            read_matrix_market(text)

    def test_rejects_rectangular(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 0\n"
        with pytest.raises(ValueError, match="square"):
            read_matrix_market(text)

    def test_rejects_nonpositive_dimension(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n"
        with pytest.raises(ValueError, match="size line"):
            read_matrix_market(text)


class TestEdgeList:
    def test_writer_layout(self):
        text = write_edge_list(path_graph(3))
        lines = text.splitlines()
        assert lines[1] == "# order 3"
        assert lines[2:] == ["0 1", "1 2"]

    def test_round_trip_preserves_isolated_vertices(self):
        g = disjoint_union([path_graph(2), empty_graph(3)])
        assert read_edge_list(write_edge_list(g)) == g

    @pytest.mark.parametrize("g", GENERATOR_SAMPLES, ids=repr)
    def test_round_trip_generators(self, g):
        assert read_edge_list(write_edge_list(g)) == g

    def test_round_trip_random(self):
        for g in random_graphs(100, 30, seed=303):
            assert read_edge_list(write_edge_list(g)) == g

    def test_reader_infers_order_without_directive(self):
        assert read_edge_list("0 1\n1 2\n") == path_graph(3)

    def test_rejects_self_loop(self):
        # the reader's own message, not the one `Graph` gives a nonzero diagonal
        with pytest.raises(ValueError, match="^self-loop at vertex 1 is not allowed$"):
            read_edge_list("# order 3\n1 1\n")

    def test_rejects_reversed_pair(self):
        with pytest.raises(ValueError, match="u < v"):
            read_edge_list("1 0\n")

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_edge_list("0 1\n0 1\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            read_edge_list("# order 2\n0 5\n")

    def test_rejects_a_line_of_one_token_when_the_block_holds_pairs_of_tokens(self):
        # four tokens would read as the edges (0, 1) and (0, 2)
        with pytest.raises(ValueError, match="^malformed edge line: '0'$"):
            read_edge_list("# order 3\n0\n1 0 2\n")

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="negative"):
            read_edge_list("# order 3\n-1 2\n")

    def test_rejects_edgeless_without_order(self):
        with pytest.raises(ValueError, match="order"):
            read_edge_list("# just a comment\n")


class _LineLoopReached(Exception):
    pass


class TestOnePassParse:
    """Writer output must be built by the one-pass parse. A parse that left
    every block to the line loops would pass every other test, and make a
    read of an order-400 graph over ten times slower."""

    @pytest.fixture(autouse=True)
    def no_line_loops(self, monkeypatch):
        def reached(*args):
            raise _LineLoopReached
        monkeypatch.setattr(io, "_matrix_market_lines", reached)
        monkeypatch.setattr(io, "_edge_list_lines", reached)

    @pytest.mark.parametrize(
        "g",
        [g for g in GENERATOR_SAMPLES if g.edge_count]
        + [g for g in random_graphs(20, 30, seed=404) if g.edge_count],
        ids=repr,
    )
    def test_writer_output_skips_the_line_loops(self, g):
        assert read_matrix_market(write_matrix_market(g)) == g
        assert read_edge_list(write_edge_list(g)) == g

    @pytest.mark.parametrize("entries", [
        "3 3 2\n2 1\n2 1\n",  # a duplicated line
        "3 3 2\n2 1\n1 3\n",  # a swapped pair
        "3 3 2\n2 1\n4 1\n",  # an out-of-range index
        "3 3 2\n2 1\n2 0\n",  # a zero index
        "3 3 3\n2 1\n3 1\n",  # an entry count that does not match
        "3 3 2\n2\n1 3 1\n",  # lines of one and three tokens, four in all
    ])
    def test_invalid_digit_blocks_reach_the_matrix_market_loop(self, entries):
        with pytest.raises(_LineLoopReached):
            read_matrix_market("%%MatrixMarket matrix coordinate pattern symmetric\n" + entries)

    @pytest.mark.parametrize("text", [
        "# order 3\n0 1\n0 1\n",  # a duplicated line
        "# order 3\n0 1\n2 1\n",  # a swapped pair
        "# order 3\n0 1\n1 1\n",  # a self-loop
        "# order 3\n0 1\n0 3\n",  # an out-of-range index
        "# order 0\n",  # an order below one
        "# no order\n",  # an edgeless list with no order to infer
        "# order 3\n0\n1 0 2\n",  # lines of one and three tokens, four in all
    ])
    def test_invalid_digit_blocks_reach_the_edge_list_loop(self, text):
        with pytest.raises(_LineLoopReached):
            read_edge_list(text)


@pytest.mark.parametrize("fmt", ["graph6", "mtx", "edges"])
@given(g=graphs(max_order=20))
@settings(max_examples=40, deadline=None)
def test_text_round_trip_all_formats(fmt, g):
    assert read_graph_text(write_graph_text(g, fmt), fmt) == g


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown graph format"):
        write_graph_text(complete_graph(2), "dot")
    with pytest.raises(ValueError, match="unknown graph format"):
        read_graph_text("", "dot")
