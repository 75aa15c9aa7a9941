"""Differential tests: the vectorized codecs against the loop-based reference.

For every input, well-formed or mutated, a library reader must return the
graph the reference reader returns, or raise a ValueError of the same class
with the same message. Writers must write the same bytes. The mutations cover
what a hand-edited or foreign file holds: duplicated, swapped, out-of-range,
diagonal and malformed lines; interleaved comments and blank lines; other
line breaks; tokens that `int` reads in more than one spelling; and, for
graph6, flipped padding bits, bad bytes and broken size headers.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codec_reference as reference
from graphenergy import (Graph, adjacency_spectrum, complete_graph, empty_graph,
                         generalized_splitting, io, random_graph)

from test_io import graphs

WRITERS = ("encode_graph6", "write_matrix_market", "write_edge_list")
TEXT_CODECS = [("read_matrix_market", "write_matrix_market", "%"),
               ("read_edge_list", "write_edge_list", "#")]


def outcome(fn, data):
    try:
        return fn(data)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_outcome(name, data):
    want = outcome(getattr(reference, name), data)
    assert outcome(getattr(io, name), data) == want, data


@given(graphs(max_order=40))
@settings(max_examples=80, deadline=None)
def test_writers_write_the_reference_bytes(g):
    for name in WRITERS:
        assert getattr(io, name)(g) == getattr(reference, name)(g)


def test_writers_at_the_long_header_boundary():
    for n in (62, 63, 64, 130):
        for p in (0.0, 0.3, 1.0):
            g = random_graph(n, p, seed=n)
            for name in WRITERS:
                assert getattr(io, name)(g) == getattr(reference, name)(g)


def _first_edges(n: int, m: int) -> Graph:
    """Order n with the first m upper-triangle pairs, in row-major order, as edges."""
    a = np.zeros((n, n), dtype=np.uint8)
    rows, cols = np.triu_indices(n, 1)
    a[rows[:m], cols[:m]] = 1
    return Graph(a | a.T)


# the hypothesis writer test stops at order 40: these cross the label widths
# (edge lists number from 0, Matrix Market from 1), the slab size of the
# label table, and the graphs with no edge line at all
@pytest.mark.parametrize("g", [
    *(random_graph(n, 0.5, seed=n) for n in (9, 10, 11)),
    *(random_graph(n, 0.1, seed=n) for n in (99, 100, 101)),
    *(random_graph(n, 0.002, seed=n) for n in (999, 1000, 1001)),
    *(_first_edges(100, io._SLAB_EDGES + d) for d in (-1, 0, 1)),
    empty_graph(12),
    complete_graph(1),
], ids=lambda g: f"n{g.order}-m{g.edge_count}")
@pytest.mark.parametrize("name", ["write_matrix_market", "write_edge_list"])
def test_text_writers_across_label_widths_and_slabs(name, g):
    assert getattr(io, name)(g) == getattr(reference, name)(g)


# -- text formats ---------------------------------------------------------------

def _respell(token: str, form: str) -> str:
    """`token` spelled another way that `int` may or may not accept."""
    if form == "plus":
        return "+" + token
    if form == "zeros":
        return "00" + token
    if form == "underscore":
        return token[0] + "_" + token[1:] if len(token) > 1 else token + "_"
    if form == "arabic":  # Arabic-Indic digits: int() reads them
        return token.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    if form == "negative":
        return "-" + token
    return form  # a literal replacement


TOKEN_FORMS = ["plus", "zeros", "underscore", "arabic", "negative", "x", "1.0",
               "0x1", "1e2", "0", "-0", "9" * 25, "+-1", "½", "٣"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\x85", "\u2028", "\n\n", "\n \t\n"]


@st.composite
def mutated_texts(draw, writer, comment, max_order=12, well_formed=False):
    g = draw(graphs(max_order=max_order))
    lines = writer(g).split("\n")[:-1]
    head = 3 if comment == "%" else 2  # the lines before the entries
    if draw(st.booleans()):
        lines[head:] = draw(st.permutations(lines[head:]))
    n = g.order
    kinds = ["comment", "blank", "respace"]
    if not well_formed:
        kinds += ["duplicate", "swap", "range", "diagonal", "three", "one",
                  "token", "delete", "directive", "header"]
    for _ in range(draw(st.integers(0 if well_formed else 1, 4))):
        kind = draw(st.sampled_from(kinds))
        at = draw(st.integers(1 if well_formed else 0, len(lines)))  # 0: before the banner
        pick = draw(st.integers(0, len(lines) - 1))
        tokens = lines[pick].split(" ")
        if kind == "comment":
            lines.insert(at, draw(st.sampled_from([comment, " " + comment + " note", comment * 2])))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "  ", "\t", " \xa0"])))
        elif kind == "respace":
            sep = draw(st.sampled_from(["  ", "\t", " \t ", "\xa0", " "]))
            lines[pick] = draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens) + \
                draw(st.sampled_from(["", " ", "\t "]))
        elif kind == "duplicate":
            lines.insert(at, lines[pick])
        elif kind == "swap":
            lines[pick] = " ".join(reversed(tokens))
        elif kind == "range":
            value = draw(st.sampled_from([0, -1, n - 1, n, n + 1, n + 7, 10**20]))
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(value)
            lines[pick] = " ".join(tokens)
        elif kind == "diagonal":
            lines[pick] = f"{tokens[0]} {tokens[0]}"
        elif kind == "three":
            lines[pick] = lines[pick] + " " + str(draw(st.integers(0, n + 1)))
        elif kind == "one":
            lines[pick] = tokens[0]
        elif kind == "token":
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i] = _respell(tokens[i], draw(st.sampled_from(TOKEN_FORMS)))
            lines[pick] = " ".join(tokens)
        elif kind == "delete":
            del lines[pick]
            if not lines:
                break
        elif kind == "directive":
            lines.insert(at, f"{comment} order {draw(st.integers(0, n + 2))}")
        elif kind == "header":
            lines[pick] = draw(st.sampled_from([
                "%%MatrixMarket matrix coordinate pattern general",
                "%%MatrixMarket matrix coordinate real symmetric",
                "%%MatrixMarket matrix array pattern symmetric",
                f"{n} {n}", f"{n} {n + 1} 1", f"{n} {n} {len(lines)}", "0 0 0",
            ]))
    breaks = LINE_BREAKS if not well_formed else LINE_BREAKS[:3]
    sep = draw(st.sampled_from(breaks))
    return g, sep.join(lines) + draw(st.sampled_from([sep, "", sep + "  "]))


@pytest.mark.parametrize("reader, writer, comment", TEXT_CODECS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_readers_match_the_reference_on_mutated_text(reader, writer, comment, data):
    _, text = data.draw(mutated_texts(getattr(reference, writer), comment))
    assert_same_outcome(reader, text)


@pytest.mark.parametrize("reader, writer, comment", TEXT_CODECS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_well_formed_text_reads_back_the_graph(reader, writer, comment, data):
    g, text = data.draw(mutated_texts(getattr(reference, writer), comment,
                                      max_order=40, well_formed=True))
    assert getattr(io, reader)(text) == getattr(reference, reader)(text) == g


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "%%MatrixMarket matrix coordinate pattern symmetric",
    "%%MatrixMarket matrix coordinate pattern symmetric\n% only comments\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n3 1 \n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n3 1\n3 1",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n4 1\n2 2\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 2\n4 1\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 0\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 -1\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n2 1\n1 3\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n2 x\n2 1\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n2 1\n2 x\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n9223372036854775807 1\n2 1\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n99999999999999999999 1\n2 1\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n3 1\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\r\n3 3 1\r\n3 1\r\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 x\n",
])
def test_matrix_market_edge_cases(text):
    assert_same_outcome("read_matrix_market", text)


@pytest.mark.parametrize("text", [
    "",
    "# order 0\n",
    "# order 3\n",
    "#order 3\n0 1\n",
    "# order 3\n0 1\n# order 5\n",
    "0 1\n1 0\n0 x\n",
    "0 1\n0 x\n1 0\n",
    "0 1\n0 1\n# order 1\n",
    "0 1\n2 2\n",
    "# order 2\n0 5\n0 1\n0 1\n",
    "# order 2\n0 1\n0 1\n0 5\n",
    "0 99999999999999999999\n",
    "# order 3\n0 99999999999999999999\n",
    "99999999999999999999 99999999999999999999\n",
    "99999999999999999998 99999999999999999999\n",
    "-99999999999999999999 1\n",
    "0 9223372036854775807\n",
    "# order 2\n0 9223372036854775807\n",
    "0 1 # trailing comment\n",
    "0 1\r\n1 2\r\n",
    "# order ٣\n0 1\n",
])
def test_edge_list_edge_cases(text):
    assert_same_outcome("read_edge_list", text)


def test_huge_inferred_order_is_capped_with_the_same_message(monkeypatch):
    monkeypatch.setenv("SPECTRAL_MAX_ORDER", "50")
    for text in ("0 60\n", "0 1\n# order 51\n", "0 ٦٠\n"):
        assert_same_outcome("read_edge_list", text)
    header = "%%MatrixMarket matrix coordinate pattern symmetric\n"
    assert_same_outcome("read_matrix_market", header + "60 60 1\n2 1\n")


# -- graph6 ---------------------------------------------------------------------

@st.composite
def seeded_graphs(draw, max_order):
    """Random graphs up to orders past graph6's long size header, drawn
    quickly from a seed rather than bit by bit."""
    n = draw(st.integers(1, max_order))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    return random_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def mutated_graph6(draw):
    g = draw(seeded_graphs(max_order=90))
    data = bytearray(reference.encode_graph6(g))
    head = 4 if data[0] == 126 else 1
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["padding", "bad_byte", "replace", "truncate", "extend", "size", "prefix"]))
        if kind == "padding" and len(data) > head:
            nbits = g.order * (g.order - 1) // 2
            padding = (-nbits) % 6
            if padding:
                data[-1] += draw(st.integers(1, (1 << padding) - 1))
        elif kind == "bad_byte":
            value = draw(st.one_of(st.integers(0, 62), st.integers(127, 255)))
            data.insert(draw(st.integers(0, len(data))), value)
        elif kind == "replace":
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(63, 126))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data) - 1)):]
        elif kind == "extend":
            data += bytes(draw(st.lists(st.integers(63, 126), min_size=1, max_size=3)))
        elif kind == "size":
            data[:head] = draw(st.sampled_from(
                [b"~", b"~~", b"~??", b"~?@@", b"~@??", b"~?A?", b"?", b"~~~~"]))
            head = 0
        elif kind == "prefix":
            data[:0] = draw(st.sampled_from([b">>graph6<<", b" ", b"\t", b">>graph6<<\n"]))
            head = 0
        if not data:
            break
    return bytes(data) + draw(st.sampled_from([b"", b"\n", b" \r\n"]))


@given(mutated_graph6())
@settings(max_examples=200, deadline=None)
def test_graph6_decoder_matches_the_reference_on_mutated_bytes(data):
    assert_same_outcome("decode_graph6", data)
    assert_same_outcome("decode_graph6", data.decode("latin-1"))


@given(seeded_graphs(max_order=90))
@settings(max_examples=60, deadline=None)
def test_graph6_decoder_reads_back_the_graph(g):
    data = reference.encode_graph6(g)
    assert io.decode_graph6(data) == reference.decode_graph6(data) == g


def test_graph6_names_the_first_bad_byte():
    for data in (b"B\x1fw\x00", b"Bw\x80\x1f", b"\x00", b"~\x7f??"):
        assert_same_outcome("decode_graph6", data)


# -- memory ---------------------------------------------------------------------

def _peak_bytes(fn, arg) -> int:
    fn(arg)  # warm caches (compiled regexes, imports)
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["write_matrix_market", "read_matrix_market",
                                  "write_edge_list", "read_edge_list", "decode_graph6"])
def test_peak_memory_at_order_400_is_no_higher_than_the_reference(name):
    g = random_graph(400, 0.5, seed=400)
    arg = {"read_matrix_market": io.write_matrix_market(g),
           "read_edge_list": io.write_edge_list(g),
           "decode_graph6": io.encode_graph6(g)}.get(name, g)
    assert _peak_bytes(getattr(io, name), arg) <= _peak_bytes(getattr(reference, name), arg)


# peak traced bytes per byte of text at order 400 (about 0.3 MB of text): the
# codecs before the 1-D rewrite held 7.6 (writers) and 9.9 (readers), a writer
# that pads the label table for all edges at once 5.3
TEXT_PEAK_PER_TEXT_BYTE = {"write_matrix_market": 4, "write_edge_list": 4,
                           "read_matrix_market": 8, "read_edge_list": 8}


@pytest.mark.parametrize("name", TEXT_PEAK_PER_TEXT_BYTE)
def test_text_codec_peak_memory_per_text_byte_at_order_400(name):
    g = random_graph(400, 0.5, seed=400)
    text = (io.write_matrix_market if "matrix" in name else io.write_edge_list)(g)
    arg = text if name.startswith("read") else g
    assert _peak_bytes(getattr(io, name), arg) <= TEXT_PEAK_PER_TEXT_BYTE[name] * len(text)


def test_graph6_encoder_memory_is_a_few_bytes_per_entry():
    # two int64 triangle index arrays alone would take 8 n^2 bytes
    g = random_graph(400, 0.5, seed=400)
    assert _peak_bytes(io.encode_graph6, g) <= 2 * g.order ** 2
    assert io.encode_graph6(g) == reference.encode_graph6(g)


def test_graph_validation_holds_two_bytes_per_entry():
    # a uint8 copy plus one boolean temporary; np.isin and int casts took 12 n^2
    a = random_graph(400, 0.5, seed=400).adjacency.copy()
    assert _peak_bytes(Graph, a) <= 3 * a.size


def test_adjacency_spectrum_holds_one_float64_copy():
    # numpy's eigvalsh copies the matrix once more outside tracemalloc's view
    g = random_graph(400, 0.5, seed=400)
    assert _peak_bytes(adjacency_spectrum, g) <= 1.1 * 8 * g.order ** 2


def test_kronecker_build_over_one_vertex_holds_a_few_copies_of_the_result():
    # the coefficient matrix is as large as the order-2000 result here
    result_bytes = 2000 ** 2
    peak = _peak_bytes(lambda g: generalized_splitting(g, 1999, 1), complete_graph(1))
    assert peak <= 4 * result_bytes
