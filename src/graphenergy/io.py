"""Graph file formats: graph6, Matrix Market coordinate, and plain edge lists.

All three writers round-trip bit-exactly through their matching readers.
graph6 is the compact interchange format; Matrix Market (coordinate pattern
symmetric, 1-based) targets numerics tools; edge lists are human-editable
ASCII with 0-based indices.

The codecs work on whole arrays. graph6 bits go through a boolean triangle
mask. The text writers gather fixed-width per-vertex labels with `take`, a
bounded slab of edges at a time, and delete the padding.

Each text reader has a line-by-line loop that defines what it accepts and
every message it raises. A one-pass parse runs first: it reads a block of
plain ASCII digit pairs, as the writers write them, in one `np.fromstring`
call, and builds the graph only when it proves the block valid. Any other
block, faulty or spelled otherwise, goes to the loop.

The passes stay on numpy's fast 1-D kernels. Two slow paths are avoided,
timed on an order-400 graph of density 0.5: the 2-D `np.nonzero` of the
upper triangle (0.68 ms, against 0.11 ms for `flatnonzero` and `divmod`),
and indexing with an irregular boolean mask (0.28 ms, against 0.13 ms for
`take` of a `flatnonzero`).
"""

from __future__ import annotations

import re

import numpy as np

from .graphs import Graph, _upper_edges, check_order

GRAPH6_MAX_ORDER = 258_047  # three-byte size header limit
_GRAPH6_HEADER = b">>graph6<<"
_BIT_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
_BIT_SHIFTS = np.array([5, 4, 3, 2, 1, 0], dtype=np.uint8)


def _graph6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 63 <= n <= 258047: '~' marker then 18 bits, big-endian, 6 bits per byte
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def _graph6_mask(n: int) -> np.ndarray:
    """Boolean mask of the strict lower triangle of an n x n matrix.

    Read in row-major order it visits (1,0), (2,0), (2,1), (3,0), ...; for a
    symmetric matrix that is the upper triangle column by column, graph6's bit
    order. The mask costs one byte per entry, where `np.tril_indices` would
    cost two int64 indices per bit.
    """
    return np.tri(n, k=-1, dtype=bool)


def encode_graph6(g: Graph) -> bytes:
    """Encode a graph in graph6 format.

    The upper triangle is read column by column (x_{0,1}, x_{0,2}, x_{1,2},
    x_{0,3}, ...), packed big-endian into 6-bit groups, zero-padded, and each
    group is offset by 63 to give a printable byte.
    """
    n = g.order
    if n > GRAPH6_MAX_ORDER:
        raise ValueError(
            f"graph6 supports order <= {GRAPH6_MAX_ORDER}, got {n}"
        )
    bits = g.adjacency[_graph6_mask(n)]
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=np.uint8)])
    groups = bits.reshape(-1, 6) @ _BIT_WEIGHTS
    return _graph6_size_bytes(n) + (groups + 63).tobytes()


def decode_graph6(data) -> Graph:
    """Decode a graph6 byte string (or str) back into a Graph.

    Rejects malformed size headers, bytes outside the printable 63..126
    range, wrong payload length, and nonzero padding bits.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    data = bytes(data).strip()
    if data.startswith(_GRAPH6_HEADER):
        data = data[len(_GRAPH6_HEADER) :]
    if not data:
        raise ValueError("empty graph6 string")
    raw = np.frombuffer(data, dtype=np.uint8)
    outside = (raw < 63) | (raw > 126)
    if outside.any():
        raise ValueError(f"non-printable graph6 byte {raw[outside.argmax()]}")

    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError(
                f"eight-byte graph6 size headers (order > {GRAPH6_MAX_ORDER}) "
                "are not supported"
            )
        if len(data) < 4:
            raise ValueError("malformed graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise ValueError(f"graph6 long-form size header with order {n}")
        body = raw[4:] - 63
    else:
        n = data[0] - 63
        body = raw[1:] - 63
    if n < 1:
        raise ValueError("graph order must be >= 1")
    check_order(n)

    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 payload has {len(body)} bytes, expected {expected} for order {n}"
        )
    padding = 6 * expected - nbits
    if padding and body[-1] & ((1 << padding) - 1):
        raise ValueError("graph6 padding bits must be zero")

    a = np.zeros((n, n), dtype=np.uint8)
    a[_graph6_mask(n)] = ((body[:, None] >> _BIT_SHIFTS) & 1).ravel()[:nbits]
    # the mirror copies the overlapping a.T, but only once the mask and bits
    # are freed, so the line above sets the traced peak; `a.T[mask] = bits`
    # copies nothing, yet raised the peak RSS of the benchmark's file-convert
    # loop by 0.2 MiB under glibc malloc. The fresh matrix is adopted, not copied.
    a |= a.T
    return Graph._adopt(a)


# edges per slab of the padded label table; bounds its size and that of its copy
_SLAB_EDGES = 4096


def _edge_lines(g: Graph, base: int, larger_first: bool) -> str:
    """One "x y" line per edge, in row-major upper-triangle order.

    Vertices are numbered from `base`; `larger_first` names the larger
    endpoint first. Per-vertex "x " and "y\n" labels sit in fixed-width
    byte tables, NUL-padded to the longest label; `take` gathers them into
    a (k, 2) table whose bytes, with the NULs deleted, are the lines. The
    table is filled a slab of edges at a time, so its padded copy stays
    small beside the text.
    """
    rows, cols = _upper_edges(g.adjacency)
    if larger_first:
        rows, cols = cols, rows
    width = len(str(g.order + base - 1)) + 1
    labels = range(base, g.order + base)
    first = np.array([f"{x} " for x in labels], dtype=f"S{width}")
    second = np.array([f"{x}\n" for x in labels], dtype=f"S{width}")
    slabs = []
    for start in range(0, rows.size, _SLAB_EDGES):
        slab = slice(start, start + _SLAB_EDGES)
        table = np.column_stack([first.take(rows[slab]), second.take(cols[slab])])
        slabs.append(table.tobytes().replace(b"\0", b""))
    del rows, cols  # the index arrays outweigh the text; free them before joining
    return b"".join(slabs).decode("ascii")


def write_matrix_market(g: Graph) -> str:
    """Matrix Market coordinate text (pattern, symmetric, 1-based).

    One line per edge, stored in the lower triangle (row > column) as the
    symmetric variant of the format requires.
    """
    return (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% undirected simple graph adjacency pattern\n"
        f"{g.order} {g.order} {g.edge_count}\n"
    ) + _edge_lines(g, 1, larger_first=True)


# the line boundaries of str.splitlines
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_INT64_MAX = np.iinfo(np.int64).max


def _lines(text: str):
    """Yield (line, end) for each line of `text`, split as `str.splitlines`
    splits; `end` is where the next line starts."""
    pos = 0
    while pos < len(text):
        m = _LINE_BREAK.search(text, pos)
        if m is None:
            yield text[pos:], len(text)
            return
        yield text[pos : m.start()], m.end()
        pos = m.end()


def _digit_pairs(block: str) -> np.ndarray | None:
    """The (k, 2) int64 array of the entries of `block`, if every line is
    blank or two runs of ASCII digits separated by spaces or tabs; else None.

    Byte masks prove that layout, and such a block then parses in one
    `np.fromstring` call, to the values `int` gives each token (leading zeros
    included). Each mask is freed once used up. Lines are counted over the
    token starts and line breaks, taken in text order with `take` of a
    `flatnonzero`: indexing with the irregular boolean mask itself takes
    twice as long.
    """
    if not block.isascii():
        return None
    b = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    digit = (b >= 48) & (b <= 57)
    newline = (b == 10) | (b == 13)
    if not (digit | newline | (b == 32) | (b == 9)).all():
        return None
    del b
    event = digit.copy()  # token starts, then line breaks as well
    event[1:] &= ~digit[:-1]
    del digit
    event |= newline
    is_break = newline.take(np.flatnonzero(event))
    del event, newline
    breaks = np.flatnonzero(is_break)
    per_line = np.diff(breaks, prepend=-1, append=is_break.size) - 1
    if not ((per_line == 0) | (per_line == 2)).all():
        return None
    values = np.fromstring(block, dtype=np.int64, sep=" ")
    # fromstring reads a blank block as [0], and saturates on overflow
    if values.size != is_break.size - breaks.size or (values.size and values.max() == _INT64_MAX):
        return None
    return values.reshape(-1, 2)


def _lower_triangle(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray | None:
    """The n x n adjacency matrix of the edges {i, j}, if every pair lies
    below the diagonal (0 <= j < i < n) and none repeats; else None. The
    order cap is checked in between, where the line loops check it."""
    if not ((j >= 0) & (j < i)).all() or int(i.max(initial=-1)) >= n:
        return None
    check_order(n)
    a = np.zeros((n, n), dtype=np.uint8)
    a.ravel()[i * n + j] = 1
    if np.count_nonzero(a) != len(i):
        return None
    a |= a.T
    return a


def _matrix_market_lines(block: str, nrows: int, nnz: int) -> Graph:
    """Read the entry lines `block` of a Matrix Market file of order `nrows`
    that states `nnz` entries. This loop defines what is accepted and every
    message: the entry count, then the order cap, then each line in turn."""
    entries = [e for e in block.splitlines() if e.strip() and not e.lstrip().startswith("%")]
    if len(entries) != nnz:
        raise ValueError(f"expected {nnz} entries, found {len(entries)}")
    check_order(nrows)
    a = np.zeros((nrows, nrows), dtype=np.uint8)
    for ln in entries:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed coordinate line: {ln!r}")
        r, c = int(parts[0]), int(parts[1])
        if not (1 <= r <= nrows and 1 <= c <= nrows):
            raise ValueError(f"coordinate out of range: {ln!r}")
        if r == c:
            raise ValueError(f"self-loop entry at vertex {r} is not allowed")
        if r < c:
            raise ValueError(f"entry ({r}, {c}) lies above the diagonal; "
                             "symmetric storage keeps the lower triangle")
        if a[r - 1, c - 1]:
            raise ValueError(f"duplicate entry ({r}, {c})")
        a[r - 1, c - 1] = a[c - 1, r - 1] = 1
    return Graph(a)


def read_matrix_market(text: str) -> Graph:
    """Parse Matrix Market coordinate pattern symmetric text into a Graph.

    Rejects non-pattern/non-symmetric banners, diagonal entries (self-loops),
    upper-triangle entries, duplicates, and entry-count mismatches.
    """
    lines = _lines(text)
    first_line = next(lines, None)
    if first_line is None:
        raise ValueError("empty Matrix Market input")
    banner = first_line[0].split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise ValueError(f"malformed Matrix Market banner: {first_line[0]!r}")
    obj, fmt, field, symmetry = (t.lower() for t in banner[1:])
    if (obj, fmt) != ("matrix", "coordinate"):
        raise ValueError(f"unsupported Matrix Market type {obj} {fmt}")
    if field != "pattern":
        raise ValueError(f"expected a pattern matrix, got field {field!r}")
    if symmetry != "symmetric":
        raise ValueError(f"expected a symmetric matrix, got symmetry {symmetry!r}")

    for ln, end in lines:
        if ln.strip() and not ln.lstrip().startswith("%"):
            break
    else:
        raise ValueError("missing Matrix Market size line")
    size = ln.split()
    if len(size) != 3:
        raise ValueError(f"malformed size line: {ln!r}")
    nrows, ncols, nnz = (int(t) for t in size)
    if nrows != ncols:
        raise ValueError(f"adjacency matrix must be square, got {nrows}x{ncols}")
    if nrows < 1 or nnz < 0:
        raise ValueError(f"malformed size line: {ln!r}")

    # only a block proven valid is built here; the loop reads any other
    pairs = _digit_pairs(text[end:])
    if pairs is not None and len(pairs) == nnz:
        a = _lower_triangle(nrows, pairs[:, 0] - 1, pairs[:, 1] - 1)
        if a is not None:
            del pairs  # dead while Graph validates
            return Graph(a)
    return _matrix_market_lines(text[end:], nrows, nnz)


_ORDER_DIRECTIVE = re.compile(r"^#\s*order\s+(\d+)\s*$")


def write_edge_list(g: Graph) -> str:
    """Plain-text edge list: one "u v" pair per line, 0-based, u < v."""
    return (
        "# undirected simple graph, 0-based vertex indices\n"
        f"# order {g.order}\n"
    ) + _edge_lines(g, 0, larger_first=False)


def _edge_list_lines(text: str) -> Graph:
    """Read the edge list `text`. This loop defines what is accepted and every
    message: each line's faults in line order (malformed, negative, self-loop,
    reversed), then the order (the last "# order N" wins, else max index + 1),
    then each edge's range and repeats."""
    order, pairs = None, []
    for ln in text.splitlines():
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            m = _ORDER_DIRECTIVE.match(stripped)
            order = int(m.group(1)) if m else order
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex index in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if u > v:
            raise ValueError(f"edge ({u}, {v}) must be written with u < v")
        pairs.append((u, v))

    if order is None:
        if not pairs:
            raise ValueError("cannot infer order of an edgeless graph; add '# order N'")
        order = max(v for _, v in pairs) + 1
    if order < 1:
        raise ValueError("graph order must be >= 1")
    check_order(order)
    a = np.zeros((order, order), dtype=np.uint8)
    for u, v in pairs:
        if v >= order:
            raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
        if a[u, v]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        a[u, v] = a[v, u] = 1
    return Graph(a)


def read_edge_list(text: str) -> Graph:
    """Parse an edge-list file back into a Graph.

    An "# order N" comment fixes the vertex count (required to round-trip
    graphs with trailing isolated vertices); without it the order is inferred
    as max index + 1. Self-loops, reversed pairs, and duplicates are rejected.
    """
    # leading comments go line by line, so the entries can take the one-pass parse
    order, end = None, 0
    for ln, next_start in _lines(text):
        stripped = ln.strip()
        if stripped and not stripped.startswith("#"):
            break
        m = _ORDER_DIRECTIVE.match(stripped)
        order = int(m.group(1)) if m else order
        end = next_start

    pairs = _digit_pairs(text[end:])
    if pairs is not None:
        if order is None:  # 0 if edgeless, which the loop rejects
            order = int(pairs[:, 1].max(initial=-1)) + 1
        a = _lower_triangle(order, pairs[:, 1], pairs[:, 0]) if order >= 1 else None
        if a is not None:
            del pairs  # dead while Graph validates
            return Graph(a)
    return _edge_list_lines(text)


FORMATS = ("graph6", "mtx", "edges")


def write_graph_text(g: Graph, fmt: str) -> str:
    """Serialize a graph in the named format as text."""
    if fmt == "graph6":
        return encode_graph6(g).decode("ascii") + "\n"
    if fmt == "mtx":
        return write_matrix_market(g)
    if fmt == "edges":
        return write_edge_list(g)
    raise ValueError(f"unknown graph format {fmt!r} (expected one of {FORMATS})")


def read_graph_text(text: str, fmt: str) -> Graph:
    """Parse a graph from text in the named format."""
    if fmt == "graph6":
        return decode_graph6(text.strip())
    if fmt == "mtx":
        return read_matrix_market(text)
    if fmt == "edges":
        return read_edge_list(text)
    raise ValueError(f"unknown graph format {fmt!r} (expected one of {FORMATS})")
