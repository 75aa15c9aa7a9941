"""Loop-based reference codecs: the graph6, Matrix Market and edge-list
readers and writers as they were before `graphenergy.io` was vectorized.

They walk bits and lines one at a time in Python, so they are slow but easy to
check by eye. The differential tests hold the library codecs to them: equal
output bytes, equal graphs, and identical error messages.
"""

from __future__ import annotations

import re

import numpy as np

from graphenergy.graphs import Graph, check_order

GRAPH6_MAX_ORDER = 258_047  # three-byte size header limit
_GRAPH6_HEADER = b">>graph6<<"


def _graph6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 63 <= n <= 258047: '~' marker then 18 bits, big-endian, 6 bits per byte
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


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
    out = bytearray(_graph6_size_bytes(n))
    acc = 0
    nbits = 0
    a = g.adjacency
    for col in range(1, n):
        for row in range(col):
            acc = (acc << 1) | int(a[row, col])
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


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
    for b in data:
        if not 63 <= b <= 126:
            raise ValueError(f"non-printable graph6 byte {b}")

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
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1:
        raise ValueError("graph order must be >= 1")
    check_order(n)

    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 payload has {len(body)} bytes, expected {expected} for order {n}"
        )

    bits = np.zeros(expected * 6, dtype=np.uint8)
    for i, b in enumerate(body):
        v = b - 63
        for j in range(6):
            bits[6 * i + j] = (v >> (5 - j)) & 1
    if bits[nbits:].any():
        raise ValueError("graph6 padding bits must be zero")

    a = np.zeros((n, n), dtype=np.uint8)
    k = 0
    for col in range(1, n):
        for row in range(col):
            a[row, col] = bits[k]
            a[col, row] = bits[k]
            k += 1
    return Graph(a)


def write_matrix_market(g: Graph) -> str:
    """Matrix Market coordinate text (pattern, symmetric, 1-based).

    One line per edge, stored in the lower triangle (row > column) as the
    symmetric variant of the format requires.
    """
    lines = [
        "%%MatrixMarket matrix coordinate pattern symmetric",
        "% undirected simple graph adjacency pattern",
        f"{g.order} {g.order} {g.edge_count}",
    ]
    for u, v in g.edges():
        lines.append(f"{v + 1} {u + 1}")
    return "\n".join(lines) + "\n"


def read_matrix_market(text: str) -> Graph:
    """Parse Matrix Market coordinate pattern symmetric text into a Graph.

    Rejects non-pattern/non-symmetric banners, diagonal entries (self-loops),
    upper-triangle entries, duplicates, and entry-count mismatches.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty Matrix Market input")
    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise ValueError(f"malformed Matrix Market banner: {lines[0]!r}")
    obj, fmt, field, symmetry = (t.lower() for t in banner[1:])
    if (obj, fmt) != ("matrix", "coordinate"):
        raise ValueError(f"unsupported Matrix Market type {obj} {fmt}")
    if field != "pattern":
        raise ValueError(f"expected a pattern matrix, got field {field!r}")
    if symmetry != "symmetric":
        raise ValueError(f"expected a symmetric matrix, got symmetry {symmetry!r}")

    rows = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not rows:
        raise ValueError("missing Matrix Market size line")
    size = rows[0].split()
    if len(size) != 3:
        raise ValueError(f"malformed size line: {rows[0]!r}")
    nrows, ncols, nnz = (int(t) for t in size)
    if nrows != ncols:
        raise ValueError(f"adjacency matrix must be square, got {nrows}x{ncols}")
    if nrows < 1 or nnz < 0:
        raise ValueError(f"malformed size line: {rows[0]!r}")
    entries = rows[1:]
    if len(entries) != nnz:
        raise ValueError(f"expected {nnz} entries, found {len(entries)}")

    check_order(nrows)
    a = np.zeros((nrows, nrows), dtype=np.uint8)
    for ln in entries:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed coordinate line: {ln!r}")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        if not (0 <= i < nrows and 0 <= j < nrows):
            raise ValueError(f"coordinate out of range: {ln!r}")
        if i == j:
            raise ValueError(f"self-loop entry at vertex {i + 1} is not allowed")
        if i < j:
            raise ValueError(
                f"entry ({i + 1}, {j + 1}) lies above the diagonal; symmetric "
                "storage keeps the lower triangle"
            )
        if a[i, j]:
            raise ValueError(f"duplicate entry ({i + 1}, {j + 1})")
        a[i, j] = 1
        a[j, i] = 1
    return Graph(a)


_ORDER_DIRECTIVE = re.compile(r"^#\s*order\s+(\d+)\s*$")


def write_edge_list(g: Graph) -> str:
    """Plain-text edge list: one "u v" pair per line, 0-based, u < v."""
    lines = [
        "# undirected simple graph, 0-based vertex indices",
        f"# order {g.order}",
    ]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse an edge-list file back into a Graph.

    An "# order N" comment fixes the vertex count (required to round-trip
    graphs with trailing isolated vertices); without it the order is inferred
    as max index + 1. Self-loops, reversed pairs, and duplicates are rejected.
    """
    order = None
    pairs: list[tuple[int, int]] = []
    for ln in text.splitlines():
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _ORDER_DIRECTIVE.match(stripped)
            if m:
                order = int(m.group(1))
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
        a[u, v] = 1
        a[v, u] = 1
    return Graph(a)
