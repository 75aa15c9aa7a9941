"""Edge-by-edge operator construction: an independent test oracle for the
Kronecker route.

It wires every edge of a generalized splitting or shadow-splitting graph from
the vertex-neighborhood rules, with no Kronecker product, so it shares no
index convention with `graphenergy.operators`. The operator tests hold the
library's builders to it entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphenergy import Graph
from graphenergy.graphs import check_order


@dataclass(frozen=True)
class SplitParams:
    """Parameters of the generalized splitting operator.

    p: number of disjoint copies of the base graph.
    q: number of splitting-vertex sets wired across all copies.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"splitting parameters must be >= 1, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class ShadowSplitParams:
    """Parameters of the shadow-splitting operator.

    c: number of mutually shadowed copies of the base graph.
    k: number of splitting-vertex sets attached to all copies.
    """

    c: int
    k: int

    def __post_init__(self):
        if self.c < 1 or self.k < 1:
            raise ValueError(
                f"shadow-splitting parameters must be >= 1, got c={self.c}, k={self.k}")


def construct_by_neighborhood(g: Graph, params: SplitParams | ShadowSplitParams) -> Graph:
    """Build an operator graph edge-by-edge from its neighborhood rules.

    The vertex layout is the library's: copies first, then splitting sets,
    base order within blocks. The result must equal the coefficient-matrix
    route entrywise; the redundancy catches index-convention bugs the energy
    formulas cannot see.
    """
    if isinstance(params, SplitParams):
        copies, splits, shadowed = params.p, params.q, False
    elif isinstance(params, ShadowSplitParams):
        copies, splits, shadowed = params.c, params.k, True
    else:
        raise TypeError(f"unsupported parameter object {params!r}")

    n = g.order
    total = (copies + splits) * n
    check_order(total, "operator graph")
    a = np.zeros((total, total), dtype=np.uint8)

    def copy_vertex(block: int, i: int) -> int:
        return block * n + i

    def split_vertex(block: int, i: int) -> int:
        return (copies + block) * n + i

    for i in range(n):
        for j in np.flatnonzero(g.adjacency[i]).tolist():
            # Copies keep their own edges; shadowed copies also link across
            # all pairs of copies (including back into their own copy).
            for a_block in range(copies):
                if shadowed:
                    for b_block in range(copies):
                        a[copy_vertex(a_block, i), copy_vertex(b_block, j)] = 1
                else:
                    a[copy_vertex(a_block, i), copy_vertex(a_block, j)] = 1
            # Splitting vertex u_i adjoins the neighbors of v_i in every copy.
            for s_block in range(splits):
                for c_block in range(copies):
                    a[split_vertex(s_block, i), copy_vertex(c_block, j)] = 1
                    a[copy_vertex(c_block, j), split_vertex(s_block, i)] = 1

    return Graph(np.maximum(a, a.T))
