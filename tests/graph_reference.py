"""Reference `Graph` validator: `Graph.__init__` as it was before it dropped
`np.isin` and validated through a single uint8 copy.

It tests every entry against {0, 1} by value, casts the result to uint8, and
then checks symmetry and the diagonal, so it is slow and memory-hungry but
easy to check by eye. The differential tests hold the library validator to
it: the same inputs accepted, the same stored matrix, and the same exception
class and message for every rejected input.
"""

from __future__ import annotations

import numpy as np

from graphenergy.graphs import check_order


def validate_adjacency(adjacency) -> np.ndarray:
    """The read-only uint8 adjacency matrix a Graph would store."""
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise ValueError("graph order must be >= 1")
    check_order(n)
    if not np.isin(a, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    a = a.astype(np.uint8)
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diagonal(a) != 0):
        raise ValueError("adjacency must have a zero diagonal (no self-loops)")
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a
