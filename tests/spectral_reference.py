"""Spectral test oracles that the library itself does not need.

- `matrix_spectrum`: the eigenvalues of a plain real symmetric matrix, such
  as a coefficient matrix, by the same LAPACK call the library makes. The
  library eigensolves only graphs; `symmetric_matrix` is the guard this
  oracle and the Jacobi solver put in front of any other matrix.
- `quotient_matrix` / `quotient_matrix_spectrum`: the quotient of a matrix
  under an equitable partition, whose eigenvalues are a subset of the full
  spectrum. The formula tests hold the closed-form coefficient spectra to it.
- `are_cospectral`: whether two graphs have elementwise-equal spectra, as in
  the check that equienergetic members need not be cospectral.
- `twin_classes` / `twin_quotient_spectrum`: the false-twin quotient built
  row by row and entry by entry, the reference for the library's vectorized
  quotient in `graphenergy.spectral`.
"""

from __future__ import annotations

import math

import numpy as np

from graphenergy import Graph, Spectrum, adjacency_spectrum, verification_tolerance
from graphenergy.spectral import check_tolerance

SYMMETRY_TOLERANCE = 1e-12


def symmetric_matrix(matrix) -> np.ndarray:
    """`matrix` as float64, once it is checked to be square, nonempty and
    symmetric within SYMMETRY_TOLERANCE entrywise."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if np.max(np.abs(a - a.T), initial=0.0) > SYMMETRY_TOLERANCE:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_TOLERANCE} entrywise")
    return a


def matrix_spectrum(matrix) -> Spectrum:
    """All eigenvalues of a real symmetric matrix by numpy's eigvalsh, sorted
    descending."""
    return Spectrum(np.linalg.eigvalsh(symmetric_matrix(matrix)))


def quotient_matrix(matrix, partition) -> np.ndarray:
    """Quotient of a matrix under an equitable partition.

    `partition` is a list of index blocks covering every row exactly once.
    The partition is equitable when, within each block pair, every row of the
    block has the same sum; those common sums form the quotient. Row sums
    must match exactly (the matrices used here are integral), otherwise a
    ValueError is raised naming the offending block pair.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("quotient needs a square matrix")
    blocks = [list(b) for b in partition]
    flat = sorted(i for b in blocks for i in b)
    if flat != list(range(m.shape[0])):
        raise ValueError("partition must cover every index exactly once")
    k = len(blocks)
    q = np.empty((k, k), dtype=np.float64)
    for bi, rows in enumerate(blocks):
        for bj, cols in enumerate(blocks):
            sums = m[np.ix_(rows, cols)].sum(axis=1)
            if np.any(sums != sums[0]):
                raise ValueError(
                    f"partition is not equitable: block pair ({bi}, {bj}) has "
                    f"row sums {sorted(set(sums.tolist()))}"
                )
            q[bi, bj] = sums[0]
    return q


def quotient_matrix_spectrum(matrix, partition) -> Spectrum:
    """Spectrum of the quotient under an equitable partition.

    Every returned eigenvalue also appears in the full spectrum of `matrix`.
    The quotient is generally not symmetric, but for an equitable partition
    of a symmetric matrix its eigenvalues are real.
    """
    q = quotient_matrix(matrix, partition)
    values = np.linalg.eigvals(q)
    imag_bound = 1e-9 * (1.0 + np.linalg.norm(q))
    if np.max(np.abs(values.imag), initial=0.0) > imag_bound:
        raise ValueError("quotient spectrum is not real; input was not symmetric-equitable")
    return Spectrum(values.real)


def are_cospectral(a: Graph, b: Graph, tolerance: float | None = None) -> bool:
    """True iff both graphs have the same order and elementwise-equal spectra.

    The default tolerance is verification_tolerance of the larger order.
    """
    check_tolerance(tolerance)
    if a.order != b.order:
        return False
    if tolerance is None:
        tolerance = verification_tolerance(max(a.order, b.order))
    return adjacency_spectrum(a).matches(adjacency_spectrum(b), tolerance)


def twin_classes(g: Graph) -> list[list[int]]:
    """The classes of vertices with equal adjacency rows, each in vertex
    order, in order of their first vertex."""
    classes: dict[bytes, list[int]] = {}
    for v in range(g.order):
        classes.setdefault(g.adjacency[v].tobytes(), []).append(v)
    return list(classes.values())


def twin_quotient_spectrum(g: Graph) -> Spectrum:
    """Spectrum of g from its false-twin quotient: the eigenvalues of
    Q[i, j] = A[r_i, r_j] sqrt(k_i) sqrt(k_j) (class sizes k, first vertices
    r), eigensolved as a plain matrix, and one exact zero per vertex that is
    not the first of its class."""
    classes = twin_classes(g)
    q = np.empty((len(classes), len(classes)), dtype=np.float64)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            q[i, j] = int(g.adjacency[ci[0], cj[0]]) * math.sqrt(len(ci)) * math.sqrt(len(cj))
    values = matrix_spectrum(q).values
    return Spectrum(np.concatenate([values, np.zeros(g.order - len(classes))]))
