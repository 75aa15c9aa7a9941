"""Classical closed-form energies and equitable-partition quotients.

The operators' energy factors and coefficient spectra live in the operator
table, `graphenergy.operators.OPERATORS`. Here are the energies of the
standard graphs, which serve as closed-form base energies and as the factors
of the Kronecker-product operators, and the quotient matrix of an equitable
partition, whose eigenvalues are a subset of the full spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import MERGE_TOLERANCE, Spectrum


def known_energy(family: str, *params: float) -> float:
    """Closed-form energies of the standard families.

    - "complete" n             -> 2(n - 1)
    - "complete-bipartite" m n -> 2 sqrt(mn)
    """
    if family == "complete":
        (n,) = params
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        return 2.0 * (n - 1)
    if family == "complete-bipartite":
        m, n = params
        if m < 1 or n < 1:
            raise ValueError("complete bipartite graph needs part sizes >= 1")
        return 2.0 * math.sqrt(m * n)
    raise ValueError(f"unknown energy family {family!r}")


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


def quotient_matrix_spectrum(matrix, partition, merge_tolerance: float = MERGE_TOLERANCE) -> Spectrum:
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
    return Spectrum(np.sort(values.real)[::-1], merge_tolerance)
