"""Graph spectra through the false-twin quotient, and graph energy.

The eigensolver takes a Graph and delegates to LAPACK
(numpy.linalg.eigvalsh). Energy is the sum of absolute adjacency
eigenvalues. `agreement` is the one rule by which energies or spectra agree.

A graph is eigensolved through its false-twin quotient. Vertices with equal
adjacency rows are false twins: they are mutually non-adjacent, because the
diagonal is zero. Let the m distinct rows form classes of sizes k_1..k_m,
with r_i the first vertex of class i. In the orthonormal basis made of the
normalized class indicators and, inside each class, vectors that sum to
zero, the adjacency matrix splits into the m x m block
Q[i, j] = sqrt(k_i) sqrt(k_j) A[r_i, r_j] and a zero block: a vector that
sums to zero on one class and vanishes elsewhere is mapped to zero, because
every row takes the same value on all of a class's columns. So the spectrum
is that of Q plus n - m exact zeros, with no approximation. The operator
graphs are full of such twins (the splitting vertices of a set share one
neighbourhood, and so do shadowed copies): the C6_2 member of order 976 has
32 distinct rows. A twin-free graph is eigensolved from
`adjacency.astype(float64)` as it stands.

A dense eigensolve of order m holds two float64 copies of the matrix, about
16 m^2 bytes: the one made here and the one numpy's eigvalsh makes for
LAPACK. tracemalloc sees only the first, so a peak it reports is about
8 m^2 bytes, half the real one. Finding the classes packs the rows to bits,
n^2 / 8 bytes, and sorts them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph


def verification_tolerance(order: int) -> float:
    """Absolute tolerance for energy/spectrum comparisons at a given order.

    Eigenvalue perturbations scale with the matrix norm, which scales with
    order here, so the tolerance is order * 1e-10 with a floor of 1e-8.
    """
    return max(1e-8, order * 1e-10)


def check_tolerance(tolerance: float | None) -> None:
    """Raise ValueError unless `tolerance` is None (the default,
    verification_tolerance) or positive and finite: an infinite tolerance
    would pass every comparison, and NaN would pass none."""
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted in descending order.

    The raw values are kept: `multiplicities` merges close values only in
    what it reports, so merging never changes energy sums.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("spectrum needs a nonempty 1-d value array")
        # + 0.0 unsigns zeros: the unstable sort may order tied -0.0 and 0.0 any way
        v = np.sort(v)[::-1] + 0.0
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    def energy(self) -> float:
        """Sum of absolute eigenvalues."""
        return float(np.abs(self.values).sum())

    def multiplicities(self, tolerance: float) -> list[tuple[float, int]]:
        """Eigenvalues coalesced with counts: a value joins the current group
        while it is within `tolerance` (positive and finite) of the group's
        first value."""
        check_tolerance(tolerance)
        groups: list[tuple[float, int]] = []
        head = float(self.values[0])
        count = 0
        for v in self.values:
            v = float(v)
            if abs(v - head) <= tolerance:
                count += 1
            else:
                groups.append((head, count))
                head, count = v, 1
        groups.append((head, count))
        return groups


def agreement(values, tol: float) -> tuple[float | None, bool]:
    """The largest delta between two present (not None) energies or spectra,
    elementwise for spectra and None if there is none, and whether every two
    agree within `tol`. Two spectra of unequal lengths disagree and add no
    delta: they are never subtracted, so a length-1 one cannot broadcast."""
    present = [v for v in values if v is not None]
    pairs = list(itertools.combinations(present, 2))
    deltas = [float(np.max(np.abs(a.values - b.values))) if isinstance(a, Spectrum)
              else abs(a - b) for a, b in pairs
              if not isinstance(a, Spectrum) or len(a) == len(b)]
    return max(deltas, default=None), len(deltas) == len(pairs) and all(d <= tol for d in deltas)


def _twin_quotient(adjacency: np.ndarray) -> tuple[np.ndarray, int]:
    """The float64 matrix to eigensolve for the 0/1 matrix `adjacency`, its
    false-twin quotient (see the module docstring), and the number of zero
    eigenvalues the quotient leaves out.

    The rows are compared packed to bits: at order 900 that takes 80 us,
    against 517 us on the byte rows. `np.unique` sorts stably, so the index
    it returns is a class's first vertex, and the classes are put in order
    of their first vertex. Q is gathered by two `take`s, rows then columns:
    at m = 237 that takes 61 us, against 362 us through `np.ix_`. A
    twin-free matrix is cast as it stands.
    """
    packed = np.packbits(adjacency, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    first, counts = np.unique(rows, return_index=True, return_counts=True)[1:]
    del packed, rows
    zeros = adjacency.shape[0] - first.size
    if not zeros:
        return adjacency.astype(np.float64), 0
    order = np.argsort(first)
    first, weights = first[order], np.sqrt(counts[order])
    q = adjacency.take(first, 0).take(first, 1).astype(np.float64)
    q *= weights[:, None]  # in place: a weight matrix would be one more m^2 copy
    q *= weights
    return q, zeros


def eigenvalues_symmetric(g: Graph) -> Spectrum:
    """All eigenvalues of a Graph's adjacency matrix, sorted descending.

    The graph is eigensolved through its false-twin quotient, with no
    symmetry check: its 0/1 matrix was proven exactly symmetric when the
    Graph was built, and 0 and 1 are exact in float64. Anything but a Graph
    raises TypeError.
    """
    if not isinstance(g, Graph):
        raise TypeError(f"expected a Graph, got {type(g).__name__}")
    a, zeros = _twin_quotient(g.adjacency)
    return Spectrum(np.concatenate([np.linalg.eigvalsh(a), np.zeros(zeros)]))


def adjacency_spectrum(g: Graph) -> Spectrum:
    """Spectrum of the adjacency matrix of g."""
    # a call through the module global: bench/layers.py wraps both names and
    # its EXPECTED_CALLS needs both spans
    return eigenvalues_symmetric(g)


def energy(g: Graph) -> float:
    """Graph energy: sum of absolute adjacency eigenvalues.

    Zero exactly when the graph has no edges.
    """
    return adjacency_spectrum(g).energy()


def structured_spectrum(coefficients: Spectrum, base: Spectrum) -> Spectrum:
    """Spectrum of a Kronecker product from its factor spectra: the multiset
    of all pairwise products, sorted descending."""
    products = np.multiply.outer(coefficients.values, base.values).ravel()
    return Spectrum(products)
