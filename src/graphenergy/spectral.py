"""Dense symmetric spectra, graph energy, and cospectrality tests.

The eigensolver delegates to LAPACK (numpy.linalg.eigvalsh). Energy is the
sum of absolute adjacency eigenvalues.

A dense eigensolve of order n holds two float64 copies of the matrix, about
16 n^2 bytes: the one made here and the one numpy's eigvalsh makes for
LAPACK. tracemalloc sees only the first, so a peak it reports is about
8 n^2 bytes, half the real one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

SYMMETRY_TOLERANCE = 1e-12
MERGE_TOLERANCE = 1e-7


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

    `merge_tolerance` controls how close two values must be to count as one
    eigenvalue when reporting multiplicities; the raw values are kept so that
    merging never changes energy sums.
    """

    values: np.ndarray
    merge_tolerance: float = MERGE_TOLERANCE

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("spectrum needs a nonempty 1-d value array")
        if self.merge_tolerance <= 0:
            raise ValueError("merge_tolerance must be positive")
        v = np.sort(v)[::-1].copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    def energy(self) -> float:
        """Sum of absolute eigenvalues."""
        return float(np.abs(self.values).sum())

    def multiplicities(self) -> list[tuple[float, int]]:
        """Eigenvalues coalesced within merge_tolerance, with counts."""
        groups: list[tuple[float, int]] = []
        head = float(self.values[0])
        count = 0
        for v in self.values:
            v = float(v)
            if abs(v - head) <= self.merge_tolerance:
                count += 1
            else:
                groups.append((head, count))
                head, count = v, 1
        groups.append((head, count))
        return groups

    def matches(self, other: "Spectrum", tolerance: float) -> bool:
        """True iff both spectra have equal length and agree elementwise."""
        if len(self) != len(other):
            return False
        return bool(np.max(np.abs(self.values - other.values)) <= tolerance)


def _check_square_symmetric(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if np.max(np.abs(a - a.T), initial=0.0) > SYMMETRY_TOLERANCE:
        raise ValueError(
            f"matrix is not symmetric within {SYMMETRY_TOLERANCE} entrywise"
        )
    return a


def eigenvalues_symmetric(matrix, merge_tolerance: float = MERGE_TOLERANCE) -> Spectrum:
    """All eigenvalues of a real symmetric matrix, or of a Graph's adjacency
    matrix, sorted descending.

    A Graph is converted to float64 with no symmetry check: its 0/1 matrix
    was proven exactly symmetric when the Graph was built, and 0 and 1 are
    exact in float64. Any other matrix is checked to be square and symmetric
    within SYMMETRY_TOLERANCE.
    """
    if isinstance(matrix, Graph):
        a = matrix.adjacency.astype(np.float64)
    else:
        a = _check_square_symmetric(matrix)
    values = np.linalg.eigvalsh(a)
    return Spectrum(values[::-1], merge_tolerance)


def adjacency_spectrum(g: Graph, merge_tolerance: float = MERGE_TOLERANCE) -> Spectrum:
    """Spectrum of the adjacency matrix of g."""
    return eigenvalues_symmetric(g, merge_tolerance)


def energy(g: Graph) -> float:
    """Graph energy: sum of absolute adjacency eigenvalues.

    Zero exactly when the graph has no edges.
    """
    return adjacency_spectrum(g).energy()


def structured_spectrum(coefficients, base: Spectrum) -> Spectrum:
    """Spectrum of a Kronecker product from its factor spectra.

    `coefficients` may be a CoefficientMatrix (eigensolved directly), a
    Spectrum, or a plain array of eigenvalues; the result is the multiset of
    all pairwise products with `base`, sorted descending.
    """
    if isinstance(coefficients, Spectrum):
        mu = coefficients.values
    elif hasattr(coefficients, "entries"):
        mu = eigenvalues_symmetric(coefficients.entries).values
    else:
        mu = np.asarray(coefficients, dtype=np.float64)
        if mu.ndim == 2:
            mu = eigenvalues_symmetric(mu).values
    products = np.multiply.outer(mu, base.values).ravel()
    return Spectrum(products, base.merge_tolerance)


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
