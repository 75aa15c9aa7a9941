"""Graph spectra through the false-twin and block-twin quotients, and graph energy.

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
32 distinct rows.

A graph whose caller names a block order n (a proper divisor of its order
N) may be eigensolved through its block-twin quotient instead, the same
split one level up. Cut the matrix into k = N / n block rows of n
vertices. Two block rows are block twins when the block between them is
zero, their diagonal blocks D are equal and their blocks to every other
block are equal: the p copies of the base graph in split(p, q) = kron(C, A)
are such twins, and so are its q splitting sets. Let classes of block
twins have sizes s_1..s_m, with r_I the first block of class I. The vectors u (x) x, with u summing to zero over the
blocks of one class I, span an invariant subspace on which the matrix acts
as D_I, and the normalized class indicators (x) x span the rest, on which it
acts as the (m n) x (m n) matrix with blocks
Q_IJ = sqrt(s_I) sqrt(s_J) A_{r_I r_J} for I != J and Q_II = D_I. So the
spectrum is that of Q plus spec(D_I) s_I - 1 times for each class, again an
orthogonal similarity that holds for any symmetric matrix and any n that
divides N: a block order that fits no layout of the graph only costs time.
The step is taken when the false-twin quotient leaves more than 2n classes
and the block quotient's order m n is below that count. Each D_I goes
through the false-twin quotient once: it is looked up by content in the
caller's memo, a dict from Graph to Spectrum, and what is solved is stored
there, so a D_I equal to a base the caller solved is not solved again. The
twin-free order-900 member split(2, 1) of an order-300 base is solved as
one order-600 eigensolve, its D being that base, instead of 900; split(4,
14) of an order-40 base, whose splitting vertices are twins, is solved at
order 80 instead of 200. A graph that neither quotient reduces is
eigensolved from `adjacency.astype(float64)` as it stands.

A dense eigensolve of order m holds two float64 copies of the matrix, about
16 m^2 bytes: the one made here and the one numpy's eigvalsh makes for
LAPACK. tracemalloc sees only the first, so a peak it reports is about
8 m^2 bytes, half the real one. Finding the classes packs the rows to bits,
N^2 / 8 bytes, and sorts them; keying the block rows copies the matrix once
as uint8, N^2 bytes, before Q is made, and each D_I a memo stores holds
n^2 bytes.
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


def _classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each class of equal rows of the 2-d 0/1 array `rows`: its first row
    and its size, in order of first row.

    The rows are compared packed to bits: at order 900 that takes 80 us,
    against 517 us on the byte rows. `np.unique` sorts stably, so the index
    it returns is a class's first row.
    """
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    first, counts = np.unique(keys, return_index=True, return_counts=True)[1:]
    order = np.argsort(first)
    return first[order], counts[order]


def _block_twin_eigenvalues(adjacency: np.ndarray, n: int, classes: int,
                            memo: dict | None) -> np.ndarray | None:
    """The eigenvalues of the 0/1 matrix `adjacency` through its block-twin
    quotient over blocks of order `n` (see the module docstring), or None
    when that quotient's order is not below `classes`, the false-twin
    quotient's. A block row's key is its bits with its own diagonal block
    zeroed, then that block's bits. Each class's diagonal block D is looked
    up in `memo` by content, as a Graph, and what is solved is stored there.
    """
    k = adjacency.shape[0] // n
    blocks = adjacency.reshape(k, n, k, n)
    own = np.arange(k)
    keys = np.empty((k, n, k + 1, n), dtype=np.uint8)
    keys[:, :, :k] = blocks
    diagonal = blocks[own, :, own]  # (k, n, n): each block row's diagonal block
    keys[:, :, k] = diagonal
    keys[own, :, own] = 0
    first, counts = _classes(keys.reshape(k, -1))
    del keys
    m = first.size
    if m * n >= classes:
        return None
    weights = np.sqrt(counts)
    q = blocks.take(first, 0).take(first, 2) * np.outer(weights, weights)[:, None, :, None]
    q[np.arange(m), :, np.arange(m)] = diagonal[first]
    values = [np.linalg.eigvalsh(q.reshape(m * n, m * n))]
    del q
    memo = {} if memo is None else memo
    for block, count in zip(first, counts):
        if count > 1:
            d = Graph(diagonal[block])
            spectrum = memo.get(d)
            if spectrum is None:
                spectrum = memo[d] = Spectrum(_eigenvalues(d.adjacency))
            values.append(np.tile(spectrum.values, count - 1))
    return np.concatenate(values)


def _eigenvalues(adjacency: np.ndarray, block_order: int = 1,
                 memo: dict | None = None) -> np.ndarray:
    """The eigenvalues of the symmetric 0/1 matrix `adjacency`, through its
    block-twin quotient over blocks of order `block_order` when the
    false-twin quotient leaves more than 2 `block_order` classes and the
    block quotient is smaller, else through its false-twin quotient.

    Q is gathered by two `take`s, rows then columns: at m = 237 that takes
    61 us, against 362 us through `np.ix_`. A matrix that neither quotient
    reduces is cast as it stands. At block order 1 block twins are false
    twins, so the block rows are not keyed.
    """
    first, counts = _classes(adjacency)
    if 1 < block_order and 2 * block_order < first.size:
        values = _block_twin_eigenvalues(adjacency, block_order, first.size, memo)
        if values is not None:
            return values
    zeros = adjacency.shape[0] - first.size
    if zeros:
        weights = np.sqrt(counts)
        q = adjacency.take(first, 0).take(first, 1).astype(np.float64)
        q *= weights[:, None]  # in place: a weight matrix would be one more m^2 copy
        q *= weights
        return np.concatenate([np.linalg.eigvalsh(q), np.zeros(zeros)])
    return np.linalg.eigvalsh(adjacency.astype(np.float64))


def eigenvalues_symmetric(g: Graph, block_order: int = 1, memo: dict | None = None) -> Spectrum:
    """All eigenvalues of a Graph's adjacency matrix, sorted descending.

    The graph is eigensolved through its false-twin quotient, with no
    symmetry check: its 0/1 matrix was proven exactly symmetric when the
    Graph was built, and 0 and 1 are exact in float64. When its block-twin
    quotient over blocks of order `block_order` is the smaller one, it is
    eigensolved through that instead: the block order is a hint for the
    layout of the graph's vertices that changes the speed but not the
    spectrum. `memo`, the caller's dict from Graph to Spectrum, is where
    the block step looks up each diagonal block by content and stores what
    it solves. Anything but a Graph raises TypeError; a block order that
    does not divide the graph's order raises ValueError.
    """
    if not isinstance(g, Graph):
        raise TypeError(f"expected a Graph, got {type(g).__name__}")
    if block_order < 1 or g.order % block_order:
        raise ValueError(f"block order {block_order} does not divide the graph order {g.order}")
    return Spectrum(_eigenvalues(g.adjacency, block_order, memo))


def adjacency_spectrum(g: Graph, block_order: int = 1, memo: dict | None = None) -> Spectrum:
    """Spectrum of the adjacency matrix of g; see `eigenvalues_symmetric`
    for `block_order` and `memo`."""
    # a call through the module global: bench/layers.py wraps both names and
    # its EXPECTED_CALLS needs both spans
    return eigenvalues_symmetric(g, block_order=block_order, memo=memo)


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
