"""Graph operators built from small coefficient matrices.

Each operator graph is the Kronecker product of a small coefficient matrix C
with the base adjacency matrix A, as kron(C, A) or kron(A, C). By the
Kronecker eigenvalue theorem (Horn & Johnson, Topics in Matrix Analysis,
Thm 4.2.12) its eigenvalues are the products of those of C and A, so its
energy is E(C) times the base energy. `OPERATORS` describes every operator
once: its name, parameters, coefficient matrix and side, and the exact
spectrum of C, from which the order of C, its float spectrum and the energy
factor E(C) derive. The command line and the family catalog read that
table. Every parameter must be >= 1: `_in_domain` makes that one check for
each entry, before its coefficients, spectrum or build run, and names the
entry and the rule, so the closed forms and the public builders check
nothing themselves; each build is `_kron_graph` of the entry's own C. The
Kronecker entries' C is A(K_r) or A(K_{r,r}), so their factors are E(K_r) =
2(r - 1) and E(K_{r,r}) = 2r, and the family catalog takes the C6 bases'
energies and targets from the first.

A coefficient matrix is a plain uint8 array, like a Graph's adjacency.
`_kron` checks the smaller factor of each product to be 0/1, since it only
names blocks, and `Graph._adopt` checks the product once, so every build
peaks at the product plus one boolean temporary.

Vertex layout is fixed: all copies of the base graph first, then the
splitting-vertex sets, with base vertex order preserved inside every block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .graphs import Graph, check_order, complete_bipartite, complete_graph
from .spectral import Spectrum

ExactSpectrum = tuple[int, tuple[tuple[int, int, int], ...]]


def _split_coefficients(p: int, q: int) -> np.ndarray:
    """Block matrix [[I_p, J], [J, 0_q]] of the generalized splitting operator."""
    m = np.ones((p + q, p + q), dtype=np.uint8)
    m[:p, :p] = np.eye(p, dtype=np.uint8)
    m[p:, p:] = 0
    return m


def _shadow_split_coefficients(c: int, k: int) -> np.ndarray:
    """Block matrix [[J_c, J], [J, 0_k]] of the shadow-splitting operator."""
    m = np.ones((c + k, c + k), dtype=np.uint8)
    m[c:, c:] = 0
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two square 0/1 uint8 matrices, byte for byte.

    Block (i, j) of the product is a[i, j] * b, so the zeroed product is
    viewed as (m, n, m, n), and the larger factor is copied into the blocks
    that the smaller factor's nonzero entries name, in one fancy-index
    assignment. That moves whole rows of the larger factor where a broadcast
    multiply loops over the smaller one innermost: C108 x C4 takes about
    60 us against 700 us for the multiply, C87 x K3 33 against 390 us, and
    an order-300 graph x K4 0.6 against 4-5 ms (timeit, 2 vCPU). A 1 x 1
    first factor holding a 1, as in `shadow:1`, is about 1.3x slower.

    The smaller factor only names blocks, so an entry above 1 there would
    build kron(C != 0, A), a valid graph that no later check could tell
    apart; it is refused here with `Graph`'s message. The larger factor's
    values reach the product, where `Graph._adopt` checks them.
    """
    m, n = a.shape[0], b.shape[0]
    pattern = b if n < m else a
    if pattern.max() > 1:
        raise ValueError("adjacency entries must be 0 or 1")
    out = np.zeros((m * n, m * n), dtype=np.uint8)
    blocks = out.reshape(m, n, m, n)  # a view: entry (i*n + p, j*n + q) is [i, p, j, q]
    r, s = np.nonzero(pattern)
    if n < m:
        blocks[:, r, :, s] = a
    else:
        blocks[r, :, s, :] = b
    return out


def _kron_graph(name: str, args: tuple[int, ...], g: Graph) -> Graph:
    """kron(C, A), or kron(A, C), of the table entry `name`'s own C on the side
    it records; the order is checked under the entry's label before C is
    built. C stays a temporary, freed before `Graph._adopt` checks the product."""
    op = OPERATORS[name]
    check_order(op.dimension(*args) * g.order, op.label_for(args))
    return Graph._adopt(_kron(op.coefficients(*args), g.adjacency) if op.coefficient_first
                        else _kron(g.adjacency, op.coefficients(*args)))


def generalized_splitting(g: Graph, p: int, q: int) -> Graph:
    """Generalized splitting graph: p copies of g plus q splitting sets.

    Every splitting vertex u_i is adjacent to the neighbors of vertex i in
    all p copies; the copies themselves stay disjoint. Order is (p+q) times
    the base order.
    """
    return _kron_graph("split", (p, q), g)


def shadow_splitting(g: Graph, c: int, k: int) -> Graph:
    """Shadow-splitting graph: c mutually shadowed copies plus k splitting sets.

    Copies are pairwise shadowed (every vertex also adjacent to the neighbor
    images in every other copy) and each splitting vertex u_i attaches to the
    neighbors of vertex i in all c copies. Order is (c+k) times the base order.
    """
    return _kron_graph("shadow-split", (c, k), g)


def m_shadow(g: Graph, m: int) -> Graph:
    """Shadow graph: m fully interconnected copies, adjacency kron(J_m, A)."""
    return _kron_graph("shadow", (m,), g)


def m_splitting(g: Graph, m: int) -> Graph:
    """Splitting graph with m splitting sets: one copy of g, m vertex sets."""
    return _kron_graph("splitting", (m,), g)


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """Kronecker (tensor) product of two graphs.

    Vertex pair (u, v) maps to index u * h.order + v; pairs are adjacent iff
    both coordinates are adjacent in their factors.
    """
    check_order(g.order * h.order, "Kronecker product")
    return Graph._adopt(_kron(g.adjacency, h.adjacency))


def _split_spectrum(p: int, q: int) -> ExactSpectrum:
    """1 with multiplicity p-1, 0 with multiplicity q-1, and (1 +- sqrt(1 + 4pq)) / 2."""
    return 1 + 4 * p * q, ((2, 0, p - 1), (0, 0, q - 1), (1, 1, 1), (1, -1, 1))


def _shadow_split_spectrum(c: int, k: int) -> ExactSpectrum:
    """The matrix has rank 2: c + k - 2 zero eigenvalues plus the two roots
    (c +- sqrt(c^2 + 4ck)) / 2 of its quotient."""
    return c * c + 4 * c * k, ((0, 0, c + k - 2), (c, 1, 1), (c, -1, 1))


@dataclass(frozen=True)
class Operator:
    """A graph operator: adjacency kron(C, A), or kron(A, C), for the base
    adjacency A and a small coefficient matrix C fixed by the parameters.

    - `name`: the operator's spelling in an operator spec such as `split:2,1`.
    - `params`: the parameter names; their number is the arity. A parameter
      < 1 is refused with the name and `_at_least_one`'s reason.
    - `coefficients(*args)`: the coefficient matrix C.
    - `coefficient_first`: True for kron(C, A), False for kron(A, C).
    - `spectrum(*args)`: the one closed form: C's eigenvalues (x + y sqrt(d)) / 2
      as (d, ((x, y, multiplicity), ...)) in integers. The order of C
      (`dimension`), its floats and its energy factor E(C) derive from it.
    - `build(g, *args)`: the operator graph of base g, `_kron_graph` of the
      entry's own C on the recorded side. An entry with a public builder
      calls it here; None takes `_kron_graph` under the entry's own name.
    - `label`, `member`: a member's order-cap context and description,
      formatted with the parameters by name (`member` also with `label` and
      `base`, the base graph's description).
    - `cli`: whether the command line offers the operator.
    """

    name: str
    params: tuple[str, ...]
    coefficients: Callable[..., np.ndarray]
    coefficient_first: bool
    spectrum: Callable[..., ExactSpectrum]
    build: Callable[..., Graph] | None
    label: str
    member: str = "{label} of {base}"
    cli: bool = True

    def dimension(self, *args: int) -> int:
        """Order of C, an exact int: the operator graph has dimension * base order vertices."""
        return sum(count for _, _, count in self.spectrum(*args)[1])

    def coefficient_spectrum(self, *args: int) -> Spectrum:
        d, triples = self.spectrum(*args)
        return Spectrum(np.repeat([(x + y * math.sqrt(d)) / 2 for x, y, _ in triples],
                                  [count for _, _, count in triples]))

    def factor(self, *args: int) -> float:
        """The energy factor E(C), the sum of |x + y sqrt(d)| / 2. Each sign is
        decided in integers (the sign of x when x^2 > y^2 d, else that of y),
        so the sum is (a + b sqrt(d)) / 2 with integers a and b, and only that
        last expression is evaluated in floats."""
        d, triples = self.spectrum(*args)
        a = b = 0
        for x, y, count in triples:
            sign = -1 if (x < 0 if x * x > y * y * d else y < 0) else 1
            a, b = a + sign * x * count, b + sign * y * count
        return (a + b * math.sqrt(d)) / 2

    def label_for(self, args: tuple[int, ...]) -> str:
        return self.label.format(**dict(zip(self.params, args)))

    def describe(self, args: tuple[int, ...], base: str) -> str:
        return self.member.format(label=self.label_for(args), base=base,
                                  **dict(zip(self.params, args)))


def _at_least_one(**params: int) -> str | None:
    """The one domain rule of every operator and the catalog's default: every
    parameter >= 1. Returns why `params` fall outside it, or None."""
    if all(value >= 1 for value in params.values()):
        return None
    got = ", ".join(f"{name}={value}" for name, value in params.items())
    return f"needs {','.join(params)} >= 1, got {got}"


def _in_domain(op: Operator) -> Operator:
    """`op` with its coefficients, spectrum (so every form derived from it) and
    build raising ValueError(f"{op.name} {reason}") for a parameter < 1 first;
    a build of None becomes `_kron_graph` under `op.name`."""
    def checked(form: Callable, skip: int = 0) -> Callable:
        def form_in_domain(*args):
            if min(args[skip:]) < 1:
                reason = _at_least_one(**dict(zip(op.params, args[skip:])))
                raise ValueError(f"{op.name} {reason}")
            return form(*args)
        return form_in_domain
    return replace(op, coefficients=checked(op.coefficients), spectrum=checked(op.spectrum),
                   build=checked(op.build or (lambda g, *args: _kron_graph(op.name, args, g)),
                                 skip=1))


# The entries with a public builder look it up by name when called, so
# rebinding one (as bench/layers.py does to time it) reaches every caller of
# the table; the Kronecker entries have none and build through `_kron_graph`.
_KRON_COMPLETE_BIPARTITE = Operator(
    "kron-complete-bipartite", ("r",), lambda r: complete_bipartite(r, r).adjacency, False,
    lambda r: (0, ((2 * r, 0, 1), (0, 0, 2 * r - 2), (-2 * r, 0, 1))),  # E(K_{r,r}) = 2r
    None, "kron with complete-bipartite({r},{r})",
    "kron of {base} with complete-bipartite({r},{r})", cli=False,
)

OPERATORS: dict[str, Operator] = {op.name: _in_domain(op) for op in (
    Operator(
        "split", ("p", "q"), _split_coefficients, True, _split_spectrum,
        lambda g, p, q: generalized_splitting(g, p, q),
        "splitting(p={p},q={q})",
    ),
    Operator(
        "shadow-split", ("c", "k"), _shadow_split_coefficients, True, _shadow_split_spectrum,
        lambda g, c, k: shadow_splitting(g, c, k),
        "shadow-splitting(c={c},k={k})",
    ),
    Operator(
        "shadow", ("m",), lambda m: np.ones((m, m), dtype=np.uint8), True,
        lambda m: (0, ((2 * m, 0, 1), (0, 0, m - 1))),
        lambda g, m: m_shadow(g, m),
        "shadow(m={m})",
    ),
    Operator(
        "splitting", ("m",), lambda m: _split_coefficients(1, m), True,
        lambda m: _split_spectrum(1, m),
        lambda g, m: m_splitting(g, m),
        "splitting(m={m})",
    ),
    Operator(
        "kron-complete", ("r",), lambda r: complete_graph(r).adjacency, False,
        lambda r: (0, ((2 * r - 2, 0, 1), (-2, 0, r - 1))),  # E(K_r) = 2(r - 1)
        None, "kron with complete({r})", "kron of {base} with complete({r})",
        cli=False,
    ),
    _KRON_COMPLETE_BIPARTITE,
    replace(
        _KRON_COMPLETE_BIPARTITE, name="complete-bipartite-kron", coefficient_first=True,
        member="kron of complete-bipartite({r},{r}) with {base}",
    ),
)}
