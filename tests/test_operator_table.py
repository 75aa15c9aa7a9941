"""The operator table against the paper's closed forms and the dense routes.

Every entry of `OPERATORS` is an adjacency kron(C, A) or kron(A, C) and
states the exact spectrum of C. The energy factor derived from it must be
the paper's literal formula, bit for bit, and that formula must be E(C): the
sum of |eigenvalue| over the float spectrum of C and over a dense eigensolve
of C (Horn & Johnson, Topics in Matrix Analysis, Thm 4.2.12). The factor is
compared with those sums to a tolerance only: the literal formula and the
sum can differ in the last bit. The order of C, summed from the exact
multiplicities, is an int at any parameter size.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import (
    OPERATORS,
    Graph,
    OrderCapError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    energy,
    generalized_splitting,
    kronecker_product,
    m_shadow,
    m_splitting,
    path_graph,
    random_graph,
    shadow_splitting,
)
from graphenergy.cli import main

from conftest import random_graphs
from neighborhood_reference import ShadowSplitParams, SplitParams, construct_by_neighborhood

# the paper's energy factor of each operator, as the paper writes it
PAPER_FACTORS = {
    "split": lambda p, q: p - 1 + math.sqrt(1 + 4 * p * q),
    "shadow-split": lambda c, k: math.sqrt(c ** 2 + 4 * c * k),
    "shadow": lambda m: m,
    "splitting": lambda m: math.sqrt(1 + 4 * m),
    "kron-complete": lambda r: 2 * (r - 1),  # E(K_r)
    "kron-complete-bipartite": lambda r: 2 * math.sqrt(r * r),  # E(K_{r,r})
    "complete-bipartite-kron": lambda r: 2 * math.sqrt(r * r),
}

# the order of each entry's C
ORDERS = {
    "split": lambda p, q: p + q,
    "shadow-split": lambda c, k: c + k,
    "shadow": lambda m: m,
    "splitting": lambda m: 1 + m,
    "kron-complete": lambda r: r,
    "kron-complete-bipartite": lambda r: 2 * r,
    "complete-bipartite-kron": lambda r: 2 * r,
}

BASES = [cycle_graph(4), complete_graph(3), random_graph(5, 0.5, seed=5),
         disjoint_union([path_graph(3), complete_graph(2)])]


def grid(op, top2=7, top1=13):
    """Every argument tuple of `op` with each parameter in 1..top-1."""
    top = top2 if len(op.params) == 2 else top1
    return list(itertools.product(range(1, top), repeat=len(op.params)))


def test_every_entry_has_a_paper_factor():
    assert set(PAPER_FACTORS) == set(OPERATORS)
    cli = sorted(name for name, op in OPERATORS.items() if op.cli)
    assert cli == ["shadow", "shadow-split", "split", "splitting"]


@pytest.mark.parametrize("name", PAPER_FACTORS)
def test_factor_is_the_papers_formula_exactly(name):
    for args in grid(OPERATORS[name], top2=60, top1=200):
        assert OPERATORS[name].factor(*args) == PAPER_FACTORS[name](*args), args


@pytest.mark.parametrize("name", PAPER_FACTORS)
def test_factor_is_the_energy_of_the_coefficient_matrix(name):
    op = OPERATORS[name]
    for args in grid(op):
        c = op.coefficients(*args)
        dim = op.dimension(*args)
        # C is a plain array, checked only through the products built from it
        assert c.dtype == np.uint8 and c.flags.c_contiguous, args
        assert c.shape == (dim, dim), args
        assert c.max() <= 1 and np.array_equal(c, c.T), args
        closed = op.coefficient_spectrum(*args)
        dense = np.linalg.eigvalsh(c.astype(np.float64))
        assert len(closed) == dim
        assert abs(op.factor(*args) - closed.energy()) <= 1e-9 * dim, args
        assert abs(op.factor(*args) - np.abs(dense).sum()) <= 1e-9 * dim, args
        assert np.max(np.abs(closed.values - dense[::-1])) <= 1e-9 * dim, args


@pytest.mark.parametrize("name", PAPER_FACTORS)
def test_the_order_of_c_is_an_exact_int_at_any_parameter_size(name):
    # summed from the exact multiplicities, so no parameter is too large for a float
    op = OPERATORS[name]
    for args in grid(op):
        assert op.dimension(*args) == len(op.coefficients(*args)) == ORDERS[name](*args), args
    for big in (10 ** 20, 10 ** 160):
        for args in itertools.product((1, big), repeat=len(op.params)):
            dim = op.dimension(*args)
            assert type(dim) is int and dim == ORDERS[name](*args), args


# each entry's one message for a parameter < 1, with the parameters filled in:
# its name, then the rule the family catalog also states
DOMAIN_MESSAGES = {
    "split": "split needs p,q >= 1, got p={}, q={}",
    "shadow-split": "shadow-split needs c,k >= 1, got c={}, k={}",
    "shadow": "shadow needs m >= 1, got m={}",
    "splitting": "splitting needs m >= 1, got m={}",
    "kron-complete": "kron-complete needs r >= 1, got r={}",
    "kron-complete-bipartite": "kron-complete-bipartite needs r >= 1, got r={}",
    "complete-bipartite-kron": "complete-bipartite-kron needs r >= 1, got r={}",
}

# each entry's arguments and what a build of C4 under a cap of 11 says: the
# entry's label, as in a family member's cap check
OVER_CAP = {
    "split": ((2, 2), "splitting(p=2,q=2) would have order 16"),
    "shadow-split": ((2, 3), "shadow-splitting(c=2,k=3) would have order 20"),
    "shadow": ((3,), "shadow(m=3) would have order 12"),
    "splitting": ((2,), "splitting(m=2) would have order 12"),
    "kron-complete": ((3,), "kron with complete(3) would have order 12"),
    "kron-complete-bipartite": ((2,), "kron with complete-bipartite(2,2) would have order 16"),
    "complete-bipartite-kron": ((2,), "kron with complete-bipartite(2,2) would have order 16"),
}
CAP_11 = ", exceeding the dense cap of 11 (raise SPECTRAL_MAX_ORDER to override)"

# the public builder of each entry that has one
PUBLIC_BUILDERS = {"split": generalized_splitting, "shadow-split": shadow_splitting,
                   "shadow": m_shadow, "splitting": m_splitting}


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize("name", PAPER_FACTORS)
def test_every_closed_form_rejects_a_parameter_below_one(name, bad):
    op = OPERATORS[name]
    g = cycle_graph(4)
    builders = [op.build] + ([PUBLIC_BUILDERS[name]] if name in PUBLIC_BUILDERS else [])
    for position in range(len(op.params)):
        args = [1] * len(op.params)
        args[position] = bad
        message = f"^{re.escape(DOMAIN_MESSAGES[name].format(*args))}$"
        for form in (op.coefficients, op.spectrum, op.factor, op.dimension,
                     op.coefficient_spectrum):
            with pytest.raises(ValueError, match=message):
                form(*args)
        for build in builders:
            with pytest.raises(ValueError, match=message):
                build(g, *args)


@pytest.mark.parametrize("name", PAPER_FACTORS)
def test_every_build_over_the_cap_names_the_entry_label(name, monkeypatch, tmp_path, capsys):
    op = OPERATORS[name]
    args, message = OVER_CAP[name]
    g = cycle_graph(4)
    monkeypatch.setenv("SPECTRAL_MAX_ORDER", "11")
    builders = [op.build] + ([PUBLIC_BUILDERS[name]] if name in PUBLIC_BUILDERS else [])
    for build in builders:
        with pytest.raises(OrderCapError, match=f"^{re.escape(message + CAP_11)}$"):
            build(g, *args)
    if not op.cli:
        return
    path = tmp_path / "c4.g6"
    path.write_bytes(encode_graph6(g) + b"\n")
    spec = f"{name}:{','.join(map(str, args))}"
    for argv in (["construct", spec, str(path)], ["energy", str(path), "--apply", spec]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}{CAP_11}\n"), argv


@pytest.mark.parametrize("name", PAPER_FACTORS)
def test_build_is_the_kronecker_product_on_the_recorded_side(name):
    op = OPERATORS[name]
    for args in grid(op, top2=4, top1=5):
        c = op.coefficients(*args)
        for g in BASES:
            a = g.adjacency
            want = np.kron(c, a) if op.coefficient_first else np.kron(a, c)
            assert np.array_equal(op.build(g, *args).adjacency, want), (args, g)


@pytest.mark.parametrize("c,message", [
    (np.array([[1, 1], [0, 0]], dtype=np.uint8), "adjacency must be symmetric"),
    # larger than the base, so `_kron` copies C's values into the product
    (np.full((5, 5), 2, dtype=np.uint8), "adjacency entries must be 0 or 1"),
    # no larger than the base: C only names the blocks that get the base, so
    # `_kron` itself refuses the 2, which would build kron(C != 0, A)
    (np.array([[0, 2], [2, 0]], dtype=np.uint8), "adjacency entries must be 0 or 1"),
], ids=["asymmetric", "entry-2", "pattern-entry-2"])
def test_a_bad_coefficient_matrix_fails_the_check_of_the_built_graph(monkeypatch, c, message):
    bad = replace(OPERATORS["split"], coefficients=lambda p, q: c.copy())
    monkeypatch.setitem(OPERATORS, "split", bad)
    with pytest.raises(ValueError, match=f"^{message}$"):
        OPERATORS["split"].build(cycle_graph(4), 1, 1)


@st.composite
def graphs(draw, max_order=10):
    """A 0/1 simple graph of order 1..max_order."""
    n = draw(st.integers(1, max_order))
    a = np.zeros((n, n), dtype=np.uint8)
    rows, cols = np.triu_indices(n, k=1)
    a[rows, cols] = draw(st.lists(st.integers(0, 1), min_size=rows.size, max_size=rows.size))
    return Graph(a | a.T)


def assert_same_bytes(built: Graph, want: np.ndarray):
    a = built.adjacency
    assert a.dtype == np.uint8 and a.flags.c_contiguous
    assert a.shape == want.shape and a.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(graphs(), graphs())
def test_kronecker_product_is_np_kron(g, h):
    assert_same_bytes(kronecker_product(g, h), np.kron(g.adjacency, h.adjacency))


@settings(max_examples=50, deadline=None)
@given(graphs(), st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_every_build_is_np_kron_on_its_recorded_side(g, pair):
    for op in OPERATORS.values():
        args = pair[:len(op.params)]
        c = op.coefficients(*args)
        want = np.kron(c, g.adjacency) if op.coefficient_first else np.kron(g.adjacency, c)
        assert_same_bytes(op.build(g, *args), want)


@pytest.mark.parametrize("name,params", [("split", SplitParams),
                                         ("shadow-split", ShadowSplitParams)])
def test_build_matches_the_neighborhood_rules(name, params):
    op = OPERATORS[name]
    for g in BASES + random_graphs(3, 6, seed=17):
        for args in grid(op, top2=4):
            assert op.build(g, *args) == construct_by_neighborhood(g, params(*args)), args


def test_kronecker_energy_is_the_product_of_the_factor_energies():
    graphs = BASES + random_graphs(4, 6, seed=29)
    for g, h in itertools.product(graphs, repeat=2):
        tol = 1e-9 * g.order * h.order
        assert abs(energy(kronecker_product(g, h)) - energy(g) * energy(h)) <= tol


def test_catalog_member_labels():
    labels = {name: op.label_for((2, 3)[:len(op.params)]) for name, op in OPERATORS.items()}
    assert labels == {
        "split": "splitting(p=2,q=3)",
        "shadow-split": "shadow-splitting(c=2,k=3)",
        "shadow": "shadow(m=2)",
        "splitting": "splitting(m=2)",
        "kron-complete": "kron with complete(2)",
        "kron-complete-bipartite": "kron with complete-bipartite(2,2)",
        "complete-bipartite-kron": "kron with complete-bipartite(2,2)",
    }
    assert OPERATORS["kron-complete"].describe((3,), "base") == "kron of base with complete(3)"
    assert (OPERATORS["complete-bipartite-kron"].describe((2,), "base")
            == "kron of complete-bipartite(2,2) with base")
    assert (OPERATORS["split"].describe((2, 1), "first base")
            == "splitting(p=2,q=1) of first base")
