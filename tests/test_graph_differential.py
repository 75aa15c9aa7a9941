"""Differential tests: `Graph.__init__`, and the builders' `Graph._adopt`,
against the reference validator.

For every input the library must accept exactly what the reference accepts
and store the same read-only, C-ordered uint8 matrix, or raise an exception
of the same class with the same message. The inputs cover the dtypes a
caller can hand over: bool, uint8, int8, int64, uint16 (whose 256 wraps to 0
in uint8), float32 and float64 (with 0.5, NaN, infinities, -0.0 and 2.0),
complex, and nested Python lists, in C, Fortran and transposed layouts. The
library validator must also do so without a warning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference as reference
from graphenergy import Graph
from graphenergy.graphs import MAX_ORDER_ENV_VAR

NAN, INF = float("nan"), float("inf")

# value pools per input kind: a zero, a one, then values that must be rejected
POOLS = {
    np.bool_: [False, True],
    np.uint8: [0, 1, 2, 255],
    np.int8: [0, 1, -1, 2, 127, -128],
    np.int64: [0, 1, -1, 2, 256, 257, 2**40, -(2**63)],
    np.uint16: [0, 1, 256, 257, 65535],
    np.float32: [0.0, 1.0, -0.0, 0.5, NAN, 2.0, 256.0, 257.0, -1.0, INF],
    np.float64: [0.0, 1.0, -0.0, 0.5, NAN, 2.0, 1.0 + 1e-15, 256.0, 257.0, -1.0, INF, -INF],
    np.complex128: [0j, 1 + 0j, complex(-0.0, -0.0), 1j, 1 + 1j, 0.5 + 0j, complex(NAN, 0), 2 + 0j],
    list: [0, 1, False, True, 0.0, 1.0, 2, -1, 0.5, None, "1"],
}


def outcome(validate, data):
    try:
        a = validate(data)
    except Exception as exc:
        return type(exc), str(exc)
    assert a.dtype == np.uint8 and a.flags.c_contiguous and not a.flags.writeable
    return a.shape, a.tobytes()


def library(data) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return Graph(data).adjacency


def reference_outcome(data):
    with warnings.catch_warnings():
        # the reference casts complex input to uint8, which warns
        warnings.simplefilter("ignore")
        return outcome(reference.validate_adjacency, data)


@st.composite
def candidates(draw, kinds=tuple(POOLS)):
    """A square matrix of one of `kinds`' values, often symmetric with a zero
    diagonal so that the later checks are reached too."""
    kind = draw(st.sampled_from(kinds))
    pool = POOLS[kind]
    n = draw(st.integers(min_value=1, max_value=6))
    value = st.one_of(st.sampled_from(pool[:2]), st.sampled_from(pool))
    rows = [[draw(value) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["raw", "symmetric", "graph"]))
    if shape != "raw":
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
            if shape == "graph":
                rows[i][i] = pool[0]
    if kind is list:
        return rows
    a = np.array(rows, dtype=kind)
    layout = draw(st.sampled_from(["C", "F", "T"]))
    return {"C": a, "F": np.asfortranarray(a), "T": a.T}[layout]


@settings(max_examples=400, deadline=None)
@given(candidates())
def test_same_outcome_as_the_reference(data):
    assert outcome(library, data) == reference_outcome(data)


@pytest.mark.parametrize("data", [
    np.zeros((2, 3), dtype=np.uint8),
    np.zeros((0, 0)),
    np.zeros(4, dtype=np.uint8),
    np.zeros((2, 2, 2)),
    [[0, 1], [1]],
    [],
    0,
    np.array([[0, 1], [1, 0]], dtype=object),
    np.array([[0, 1.0], [1, None]], dtype=object),
    np.array([["0", "1"], ["1", "0"]]),
    np.eye(3, dtype=np.uint8)[:, ::-1][::-1],
    np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64),
    np.array([[0, 256], [256, 0]], dtype=np.uint16),
    np.array([[0, 1], [1, 0]], dtype=">i8"),
])
def test_same_outcome_on_edge_cases(data):
    assert outcome(library, data) == reference_outcome(data)


def test_same_outcome_over_the_order_cap(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV_VAR, "2")
    data = np.zeros((3, 3), dtype=np.uint8)
    assert outcome(library, data) == reference_outcome(data)
    assert outcome(library, data)[0].__name__ == "OrderCapError"


def test_the_stored_matrix_is_a_copy():
    a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    g = Graph(a)
    a[0, 1] = 0
    assert g.adjacency[0, 1]


# -- the builders' constructor, which keeps the fresh uint8 matrix it is given

def adopted(data) -> np.ndarray:
    a = np.array(data, dtype=np.uint8, order="C")  # fresh, as a builder's product is
    stored = Graph._adopt(a).adjacency
    assert np.shares_memory(stored, a)
    return stored


@settings(max_examples=200, deadline=None)
@given(candidates(kinds=(np.uint8,)))
def test_adopted_matrix_has_the_outcome_of_the_reference(data):
    assert outcome(adopted, data) == reference_outcome(data)


@pytest.mark.parametrize("data", [
    [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
    [[0, 2], [2, 0]],
    [[0, 1], [0, 0]],
    [[1, 0], [0, 0]],
    [[0]],
    [[1]],
], ids=["path", "entry-2", "asymmetric", "diagonal-1", "k1", "loop"])
def test_adopted_matrix_has_the_outcome_of_the_reference_on_each_check(data):
    assert outcome(adopted, data) == reference_outcome(data)


def test_adopted_matrix_has_the_outcome_of_the_reference_over_the_order_cap(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV_VAR, "2")
    data = np.zeros((3, 3), dtype=np.uint8)
    assert outcome(adopted, data) == reference_outcome(data)
    assert outcome(adopted, data)[0].__name__ == "OrderCapError"
