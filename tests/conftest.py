from collections.abc import Iterable

import numpy as np
import pytest

from graphenergy import (
    FamilySpec,
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
)
from graphenergy.families import _plan, _require_params, get_family
from graphenergy.graphs import check_order
from graphenergy.operators import Operator


@pytest.fixture
def base_graphs() -> dict[str, Graph]:
    """The standard small base set used across operator and energy tests."""
    return {
        "K3": complete_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "K23": complete_bipartite(2, 3),
        "P4": path_graph(4),
        "R8": random_graph(8, 0.5, seed=20240811),
    }


def random_graphs(count: int, max_order: int, seed: int) -> list[Graph]:
    """Deterministic batch of random graphs with varied orders and densities."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_order + 1))
        p = float(rng.uniform(0.1, 0.9))
        out.append(random_graph(n, p, seed=rng))
    return out


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list over vertices 0..order-1."""
    if order < 1:
        raise ValueError("graph order must be >= 1")
    check_order(order)
    a = np.zeros((order, order), dtype=np.uint8)
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        a[u, v] = 1
        a[v, u] = 1
    return Graph(a)


def with_wrong_factor(op: Operator) -> Operator:
    """`op` with its energy factor wrong in the 7th digit: a fault in the
    closed route that no integer spectrum states."""

    class WrongFactor(Operator):
        def factor(self, *args: int) -> float:
            return super().factor(*args) * (1 + 1e-6)

    return WrongFactor(**vars(op))


def instantiate_family(spec: FamilySpec) -> list[Graph]:
    """Construct the member graphs of a family instance."""
    family = get_family(spec.corollary_id)
    params = _require_params(spec, family.param_names)
    return [plan.build() for plan in _plan(family, params, spec.bases)]
