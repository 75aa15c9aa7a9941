"""The public surface of the package, pinned.

Any change to `graphenergy.__all__` must show here as a diff; a stale export
fails at once.
"""

import graphenergy

PUBLIC_NAMES = {
    "FamilySpec",
    "Graph",
    "OPERATORS",
    "Operator",
    "OrderCapError",
    "OutOfDomainError",
    "Spectrum",
    "VerificationReport",
    "adjacency_spectrum",
    "canonical_equienergetic_pair",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "decode_graph6",
    "disjoint_union",
    "empty_graph",
    "encode_graph6",
    "energy",
    "family_ids",
    "generalized_splitting",
    "kronecker_product",
    "m_shadow",
    "m_splitting",
    "max_order",
    "path_graph",
    "random_graph",
    "read_edge_list",
    "read_graph_text",
    "read_matrix_market",
    "shadow_splitting",
    "star_graph",
    "structured_spectrum",
    "sweep",
    "verification_tolerance",
    "verify",
    "write_edge_list",
    "write_graph_text",
    "write_matrix_market",
}


def test_all_is_the_pinned_set_without_duplicates():
    assert len(graphenergy.__all__) == len(set(graphenergy.__all__))
    assert set(graphenergy.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in graphenergy.__all__:
        assert getattr(graphenergy, name) is not None, name


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from graphenergy import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES
    for name, value in namespace.items():
        assert value is getattr(graphenergy, name), name
