"""Graph energy toolkit.

Builds splitting, shadow, shadow-splitting, and Kronecker-product graphs from
dense adjacency matrices; computes spectra and energies both by brute-force
eigensolving and by closed-form scale factors; and verifies parameterized
families of equienergetic and borderenergetic graphs.
"""

from .families import (
    FamilySpec,
    OutOfDomainError,
    VerificationReport,
    canonical_equienergetic_pair,
    family_ids,
    sweep,
    verify,
)
from .graphs import (
    Graph,
    OrderCapError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    max_order,
    path_graph,
    random_graph,
    star_graph,
)
from .io import (
    decode_graph6,
    encode_graph6,
    read_edge_list,
    read_graph_text,
    read_matrix_market,
    write_edge_list,
    write_graph_text,
    write_matrix_market,
)
from .operators import (
    OPERATORS,
    Operator,
    generalized_splitting,
    kronecker_product,
    m_shadow,
    m_splitting,
    shadow_splitting,
)
from .spectral import (
    Spectrum,
    adjacency_spectrum,
    energy,
    structured_spectrum,
    verification_tolerance,
)

__version__ = "0.1.0"

__all__ = [
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
]
