"""Classical closed-form energies.

The operators' energy factors and coefficient spectra live in the operator
table, `graphenergy.operators.OPERATORS`. Here are the energies of the
standard graphs, which serve as closed-form base energies and as the factors
of the Kronecker-product operators.
"""

from __future__ import annotations

import math


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
