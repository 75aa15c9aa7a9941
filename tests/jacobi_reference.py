"""Cyclic Jacobi eigensolver: an independent test oracle for the LAPACK path.

It rotates away one off-diagonal entry at a time in Python, so it is slow but
shares no code with numpy.linalg.eigvalsh. The spectral tests hold
`matrix_spectrum` and the library's `adjacency_spectrum` to it.
"""

from __future__ import annotations

import math

import numpy as np

from spectral_reference import symmetric_matrix

JACOBI_MAX_SWEEPS = 100
JACOBI_RELATIVE_THRESHOLD = 1e-12


def jacobi_eigenvalues(matrix, max_sweeps: int = JACOBI_MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues by cyclic Jacobi rotations, sorted descending.

    Sweeps over all off-diagonal pairs until the off-diagonal Frobenius norm
    falls below 1e-12 * (1 + ||A||_F). Raises RuntimeError if that has not
    happened after `max_sweeps` sweeps; convergence failure is never silent.

    The input gets the same square/symmetric guard as `matrix_spectrum`.
    """
    a = symmetric_matrix(matrix).copy()
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    threshold = JACOBI_RELATIVE_THRESHOLD * (1.0 + np.linalg.norm(a))

    def off_norm() -> float:
        off = a - np.diag(np.diagonal(a))
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if off_norm() <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # Givens rotation zeroing the (p, q) entry
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        if off_norm() > threshold:
            raise RuntimeError(
                f"Jacobi eigensolver did not converge within {max_sweeps} sweeps "
                f"(off-diagonal norm {off_norm():.3e}, threshold {threshold:.3e})"
            )
    return np.sort(np.diagonal(a))[::-1].copy()
