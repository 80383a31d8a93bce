"""Small numerical helpers shared by the operator-assembly code."""

from __future__ import annotations

import numpy as np


def spectral_norm(mat) -> float:
    """Largest singular value of a dense block."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def rank_of_span(vectors, tol=1e-8) -> int:
    """Numerical rank of the span of flattened arrays."""
    rows = [np.ravel(v) for v in vectors if np.size(v)]
    if not rows:
        return 0
    m = np.array(rows)
    # columns that vanish in every vector leave the singular values unchanged
    m = m[:, np.any(m != 0, axis=0)]
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))
