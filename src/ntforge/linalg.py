"""Small numerical helpers shared by the operator-assembly code."""

from __future__ import annotations

import numpy as np


def spectral_norm(mat) -> float:
    """Largest singular value of a dense block."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def norm_at_most(mat, tol) -> bool:
    """spectral_norm(mat) <= tol, bounded below by the largest entry and above
    by the Frobenius norm; the SVD runs only when tol lies between them."""
    if mat.size and np.abs(mat).max() > tol:
        return False
    return bool(np.linalg.norm(mat) <= tol) or spectral_norm(mat) <= tol


def span_singular_values(vectors) -> np.ndarray:
    """Singular values, largest first, of the matrix whose rows are the
    flattened arrays, or of a 2-d array itself (empty when there are none)."""
    if getattr(vectors, "ndim", 0) == 2:
        m = vectors
    else:
        rows = [np.ravel(v) for v in vectors if np.size(v)]
        if not rows:
            return np.zeros(0)
        m = np.array(rows)
    # columns that vanish in every vector leave the singular values unchanged
    m = m[:, m.any(axis=0)]
    return np.linalg.svd(m, compute_uv=False)


def rank_of_values(s, tol=1e-8) -> int:
    """Number of singular values above tol times the largest of them."""
    top = float(np.max(s, initial=0.0))
    return 0 if top == 0.0 else int(np.sum(np.asarray(s) > tol * top))


def rank_of_span(vectors, tol=1e-8) -> int:
    """Numerical rank of the span of flattened arrays."""
    return rank_of_values(span_singular_values(vectors), tol)
