"""Small numerical helpers shared by the operator-assembly code."""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-8  # relative singular-value cutoff of every numerical rank


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


def norms_at_most(stack, tol) -> np.ndarray:
    """norm_at_most of each matrix of a stack (n, rows, cols), n >= 1: the two
    bounds over the whole stack, norm_at_most itself on the undecided ones."""
    flat = stack.reshape(len(stack), -1)
    ok = np.abs(flat).max(axis=1, initial=0.0) <= tol
    undecided = ok & (np.linalg.norm(flat, axis=1) > tol)
    ok[undecided] = [norm_at_most(m, tol) for m in stack[undecided]]
    return ok


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


def rank_of_values(s, tol=RANK_TOL) -> int:
    """Number of singular values above tol times the largest of them."""
    top = float(np.max(s, initial=0.0))
    return 0 if top == 0.0 else int(np.sum(np.asarray(s) > tol * top))


def rank_of_span(vectors, tol=RANK_TOL) -> int:
    """Numerical rank of the span of flattened arrays."""
    return rank_of_values(span_singular_values(vectors), tol)
