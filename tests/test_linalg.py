import numpy as np

from ntforge.linalg import norm_at_most, norms_at_most, rank_of_span, spectral_norm


def _full_svd_rank(vectors, tol):
    s = np.linalg.svd(np.array([np.ravel(v) for v in vectors]), compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s.size and s[0] else 0


def test_rank_of_span_with_zero_columns_matches_full_svd():
    rng = np.random.default_rng(5)
    for rows, cols, rank in [(6, 40, 3), (12, 30, 12), (5, 8, 1), (9, 200, 4)]:
        m = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) @ (
            rng.standard_normal((rank, cols))
        )
        m[:, rng.random(cols) < 0.6] = 0.0  # columns zero in every vector
        vectors = [row.reshape(-1, 2) if cols % 2 == 0 else row for row in m]
        assert rank_of_span(vectors) == _full_svd_rank(vectors, 1e-8)
        assert rank_of_span(vectors) == np.linalg.matrix_rank(m)
    zero = [np.zeros((3, 3)) for _ in range(4)]
    assert rank_of_span(zero) == _full_svd_rank(zero, 1e-8) == 0
    assert rank_of_span([]) == 0


def test_norm_at_most_keeps_the_spectral_verdict():
    """Tolerances below the largest entry, above the Frobenius norm and in
    between (where the SVD decides) give the verdict of spectral_norm, one
    matrix at a time and over a stack (norms_at_most)."""
    rng = np.random.default_rng(8)
    for shape in [(3, 3), (4, 2), (1, 5)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        top, op, fro = np.abs(m).max(), spectral_norm(m), np.linalg.norm(m)
        for tol in [0.0, top / 2, (top + op) / 2, op, (op + fro) / 2, fro, 2 * fro]:
            assert norm_at_most(m, tol) == (op <= tol)
            assert norms_at_most(np.stack([0 * m, m, 1e3 * m]), tol).tolist() == [True, op <= tol, False]
    assert norm_at_most(np.zeros((0, 3)), 0.0)
    assert norm_at_most(np.zeros((2, 2)), 0.0)
    assert norms_at_most(np.zeros((2, 0, 3)), 0.0).tolist() == [True, True]
