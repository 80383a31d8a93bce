"""Independent routes the benchmark checks the program's outputs against.

Nothing here calls the code under test for the quantity being checked: norms
come from a sparse assembly solved with ARPACK or from a direct supremum over
a window of the semigroup, LCMs and initial segments from closed forms or
brute force over plain tuples, spectra from an explicit tensor-product
picture.  Semigroup arithmetic (``left_divide``, ``*``) is used where a route
needs it; the LCM-table jobs check that arithmetic on its own.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

NORM_TOL = 1e-8  # relative; the tol every benchmarked norm is called with
# relative; the bound for a norm whose miss of NORM_TOL is a known defect of
# the commit the benchmark was added at (see KNOWN_TOL_MISSES in workloads.py)
WRONG_TOL = 1e-6


def rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


# -- norms -----------------------------------------------------------------------


def _amplify(block, dim):
    """block tensor 1_dim, the colored backend's right tensoring."""
    return block if dim == 1 else np.kron(block, np.eye(dim, dtype=complex))


def sparse_lift(x, S):
    """Per-color sparse matrices of left multiplication by x on the window S.

    Term (p,q,a) sends the column of s in qP to p(q^-1 s) with block
    a tensor 1_{q^-1 s}; targets outside S are dropped.  Returns the matrices
    and the number of distinct nonzero (target, source) blocks.
    """
    backend = x.backend
    sg = backend.sg
    index = {s: i for i, s in enumerate(S)}
    mats, blocks = [], 0
    for c in range(backend.slot_count):
        dims = [backend.shape(s, s)[c][0] for s in S]
        offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        acc = {}
        for (p, q), a in x.terms.items():
            if a.blocks[c].size == 0:
                continue
            for s in S:
                v = sg.left_divide(q, s)
                if v is None:
                    continue
                t = p * v
                if t not in index:
                    continue
                b = _amplify(a.blocks[c], backend.shape(v, v)[c][0])
                key = (index[t], index[s])
                acc[key] = acc[key] + b if key in acc else b
        rows, cols, vals = [], [], []
        for (ti, si), b in acc.items():
            r, k = np.nonzero(b)
            rows.append(r + offsets[ti])
            cols.append(k + offsets[si])
            vals.append(b[r, k])
        n = int(offsets[-1])
        if rows:
            m = sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n),
            )
        else:
            m = sp.csr_matrix((n, n), dtype=complex)
        mats.append(m)
        blocks += len(acc)
    return mats, blocks


def sparse_norm(mats, seed=0):
    """Largest singular value over the color slots, by ARPACK (svds, k=1)."""
    best = 0.0
    rng = np.random.default_rng(seed)
    for m in mats:
        n = m.shape[0]
        if m.nnz == 0:
            continue
        if n <= 8:
            best = max(best, float(np.linalg.norm(m.toarray(), 2)))
            continue
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = svds(m, k=1, tol=0, v0=v0, return_singular_vectors=False, solver="arpack")
        best = max(best, float(s[0]))
    return best


def core_window_norm(x, window):
    """sup over w in the window of |sum a_{p,q} tensor 1_{q^-1 w}|.

    The sum runs over keys with p^-1 w = q^-1 w (both defined).  For a
    diagonal element this is the Fock norm once the window holds every
    sigma(C); for mixed keys it is the block-diagonal (expectation) norm over
    the window.
    """
    backend = x.backend
    sg = backend.sg
    best = 0.0
    for w in window:
        acc = None
        for (p, q), a in x.terms.items():
            vq = sg.left_divide(q, w)
            if vq is None or sg.left_divide(p, w) != vq:
                continue
            dims = backend.shape(vq, vq)
            blocks = [_amplify(b, d[0]) for b, d in zip(a.blocks, dims)]
            acc = blocks if acc is None else [u + v for u, v in zip(acc, blocks)]
        if acc is not None:
            best = max(best, max(float(np.linalg.norm(b, 2)) for b in acc if b.size))
    return best


# -- elements --------------------------------------------------------------------


def element_gap(x, y):
    """Largest block difference between two elements, key by key."""
    gap = 0.0
    for key in set(x.terms) | set(y.terms):
        a, b = x.terms.get(key), y.terms.get(key)
        if a is None or b is None:
            gap = max(gap, (a if b is None else b).norm())
        else:
            gap = max(gap, (a - b).norm())
    return gap


def element_scale(x):
    return max((a.norm() for a in x.terms.values()), default=1.0)


# -- semigroups ------------------------------------------------------------------


def free_letters(sg, p):
    """A free-monoid word as a string of letters."""
    return "".join(sg.names[i] * x[0] for i, x in p.data)


def free_word_data(sg, letters):
    """Normal-form data of the word spelled by a string of letters."""
    data = []
    for ch in letters:
        i = sg.names.index(ch)
        if data and data[-1][0] == i:
            data[-1] = (i, (data[-1][1][0] + 1,))
        else:
            data.append((i, (1,)))
    return tuple(data)


def lcm_free(sg, p, q):
    a, b = free_letters(sg, p), free_letters(sg, q)
    if len(a) > len(b):
        a, b = b, a
    return b if b.startswith(a) else None


def lcm_max(a, b):
    """Componentwise max of two N^k vectors: their LCM in N^k."""
    return tuple(max(u, v) for u, v in zip(a, b))


def _absorb_leq(p, w):
    (k, m), (kk, mm) = p, w
    return kk > k or (kk == k and mm >= m)


def absorb_lcm_disagreements(table):
    """Brute force over the table's window: r must be a common multiple of p
    and q that divides every common multiple in the window."""
    window = {p.data for p, _ in table}
    bad = 0
    for (p, q), r in table.items():
        if r is None or not (_absorb_leq(p.data, r.data) and _absorb_leq(q.data, r.data)):
            bad += 1
            continue
        for w in window:
            if _absorb_leq(p.data, w) and _absorb_leq(q.data, w) and not _absorb_leq(r.data, w):
                bad += 1
                break
    return bad


def down_sets(F, window, leq):
    """The distinct sets {t in F : t <= s} for s in the window."""
    return {frozenset(t for t in F if leq(t, s)) for s in window}


# -- bundles ---------------------------------------------------------------------


def trivial_crossed_spectrum(group, dims, section):
    """Eigenvalues of a section of A x| G (trivial action) in the regular picture.

    On H = l2(G) tensor A with A = sum of M_d in Hilbert-Schmidt coordinates,
    the section sum a_g delta_g acts as sum_g lambda(g) tensor L(a_g), and
    left multiplication by a on M_d is a tensor 1_d.  Each color c therefore
    contributes the eigenvalues of sum_g lambda(g) tensor a_g[c], d_c times.
    The section is self-adjoint, so the matrices are Hermitian.
    """
    G = group.elements(1)
    pos = {g: i for i, g in enumerate(G)}
    out = []
    for c, d in enumerate(dims):
        m = np.zeros((len(G) * d, len(G) * d), dtype=complex)
        for g, blocks in section.items():
            lam = np.zeros((len(G), len(G)))
            for k in G:
                lam[pos[g * k], pos[k]] = 1.0
            m += np.kron(lam, blocks[c])
        ev = np.linalg.eigvalsh(m)
        out.extend(np.repeat(ev, d))
    return np.sort(np.array(out))


# -- reports ---------------------------------------------------------------------


def report_gap(got, want, path="report", tol=1e-9):
    """First difference between two JSON reports; floats agree to tol."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in want:
            if k == "generated_at":
                continue
            gap = report_gap(got[k], want[k], f"{path}.{k}", tol)
            if gap:
                return gap
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            gap = report_gap(g, w, f"{path}[{i}]", tol)
            if gap:
                return gap
        return None
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{path}: {got!r} is not a number"
        if abs(got - want) > tol * max(1.0, abs(want)):
            return f"{path}: {got!r} != {want!r}"
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"
