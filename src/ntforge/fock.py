"""Truncated Fock module and operator assembly.

The Fock module is the direct sum of the spaces K(s,t) over pairs of objects.
Everything the engine builds acts by left multiplication after a tensor
shift, so on a fixed source-object t and color c the operator is

    (column operator on  ⊕_s C^{dim(s)[c]})  ⊗  Identity(dim(t)[c])

for a column operator that does not depend on t.  Operators are therefore
stored factored: one scipy.sparse CSR matrix over every color's columns
(Truncation's color-major order).  Colors are orthogonal summands, so it is
block-diagonal, color c's block is its column factor, and it is the t = e
fiber.  Sums and norms are sparse operations on it (the t-ampliation is
isometric and additive).

The truncation is indexed: a right-multiplication table over the generators
and units, and a BFS spanning tree of S, give the index of x·v for every
v in S with one numpy step per tree level (Truncation.right_orbit).  A key
(p, q) is placed at every v where both q·v and p·v stay in S; a ⊗ 1_v is
computed once per ampliation class of v (the color dims on the colored
backend, v itself elsewhere), never stored dense, and gathered out to the
key's placements as values at flat positions row·dim + col.  One CSR
matrix takes every key's values, summing a shared position in key order.

The norm is the block-diagonal norm: the matrix's largest singular value,
the largest over colors of the column factors'.  A matrix of at most
SMALL_SLOT columns takes a dense SVD.  A larger one runs plain Lanczos on
the Gram operator G = A*A (two sparse matvecs a step, no
reorthogonalisation), stopping once Paige's residual estimate beta_k |s_k|
of the top Ritz value theta is at most tol * theta; a second pass rebuilds
the Ritz vector y, whose ||Ay|| / ||y|| is a proven lower bound.  A run that
misses the rule within its step cap raises LanczosNoConvergence.

Truncation keeps all normal forms of word length <= L. Blocks whose target
leaves S are dropped, so equality assertions are made on interior source
columns only: if len(s) + margin <= L, the full column over s is exact.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .analysis import ConcreteRep
from .linalg import spectral_norm
from .precategory import ideal_membership
from .wick import NTElement

# Column count up to which an operator's norm is a dense SVD.  A larger one
# takes plain Lanczos on its Gram operator A*A, stopped once Paige's residual
# estimate is at most tol times the top Ritz value; past its step cap (ten
# steps per column) it raises LanczosNoConvergence.
SMALL_SLOT = 64


class Truncation:
    """The finite window: all normal forms of word length <= depth, indexed.

    Besides S (in elements() order) it keeps a right-multiplication table,
    the index in S of S[i]·g or -1, over the edges g (the generators and the
    non-identity units), and a BFS spanning tree of S rooted at e, in which
    every v is reached once, along a shortest edge path.  Construction raises
    if the tree does not cover S.  Of its dim columns, color-major, the first
    of (color c, S[i]) is _offsets[c·|S| + i]; _sources[k] indexes column
    k's source object in S.  S[i] lies in ampliation class _amp_class[i];
    S[_class_rep[k]] is the first element of class k.
    """

    def __init__(self, backend, depth: int):
        self.backend = backend
        self.depth = depth
        sg = backend.sg
        self.S = sg.elements(depth)
        self.index = {s: i for i, s in enumerate(self.S)}
        self._build_tree(sg)
        shapes = [backend.shape(s, s) for s in self.S]
        dims = np.array([[sh[c][0] for sh in shapes] for c in range(backend.slot_count)], dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(dims)))
        self.dim = int(self._offsets[-1])
        self._sources = np.repeat(np.tile(np.arange(len(self.S)), backend.slot_count), dims.ravel())
        # v and v' with the same ampliation class have a ⊗ 1_v = a ⊗ 1_v'
        classes = {}
        self._amp_class = np.array(
            [classes.setdefault(backend._ampliation_class(s), len(classes)) for s in self.S],
            dtype=np.intp,
        )
        self._class_rep = np.unique(self._amp_class, return_index=True)[1]

    def _build_tree(self, sg):
        n = len(self.S)
        edges = list(sg.generators()) + [u for u in sg.unit_tuple if u != sg.one]
        # normal forms of one instance are equal iff their data are, so the
        # table is built on data through the instance's product hook
        get, mul = {s.data: i for i, s in enumerate(self.S)}.get, sg._mul
        gs = [g.data for g in edges]
        # row n is the sentinel: an index that has left S stays at -1 (= n)
        self._child = np.array(
            [[get(mul(s.data, g), -1) for g in gs] for s in self.S] + [[-1] * len(edges)],
            dtype=np.intp,
        ).reshape(n + 1, len(edges))
        self._root = self.index[sg.one]
        seen = np.zeros(n + 1, dtype=bool)
        seen[[self._root, n]] = True
        frontier = np.array([self._root], dtype=np.intp)
        self._levels = []  # per tree level: (nodes, their parents, their edges)
        while frontier.size:
            kids = self._child[frontier].ravel()
            fresh = np.flatnonzero(~seen[kids])
            # the first fresh occurrence of each node: BFS visits it once
            nodes, first = np.unique(kids[fresh], return_index=True)
            if not nodes.size:
                break
            at = fresh[first]
            self._levels.append((nodes, frontier[at // len(edges)], at % len(edges)))
            seen[nodes] = True
            frontier = nodes
        if not seen.all():
            raise ValueError(
                "the truncation is not reachable from e inside S along the "
                "generators and units"
            )

    def right_orbit(self, x):
        """The index in S of x·v for every v in S, or -1 where x·v leaves S.

        The first tree level is multiplied out, since x itself may lie outside
        S while x·g does not (absorption: (0,5)(1,0) = (1,0)).  Each deeper
        level is one read of the child table, which is exact under the
        premise, held by every shipped instance: along a tree edge u -> u·g
        with u != e, x·u·g is no shorter than x·u, so once x·u has left S
        (a length ball) its descendants stay out.
        """
        orbit = np.empty(len(self.S), dtype=np.intp)
        orbit[self._root] = self.index.get(x, -1)
        if self._levels:
            nodes = self._levels[0][0]
            orbit[nodes] = [self.index.get(x * self.S[v], -1) for v in nodes]
        for nodes, parents, edges in self._levels[1:]:
            orbit[nodes] = self._child[orbit[parents], edges]
        return orbit

    def col_total(self, c) -> int:
        n = len(self.S)
        return int(self._offsets[(c + 1) * n] - self._offsets[c * n])

    def __repr__(self):
        return f"<truncation depth={self.depth} |S|={len(self.S)}>"


def _csr(n, parts=()):
    """n x n complex CSR matrix from parts (flat positions row·n + col,
    values).  The values, stably sorted by position, go straight into the
    CSR arrays; scipy's sum_duplicates then adds up a repeated position's
    values in input order, ((v0 + v1) + v2) + ..., and a sum of exactly 0 is
    dropped, as in a chain of scipy sums of parts that repeat no position.
    A temporary list of parts is freed before the sort."""
    import scipy.sparse as sp

    pos = np.concatenate([k for k, _ in parts] or [()]).astype(np.int64, copy=False)
    vals = np.concatenate([v for _, v in parts] or [()]).astype(complex, copy=False)
    del parts
    order = np.argsort(pos, kind="stable")
    pos, vals = pos[order], vals[order]
    rows = pos // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    out = sp.csr_matrix((vals, pos - rows * n, indptr), shape=(n, n))
    out.has_sorted_indices = True  # the repeats stand side by side
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


class LanczosNoConvergence(RuntimeError):
    """The Gram Lanczos norm missed its stopping rule within its step cap."""


class GramNorm(NamedTuple):
    """A Gram Lanczos norm with its certificate."""

    value: float  # the larger of sqrt(theta) and lower
    lower: float  # ||A y|| / ||y|| for the rebuilt Ritz vector y: a proven lower bound
    residual: float  # ||G y - theta y|| / ||y||


def _top_ritz(alphas, betas):
    """Top eigenvalue theta of the Lanczos tridiagonal and its unit eigenvector."""
    from scipy.linalg import lapack

    d, e = np.array(alphas), np.array(betas)
    k = d.size
    if k == 1:
        return float(d[0]), np.ones(1)
    _, w, block, split, info = lapack.dstebz(d, e, 3, 0.0, 0.0, k, k, 0.0, "E")
    if info == 0:
        z, info = lapack.dstein(d, e, w[:1], block, split)
    if info != 0:
        raise LanczosNoConvergence(f"tridiagonal eigensolver failed (info {info}) at step {k}")
    return float(w[0]), z[:, 0]


def _gram_lanczos(a, tol, cap) -> GramNorm:
    """Largest singular value of the sparse matrix a: plain Lanczos on a*a.

    G = a*a is formed once as CSR: on lifted operators it holds under twice the
    nonzeros of a, and one G matvec a step beat the pair a, a* in timing.  No
    reorthogonalisation: lost orthogonality only repeats converged Ritz
    values, and the top one is all that is asked.  The stopping rule,
    beta_k |s_k| <= tol * theta with s_k the last entry of the top Ritz
    vector of the tridiagonal, is tested every max(1, k // 16) steps, so the
    tridiagonal solves stay a small share at a cost of at most 1/16 extra
    steps.  A
    second pass replays the recurrence to rebuild the Ritz vector y.  Vector
    updates are in-place BLAS calls, with no temporaries.
    """
    from scipy.linalg import blas

    g = (a.conj().T @ a).tocsr()
    n = a.shape[1]
    start = np.random.default_rng(0).standard_normal(n).astype(complex)
    start /= np.linalg.norm(start)
    alphas, betas = [], []
    q, q_prev, beta, due = start, None, 0.0, 1
    for k in range(1, cap + 1):
        w = g @ q
        alphas.append(blas.zdotc(q, w).real)
        w = blas.zaxpy(q, w, a=-alphas[-1])
        if q_prev is not None:
            w = blas.zaxpy(q_prev, w, a=-beta)
        beta = blas.dznrm2(w)
        if k >= due or beta == 0.0:
            theta, s = _top_ritz(alphas, betas)
            if beta * abs(s[-1]) <= tol * theta:
                break
            due = k + max(1, k // 16)
        betas.append(beta)
        q_prev, q = q, blas.zdscal(1.0 / beta, w)
    else:
        raise LanczosNoConvergence(
            f"Gram Lanczos norm: stopping rule not met in {cap} steps on {n} columns"
        )
    y = s[0] * start
    q, q_prev = start, None
    for j, beta in enumerate(betas):
        w = blas.zaxpy(q, g @ q, a=-alphas[j])
        if q_prev is not None:
            w = blas.zaxpy(q_prev, w, a=-betas[j - 1])
        q_prev, q = q, blas.zdscal(1.0 / beta, w)
        y = blas.zaxpy(q, y, a=s[j + 1])
    size = blas.dznrm2(y)
    lower = blas.dznrm2(a @ y) / size
    residual = blas.dznrm2(blas.zaxpy(y, g @ y, a=-theta)) / size
    return GramNorm(max(float(np.sqrt(max(theta, 0.0))), lower), lower, residual)


class FockOperator:
    """Block operator in factored form: one CSR matrix over the truncation's
    columns, block-diagonal over colors, color c's block its column factor."""

    def __init__(self, tr: Truncation, matrix=None):
        self.tr = tr
        self.matrix = matrix if matrix is not None else _csr(tr.dim)

    def dense(self):
        """The t = e fiber: the matrix, block-diagonal over colors."""
        return self.matrix.toarray()

    def norm(self, tol=1e-8):
        """Operator norm over the whole truncated module (sup over fibers):
        the block-diagonal matrix's largest singular value, a dense SVD up
        to SMALL_SLOT columns and Gram Lanczos at tol above that."""
        n = self.tr.dim
        if n <= SMALL_SLOT:
            return spectral_norm(self.dense())
        # ten steps per column, as ARPACK's default iteration cap
        return _gram_lanczos(self.matrix, tol, cap=10 * n).value

    def __repr__(self):
        return f"<fock-operator nnz={self.matrix.nnz} over {self.tr!r}>"


def _key_entries(tr: Truncation, xs, p, q, v, target, source):
    """The entries (*stack indices, positions row·dim + col, vals), in the
    truncation's columns, of the operator that sends the columns of
    source[k] to those of target[k] by a ⊗ 1_v[k], for the blocks xs of a in
    L(p,q) (stacked or not) and the index arrays of one key's placements.
    a ⊗ 1_v is taken once per ampliation class of v; per color one gather
    hands every placement its class's entries.  Within one key every
    (target, source) occurs once, so no position repeats at one stack index."""
    backend, n = tr.backend, len(tr.S)
    parts = []
    if v.size:
        coo = backend._coo(xs)
        label = tr._amp_class[v]
        classes = np.flatnonzero(np.bincount(label))
        amps = [backend._rtensor_coo(xs, p, q, tr.S[tr._class_rep[k]], coo) for k in classes]
        sizes = np.zeros(classes[-1] + 1, dtype=np.intp)
        for c, per_class in enumerate(zip(*amps)):
            sizes[classes] = [vals.size for *_, vals in per_class]
            count = sizes[label]  # entries of each placement
            *at, i, j, vals = map(np.concatenate, zip(*per_class))
            # output e of placement k reads joined entry e - ends[k] + cumsum(sizes)[label[k]]
            ends = np.cumsum(count)
            take = np.repeat(np.cumsum(sizes)[label] - ends, count) + np.arange(ends[-1])
            offsets = tr._offsets[c * n :]
            corner = offsets[target] * tr.dim + offsets[source]  # top left of each block
            pos = np.repeat(corner, count) + (i * tr.dim + j)[take]
            parts.append((*[k[take] for k in at], pos, vals[take]))
    empty = (np.zeros(0, np.intp),) * np.ndim(xs[0])
    return tuple(map(np.concatenate, zip(empty, *parts)))


def _assemble(x: NTElement, tr: Truncation, placements) -> FockOperator:
    """Sum over the keys of x of the operators of _key_entries for the index
    arrays (v, target, source) of placements(p, q): one CSR of every key's
    entries, which sums a position shared by several keys in key order."""
    return FockOperator(tr, _csr(tr.dim, [
        _key_entries(tr, a.blocks, p, q, *placements(p, q)) for (p, q), a in x.terms.items()
    ]))


def _lift_placements(tr: Truncation, p, q):
    """(v, target, source) of key (p, q) in lift: the v in S with both q·v
    and p·v in S, and the indices of p·v and q·v."""
    at_q, at_p = tr.right_orbit(q), tr.right_orbit(p)
    v = np.flatnonzero((at_q >= 0) & (at_p >= 0))
    return v, at_p[v], at_q[v]


def lift(x: NTElement, tr: Truncation) -> FockOperator:
    """Left multiplication by x on the truncated module.

    Key (p,q,a) sends the source block at s = q·v to p·v, for every v in S
    with both in S; targets outside S are dropped (truncation).
    """
    return _assemble(x, tr, lambda p, q: _lift_placements(tr, p, q))


class FockRep(ConcreteRep):
    """The truncated Fock representation on the source-e fiber of tr.

    The Hilbert space is the truncation's column space, in its order.  phi(a)
    is the lift of a at its own key (range, source): the entries of
    _key_entries, scattered as they come (unlike NTElement, a coefficient
    below PRUNE_TOL is not dropped), with no unit-canonical key: a unit has
    length 0, so S is closed under units, v' -> u v' maps the placements of
    (p u, q u) onto those of (p, q), and the lift of a equals that of its
    unit-canonical term a ⊗ 1_u.  basis_images(p, q) lifts the basis stack of
    K(p, q) once and scatters each entry at (stack index, flat position).
    """

    def __init__(self, tr, ideal):
        super().__init__(tr.backend, tr.dim, None, ideal, "fock")
        self.tr = tr
        self._keys = {}  # (p, q) -> lift placements

    def _entries(self, xs, p, q):
        """(*stack indices, positions, vals) of the lift of the blocks xs
        of L(p, q)."""
        if (p, q) not in self._keys:
            self._keys[p, q] = _lift_placements(self.tr, p, q)
        return _key_entries(self.tr, xs, p, q, *self._keys[p, q])

    def entries(self, arrow):
        if not ideal_membership(arrow, self.ideal):
            raise ValueError(f"coefficient at ({arrow.range!r},{arrow.source!r}) escapes the ideal")
        pos, vals = self._entries(arrow.blocks, arrow.range, arrow.source)
        return (*np.divmod(pos, self.dim), vals)

    def phi(self, arrow):
        rows, cols, vals = self.entries(arrow)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[rows, cols] = vals
        return out

    def basis_images(self, p, q):
        out = np.zeros((self.backend.space_dim(p, q, self.ideal), self.dim**2), dtype=complex)
        k, pos, vals = self._entries(self.backend.basis_stack(p, q, self.ideal), p, q)
        out[k, pos] = vals
        return out


def fock_rep(backend, depth: int, ideal=None):
    """(FockRep, truncation) of the backend at depth."""
    tr = Truncation(backend, depth)
    return FockRep(tr, ideal), tr


def fock_norm(x: NTElement, tr: Truncation, tol=1e-8) -> float:
    return lift(x, tr).norm(tol=tol)


def transcendental_expectation(x: NTElement, tr: Truncation) -> FockOperator:
    """Block-diagonal compression of lift(x): sum of Q_w lift(x) Q_w.

    Key (p,q,a) survives at sources w in pP & qP with p^-1 w = q^-1 w, i.e.
    at w = q·v = p·v.  Over a right-cancellative semigroup that forces p = q;
    the absorption monoid keeps off-diagonal keys alive (the transcendental
    part of the core).
    """

    def placements(p, q):
        at_q, at_p = tr.right_orbit(q), tr.right_orbit(p)
        v = np.flatnonzero((at_q >= 0) & (at_q == at_p))
        return v, at_q[v], at_q[v]

    return _assemble(x, tr, placements)


def _source_projection(tr: Truncation, keep) -> FockOperator:
    """Projection onto the columns whose source object has its index in keep."""
    mask = np.zeros(len(tr.S), dtype=bool)
    mask[np.asarray(keep, dtype=np.intp)] = True
    idx = np.flatnonzero(mask[tr._sources])
    return FockOperator(tr, _csr(tr.dim, [(idx * (tr.dim + 1), np.ones(idx.size))]))


def projection_QT(p, tr: Truncation) -> FockOperator:
    """Q_<p>: projection onto blocks with source index in pP, i.e. p·v for v in S."""
    at_p = tr.right_orbit(p)
    return _source_projection(tr, at_p[at_p >= 0])
