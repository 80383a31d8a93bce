"""Truncated Fock module and operator assembly.

The Fock module is the direct sum of the spaces K(s,t) over pairs of objects.
Everything the engine builds acts by left multiplication after a tensor
shift, so on a fixed source-object t and color c the operator is

    (column operator on  ⊕_s C^{dim(s)[c]})  ⊗  Identity(dim(t)[c])

for a column operator that does not depend on t.  Operators are therefore
stored factored: one scipy.sparse CSR matrix per color, the column factor,
with rows and columns ordered by the truncation set S.  It is built from COO
triples: the nonzeros of a coefficient block a_c are taken once per key, and
each is repeated along the diagonal of 1_{dim_c(v)} by index arithmetic (the
backend's _rtensor_coo), so no a ⊗ 1_v block is ever stored dense.  Sums,
products, adjoints and norms are sparse operations on the column factors (the
t-ampliation is isometric and multiplicative); per-t fibers are materialized
densely on demand for oracles and the t-th restricted representation.

The norm is the maximum over colors of the column factor's largest singular
value.  A color slot of at most SMALL_SLOT columns takes a dense SVD; a
larger one goes to ARPACK (scipy's svds) at relative accuracy tol.

Truncation keeps all normal forms of word length <= L. Blocks whose target
leaves S are dropped, so equality assertions are made on interior source
columns only: if len(s) + margin <= L, the full column over s is exact.
"""

from __future__ import annotations

import numpy as np

from .linalg import rank_of_span, spectral_norm
from .precategory import StructureReport
from .wick import NTElement

# Column count up to which a color slot's norm is a dense SVD rather than
# ARPACK, which needs more columns than singular values asked for.
SMALL_SLOT = 64


class Truncation:
    """The finite window: all normal forms of word length <= depth."""

    def __init__(self, backend, depth: int):
        self.backend = backend
        self.depth = depth
        self.S = backend.sg.elements(depth)
        self.index = {s: i for i, s in enumerate(self.S)}
        self._col_dims = [
            [backend.shape(s, s)[c][0] for s in self.S]
            for c in range(backend.slot_count)
        ]
        self._col_offsets = [
            [0] + np.cumsum(d).tolist() for d in self._col_dims
        ]
        self._col_sources = [
            np.repeat(np.arange(len(self.S)), d) for d in self._col_dims
        ]

    def interior(self, margin: int):
        sg = self.backend.sg
        return frozenset(s for s in self.S if sg.length(s) + margin <= self.depth)

    def col_dim(self, c, s) -> int:
        return self._col_dims[c][self.index[s]]

    def col_total(self, c) -> int:
        return self._col_offsets[c][-1]

    def col_offset(self, c, s) -> int:
        return self._col_offsets[c][self.index[s]]

    def col_source(self, c):
        """Index into S of the source object of each column of color c."""
        return self._col_sources[c]

    def fiber_layout(self, t):
        """Offsets of the vectorized K(s,t) blocks inside the t-th fiber."""
        layout = {}
        off = 0
        present = [s for s in self.S if self.backend.space_dim(s, t)]
        for c in range(self.backend.slot_count):
            for s in present:
                rows, cols = self.backend.shape(s, t)[c]
                if rows * cols == 0:
                    continue
                layout[(s, c)] = (off, rows, cols)
                off += rows * cols
        return layout, off

    def __repr__(self):
        return f"<truncation depth={self.depth} |S|={len(self.S)}>"


def _csr(n, rows=(), cols=(), vals=()):
    """n x n complex CSR matrix from COO triples (duplicates are summed)."""
    import scipy.sparse as sp

    coords = (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))
    return sp.csr_matrix((np.asarray(vals, dtype=complex), coords), shape=(n, n))


class FockOperator:
    """Block operator in factored form: per color, the column factor as CSR."""

    def __init__(self, tr: Truncation, slots=None):
        self.tr = tr
        self.slots = (
            slots if slots is not None
            else [_csr(tr.col_total(c)) for c in range(tr.backend.slot_count)]
        )

    def _check(self, other):
        if self.tr is not other.tr:
            raise ValueError("operators over different truncations")

    def __add__(self, other):
        self._check(other)
        return FockOperator(self.tr, [a + b for a, b in zip(self.slots, other.slots)])

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return FockOperator(self.tr, [scalar * m for m in self.slots])

    __rmul__ = __mul__

    def adjoint(self):
        return FockOperator(self.tr, [m.conj().T.tocsr() for m in self.slots])

    def compose(self, other):
        self._check(other)
        return FockOperator(self.tr, [a @ b for a, b in zip(self.slots, other.slots)])

    def __matmul__(self, other):
        return self.compose(other)

    def restrict_sources(self, sources):
        """Keep only columns whose source index lies in the given set."""
        return self @ _source_projection(self.tr, sources)

    def dense(self):
        """The t = e fiber: block-diagonal over colors of the column factors."""
        n = sum(m.shape[0] for m in self.slots)
        out = np.zeros((n, n), dtype=complex)
        off = 0
        for m in self.slots:
            k = m.shape[0]
            out[off : off + k, off : off + k] = m.toarray()
            off += k
        return out

    def fiber(self, t):
        """Dense matrix of the operator on the t-th fiber ⊕_s K(s,t): per
        color, the slot on the sources present there, kron 1_{dim_c(t)}."""
        tr = self.tr
        layout, total = tr.fiber_layout(t)
        out = np.zeros((total, total), dtype=complex)
        for c, m in enumerate(self.slots):
            present = [s for s in tr.S if (s, c) in layout]
            if not present:
                continue
            off, _, width = layout[(present[0], c)]
            idx = np.flatnonzero(np.isin(tr.col_source(c), [tr.index[s] for s in present]))
            amp = np.kron(m.toarray()[np.ix_(idx, idx)], np.eye(width, dtype=complex))
            out[off : off + amp.shape[0], off : off + amp.shape[0]] = amp
        return out

    def _slot_norm(self, c, tol):
        m = self.slots[c]
        if not m.count_nonzero():
            return 0.0  # ARPACK refuses the zero operator's start space
        n = m.shape[0]
        # the CSR slot goes to ARPACK as it is; a small one is cheaper dense
        if n <= SMALL_SLOT:
            return spectral_norm(m.toarray())
        from scipy.sparse.linalg import svds

        v0 = np.random.default_rng(0).standard_normal(n)
        return float(svds(m, k=1, tol=tol, v0=v0, return_singular_vectors=False)[0])

    def norm(self, tol=1e-8):
        """Operator norm over the whole truncated module (sup over fibers).

        tol is the relative accuracy asked of ARPACK on slots larger than
        SMALL_SLOT columns; ArpackNoConvergence propagates.
        """
        return max((self._slot_norm(c, tol) for c in range(len(self.slots))), default=0.0)

    def norm_by_fibers(self, ts=None):
        """Honest per-fiber assembly; equals norm() — used as an oracle."""
        ts = list(ts) if ts is not None else self.tr.S
        return max((spectral_norm(self.fiber(t)) for t in ts), default=0.0)

    def frobenius(self):
        return float(np.sqrt(sum(np.sum(np.abs(m.data) ** 2) for m in self.slots)))

    def is_zero(self, tol=1e-12):
        return self.frobenius() <= tol

    def diagonal_part(self):
        """Keep the blocks whose target object equals their source object."""
        out = []
        for c, m in enumerate(self.slots):
            owner = self.tr.col_source(c)
            coo = m.tocoo()
            keep = owner[coo.row] == owner[coo.col]
            out.append(_csr(m.shape[0], coo.row[keep], coo.col[keep], coo.data[keep]))
        return FockOperator(self.tr, out)

    def __repr__(self):
        nnz = sum(m.nnz for m in self.slots)
        return f"<fock-operator nnz={nnz} over {self.tr!r}>"


def _assemble(x: NTElement, tr: Truncation, placements) -> FockOperator:
    """Sum over the keys of x, in key order, of the operators that send the
    columns of s to those of target by a ⊗ 1_v, for each (target, s, v) in
    placements(p, q).  Within one key every (target, s) occurs once, so the
    COO triples hold no duplicates and the sums match blockwise addition."""
    backend = tr.backend
    total = None
    for (p, q), a in x.terms.items():
        entries = [[] for _ in range(backend.slot_count)]
        coo = backend._coo(a)
        for target, s, v in placements(p, q):
            for c, (i, j, vals) in enumerate(backend._rtensor_coo(a, v, coo)):
                if vals.size:
                    entries[c].append((i + tr.col_offset(c, target), j + tr.col_offset(c, s), vals))
        op = FockOperator(tr, [
            _csr(tr.col_total(c), *(np.concatenate(z) for z in zip(*parts)))
            for c, parts in enumerate(entries)
        ])
        total = op if total is None else total + op
    return total if total is not None else FockOperator(tr)


def lift(x: NTElement, tr: Truncation) -> FockOperator:
    """Left multiplication by x on the truncated module.

    Key (p,q,a) sends the source block at s in qP to p(q^-1 s); targets
    outside S are dropped (truncation).
    """
    sg = tr.backend.sg

    def placements(p, q):
        for s in tr.S:
            v = sg.left_divide(q, s)
            if v is not None and (target := p * v) in tr.index:
                yield target, s, v

    return _assemble(x, tr, placements)


def fock_norm(x: NTElement, tr: Truncation, tol=1e-8) -> float:
    return lift(x, tr).norm(tol=tol)


def transcendental_expectation(x: NTElement, tr: Truncation) -> FockOperator:
    """Block-diagonal compression of lift(x): sum of Q_w lift(x) Q_w.

    Key (p,q,a) survives at sources w in pP & qP with p^-1 w = q^-1 w.  Over a
    right-cancellative semigroup that forces p = q; the absorption monoid keeps
    off-diagonal keys alive (the transcendental part of the core).
    """
    sg = tr.backend.sg

    def placements(p, q):
        for w in tr.S:
            vq = sg.left_divide(q, w)
            if vq is not None and vq == sg.left_divide(p, w):
                yield w, w, vq

    return _assemble(x, tr, placements)


def _source_projection(tr: Truncation, sources) -> FockOperator:
    """Projection onto the columns whose source object lies in sources."""
    keep = [tr.index[s] for s in sources if s in tr.index]
    slots = []
    for c in range(tr.backend.slot_count):
        idx = np.flatnonzero(np.isin(tr.col_source(c), keep))
        slots.append(_csr(tr.col_total(c), idx, idx, np.ones(idx.size)))
    return FockOperator(tr, slots)


def projection_Qw(w, tr: Truncation) -> FockOperator:
    """Projection onto the blocks with source index w."""
    return _source_projection(tr, [w])


def projection_QT(p, tr: Truncation) -> FockOperator:
    """Q_<p>: projection onto blocks with source index in pP."""
    sg = tr.backend.sg
    return _source_projection(tr, [s for s in tr.S if sg.left_divide(p, s) is not None])


class FiberRestriction:
    """lift(x) restricted to the t-th fiber, materialized densely."""

    def __init__(self, t, matrix):
        self.t = t
        self.matrix = matrix

    def norm(self):
        return spectral_norm(self.matrix)

    def __repr__(self):
        return f"<fiber t={self.t!r} dim={self.matrix.shape[0]}>"


def fock_source_restricted(x: NTElement, t, tr: Truncation) -> FiberRestriction:
    return FiberRestriction(t, lift(x, tr).fiber(t))


def check_reducing_condition(backend, K, t, depth: int, tol=1e-8) -> StructureReport:
    """For each p, some unit x makes span K(px,t)K(t,px) essential in L_K(px,px).

    This is the hypothesis under which the t-th restricted Fock representation
    carries the full norm.  For block backends essentiality amounts to the
    product ideal having full rank on every ideal color.
    """
    sg = backend.sg
    failures = []
    checked = 0
    for p in sg.elements(depth):
        checked += 1
        ok = False
        for xunit in sg.units():
            px = p * xunit
            target = backend.space_dim(px, px, ideal=K)
            prods = [
                a.compose(b).flat()
                for a in backend.basis(px, t, ideal=K)
                for b in backend.basis(t, px, ideal=K)
            ]
            if rank_of_span(prods, tol) == target:
                ok = True
                break
        if not ok:
            failures.append((p, f"K(px,{t!r})K({t!r},px) never spans the diagonal"))
    return StructureReport("reducing-condition", not failures, checked, failures)


def check_divisor_closure(tr: Truncation, slack: int = 3) -> bool:
    """S closed under left divisors; probed against a larger enumeration.

    Holds for length-graded instances; necessarily fails for the absorption
    monoid, whose divisor sets are infinite.
    """
    sg = tr.backend.sg
    probe = [u for u in sg.elements(tr.depth + slack) if u not in tr.index]
    return not any(
        sg.left_divide(u, s) is not None for s in tr.S for u in probe
    )
