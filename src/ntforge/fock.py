"""Truncated Fock module and operator assembly.

The Fock module is the direct sum of the spaces K(s,t) over pairs of objects.
Everything the engine builds acts by left multiplication after a tensor
shift, so on a fixed source-object t and color c the operator is

    (column operator on  ⊕_s C^{dim(s)[c]})  ⊗  Identity(dim(t)[c])

for a column operator that does not depend on t.  Operators are therefore
stored factored: one sparse block matrix per color, indexed by pairs of
elements of the truncation set S. Norms, products and adjoints are computed
on the column factors (the t-ampliation is isometric and multiplicative);
per-t fibers are materialized on demand for oracles and the t-th restricted
representation.

The norm is the maximum over colors of the column factor's largest singular
value.  A color slot of at most SMALL_SLOT columns takes a dense SVD; a
larger one is assembled as a sparse matrix of its nonzero entries and handed
to ARPACK (scipy's svds) at relative accuracy tol.

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
            np.concatenate([[0], np.cumsum(d)]).astype(int) for d in self._col_dims
        ]

    def interior(self, margin: int):
        sg = self.backend.sg
        return frozenset(s for s in self.S if sg.length(s) + margin <= self.depth)

    def col_dim(self, c, s) -> int:
        return self._col_dims[c][self.index[s]]

    def col_total(self, c) -> int:
        return int(self._col_offsets[c][-1])

    def col_offset(self, c, s) -> int:
        return int(self._col_offsets[c][self.index[s]])

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


class FockOperator:
    """Block operator in factored form: per color, source-indexed blocks."""

    def __init__(self, tr: Truncation, cols=None):
        self.tr = tr
        self.cols = cols if cols is not None else [dict() for _ in range(tr.backend.slot_count)]

    def _bump(self, c, s_out, s_in, block):
        key = (s_out, s_in)
        cur = self.cols[c].get(key)
        self.cols[c][key] = block if cur is None else cur + block

    def _check(self, other):
        if self.tr is not other.tr:
            raise ValueError("operators over different truncations")

    def __add__(self, other):
        self._check(other)
        out = FockOperator(self.tr, [dict(d) for d in self.cols])
        for c, d in enumerate(other.cols):
            for (so, si), b in d.items():
                out._bump(c, so, si, b)
        return out

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return FockOperator(
            self.tr,
            [{k: scalar * b for k, b in d.items()} for d in self.cols],
        )

    __rmul__ = __mul__

    def adjoint(self):
        out = FockOperator(self.tr)
        for c, d in enumerate(self.cols):
            for (so, si), b in d.items():
                out._bump(c, si, so, b.conj().T)
        return out

    def compose(self, other):
        self._check(other)
        out = FockOperator(self.tr)
        for c in range(len(self.cols)):
            by_range = {}
            for (so, si), b in other.cols[c].items():
                by_range.setdefault(so, []).append((si, b))
            for (so, sm), a in self.cols[c].items():
                for si, b in by_range.get(sm, ()):
                    out._bump(c, so, si, a @ b)
        return out

    def __matmul__(self, other):
        return self.compose(other)

    def restrict_sources(self, sources):
        """Keep only columns whose source index lies in the given set."""
        sources = set(sources)
        return FockOperator(
            self.tr,
            [
                {k: b for k, b in d.items() if k[1] in sources}
                for d in self.cols
            ],
        )

    def assemble_slot(self, c):
        tr = self.tr
        n = tr.col_total(c)
        m = np.zeros((n, n), dtype=complex)
        for (so, si), b in self.cols[c].items():
            ro, ci = tr.col_offset(c, so), tr.col_offset(c, si)
            m[ro : ro + b.shape[0], ci : ci + b.shape[1]] = b
        return m

    def dense(self):
        """The t = e fiber: block-diagonal over colors of the column factors."""
        mats = [self.assemble_slot(c) for c in range(len(self.cols))]
        n = sum(m.shape[0] for m in mats)
        out = np.zeros((n, n), dtype=complex)
        off = 0
        for m in mats:
            out[off : off + m.shape[0], off : off + m.shape[0]] = m
            off += m.shape[0]
        return out

    def fiber(self, t):
        """Dense matrix of the operator on the t-th fiber ⊕_s K(s,t)."""
        layout, total = self.tr.fiber_layout(t)
        m = np.zeros((total, total), dtype=complex)
        for c, d in enumerate(self.cols):
            for (so, si), b in d.items():
                if (so, c) not in layout or (si, c) not in layout:
                    continue
                oo, ro, co = layout[(so, c)]
                oi, ri, ci = layout[(si, c)]
                amp = np.kron(b, np.eye(co, dtype=complex))
                m[oo : oo + ro * co, oi : oi + ri * ci] = amp
        return m

    def _slot_norm(self, c, tol):
        blocks = self.cols[c]
        if not blocks:
            return 0.0
        tr = self.tr
        n = tr.col_total(c)
        if n <= SMALL_SLOT:
            return spectral_norm(self.assemble_slot(c))
        import scipy.sparse as sp
        from scipy.sparse.linalg import svds

        # only the nonzeros: lift stores a (x) 1_v as dense kron blocks that
        # are mostly zero
        rows, cols, vals = [], [], []
        for (so, si), b in blocks.items():
            r, k = np.nonzero(b)
            rows.append(r + tr.col_offset(c, so))
            cols.append(k + tr.col_offset(c, si))
            vals.append(b[r, k])
        vals = np.concatenate(vals)
        if not vals.size:
            return 0.0
        m = sp.csr_matrix((vals, (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        v0 = np.random.default_rng(0).standard_normal(n)
        return float(svds(m, k=1, tol=tol, v0=v0, return_singular_vectors=False)[0])

    def norm(self, tol=1e-8):
        """Operator norm over the whole truncated module (sup over fibers).

        tol is the relative accuracy asked of ARPACK on slots larger than
        SMALL_SLOT columns; ArpackNoConvergence propagates.
        """
        return max((self._slot_norm(c, tol) for c in range(len(self.cols))), default=0.0)

    def norm_by_fibers(self, ts=None):
        """Honest per-fiber assembly; equals norm() — used as an oracle."""
        ts = list(ts) if ts is not None else self.tr.S
        return max((spectral_norm(self.fiber(t)) for t in ts), default=0.0)

    def frobenius(self):
        return float(
            np.sqrt(
                sum(
                    np.sum(np.abs(b) ** 2)
                    for d in self.cols
                    for b in d.values()
                )
            )
        )

    def is_zero(self, tol=1e-12):
        return self.frobenius() <= tol

    def diagonal_part(self):
        return FockOperator(
            self.tr,
            [{k: b for k, b in d.items() if k[0] == k[1]} for d in self.cols],
        )

    def __repr__(self):
        nblocks = sum(len(d) for d in self.cols)
        return f"<fock-operator {nblocks} blocks over {self.tr!r}>"


def lift(x: NTElement, tr: Truncation) -> FockOperator:
    """Left multiplication by x on the truncated module.

    Key (p,q,a) sends the source block at s in qP to p(q^-1 s); targets
    outside S are dropped (truncation).
    """
    sg = tr.backend.sg
    out = FockOperator(tr)
    for (p, q), a in x.terms.items():
        for s in tr.S:
            v = sg.left_divide(q, s)
            if v is None:
                continue
            target = p * v
            if target not in tr.index:
                continue
            shifted = a.rtensor(v)
            for c, b in enumerate(shifted.blocks):
                if b.size:
                    out._bump(c, target, s, b)
    return out


def fock_norm(x: NTElement, tr: Truncation, tol=1e-8) -> float:
    return lift(x, tr).norm(tol=tol)


def transcendental_expectation(x: NTElement, tr: Truncation) -> FockOperator:
    """Block-diagonal compression of lift(x): sum of Q_w lift(x) Q_w.

    Key (p,q,a) survives at sources w in pP & qP with p^-1 w = q^-1 w.  Over a
    right-cancellative semigroup that forces p = q; the absorption monoid keeps
    off-diagonal keys alive (the transcendental part of the core).
    """
    sg = tr.backend.sg
    out = FockOperator(tr)
    for (p, q), a in x.terms.items():
        for w in tr.S:
            vp, vq = sg.left_divide(p, w), sg.left_divide(q, w)
            if vp is None or vq is None or vp != vq:
                continue
            shifted = a.rtensor(vq)
            for c, b in enumerate(shifted.blocks):
                if b.size:
                    out._bump(c, w, w, b)
    return out


def projection_Qw(w, tr: Truncation) -> FockOperator:
    """Projection onto the blocks with source index w."""
    out = FockOperator(tr)
    for c in range(tr.backend.slot_count):
        d = tr.col_dim(c, w)
        if d:
            out._bump(c, w, w, np.eye(d, dtype=complex))
    return out


def projection_QT(p, tr: Truncation) -> FockOperator:
    """Q_<p>: projection onto blocks with source index in pP."""
    sg = tr.backend.sg
    out = FockOperator(tr)
    for s in tr.S:
        if sg.left_divide(p, s) is None:
            continue
        for c in range(tr.backend.slot_count):
            d = tr.col_dim(c, s)
            if d:
                out._bump(c, s, s, np.eye(d, dtype=complex))
    return out


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
