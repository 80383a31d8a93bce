"""Test oracles on the truncated Fock module: per-fiber dense assembly.

The engine keeps one matrix over every color's columns, whose diagonal color
blocks are the column factors, and never materializes the
t-th fiber ⊕_s K(s,t); these routes build it densely, for comparing norms,
the block-diagonal compression and the t-th restricted representation
against the factored operators; projection_Qw gives the single source
blocks that sandwich the lift into that compression.
check_reducing_condition states the hypothesis under which that restricted
representation carries the norm.
The interior of a truncation, the defect of a product of lifts on sources in
a set, a colour's diagonal block and the column layout of one (colour,
object) serve the tests that compare lifts and colour blocks entry by entry.
per_key_lift assembles a lift key by key, one CSR per key summed by scipy
in key order: the reference for the order in which lift sums a position
that several keys share.
"""

import numpy as np

from ntforge.fock import (
    FockOperator,
    Truncation,
    _csr,
    _key_entries,
    _lift_placements,
    _source_projection,
    lift,
)
from ntforge.linalg import rank_of_span, spectral_norm
from ntforge.precategory import StructureReport
from ntforge.wick import NTElement


def fiber_layout(tr: Truncation, t):
    """Offsets of the vectorized K(s,t) blocks inside the t-th fiber."""
    layout = {}
    off = 0
    present = [s for s in tr.S if tr.backend.space_dim(s, t)]
    for c in range(tr.backend.slot_count):
        for s in present:
            rows, cols = tr.backend.shape(s, t)[c]
            if rows * cols == 0:
                continue
            layout[(s, c)] = (off, rows, cols)
            off += rows * cols
    return layout, off


def fiber(op: FockOperator, t):
    """Dense matrix of the operator on the t-th fiber ⊕_s K(s,t): per
    color, its block on the sources present there, kron 1_{dim_c(t)}."""
    tr = op.tr
    layout, total = fiber_layout(tr, t)
    out = np.zeros((total, total), dtype=complex)
    for c in range(tr.backend.slot_count):
        present = [s for s in tr.S if (s, c) in layout]
        if not present:
            continue
        off, _, width = layout[(present[0], c)]
        idx = np.flatnonzero(np.isin(col_source(tr, c), [tr.index[s] for s in present]))
        amp = np.kron(colour_block(op, c).toarray()[np.ix_(idx, idx)], np.eye(width, dtype=complex))
        out[off : off + amp.shape[0], off : off + amp.shape[0]] = amp
    return out


def norm_by_fibers(op: FockOperator, ts=None):
    """Honest per-fiber assembly; equals op.norm()."""
    ts = list(ts) if ts is not None else op.tr.S
    return max((spectral_norm(fiber(op, t)) for t in ts), default=0.0)


def diagonal_part(op: FockOperator):
    """Keep the blocks whose target object equals their source object."""
    owner, coo = op.tr._sources, op.matrix.tocoo()
    keep = owner[coo.row] == owner[coo.col]
    pos = coo.row[keep].astype(np.int64) * op.tr.dim + coo.col[keep]
    return FockOperator(op.tr, _csr(op.tr.dim, [(pos, coo.data[keep])]))


def projection_Qw(w, tr: Truncation) -> FockOperator:
    """Projection onto the single block of source w of the full module,
    whatever the ideal: the Q_w of the block-diagonal compression.  This is
    not the Q_w = phi(1_w) of ProjectionFamily, which keeps the ideal's
    colours of every source w·v with 1_w x 1_v nonzero."""
    return _source_projection(tr, [tr.index[w]] if w in tr.index else [])


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
    return FiberRestriction(t, fiber(lift(x, tr), t))


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


def interior(tr: Truncation, margin: int):
    """The elements of S at least margin below the truncation depth."""
    sg = tr.backend.sg
    return frozenset(s for s in tr.S if sg.length(s) + margin <= tr.depth)


def product_defect(x: NTElement, y: NTElement, z: NTElement, tr: Truncation, sources) -> float:
    """The Frobenius norm of lift(x) lift(y) - lift(z) on the columns whose
    source object lies in sources, on the whole block-diagonal matrix (an
    entry outside the colour blocks counts in the defect too)."""
    keep = _source_projection(tr, [tr.index[s] for s in sources if s in tr.index]).matrix
    a, b, c = (lift(e, tr).matrix for e in (x, y, z))
    return float(np.sqrt(np.sum(np.abs(((a @ b - c) @ keep).data) ** 2)))


def _colour_range(tr: Truncation, c):
    """The first and one past the last column of colour c."""
    n = len(tr.S)
    return int(tr._offsets[c * n]), int(tr._offsets[(c + 1) * n])


def colour_block(op: FockOperator, c):
    """Colour c's diagonal block of op.matrix: its column factor, CSR."""
    lo, hi = _colour_range(op.tr, c)
    return op.matrix[lo:hi, lo:hi].tocsr()


def col_source(tr: Truncation, c):
    """Index into S of the source object of each column of colour c."""
    lo, hi = _colour_range(tr, c)
    return tr._sources[lo:hi]


def col_dim(tr: Truncation, c, s) -> int:
    """The number of columns of colour c with source object s."""
    k = c * len(tr.S) + tr.index[s]
    return int(tr._offsets[k + 1] - tr._offsets[k])


def col_offset(tr: Truncation, c, s) -> int:
    """The first column of colour c with source object s, within colour c."""
    return int(tr._offsets[c * len(tr.S) + tr.index[s]]) - _colour_range(tr, c)[0]


def per_key_lift(x: NTElement, tr: Truncation):
    """lift(x).matrix assembled key by key: one CSR of each key's entries,
    the keys added up by scipy sparse sums in key order."""
    total = None
    for (p, q), a in x.terms.items():
        m = _csr(tr.dim, [_key_entries(tr, a.blocks, p, q, *_lift_placements(tr, p, q))])
        total = m if total is None else total + m
    return total if total is not None else _csr(tr.dim)
