"""Symbolic spanning-set calculus for Nica-Toeplitz algebra elements.

An :class:`NTElement` is a formal sum over keys (p, q) with an Arrow
coefficient in K(p,q) per key.  The product follows the Wick rule

    (a at (p,q)) * (b at (s,t)) =
        (a x 1_{q^-1 r})(b x 1_{s^-1 r})  at  (p q^-1 r, t s^-1 r)

when qP & sP = rP, and contributes nothing when the intersection is empty.
A key is canonicalized to (p u, q u), p u = _lcm(p, p) the canonical generator
of pP, with the coefficient transported by x 1_u (an exact operation: units
have one-dimensional fibers).

Every product is one stacked contraction on normal-form data: one LCM per
distinct (q, s), one ampliation a x 1_{q^-1 r} per (term, quotient) through
the backend's _tensor_blocks, one canonicalization per raw output key.  The
pairs are grouped by the block shapes of their two ampliations and the
backend's _compose_class (None unless its product reads the objects: the
two grades on a bundle), and each group takes one stacked _compose_blocks
call, with the ideal check and the unit transport over its stack.  The
products are added under their keys in pair order from one flat buffer and
pruned at PRUNE_TOL with norm_at_most semantics.  The contraction reads a
coefficient's objects from its key: add_term rejects a coefficient that is
not an arrow of the element's backend in L(p, q), so every stored term is
filed at its own key.

The closed-form core norm evaluates the initial-segment formula: exact for
diagonal elements, a truncated lower bound for mixed core keys.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import norm_at_most, norms_at_most
from .precategory import IDEAL_TOL, Arrow, full_ideal, ideal_membership
from .segments import _in_cell, initial_segments
from .semigroups import FiniteGroup

PRUNE_TOL = 1e-12
WITNESS_DEPTH = 4  # word length of core_norm's search for a core witness


def canonical_key(sg, p, q):
    """(p u, q u, u): the least key of the unit orbit of (p, q), p u the canonical
    generator of pP, with the unit u that transports a coefficient by a x 1_u."""
    if sg.trivial_units:
        return p, q, sg.unit_tuple[0]
    sg.check_same(p, q)
    cp, cq, u = _canonical_data(sg, p.data, q.data)
    return sg.el(cp), sg.el(cq), sg.one if u is None else sg.el(u)


class NTElement:
    """Formal sum  sum_{(p,q)} i(a_{p,q})  with unit-canonical keys."""

    def __init__(self, backend, ideal=None):
        self.backend = backend
        self.ideal = ideal if ideal is not None else full_ideal(backend)
        self.terms = {}

    @classmethod
    def from_terms(cls, backend, items):
        """The sum of (p, q, arrow) items over the full ideal."""
        x = cls(backend)
        for p, q, arrow in items:
            x.add_term(p, q, arrow)
        return x

    def add_term(self, p, q, arrow):
        """Add arrow at key (p, q), moved to the key's canonical form.  The
        arrow must be one of this element's backend in L(p, q), with p and q
        passing its semigroup's check_same, and lie in the ideal; else
        MismatchError (a foreign instance) or ValueError."""
        self.backend.sg.check_same(p, q)
        if arrow.backend is not self.backend:
            raise ValueError(f"coefficient at ({p!r},{q!r}) is an arrow of another backend")
        if (arrow.range.data, arrow.source.data) != (p.data, q.data):
            raise ValueError(f"object mismatch: coefficient at ({p!r},{q!r}) "
                             f"is an arrow in L({arrow.range!r},{arrow.source!r})")
        if not ideal_membership(arrow, self.ideal):
            raise ValueError(f"coefficient at ({p!r},{q!r}) escapes the ideal")
        cp, cq, u = canonical_key(self.backend.sg, p, q)
        if u != self.backend.sg.one:
            arrow = arrow.rtensor(u)
        key = (cp, cq)
        if key in self.terms:
            arrow = self.terms[key] + arrow
        if arrow.is_zero(PRUNE_TOL):
            self.terms.pop(key, None)
        else:
            self.terms[key] = arrow
        return self

    def keys(self):
        return sorted(
            self.terms,
            key=lambda k: (self.backend.sg.sort_key(k[0]), self.backend.sg.sort_key(k[1])),
        )

    def is_zero(self):
        return not self.terms

    def is_diagonal(self):
        return all(p == q for p, q in self.terms)

    def max_key_length(self):
        sg = self.backend.sg
        return max((max(sg.length(p), sg.length(q)) for p, q in self.terms), default=0)

    def support(self):
        """All semigroup elements appearing as a key component."""
        out = set()
        for p, q in self.terms:
            out.add(p)
            out.add(q)
        return out

    def copy(self):
        y = NTElement(self.backend, self.ideal)
        y.terms = dict(self.terms)
        return y

    def __add__(self, other):
        self._check(other)
        out = self.copy()
        for (p, q), a in other.terms.items():
            out.add_term(p, q, a)
        return out

    def __mul__(self, scalar):
        out = NTElement(self.backend, self.ideal)
        for (p, q), a in self.terms.items():
            out.add_term(p, q, scalar * a)
        return out

    __rmul__ = __mul__

    def _check(self, other):
        if self.backend is not other.backend:
            raise ValueError("elements over different backends")

    def adjoint(self):
        out = NTElement(self.backend, self.ideal)
        for (p, q), a in self.terms.items():
            out.add_term(q, p, a.adjoint())
        return out

    def mul(self, other):
        """The Wick product (module docstring) by the stacked contraction,
        which builds Elements and Arrows only for the output terms."""
        self._check(other)
        return _stacked_mul(self, other)

    def __repr__(self):
        body = ", ".join(f"({p!r},{q!r})" for p, q in self.keys())
        return f"<nt-element {len(self.terms)} terms: {body}>"


def _canonical_data(sg, pd, qd):
    """canonical_key on normal-form data: (p u, q u, u data), u None for e; p u
    is _lcm(p, p), and u -> p u is injective by left cancellation (no tie)."""
    if sg.trivial_units:
        return pd, qd, None
    cp = sg._lcm(pd, pd)
    u = sg._ldiv(pd, cp)
    return cp, sg._mul(qd, u), None if u == sg.one.data else u


def _stacked_mul(x, y):
    """x y by the stacked contraction (module docstring)."""
    backend, sg = x.backend, x.backend.sg
    lefts, rights = list(x.terms.items()), list(y.terms.items())
    out = NTElement(backend, x.ideal)
    # one LCM per distinct (q, s); the row of a q (of an s) holds its
    # distinct quotients q^-1 r (s^-1 r) as data
    qs, ss = {}, {}
    q_of = [qs.setdefault(q.data, len(qs)) for (_, q), _ in lefts]
    s_of = [ss.setdefault(s.data, len(ss)) for (s, _), _ in rights]
    q_rows, s_rows, lx, ry = [{} for _ in qs], [{} for _ in ss], [], []
    for qd, q_row in zip(qs, q_rows):
        for sd, s_row in zip(ss, s_rows):
            r = sg._lcm(qd, sd)
            lx.append(-1 if r is None else q_row.setdefault(sg._ldiv(qd, r), len(q_row)))
            ry.append(-1 if r is None else s_row.setdefault(sg._ldiv(sd, r), len(s_row)))
    cell = np.array(q_of, dtype=np.intp)[:, None] * len(ss) + np.array(s_of, dtype=np.intp)
    lx, ry = np.array(lx, dtype=np.intp)[cell], np.array(ry, dtype=np.intp)[cell]
    li, rj = (lx >= 0).nonzero()  # the pairs, left term major
    if not len(li):
        return out
    left, right = _Amplified(backend, lefts, q_of, q_rows, 0), _Amplified(backend, rights, s_of, s_rows, 1)
    la, ra = left.base[li] + lx[li, rj], right.base[rj] + ry[li, rj]  # each pair's two ampliations
    # the raw output keys (p q^-1 r, t s^-1 r), canonicalized in order of first occurrence
    lid, rid = {}, {}
    lk = np.array([lid.setdefault(k, len(lid)) for k in left.keys])
    rk = np.array([rid.setdefault(k, len(rid)) for k in right.keys])
    _, raw_first, raw = np.unique(lk[la] * len(rid) + rk[ra], return_index=True, return_inverse=True)
    ids, canon_of, firsts, transport = {}, np.empty(len(raw_first), dtype=np.intp), [], {}
    for r in raw_first.argsort().tolist():
        pk, tk = left.keys[la[raw_first[r]]], right.keys[ra[raw_first[r]]]
        cp, cq, u = _canonical_data(sg, pk, tk)
        canon_of[r] = ids.setdefault((cp, cq), len(ids))
        if canon_of[r] == len(firsts):  # a new canonical key
            firsts.append(raw_first[r])
        if u is not None:
            transport[r] = (sg.el(pk), sg.el(tk), sg.el(u))
    groups = _compose_groups(backend, left, right, la, ra, raw, transport, x.ideal)
    _sum_under_keys(out, groups, list(ids), canon_of[raw], firsts)
    return out


class _Amplified:
    """One side's ampliations a x 1_x, one per term and quotient x in its
    row: term i's are base[i], base[i] + 1, ... in row order.  Per
    ampliation: keys, its part of the raw output key as data (p x on the
    left, side 0; t x on the right, side 1); made, its (arrow, x data);
    shape and pos, the id of its block shapes and its index in
    stacks[shape], one array per colour."""

    def __init__(self, backend, terms, row_of, rows, side):
        sg = self.sg = backend.sg
        one, rows = sg.one.data, [[(x, sg.el(x)) for x in row] for row in rows]
        self.keys, self.made, base, shape, pos, shapes, members = [], [], [], [], [], {}, []
        for (key, a), row in zip(terms, row_of):
            base.append(len(self.keys))
            for xd, x in rows[row]:
                blocks = a.blocks if xd == one else backend._tensor_blocks(a.blocks, a.range, a.source, x)
                self.keys.append(sg._mul(key[side].data, xd))
                self.made.append((a, xd))
                k = shapes.setdefault(tuple([b.shape for b in blocks]), len(shapes))
                if k == len(members):
                    members.append([])
                shape.append(k)
                pos.append(len(members[k]))
                members[k].append(blocks)
        self.base, self.shape, self.pos = np.array(base), np.array(shape), np.array(pos)
        self.stacks = [[np.array(col) for col in zip(*m)] for m in members]

    def objects(self, k):
        """The (range, source) Elements of ampliation k."""
        (a, x), sg = self.made[k], self.sg
        return sg.el(sg._mul(a.range.data, x)), sg.el(sg._mul(a.source.data, x))


def _compose_groups(backend, left, right, la, ra, raw, transport, ideal):
    """One stacked _compose_blocks call per group of pairs with the same
    block shapes on both sides and the same _compose_class, then the ideal
    check and the transport of raw key r by transport[r] over the group's
    stack: a list of (pair indices, product blocks).  Raises for the first
    pair, in pair order, whose product escapes the ideal."""
    code = left.shape[la] * len(right.stacks) + right.shape[ra]
    if backend._compose_class is not None:  # read pair by pair, where a backend has one
        classes = {}
        code = code * len(la) + np.array([classes.setdefault(backend._compose_class(
            *left.objects(a), right.objects(b)[1]), len(classes)) for a, b in zip(la.tolist(), ra.tolist())])
    _, group, counts = np.unique(code, return_inverse=True, return_counts=True)
    order, bounds = group.argsort(kind="stable"), [0, *counts.cumsum().tolist()]
    lpos, rpos = left.pos[la], right.pos[ra]
    off = [c for c in range(backend.slot_count) if c not in ideal.colors]
    groups, escaped = [], len(la)
    for start, end in zip(bounds, bounds[1:]):
        idx = order[start:end]
        a, b = la[idx[0]], ra[idx[0]]
        xs = [st[lpos[idx]] for st in left.stacks[left.shape[a]]]
        ys = [st[rpos[idx]] for st in right.stacks[right.shape[b]]]
        zs = backend._compose_blocks(xs, ys, *left.objects(a), right.objects(b)[1])
        for c in off:
            bad = idx[~norms_at_most(zs[c], IDEAL_TOL)]  # in pair order, as idx is
            if len(bad):
                escaped = min(escaped, int(bad[0]))
        for r in transport.keys() & set(raw[idx].tolist()) if transport else ():
            at = (raw[idx] == r).nonzero()[0]
            for z, moved in zip(zs, backend._tensor_blocks([z[at] for z in zs], *transport[r])):
                z[at] = moved
        groups.append((idx, zs))
    if escaped < len(la):
        pk, tk = (backend.sg._fmt(k) for k in (left.keys[la[escaped]], right.keys[ra[escaped]]))
        raise ValueError(f"coefficient at ({pk},{tk}) escapes the ideal")
    return groups


def _sum_under_keys(out, groups, canonical, key, firsts):
    """Fill out.terms with the canonical keys (as data) in order, pair k
    going to key[k], firsts[i] being key i's first pair.  The product blocks
    go into one flat buffer, stack after stack, and np.add.at adds them from
    zero under their keys, block by block in pair order: the values of
    adding them one at a time.  A sum with no entry above PRUNE_TOL is
    dropped when norm_at_most holds in every colour."""
    backend, sg = out.backend, out.backend.sg
    n_col, n_keys = backend.slot_count, len(canonical)
    stacks = [(idx, z) for idx, zs in groups for z in zs]
    group = np.empty(len(key), dtype=np.intp)  # of each pair
    group[np.concatenate([i for i, _ in groups])] = np.arange(len(groups)).repeat([len(i) for i, _ in groups])
    big = np.zeros(n_keys, dtype=bool)
    if stacks:
        counts = [len(idx) for idx, _ in stacks]
        size = np.repeat([z[0].size for _, z in stacks], counts)
        start, pair = size.cumsum() - size, np.concatenate([idx for idx, _ in stacks])  # per block of flat
        home = np.tile(np.arange(n_col), len(groups)).repeat(counts) * n_keys + key[pair]
        key_size = np.zeros(n_col * n_keys, dtype=np.intp)
        key_size[home] = size  # one shape per key: the coefficients sit at their keys
        key_start = key_size.cumsum() - key_size
        order = pair.argsort(kind="stable")  # each pair's blocks, colour by colour
        size, start, dst = size[order], start[order], key_start[home[order]]
        shift, step = size.cumsum() - size, np.arange(size.sum())
        acc = np.zeros(key_size.sum(), dtype=complex)
        flat = np.concatenate([z.reshape(-1) for _, z in stacks])
        np.add.at(acc, (dst - shift).repeat(size) + step, flat[(start - shift).repeat(size) + step])
        top = np.maximum.reduceat(np.abs(np.append(acc, 0)), key_start) > PRUNE_TOL
        big = (top & (key_size > 0)).reshape(n_col, n_keys).any(axis=0)
        key_start, key_size = key_start.tolist(), key_size.tolist()
    for k, ((cp, cq), g) in enumerate(zip(canonical, group[firsts].tolist())):
        blocks = [acc[key_start[i]:key_start[i] + key_size[i]].reshape(z.shape[1:])
                  for i, z in zip(range(k, n_col * n_keys, n_keys), groups[g][1])]
        if big[k] or not all(norm_at_most(b, PRUNE_TOL) for b in blocks):
            cp, cq = sg.el(cp), sg.el(cq)
            out.terms[cp, cq] = Arrow._derived(backend, cp, cq, blocks)


def nt_mul(x: NTElement, y: NTElement) -> NTElement:
    return x.mul(y)


def nt_adjoint(x: NTElement) -> NTElement:
    return x.adjoint()


def diagonal_expectation(x: NTElement) -> NTElement:
    """Keep the diagonal keys; the conditional expectation onto the core.

    Only a well-defined expectation when the semigroup is cancellative; the
    absorption monoid must go through the Fock-side expectation instead.
    """
    if not x.backend.sg.right_cancellative:
        raise ValueError(
            "diagonal key deletion is not an expectation over a non-cancellative "
            "semigroup; use the Fock-side transcendental expectation"
        )
    out = NTElement(x.backend, x.ideal)
    for (p, q), a in x.terms.items():
        if p == q:
            out.add_term(p, q, a)
    return out


# -- grading ------------------------------------------------------------------


class GradingMap:
    """A homomorphism from the semigroup into Z^k or a finite group.

    Keys are graded by g(p,q) = theta(p) theta(q)^{-1}.
    """

    def __init__(self, sg, theta, group: FiniteGroup | None = None, rank: int | None = None):
        self.sg = sg
        self.theta = theta
        self.group = group
        self.rank = rank
        if (group is None) == (rank is None):
            raise ValueError("exactly one of group/rank must be given")

    def grade_of_key(self, p, q):
        tp, tq = self.theta(p), self.theta(q)
        if self.group is not None:
            return tp * self.group.inverse(tq)
        return tuple(a - b for a, b in zip(tp, tq))


def abelianization_grading(sg) -> GradingMap:
    """The generator-counting grading into Z^k (or the group itself)."""
    if isinstance(sg, FiniteGroup):
        return GradingMap(sg, lambda p: p, group=sg)
    if sg.tag == "absorb":
        # only the first coordinate survives absorption: (k,m)(l,n)=(k+l,*)
        return GradingMap(sg, lambda p: (p.data[0],), rank=1)
    gens = sg.generators()
    if not gens:
        raise ValueError(f"no canonical grading for {sg.tag}")
    rank = len(gens)
    return GradingMap(sg, lambda p: tuple(sg.gen_exponents(p)), rank=rank)


# -- the closed-form core norm ------------------------------------------------


class CoreNorm(NamedTuple):
    value: float
    exact: bool


def _core_witness(sg, p, q, probe):
    """Some v in probe with (p^-1 r) v = (q^-1 r) v, r the LCM; else None."""
    r = sg.right_lcm(p, q)
    if r is None:
        return None
    pr, qr = sg.left_divide(p, r), sg.left_divide(q, r)
    for v in probe:
        if pr * v == qr * v:
            return r * v
    return None


def core_norm(x: NTElement, wdepth: int = 4) -> CoreNorm:
    """Norm of a core element by the initial-segment formula: the sup over
    segments C of F and points w of the cell P_{F,C} of the norm of the sum,
    over keys (p,q) in C x C with p^-1 w = q^-1 w, of a_{p,q} x 1_{q^-1 w}.

    A diagonal element takes w = sigma(C), where the supremum is attained:
    exact, and no window is built.  A mixed key must satisfy the core
    condition (some w in pP & qP with p^-1 w = q^-1 w, impossible for p != q
    over a right-cancellative semigroup; a witness is searched to word length
    WITNESS_DEPTH past the LCM), else ValueError; then w runs over the cell's
    points in one window of word length wdepth, a lower bound (exact=False).
    """
    if x.is_zero():
        return CoreNorm(0.0, True)
    sg = x.backend.sg
    exact = x.is_diagonal()
    probe = None if exact else sg.elements(WITNESS_DEPTH)  # the witness search window
    for p, q in x.terms:
        if p != q and _core_witness(sg, p, q, probe) is None:
            raise ValueError(f"key ({p!r},{q!r}) lies outside the core: no common multiple "
                             f"w with equal quotients (search depth {WITNESS_DEPTH})")
    F = sorted(x.support(), key=sg.sort_key)
    window = None if exact else sg.elements(wdepth)
    best = 0.0
    for seg in initial_segments(sg, F):
        for w in [seg.sig] if exact else [w for w in window if _in_cell(w, F, seg)]:
            acc = None
            for (p, q), a in x.terms.items():
                if p not in seg.C or q not in seg.C:
                    continue
                v = sg.left_divide(q, w)
                if p != q and sg.left_divide(p, w) != v:
                    continue
                shifted = a.rtensor(v)
                acc = shifted if acc is None else acc + shifted
            if acc is not None:
                best = max(best, acc.norm())
    return CoreNorm(best, exact)
