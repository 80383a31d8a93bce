"""Symbolic spanning-set calculus for Nica-Toeplitz algebra elements.

An :class:`NTElement` is a formal sum over keys (p, q) with an Arrow
coefficient in K(p,q) per key.  The product follows the Wick rule

    (a at (p,q)) * (b at (s,t)) =
        (a x 1_{q^-1 r})(b x 1_{s^-1 r})  at  (p q^-1 r, t s^-1 r)

when qP & sP = rP, and contributes nothing when the intersection is empty.
Keys are canonicalized over the unit orbit {(px, qx) : x unit}, with the
coefficient transported by x 1_x (an exact operation: units have
one-dimensional fibers).

The product is evaluated as a key-pair contraction: the LCM and quotients
are found once per distinct (q, s), each ampliation a x 1_{q^-1 r} once per
(term, quotient), and the products are summed as raw blocks under their
output key before any arrow is built, so each output key is canonicalized
and pruned once.

The closed-form core norm evaluates the initial-segment formula: exact for
diagonal elements, a truncated lower bound for mixed core keys.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .precategory import Arrow, blocks_in_ideal, full_ideal, ideal_membership
from .segments import _in_cell, initial_segments
from .semigroups import FiniteGroup

PRUNE_TOL = 1e-12


def canonical_key(sg, p, q):
    """(p u, q u, u): the least key of the unit orbit of (p, q), with the unit
    u that transports a coefficient there by a -> a x 1_u."""
    if sg.trivial_units:
        return p, q, sg.unit_tuple[0]
    return min(
        ((p * u, q * u, u) for u in sg.unit_tuple),
        key=lambda t: (sg.sort_key(t[0]), sg.sort_key(t[1])),
    )


class NTElement:
    """Formal sum  sum_{(p,q)} i(a_{p,q})  with unit-canonical keys."""

    def __init__(self, backend, ideal=None):
        self.backend = backend
        self.ideal = ideal if ideal is not None else full_ideal(backend)
        self.terms = {}

    @classmethod
    def from_terms(cls, backend, items, ideal=None):
        x = cls(backend, ideal)
        for p, q, arrow in items:
            x.add_term(p, q, arrow)
        return x

    def add_term(self, p, q, arrow):
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

    def coeff(self, p, q):
        cp, cq, u = canonical_key(self.backend.sg, p, q)
        return self.terms.get((cp, cq))

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

    def __sub__(self, other):
        return self + (-1.0) * other

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
        """The Wick product, contracted once per distinct key pair.

        Each distinct (q, s) gets its right LCM r and both quotients once;
        each (term, quotient) its ampliation and output key part once.  Every
        pair's product is checked against the ideal, transported to its
        canonical key and added as raw blocks in pair order, which are the
        same floating-point sums as adding the products one at a time.  Each
        sum then becomes one arrow, pruned at PRUNE_TOL on its final value.
        All caches live for this call only.
        """
        self._check(other)
        backend, ideal = self.backend, self.ideal
        rights = list(other.terms.items())
        right_amps = [{} for _ in rights]  # per right term: s^-1 r -> (t s^-1 r, b x 1)
        rows = {}  # q -> contraction row, see _contraction_row
        canonical = {}  # output key -> (canonical key, transporting unit or None)
        sums = {}  # canonical key -> summed blocks
        for (p, q), a in self.terms.items():
            row = rows.get(q)
            if row is None:
                row = rows[q] = self._contraction_row(q, rights, right_amps)
            left_amps = {}  # q^-1 r -> (p q^-1 r, a x 1)
            for qr, tk, bb in row:
                hit = left_amps.get(qr)
                if hit is None:
                    hit = left_amps[qr] = (p * qr, a.rtensor(qr))
                pk, aa = hit
                aa._composable(bb)
                blocks = backend._compose_blocks(aa.blocks, bb.blocks, aa.range, aa.source, bb.source)
                if not blocks_in_ideal(blocks, ideal):
                    raise ValueError(f"coefficient at ({pk!r},{tk!r}) escapes the ideal")
                canon = canonical.get((pk, tk))
                if canon is None:
                    cp, cq, u = canonical_key(self.backend.sg, pk, tk)
                    canon = canonical[pk, tk] = ((cp, cq), None if u == backend.sg.one else u)
                key, u = canon
                if u is not None:
                    blocks = Arrow._derived(backend, aa.range, bb.source, blocks).rtensor(u).blocks
                acc = sums.get(key)
                sums[key] = blocks if acc is None else [x + y for x, y in zip(acc, blocks)]
        out = NTElement(backend, ideal)
        for (cp, cq), blocks in sums.items():
            arrow = Arrow._derived(backend, cp, cq, blocks)
            if not arrow.is_zero(PRUNE_TOL):
                out.terms[cp, cq] = arrow
        return out

    def _contraction_row(self, q, rights, right_amps):
        """(q^-1 r, t s^-1 r, b x 1_{s^-1 r}) for each right term (s, t) in
        order whose s has a right LCM r with q; one LCM per distinct s, and
        the ampliations shared through right_amps."""
        sg = self.backend.sg
        quotients = {}
        row = []
        for amps, ((s, t), b) in zip(right_amps, rights):
            if s not in quotients:
                r = sg.right_lcm(q, s)
                quotients[s] = None if r is None else (sg.left_divide(q, r), sg.left_divide(s, r))
            qs = quotients[s]
            if qs is None:
                continue
            qr, sr = qs
            hit = amps.get(sr)
            if hit is None:
                hit = amps[sr] = (t * sr, b.rtensor(sr))
            row.append((qr, *hit))
        return row

    def __repr__(self):
        body = ", ".join(f"({p!r},{q!r})" for p, q in self.keys())
        return f"<nt-element {len(self.terms)} terms: {body}>"


def nt_mul(x: NTElement, y: NTElement) -> NTElement:
    return x.mul(y)


def nt_adjoint(x: NTElement) -> NTElement:
    return x.adjoint()


def nt_monomial(backend, p, q, blocks, ideal=None) -> NTElement:
    return NTElement.from_terms(backend, [(p, q, backend.arrow(p, q, blocks))], ideal)


def nt_identity(backend, ideal=None) -> NTElement:
    e = backend.sg.identity()
    return NTElement.from_terms(backend, [(e, e, backend.identity_arrow(e))], ideal)


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

    def validate(self, depth=3):
        e = self.sg.identity()
        te = self.theta(e)
        ok_e = te == (self.group.identity() if self.group is not None else (0,) * self.rank)
        if not ok_e:
            raise ValueError("grading does not send e to the identity")
        els = self.sg.elements(depth)
        for p, q in itertools.product(els, repeat=2):
            tp, tq = self.theta(p), self.theta(q)
            prod = tp * tq if self.group is not None else tuple(
                a + b for a, b in zip(tp, tq)
            )
            if self.theta(p * q) != prod:
                raise ValueError(f"grading is not a homomorphism at ({p!r},{q!r})")
        return self


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


def grade_project(x: NTElement, theta: GradingMap, g) -> NTElement:
    out = NTElement(x.backend, x.ideal)
    for (p, q), a in x.terms.items():
        if theta.grade_of_key(p, q) == g:
            out.add_term(p, q, a)
    return out


def grades_of(x: NTElement, theta: GradingMap):
    return sorted({theta.grade_of_key(p, q) for p, q in x.terms}, key=repr)


# -- the closed-form core norm ------------------------------------------------


class CoreNorm(NamedTuple):
    value: float
    exact: bool


def _core_witness(sg, p, q, depth):
    """Some v with (p^-1 r) v = (q^-1 r) v, r the LCM; None when no witness."""
    r = sg.right_lcm(p, q)
    if r is None:
        return None
    pr, qr = sg.left_divide(p, r), sg.left_divide(q, r)
    for v in sg.elements(depth):
        if pr * v == qr * v:
            return r * v
    return None


def core_norm(x: NTElement, wdepth: int = 4, witness_depth: int = 4) -> CoreNorm:
    """Norm of a core element via the initial-segment formula.

    Diagonal elements evaluate exactly: the supremum over the partition cell
    is attained at sigma(C), so

        norm = max over segments C of | sum_{p in C} a_{p,p} x 1_{p^-1 sigma(C)} |.

    Mixed keys must satisfy the core condition (some w in pP & qP with
    p^-1 w = q^-1 w, impossible for p != q over a right-cancellative
    semigroup); their norm is the same formula with the supremum truncated to
    word length wdepth, returned as a lower bound (exact=False).
    """
    if x.is_zero():
        return CoreNorm(0.0, True)
    sg = x.backend.sg
    F = sorted(x.support(), key=sg.sort_key)
    if x.is_diagonal():
        best = 0.0
        for seg in initial_segments(sg, F):
            acc = None
            for p in seg.C:
                a = x.terms.get((p, p))
                if a is None:
                    continue
                shifted = a.rtensor(sg.left_divide(p, seg.sig))
                acc = shifted if acc is None else acc + shifted
            if acc is not None:
                best = max(best, acc.norm())
        return CoreNorm(best, True)

    for p, q in x.terms:
        if p != q and _core_witness(sg, p, q, witness_depth) is None:
            raise ValueError(
                f"key ({p!r},{q!r}) lies outside the core: no common multiple "
                f"w with equal quotients (search depth {witness_depth})"
            )
    best = 0.0
    for seg in initial_segments(sg, F):
        for w in sg.elements(wdepth):
            if not _in_cell(w, F, seg):
                continue
            acc = None
            for (p, q), a in x.terms.items():
                if p not in seg.C or q not in seg.C:
                    continue
                if sg.left_divide(p, w) != sg.left_divide(q, w):
                    continue
                shifted = a.rtensor(sg.left_divide(q, w))
                acc = shifted if acc is None else acc + shifted
            if acc is not None:
                best = max(best, acc.norm())
    return CoreNorm(best, False)
