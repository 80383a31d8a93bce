"""Element helpers that no scenario check, CLI command or benchmark job
runs: unit equivalence, iterated LCMs, initial segments by their definition
and partition-cell membership of semigroup elements, the arrow operations as
functions, a backend whose tensoring moves an ideal off its colour and the
arrow route of the well-alignment check, one-term and identity NT elements,
the coefficient of an NT element at a key, and the validation and use of
gradings."""

import itertools

import numpy as np

from ntforge.precategory import (
    WELL_ALIGNED_SAMPLES,
    Arrow,
    StructureReport,
    _BackendBase,
    full_ideal,
    ideal_membership,
    ideal_unit,
)
from ntforge.semigroups import DirectSumN
from ntforge.segments import Segment, _in_cell, leq
from ntforge.wick import GradingMap, NTElement, canonical_key


def unit_equivalent(p, q):
    """The unit x with p = q*x, or None."""
    sg = p.sg
    sg.check_same(q)
    for x in sg.units():
        if q * x == p:
            return x
    return None


def sigma_in(sg, C):
    """Canonical iterated right LCM of a finite set; e for the empty set.

    None when some intermediate ideal intersection is empty.  The result is
    independent of fold order up to units; folding in sort order makes it
    deterministic.
    """
    acc = sg.identity()
    for t in sorted(C, key=sg.sort_key):
        acc = sg.right_lcm(acc, t)
        if acc is None:
            return None
    return acc


def is_initial_segment(sg, F, C) -> bool:
    sig = sigma_in(sg, C)
    if sig is None:
        return False
    return set(C) == {t for t in F if leq(t, sig)}


def partition_member(s, F, C) -> bool:
    """Whether s lies in the cell P_{F,C} of the partition induced by F."""
    sg = s.sg
    if not is_initial_segment(sg, F, C):
        raise ValueError(f"{sorted(map(repr, C))} is not an initial segment of F")
    return _in_cell(s, F, Segment(C, sigma_in(sg, C)))


def compose(a: Arrow, b: Arrow) -> Arrow:
    return a.compose(b)


def rtensor(a: Arrow, r) -> Arrow:
    return a.rtensor(r)


def adjoint(a: Arrow) -> Arrow:
    return a.adjoint()


class _SwapN2(_BackendBase):
    """N^2 with two 1x1 colors; a x 1_r swaps the colors |r| times, so an
    ideal on one color is not closed under aligned products."""

    kind = "swap"
    slot_count = 2

    def __init__(self):
        self.sg = DirectSumN(2)

    def shape(self, p, q):
        return [(1, 1), (1, 1)]

    def _tensor_blocks(self, xs, p, q, r):
        return list(xs) if sum(r.data) % 2 == 0 else list(xs)[::-1]


def well_aligned_by_arrows(backend, K, depth, seed=0):
    """check_well_aligned by arrows, with no certificate: every sample draws a
    and b with random_arrow and tests rtensor, compose and ideal_membership."""
    sg = backend.sg
    rng = np.random.default_rng(seed)
    els = sg.elements(depth)
    failures = []
    checked = 0
    for q, s in itertools.product(els, repeat=2):
        r = sg.right_lcm(q, s)
        if r is None:
            continue
        qr, sr = sg.left_divide(q, r), sg.left_divide(s, r)
        pts = [(q, s)] + [(rng.choice(els), rng.choice(els)) for _ in range(WELL_ALIGNED_SAMPLES)]
        for p, t in pts:
            a = backend.random_arrow(p, q, rng, ideal=K)
            b = backend.random_arrow(s, t, rng, ideal=K)
            prod = a.rtensor(qr).compose(b.rtensor(sr))
            checked += 1
            if (prod.range, prod.source) != (p * qr, t * sr):
                failures.append(((p, q, s, t), "aligned product has wrong objects"))
            elif not ideal_membership(prod, K):
                failures.append(((p, q, s, t), "aligned product escapes the ideal"))
            checked += 1
            rr = rng.choice(els)
            if not ideal_membership(a.rtensor(rr), K):
                failures.append(((p, q, rr), "K tensor 1 escapes the ideal"))
    return StructureReport("well-aligned", not failures, checked, failures)


def escapes_by_arrows(backend, K, failure, rng):
    """Whether fresh arrows of K at a failure's tuple, as check_well_aligned
    reports it, leave K along the arrow route."""
    sg = backend.sg
    key, text = failure
    if text == "K tensor 1 escapes the ideal":
        p, q, rr = key
        return not ideal_membership(backend.random_arrow(p, q, rng, ideal=K).rtensor(rr), K)
    p, q, s, t = key
    r = sg.right_lcm(q, s)
    a = backend.random_arrow(p, q, rng, ideal=K).rtensor(sg.left_divide(q, r))
    b = backend.random_arrow(s, t, rng, ideal=K).rtensor(sg.left_divide(s, r))
    return not ideal_membership(a.compose(b), K)


def nt_monomial(backend, p, q, blocks, ideal=None) -> NTElement:
    return NTElement(backend, ideal).add_term(p, q, backend.arrow(p, q, blocks))


def nt_identity(backend, ideal=None) -> NTElement:
    e = backend.sg.identity()
    return NTElement(backend, ideal).add_term(e, e, ideal_unit(backend, full_ideal(backend), e))


def coeff(x: NTElement, p, q):
    """The coefficient of x at the canonical key of (p, q), or None."""
    cp, cq, _ = canonical_key(x.backend.sg, p, q)
    return x.terms.get((cp, cq))


def validate_grading(theta: GradingMap, depth=3) -> GradingMap:
    """theta, once it sends e to the identity and is multiplicative on the
    elements up to depth; else ValueError."""
    sg, group = theta.sg, theta.group
    te = theta.theta(sg.identity())
    ok_e = te == (group.identity() if group is not None else (0,) * theta.rank)
    if not ok_e:
        raise ValueError("grading does not send e to the identity")
    els = sg.elements(depth)
    for p, q in itertools.product(els, repeat=2):
        tp, tq = theta.theta(p), theta.theta(q)
        prod = tp * tq if group is not None else tuple(
            a + b for a, b in zip(tp, tq)
        )
        if theta.theta(p * q) != prod:
            raise ValueError(f"grading is not a homomorphism at ({p!r},{q!r})")
    return theta


def grade_project(x: NTElement, theta: GradingMap, g) -> NTElement:
    out = NTElement(x.backend, x.ideal)
    for (p, q), a in x.terms.items():
        if theta.grade_of_key(p, q) == g:
            out.add_term(p, q, a)
    return out


def grades_of(x: NTElement, theta: GradingMap):
    return sorted({theta.grade_of_key(p, q) for p, q in x.terms}, key=repr)
