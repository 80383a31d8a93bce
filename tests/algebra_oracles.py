"""Element helpers that no scenario check, CLI command or benchmark job
runs: unit equivalence, iterated LCMs, initial segments by their definition
and partition-cell membership of semigroup elements, the arrow operations as
functions, one-term and identity NT elements, the coefficient of an NT
element at a key, and the validation and use of gradings."""

import itertools

from ntforge.precategory import Arrow
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


def nt_monomial(backend, p, q, blocks, ideal=None) -> NTElement:
    return NTElement(backend, ideal).add_term(p, q, backend.arrow(p, q, blocks))


def nt_identity(backend, ideal=None) -> NTElement:
    e = backend.sg.identity()
    return NTElement(backend, ideal).add_term(e, e, backend.identity_arrow(e))


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
