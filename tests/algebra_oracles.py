"""Element helpers that no scenario check, CLI command or benchmark job
runs: unit equivalence, iterated LCMs, initial segments by their definition
and partition-cell membership of semigroup elements, the arrow operations as
functions, one-term and identity NT elements, and the grading of NT
elements by keys."""

from ntforge.precategory import Arrow
from ntforge.segments import Segment, _in_cell, leq
from ntforge.wick import GradingMap, NTElement


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
    return NTElement.from_terms(backend, [(p, q, backend.arrow(p, q, blocks))], ideal)


def nt_identity(backend, ideal=None) -> NTElement:
    e = backend.sg.identity()
    return NTElement.from_terms(backend, [(e, e, backend.identity_arrow(e))], ideal)


def grade_project(x: NTElement, theta: GradingMap, g) -> NTElement:
    out = NTElement(x.backend, x.ideal)
    for (p, q), a in x.terms.items():
        if theta.grade_of_key(p, q) == g:
            out.add_term(p, q, a)
    return out


def grades_of(x: NTElement, theta: GradingMap):
    return sorted({theta.grade_of_key(p, q) for p, q in x.terms}, key=repr)
