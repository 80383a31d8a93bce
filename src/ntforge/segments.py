"""Initial segments, the sigma map, and the induced partition of a right LCM
semigroup.

For a finite subset F of P, a subset C is an initial segment when the iterated
right LCM sigma(C) exists and C = {t in F : t <= sigma(C)}.  The cells

    P_{F,C} = {s in P : sigma(C) <= s and f !<= s for all f in F \\ C}

over the initial segments C partition P; equivalently s lies in the cell of
C = {t in F : t <= s}.  All predicates are invariant under replacing sigma(C)
by a unit translate, which the test suite checks rather than assumes.

C -> sigma(C) is a bijection from the initial segments onto the closure W of
{e} under right LCMs with members of F (modulo units): each w in W is the
LCM of some D in F, and C_w = {t in F : t <= w} contains D, so sigma(C_w)
generates wP.  Enumerating segments therefore walks W breadth first, one LCM
per (w, f) pair, and needs no bound on |F|.
"""

from __future__ import annotations


def leq(p, q) -> bool:
    """p <= q in the right-ideal preorder, i.e. q in pP."""
    return p.sg.left_divide(p, q) is not None


class Segment:
    """An initial segment C of F together with its canonical sigma(C)."""

    __slots__ = ("C", "sig")

    def __init__(self, C, sig):
        self.C = frozenset(C)
        self.sig = sig

    def __repr__(self):
        body = ",".join(sorted(repr(t) for t in self.C))
        return f"<segment {{{body}}} sigma={self.sig!r}>"


def initial_segments(sg, F):
    """All initial segments of F, one C_w per w in the right-LCM closure of
    {e} (sigma(C_w) = w as right_lcm returns it), ordered as subsets of F:
    by size, then by the positions of their members in F."""
    F = list(dict.fromkeys(F))
    pos = {t: i for i, t in enumerate(F)}
    frontier = [sg.identity()]
    closure = list(frontier)
    seen = set(frontier)
    while frontier:
        grown = []
        for w in frontier:
            for f in F:
                r = sg.right_lcm(w, f)
                if r is not None and r not in seen:
                    seen.add(r)
                    grown.append(r)
        closure += grown
        frontier = grown
    segs = [Segment((t for t in F if leq(t, w)), w) for w in closure]
    segs.sort(key=lambda seg: (len(seg.C), sorted(pos[t] for t in seg.C)))
    return segs


def _in_cell(s, F, seg: Segment) -> bool:
    """s in P_{F,C} for a segment already known to be initial in F."""
    return leq(seg.sig, s) and not any(leq(f, s) for f in F if f not in seg.C)


def segment_of(F, s):
    """The unique initial segment whose cell contains s: C = {t in F : t <= s}."""
    return frozenset(t for t in F if leq(t, s))


class PartitionReport:
    def __init__(self, ok, segments, checked, failures):
        self.ok = ok
        self.segments = segments
        self.checked = checked
        self.failures = failures

    def __repr__(self):
        verdict = "pass" if self.ok else "fail"
        return (
            f"<partition {verdict}: {len(self.segments)} segments, "
            f"{self.checked} elements, {len(self.failures)} failures>"
        )


def check_partition(sg, F, depth: int) -> PartitionReport:
    """Verify the cells P_{F,C} partition all elements of length <= depth.

    Each element must land in exactly one cell, and that cell's segment must
    be {t in F : t <= s}.
    """
    segs = initial_segments(sg, F)
    failures = []
    checked = 0
    for s in sg.elements(depth):
        checked += 1
        hits = [seg for seg in segs if _in_cell(s, F, seg)]
        if len(hits) != 1:
            failures.append((s, f"lies in {len(hits)} cells"))
            continue
        if hits[0].C != segment_of(F, s):
            failures.append((s, "cell disagrees with {t in F : t <= s}"))
    return PartitionReport(not failures, segs, checked, failures)
