"""Test oracles on concrete representations and their projection families.

Dense spectral-norm checks that no scenario check, CLI command or benchmark
job runs: the orthogonality and commutation laws of the projections, the
action of an arrow on a projection, *-compatibility of phi, the extension of
a representation from an ideal, and injectivity on fiber bases; plus the
faithful diagonal representation of the zero-tensor backend.  They read the dense Q and
Q_angle of a ProjectionFamily, so they follow either of its routes (index
sets or the dense fallback).
"""

import itertools

import numpy as np

from ntforge.analysis import RANK_TOL, CheckReport, ConcreteRep, ProjectionFamily, _sigma_min
from ntforge.linalg import spectral_norm
from ntforge.precategory import ColorIdeal, ZeroTensorBackend, full_ideal, ideal_unit


def check_star(rep: ConcreteRep, keys, tol=1e-10):
    """phi(a*) = phi(a)* on the matrix-unit basis of K(p,q) for each key."""
    for p, q in keys:
        for a in rep.backend.basis(p, q, ideal=rep.ideal):
            if spectral_norm(rep.phi(a.adjoint()) - rep.phi(a).conj().T) > tol:
                return False
    return True


def check_projection_orthogonality(family: ProjectionFamily, elements, tol=1e-10):
    """pP & qP empty implies Q_p Q_q = 0."""
    sg = family.rep.backend.sg
    failures = []
    for p, q in itertools.product(elements, repeat=2):
        if sg.right_lcm(p, q) is not None:
            continue
        defect = spectral_norm(family.Q(p) @ family.Q(q))
        if defect > tol:
            failures.append(((p, q), defect))
    return CheckReport("projection-orthogonality", not failures, {"failures": failures[:5]})


def check_projection_commutation(family: ProjectionFamily, pairs, tol=1e-9):
    """Q_<q> commutes with phi(K(p,p))."""
    rep = family.rep
    failures = []
    worst = 0.0
    for p, q in pairs:
        qm = family.Q_angle(q)
        for a in rep.backend.basis(p, p, ideal=rep.ideal):
            m = rep.phi(a)
            defect = spectral_norm(m @ qm - qm @ m)
            worst = max(worst, defect)
            if defect > tol:
                failures.append(((p, q), defect))
    return CheckReport("projection-commutation", not failures, {"worst": worst, "failures": failures[:3]})


def action_on_projection_defect(rep: ConcreteRep, family: ProjectionFamily, arrow, s, angled=False):
    """Defect of  phi(a) Q_s = phi(a x 1_{q^-1 r})  (with qP & sP = rP, else 0).

    arrow sits in K(p0, q); angled=True uses Q_<s> instead of Q_s.  Returns the
    spectral norm of LHS - RHS.
    """
    sg = rep.backend.sg
    q = arrow.source
    Q = family.Q_angle(s) if angled else family.Q(s)
    lhs = rep.phi(arrow) @ Q
    r = sg.right_lcm(q, s)
    if r is None:
        return spectral_norm(lhs)
    shifted = arrow.rtensor(sg.left_divide(q, r))
    return spectral_norm(lhs - rep.phi(shifted))


def extend_representation(rep: ConcreteRep, K: ColorIdeal) -> ConcreteRep:
    """Extension from the ideal: a -> phi(a * 1_K), zero beyond phi(K)H."""

    def phi(arrow):
        return rep.phi(arrow.compose(ideal_unit(rep.backend, K, arrow.source)))

    return ConcreteRep(
        rep.backend, rep.dim, phi, ideal=full_ideal(rep.backend), label=f"{rep.label}-extended"
    )


def check_extension_kernel(rep: ConcreteRep, K: ColorIdeal, arrows, tol=1e-10):
    """phi_ext(a) = 0 iff a K(q,q) <= ker phi, testing both directions."""
    ext = extend_representation(rep, K)
    failures = []
    for a in arrows:
        lhs = spectral_norm(ext.phi(a)) <= tol
        rhs = all(
            spectral_norm(rep.phi(a.compose(k))) <= tol
            for k in rep.backend.basis(a.source, a.source, ideal=K)
        )
        if lhs != rhs:
            failures.append((a.range, a.source))
    return CheckReport("extension-kernel", not failures, {"failures": failures})


def check_injective(rep: ConcreteRep, keys, tol=RANK_TOL):
    """Smallest singular value of the fiber-linearized map over the given keys."""
    smin = float("inf")
    for p, q in keys:
        rows = rep.basis_images(p, q)
        if len(rows):
            smin = min(smin, _sigma_min(rows))
    return CheckReport("injectivity", smin > tol, {"sigma_min": smin})



def degenerate_example_rep(dims):
    """Faithful diagonal representation of the zero-tensor backend over N.

    H = ⊕_n C^{d_n}; each K(n,n) acts on its own block, cross arrows act as 0.
    """
    zb = ZeroTensorBackend(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    H = int(offsets[-1])

    def phi(arrow):
        m = np.zeros((H, H), dtype=complex)
        if arrow.range == arrow.source:
            n = arrow.range.data[0]
            if n < len(dims):
                o = offsets[n]
                d = dims[n]
                m[o : o + d, o : o + d] = arrow.blocks[0]
        return m

    return ConcreteRep(zb, H, phi, label="degenerate"), zb
