"""Test oracles on concrete representations and their projection families.

Dense spectral-norm checks that no scenario check, CLI command or benchmark
job runs: the orthogonality and commutation laws of the projections, the
action of an arrow on a projection, *-compatibility of phi, the extension of
a representation from an ideal, and injectivity on fiber bases; plus the
faithful diagonal representation of the zero-tensor backend.  They read
Q(family, p) and family.Q_angle(p), the dense diagonal projections of the
index sets of a ProjectionFamily, its one route.

The dense route is the independent reference for that one:
DenseProjectionFamily takes any representation, checks that each phi(1_w)
is a self-adjoint idempotent to tol, and takes Q_<p> as the eigh range
projection of the sum of the phi(1_w) over the window's w in pP.  The
dense_* checks run the projection laws and conditions (C) and (C') on it
with dense products and spectral norms.
"""

import itertools

import numpy as np

from ntforge.analysis import (
    RANK_TOL,
    CheckReport,
    ConcreteRep,
    ProjectionFamily,
    _precondition,
    _range_basis,
    _sigma_min,
)
from ntforge.linalg import spectral_norm
from ntforge.precategory import ColorIdeal, ZeroTensorBackend, full_ideal, ideal_unit


def Q(family: ProjectionFamily, p):
    """Q_p as a dense diagonal projection, from its index set."""
    return np.diag(family.Q_set(p).astype(complex))


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
        defect = spectral_norm(Q(family, p) @ Q(family, q))
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
    lhs = rep.phi(arrow) @ (family.Q_angle(s) if angled else Q(family, s))
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


# -- the dense projection route ---------------------------------------------------


def _range(m, tol):
    """Range projection of a positive semidefinite matrix."""
    u = _range_basis(m, tol)
    return u @ u.conj().T


class DenseProjectionFamily:
    """Q_p and Q_<p> as dense matrices, for any representation.

    phi(1_w) must be a self-adjoint idempotent to tol.  Q_<p> is the range
    projection of the sum of the phi(1_w) over the window's w in pP (eigh,
    relative cutoff tol); Q_p = phi(1_p) for a non-unit p, Q_<p> for a unit.
    """

    def __init__(self, rep: ConcreteRep, window, tol=RANK_TOL):
        self.rep = rep
        self.window = list(window)
        self.tol = tol
        self._unit_image = {}  # w -> phi(1_w)
        self._q_angle = {}  # p -> Q_<p>

    def _fiber(self, w):
        """phi(1_w), the projection onto phi(K(w,w))H."""
        if w not in self._unit_image:
            rep = self.rep
            m = rep.phi(ideal_unit(rep.backend, rep.ideal, w))
            defect = max(spectral_norm(m - m.conj().T), spectral_norm(m @ m - m))
            if defect > self.tol:
                raise ValueError(
                    f"phi(1_{w!r}) is not a self-adjoint idempotent: defect {defect:.3e}"
                )
            self._unit_image[w] = m
        return self._unit_image[w]

    def Q_angle(self, p):
        if p not in self._q_angle:
            sg, n = self.rep.backend.sg, self.rep.dim
            images = [self._fiber(w) for w in self.window if sg.left_divide(p, w) is not None]
            self._q_angle[p] = _range(sum(images, np.zeros((n, n), dtype=complex)), self.tol)
        return self._q_angle[p]

    def Q(self, p):
        return self.Q_angle(p) if self.rep.backend.sg.is_unit(p) else self._fiber(p)


def dense_projection_semilattice(family: DenseProjectionFamily, depth: int, tol=1e-9):
    """check_projection_semilattice with each defect the spectral norm of
    Q_<p> Q_<q> - Q_<lcm> (or of Q_<p> Q_<q> when there is no lcm)."""
    sg = family.rep.backend.sg
    worst = 0.0
    failures = []
    for p, q in itertools.product(sg.elements(depth), repeat=2):
        r = sg.right_lcm(p, q)
        prod = family.Q_angle(p) @ family.Q_angle(q)
        want = family.Q_angle(r) if r is not None else np.zeros_like(prod)
        defect = spectral_norm(prod - want)
        worst = max(worst, defect)
        if defect > tol:
            failures.append(((p, q), defect))
    return CheckReport("projection-semilattice", not failures, {"worst": worst, "failures": failures[:5]})


def dense_projection_equalities(family: DenseProjectionFamily, elements, tol=1e-9):
    """check_projection_equalities with each defect |Q_p - Q_<p>|."""
    failures = []
    worst = 0.0
    for p in elements:
        defect = spectral_norm(family.Q(p) - family.Q_angle(p))
        worst = max(worst, defect)
        if defect > tol:
            failures.append((p, defect))
    return CheckReport("projection-equality", not failures, {"worst": worst, "failures": failures[:5]})


def dense_condition_C(rep: ConcreteRep, family: DenseProjectionFamily, p, qs, tol=RANK_TOL):
    """check_condition_C with the product of the 1 - Q_<q_i> formed densely."""
    _precondition(p, qs)
    ims = rep.basis_images(p, p).reshape(-1, rep.dim, rep.dim)
    if not len(ims):
        return CheckReport("condition-C", True, {"sigma_min": None, "note": "empty fiber"})
    comp = np.eye(rep.dim, dtype=complex)
    for q in qs:
        comp = comp @ (np.eye(rep.dim) - family.Q_angle(q))
    mc = ims @ comp
    gap = mc - comp @ ims
    gap = gap[gap.reshape(len(gap), -1).any(axis=1)]
    commutation = float(np.linalg.norm(gap, 2, axis=(1, 2)).max(initial=0.0))
    smin = _sigma_min(mc.reshape(len(mc), -1))
    return CheckReport(
        "condition-C",
        smin > tol,
        {"sigma_min": smin, "commutation_defect": commutation},
    )


def dense_condition_Cprime(rep: ConcreteRep, family: DenseProjectionFamily, p, qs, arrow, tol=1e-6):
    """check_condition_Cprime with the join of the Q_{q_i} an eigh range and
    the corner compression a dense product."""
    _precondition(p, qs)
    m = rep.phi(arrow)
    full = spectral_norm(m)
    join = _range(sum((family.Q(q) for q in qs), np.zeros((rep.dim, rep.dim))), family.tol)
    corner = np.eye(rep.dim, dtype=complex) - join
    compressed = spectral_norm(corner @ m @ corner)
    return CheckReport(
        "condition-Cprime",
        abs(full - compressed) <= tol,
        {"norm": full, "corner_norm": compressed},
    )
