"""Verifiers for concrete matrix-valued Nica covariant representations.

A representation here is a map from arrows to operators on a fixed
finite-dimensional Hilbert space; the default source is the truncated Fock
representation at source object e (whose Hilbert space is the column space of
the factored Fock operators).  On top of that sit the projection families
Q_p and Q_<p>, Toeplitz covariance, the faithfulness conditions (C) and (C'),
the aperiodicity search, and the topological-grading test for group-indexed
fibers.

For a non-unit p, Q_p = phi(1_p), the image of the unit of K(p,p) (restricted
to the ideal's colors); it is checked to be a self-adjoint idempotent.  Q_<p>
is the range projection of the sum of the phi(1_w) over the window's w in pP,
taken from eigh with relative cutoff tol; for a unit p, Q_p = Q_<p>.

Numerical conventions: spans are compared by singular-value rank arithmetic
with cutoff 1e-8; faithfulness means smallest singular value > 1e-8; these are
numerical judgments, not proofs.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .fock import Truncation, lift
from .linalg import rank_of_span, spectral_norm
from .precategory import ColorIdeal, ZeroTensorBackend, full_ideal, ideal_membership
from .segments import leq
from .wick import NTElement

RANK_TOL = 1e-8


class ConcreteRep:
    """Arrow -> operator on C^dim, linear per fiber and *-compatible."""

    def __init__(self, backend, dim, phi_fn, ideal=None, nica=True, label="rep"):
        self.backend = backend
        self.dim = dim
        self._phi = phi_fn
        self.ideal = ideal if ideal is not None else full_ideal(backend)
        self.nica = nica
        self.label = label

    def phi(self, arrow):
        return self._phi(arrow)

    def fiber_image(self, p, q):
        """Columns vec(phi(a_k)) over the matrix-unit basis of K(p,q)."""
        basis = self.backend.basis(p, q, ideal=self.ideal)
        if not basis:
            return np.zeros((self.dim * self.dim, 0))
        return np.column_stack([np.ravel(self.phi(a)) for a in basis])

    def check_star(self, keys, tol=1e-10):
        for p, q in keys:
            for a in self.backend.basis(p, q, ideal=self.ideal):
                if spectral_norm(self.phi(a.adjoint()) - self.phi(a).conj().T) > tol:
                    return False
        return True

    def __repr__(self):
        return f"<rep {self.label} dim={self.dim}>"


def fock_rep(backend, depth: int, ideal=None):
    """The truncated Fock representation on the source-e fiber.

    Returns (rep, truncation); the Hilbert space is the direct sum over
    colors and source objects of the column spaces.
    """
    tr = Truncation(backend, depth)
    dim = sum(tr.col_total(c) for c in range(backend.slot_count))
    ideal = ideal if ideal is not None else full_ideal(backend)

    def phi(arrow):
        x = NTElement(backend, ideal)
        x.add_term(arrow.range, arrow.source, arrow)
        return lift(x, tr).dense()

    return ConcreteRep(backend, dim, phi, ideal, nica=True, label="fock"), tr


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

    return ConcreteRep(zb, H, phi, nica=True, label="degenerate"), zb


def _range(m, tol):
    """Range projection of a positive semidefinite matrix (eigh, relative cutoff)."""
    w, u = np.linalg.eigh(m)
    if w.size == 0 or w[-1] <= 0.0:
        return np.zeros_like(m)
    u = u[:, w > tol * w[-1]]
    return u @ u.conj().T


class ProjectionFamily:
    """Q_p and Q_<p> for a representation, computed on a finite window."""

    def __init__(self, rep: ConcreteRep, window, tol=RANK_TOL):
        self.rep = rep
        self.window = list(window)
        self.tol = tol
        self._unit_image = {}
        self._q_angle = {}

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

    def Q(self, p):
        if self.rep.backend.sg.is_unit(p):
            return self.Q_angle(p)
        return self._fiber(p)

    def Q_angle(self, p):
        if p not in self._q_angle:
            sg = self.rep.backend.sg
            total = np.zeros((self.rep.dim, self.rep.dim), dtype=complex)
            for w in self.window:
                if sg.left_divide(p, w) is not None:
                    total += self._fiber(w)
            self._q_angle[p] = _range(total, self.tol)
        return self._q_angle[p]


class CheckReport:
    def __init__(self, name, ok, details):
        self.name = name
        self.ok = ok
        self.details = details

    def __repr__(self):
        return f"<check {self.name}: {'pass' if self.ok else 'fail'} {self.details}>"


def check_projection_semilattice(family: ProjectionFamily, depth: int, tol=1e-9):
    """Q_<p> Q_<q> = Q_<lcm> (or 0) on all pairs up to the given length."""
    sg = family.rep.backend.sg
    els = sg.elements(depth)
    worst = 0.0
    failures = []
    for p, q in itertools.product(els, repeat=2):
        prod = family.Q_angle(p) @ family.Q_angle(q)
        r = sg.right_lcm(p, q)
        want = family.Q_angle(r) if r is not None else np.zeros_like(prod)
        defect = spectral_norm(prod - want)
        worst = max(worst, defect)
        if defect > tol:
            failures.append(((p, q), defect))
    return CheckReport("projection-semilattice", not failures, {"worst": worst, "failures": failures[:5]})


def check_projection_equalities(family: ProjectionFamily, elements, tol=1e-9):
    """Q_p = Q_<p> per element (holds under tensor-nondegeneracy)."""
    failures = []
    worst = 0.0
    for p in elements:
        defect = spectral_norm(family.Q(p) - family.Q_angle(p))
        worst = max(worst, defect)
        if defect > tol:
            failures.append((p, defect))
    return CheckReport("projection-equality", not failures, {"worst": worst, "failures": failures[:5]})


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


# -- covariance and faithfulness conditions -----------------------------------


def _precondition(sg, p, qs):
    for q in qs:
        if leq(q, p):
            raise ValueError(f"precondition violated: {q!r} divides {p!r}")


def check_toeplitz_covariance(rep: ConcreteRep, p, qs, tol=RANK_TOL):
    """Trivial intersection of phi(K(p,p)) with the span of the phi(K(q,q))."""
    sg = rep.backend.sg
    _precondition(sg, p, qs)
    A = rep.fiber_image(p, p)
    Bs = [rep.fiber_image(q, q) for q in qs]
    B = np.hstack(Bs) if Bs else np.zeros((rep.dim * rep.dim, 0))
    ra = rank_of_span(A.T, tol)
    rb = rank_of_span(B.T, tol)
    rab = rank_of_span(np.hstack([A, B]).T, tol)
    ok = rab == ra + rb
    return CheckReport(
        "toeplitz-covariance",
        ok,
        {"rank_fiber": ra, "rank_span": rb, "rank_joint": rab},
    )


def check_condition_C(rep: ConcreteRep, family: ProjectionFamily, p, qs, tol=RANK_TOL):
    """Faithfulness of a -> phi(a) prod_i (1 - Q_<q_i>) on the (p,p) fiber."""
    sg = rep.backend.sg
    _precondition(sg, p, qs)
    comp = np.eye(rep.dim, dtype=complex)
    for q in qs:
        comp = comp @ (np.eye(rep.dim) - family.Q_angle(q))
    basis = rep.backend.basis(p, p, ideal=rep.ideal)
    cols = []
    commutation = 0.0
    for a in basis:
        m = rep.phi(a)
        cols.append(np.ravel(m @ comp))
        commutation = max(commutation, spectral_norm(m @ comp - comp @ m))
    M = np.column_stack(cols) if cols else np.zeros((rep.dim * rep.dim, 0))
    if M.shape[1] == 0:
        return CheckReport("condition-C", True, {"sigma_min": float("inf"), "note": "empty fiber"})
    smin = float(np.linalg.svd(M, compute_uv=False)[-1])
    return CheckReport(
        "condition-C",
        smin > tol,
        {"sigma_min": smin, "commutation_defect": commutation},
    )


def check_condition_Cprime(rep: ConcreteRep, family: ProjectionFamily, p, qs, arrow, tol=1e-6):
    """Corner-norm equality through 1 - (Q_{q_1} v ... v Q_{q_n})."""
    sg = rep.backend.sg
    _precondition(sg, p, qs)
    join = _range(sum((family.Q(q) for q in qs), np.zeros((rep.dim, rep.dim))), family.tol)
    corner = np.eye(rep.dim, dtype=complex) - join
    m = rep.phi(arrow)
    full = spectral_norm(m)
    compressed = spectral_norm(corner @ m @ corner)
    return CheckReport(
        "condition-Cprime",
        abs(full - compressed) <= tol,
        {"norm": full, "corner_norm": compressed},
    )


def check_injective(rep: ConcreteRep, keys, tol=RANK_TOL):
    """Smallest singular value of the fiber-linearized map over the given keys."""
    smin = float("inf")
    for p, q in keys:
        M = rep.fiber_image(p, q)
        if M.shape[1] == 0:
            continue
        smin = min(smin, float(np.linalg.svd(M, compute_uv=False)[-1]))
    return CheckReport("injectivity", smin > tol, {"sigma_min": smin})


# -- representation extension --------------------------------------------------


def ideal_unit(backend, K: ColorIdeal, p):
    """The unit 1_K of K(p,p): identity on the ideal's colors, 0 elsewhere."""
    blocks = []
    for c, (rows, cols) in enumerate(backend.shape(p, p)):
        if c in K.colors:
            blocks.append(np.eye(rows, dtype=complex))
        else:
            blocks.append(np.zeros((rows, cols), dtype=complex))
    return backend.arrow(p, p, blocks)


def extend_representation(rep: ConcreteRep, K: ColorIdeal) -> ConcreteRep:
    """Extension from the ideal: a -> phi(a * 1_K), zero beyond phi(K)H."""

    def phi(arrow):
        return rep.phi(arrow.compose(ideal_unit(rep.backend, K, arrow.source)))

    return ConcreteRep(
        rep.backend, rep.dim, phi, ideal=full_ideal(rep.backend),
        nica=rep.nica, label=f"{rep.label}-extended",
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


# -- aperiodicity ---------------------------------------------------------------


class AperiodicityResult:
    def __init__(self, best, witness):
        self.best = best
        self.witness = witness

    def __repr__(self):
        return f"<aperiodicity best={self.best:.6g}>"


def aperiodicity_search(
    backend, p, x, b, h=None, twist=None, trials=24, seed=0, maxiter=60,
):
    """Minimize |alpha(a) b a| over positive norm-one a in the hereditary
    subalgebra generated by h (all of K(p,p) when h is None).

    alpha(a) = (a x 1_x), conjugated per color by the optional twist unitaries
    (the unit's action when it does not act trivially on fibers).  The search
    (random restarts + Powell refinement) certifies an upper bound on the
    infimum; returns the best value with its witness.
    """
    from scipy import optimize

    sg = backend.sg
    if not sg.is_unit(x) or x == sg.identity():
        raise ValueError("x must be a nontrivial unit")
    if b.norm() == 0.0:
        return AperiodicityResult(0.0, None)
    shapes = backend.shape(p, p)
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    rng = random.Random(seed)

    def build(params):
        params = np.asarray(params, dtype=float)
        scale = np.linalg.norm(params)
        if not np.isfinite(scale) or scale <= 1e-14:
            return None
        params = params / scale  # the value is scale-invariant in d
        blocks = []
        off = 0
        for (r, c), n in zip(shapes, sizes):
            re = params[off : off + n].reshape(r, c)
            im = params[off + total : off + total + n].reshape(r, c)
            blocks.append(re + 1j * im)
            off += n
        d = backend.arrow(p, p, blocks)
        a = d.adjoint().compose(d)
        if h is not None:
            a = h.compose(a).compose(h)
        n = a.norm()
        return None if n <= 1e-14 else (1.0 / n) * a

    def alpha(a):
        shifted = a.rtensor(x)
        if twist is None:
            return shifted
        blocks = [
            u @ blk @ u.conj().T for u, blk in zip(twist, shifted.blocks)
        ]
        return backend.arrow(shifted.range, shifted.source, blocks)

    def value(params):
        a = build(params)
        if a is None:
            return 1e6
        return alpha(a).compose(b).compose(a).norm()

    best, witness = float("inf"), None
    for _ in range(trials):
        start = np.array([rng.gauss(0, 1) for _ in range(2 * total)])
        start /= max(1.0, np.linalg.norm(start) / 2.0)
        res = optimize.minimize(
            value, start, method="Powell",
            bounds=[(-4.0, 4.0)] * (2 * total),
            options={"maxiter": maxiter, "xtol": 1e-8, "ftol": 1e-12},
        )
        cand = float(res.fun)
        if cand < best:
            best, witness = cand, build(res.x)
    return AperiodicityResult(best, witness)


# -- topological grading ---------------------------------------------------------


def check_graded(rep: ConcreteRep, samples, tol=1e-9):
    """|b_e| <= |phi(sum_g b_g)| for finite fiber families over a group.

    Each sample is a dict g -> Arrow at key (g, e).
    """
    sg = rep.backend.sg
    e = sg.identity()
    failures = []
    for fam in samples:
        be = fam.get(e)
        lhs = be.norm() if be is not None else 0.0
        total = np.zeros((rep.dim, rep.dim), dtype=complex)
        for g, arrow in fam.items():
            total += rep.phi(arrow)
        rhs = spectral_norm(total)
        if lhs > rhs + tol:
            failures.append({"norm_e": lhs, "norm_sum": rhs})
    return CheckReport("topologically-graded", not failures, {"failures": failures})
