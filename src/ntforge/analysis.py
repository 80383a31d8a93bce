"""Verifiers for concrete matrix-valued Nica covariant representations.

A representation here is a map from arrows to operators on a fixed
finite-dimensional Hilbert space; the default source is the truncated Fock
representation at source object e (whose Hilbert space is the column space of
the factored Fock operators).  On top of that sit the projection families
Q_p and Q_<p>, Toeplitz covariance, the faithfulness conditions (C) and (C'),
the aperiodicity search, and the topological-grading test for group-indexed
fibers.

For a non-unit p, Q_p = phi(1_p), the image of the unit of K(p,p) (restricted
to the ideal's colors); for a unit p, Q_p = Q_<p>.  There is one route, by
index sets: each phi(1_w) must have its nonzero entries (on the Fock
representation, the lifted key's COO triples) on the diagonal and exactly 1,
or it raises ValueError.  Q_<p> is the union of the sets of the window's w in
pP, the projection laws are set identities, and conditions (C) and (C')
compress by row and column masks.

The covariance and faithfulness checks map a fiber's whole matrix-unit basis
at once (ConcreteRep.basis_images: one lift and one scatter on fock.FockRep,
the Fock representation) and rank the images as rows on the union of their supports.

The aperiodicity search starts, on a colored backend, from a closed form: a
unit x has dim(x) = 1, so for rank-one a = v v* in one color |alpha(a) b a|
is |<v, M v>| with M = V* U* b V, and the rank-one infimum is the distance
from 0 to the numerical range W(M).  A 720-angle support sweep and two
segment steps (Johnson 1978; Carden 2009) give an attained witness,
rank_one_bound, exactly 0 when 0 is inside W(M).  Every a, not only the
rank-one ones, is worth at least the distance from 0 to W(M) in some color,
so the support function gives lower_bound, a proven lower bound.  Powell
restarts on a tabulated ndarray objective search only while the bracket
[lower_bound, rank_one_bound] is open (search_best); best is the smaller
attained value and attained_by names its source.

Numerical conventions: spans are compared by singular-value rank arithmetic
with the cutoff linalg.RANK_TOL (1e-8); faithfulness means smallest singular
value > tol (default RANK_TOL); these are numerical judgments, not proofs.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .linalg import RANK_TOL, rank_of_span, span_singular_values, spectral_norm
from .precategory import ColoredProductSystem, full_ideal, ideal_unit
from .segments import leq


class ConcreteRep:
    """Arrow -> operator on C^dim, linear per fiber and *-compatible, phi_fn
    the image; fock.FockRep and bundles.RegularRep override phi and its readers."""

    def __init__(self, backend, dim, phi_fn, ideal=None, label="rep"):
        self.backend = backend
        self.dim = dim
        self._phi = phi_fn
        self.ideal = ideal if ideal is not None else full_ideal(backend)
        self.label = label

    def phi(self, arrow):
        return self._phi(arrow)

    def entries(self, arrow):
        """(rows, cols, vals) of the nonzero entries of phi(arrow)."""
        m = self.phi(arrow)
        return (*m.nonzero(), m[m != 0])

    def flat(self, arrow):
        """vec(phi(arrow)), or any isometric image of it, for ranks of images."""
        return np.ravel(self.phi(arrow))

    def basis_images(self, p, q):
        """The rows flat(a) over the matrix-unit basis of K(p,q), in
        backend.basis order: shape (n, L), L the length of flat.  Condition C
        needs rows equal to vec(phi(a)), of length dim**2."""
        basis = self.backend.basis(p, q, ideal=self.ideal)
        return np.array([self.flat(a) for a in basis]) if basis else np.zeros((0, self.dim**2), dtype=complex)

    def __repr__(self):
        return f"<rep {self.label} dim={self.dim}>"


def _range_basis(m, tol):
    """Orthonormal basis of the range of a positive semidefinite matrix (eigh,
    eigenvalues above tol times the largest)."""
    w, u = np.linalg.eigh(m)
    if w.size == 0 or w[-1] <= 0.0:
        return u[:, :0]
    return u[:, w > tol * w[-1]]


def _union(dim, sets):
    """The union of index sets (boolean masks of length dim)."""
    return np.any([np.zeros(dim, dtype=bool), *sets], axis=0)


class ProjectionFamily:
    """Q_p and Q_<p> for a representation as index sets, on a finite window.

    Each phi(1_w) must pass the diagonal certificate, with no tolerance: its
    nonzero entries (rep.entries) are on the diagonal and exactly 1, so it
    projects onto an index set; else ValueError names phi(1_w).  Q_<p> is the
    union of the sets of the window's w in pP.  Q_set and Q_angle_set give the
    sets, Q_angle the dense diagonal projection.
    """

    def __init__(self, rep: ConcreteRep, window):
        self.rep = rep
        self.window = list(window)
        self._unit_image = {}  # w -> the index set of phi(1_w)
        self._q_angle = {}  # p -> the index set of Q_<p>

    def _fiber(self, w):
        """The index set of phi(1_w), the projection onto phi(K(w,w))H."""
        if w not in self._unit_image:
            rep = self.rep
            rows, cols, vals = rep.entries(ideal_unit(rep.backend, rep.ideal, w))
            if not ((rows == cols).all() and (vals == 1).all()):
                raise ValueError(f"phi(1_{w!r}) fails the diagonal certificate: an entry is "
                                 "off the diagonal or not exactly 1")
            self._unit_image[w] = np.zeros(rep.dim, dtype=bool)
            self._unit_image[w][rows] = True
        return self._unit_image[w]

    def Q_set(self, p):
        return self.Q_angle_set(p) if self.rep.backend.sg.is_unit(p) else self._fiber(p)

    def Q_angle_set(self, p):
        if p not in self._q_angle:
            sg = self.rep.backend.sg
            above = [self._fiber(w) for w in self.window if sg.left_divide(p, w) is not None]
            self._q_angle[p] = _union(self.rep.dim, above)
        return self._q_angle[p]

    def Q_angle(self, p):
        return np.diag(self.Q_angle_set(p).astype(complex))


class CheckReport:
    def __init__(self, name, ok, details):
        self.name = name
        self.ok = ok
        self.details = details

    def __repr__(self):
        return f"<check {self.name}: {'pass' if self.ok else 'fail'} {self.details}>"


def check_projection_semilattice(family: ProjectionFamily, depth: int):
    """Q_<p> Q_<q> = Q_<lcm> (or 0) on all pairs up to the given length.

    Q_<p> Q_<q> projects onto the intersection of the two index sets, so the
    defect, the spectral norm of a difference of two diagonal projections, is
    exactly 1.0 (a failure) if their sets differ and 0.0 if not: no tolerance.
    """
    sg = family.rep.backend.sg
    els = sg.elements(depth)
    empty = np.zeros(family.rep.dim, dtype=bool)
    worst = 0.0
    failures = []
    for p, q in itertools.product(els, repeat=2):
        r = sg.right_lcm(p, q)
        want = empty if r is None else family.Q_angle_set(r)
        defect = float(((family.Q_angle_set(p) & family.Q_angle_set(q)) != want).any())
        worst = max(worst, defect)
        if defect:
            failures.append(((p, q), defect))
    return CheckReport("projection-semilattice", not failures, {"worst": worst, "failures": failures[:5]})


def check_projection_equalities(family: ProjectionFamily, elements):
    """Q_p = Q_<p> per element (holds under tensor-nondegeneracy); exact, as
    in the semilattice check."""
    failures = []
    worst = 0.0
    for p in elements:
        defect = float((family.Q_set(p) != family.Q_angle_set(p)).any())
        worst = max(worst, defect)
        if defect:
            failures.append((p, defect))
    return CheckReport("projection-equality", not failures, {"worst": worst, "failures": failures[:5]})


# -- covariance and faithfulness conditions -----------------------------------


def _precondition(p, qs):
    for q in qs:
        if leq(q, p):
            raise ValueError(f"precondition violated: {q!r} divides {p!r}")


def _sigma_min(rows):
    """Smallest singular value of the map with these basis images (rows);
    0.0 when they have fewer nonzero columns than rows."""
    s = span_singular_values(rows)
    return float(s[-1]) if len(s) == len(rows) else 0.0


def check_toeplitz_covariance(rep: ConcreteRep, p, qs, tol=RANK_TOL):
    """Trivial intersection of phi(K(p,p)) with the span of the phi(K(q,q)):
    ranks of the basis images, as rows on the union of their supports."""
    _precondition(p, qs)
    A = rep.basis_images(p, p)
    Bs = [rep.basis_images(q, q) for q in qs]
    keep = np.logical_or.reduce([m.any(axis=0) for m in [A] + Bs])
    A, B = A[:, keep], np.concatenate([A[:0, keep]] + [m[:, keep] for m in Bs])
    ra, rb = rank_of_span(A, tol), rank_of_span(B, tol)
    rab = rank_of_span(np.concatenate([A, B]), tol)
    ok = rab == ra + rb
    return CheckReport(
        "toeplitz-covariance",
        ok,
        {"rank_fiber": ra, "rank_span": rb, "rank_joint": rab},
    )


def check_condition_C(rep: ConcreteRep, family: ProjectionFamily, p, qs, tol=RANK_TOL):
    """Faithfulness of a -> phi(a) prod_i (1 - Q_<q_i>) on the (p,p) fiber.

    The basis images phi(a) of K(p,p) come as one stack (rep.basis_images,
    rows vec(phi(a)), else ValueError), and the compression is broadcast
    over it.  The product keeps the columns outside the index sets of all
    Q_<q_i> (a unit image off the certificate raises, see ProjectionFamily),
    and its commutator with phi(a) holds phi(a) where the row and column
    masks differ.  A spectral norm is taken only of a nonzero commutator.  An
    empty fiber passes with sigma_min None (null in a report).
    """
    _precondition(p, qs)
    ims = rep.basis_images(p, p)
    if ims.shape[1] != rep.dim**2:
        raise ValueError(f"condition C needs basis images vec(phi) of length {rep.dim**2} from "
                         f"{rep!r}, got rows of length {ims.shape[1]}")
    ims = ims.reshape(-1, rep.dim, rep.dim)
    if not len(ims):
        return CheckReport("condition-C", True, {"sigma_min": None, "note": "empty fiber"})
    keep = ~_union(rep.dim, [family.Q_angle_set(q) for q in qs])
    mc, gap = ims * keep, ims * (keep[None, :].astype(float) - keep[:, None])
    gap = gap[gap.reshape(len(gap), -1).any(axis=1)]
    commutation = float(np.linalg.norm(gap, 2, axis=(1, 2)).max(initial=0.0))
    smin = _sigma_min(mc.reshape(len(mc), -1))
    return CheckReport(
        "condition-C",
        smin > tol,
        {"sigma_min": smin, "commutation_defect": commutation},
    )


def check_condition_Cprime(rep: ConcreteRep, family: ProjectionFamily, p, qs, arrow, tol=1e-6):
    """Corner-norm equality through 1 - (Q_{q_1} v ... v Q_{q_n}): the join is
    the union of the index sets of the Q_{q_i} (a unit image off the
    certificate raises, see ProjectionFamily), and the corner keeps the rows
    and columns outside it."""
    _precondition(p, qs)
    keep = ~_union(rep.dim, [family.Q_set(q) for q in qs])
    m = rep.phi(arrow)
    full = spectral_norm(m)
    compressed = spectral_norm(m[np.ix_(keep, keep)])
    return CheckReport(
        "condition-Cprime",
        abs(full - compressed) <= tol,
        {"norm": full, "corner_norm": compressed},
    )


# -- aperiodicity ---------------------------------------------------------------

NUMERICAL_RANGE_ANGLES = 720


def _segment_point(m, v1, v2, t):
    """Unit u in span(v1, v2) with <u, m u> = (1 - t) <v1, m v1> + t <v2, m v2>.

    The numerical range of m compressed to span(v1, v2) is an ellipse holding
    both end values, hence the segment between them.  Rotate the segment onto
    [0, 1]; on u = v1 + s w, with the phase of w chosen so the skew part of
    the rotated matrix vanishes on that family, the value is real and goes
    from 0 to 1 as s runs from 0 to infinity, so a quadratic in s gives t.
    """
    z1, z2 = np.vdot(v1, m @ v1), np.vdot(v2, m @ v2)
    if t <= 0.0 or z1 == z2:
        return v1
    if t >= 1.0:
        return v2
    n = (m - z1 * np.eye(len(m))) / (z2 - z1)
    k12 = np.vdot(v1, (n - n.conj().T) @ v2) / 2j
    w = v2 if k12 == 0 else (1j * np.conj(k12) / abs(k12)) * v2
    b = np.vdot(v1, (n + n.conj().T) @ w).real - 2.0 * t * np.vdot(v1, w).real
    s = 2.0 * t / (b + np.sqrt(b * b + 4.0 * t * (1.0 - t)))
    u = v1 + s * w
    return u / np.linalg.norm(u)


def _numerical_range_witness(m):
    """A unit vector v with |<v, m v>| near the distance from 0 to W(m).

    Returns (lower, v).  lower = max_theta lambda_min(Re(e^{i theta} m)) over
    NUMERICAL_RANGE_ANGLES angles; when it is positive, 0 is not in W(m) and
    lower bounds the distance from below.  The minimizing eigenvectors give
    boundary points z_theta of W(m); their convex hull P lies in W(m).  When 0
    lies in a triangle (z_0, z_j, z_j+1) of P, two segment steps (Carden)
    reach <v, m v> = 0.  Otherwise v attains the point of P nearest to 0,
    which is within |m| tan(pi / NUMERICAL_RANGE_ANGLES) of the distance.
    """
    theta = 2.0 * np.pi * np.arange(NUMERICAL_RANGE_ANGLES) / NUMERICAL_RANGE_ANGLES
    rot = np.exp(1j * theta)[:, None, None] * m
    lam, vecs = np.linalg.eigh((rot + rot.conj().transpose(0, 2, 1)) / 2.0)
    lower = float(lam[:, 0].max())
    v = vecs[:, :, 0]
    z = np.einsum("ki,ij,kj->k", v.conj(), m, v)
    if lower <= 0.0:
        # fan from the boundary point farthest from 0, so that z_0 != 0
        k = int(np.argmax(np.abs(z)))
        z, v = np.roll(z, -k), np.roll(v, -k, axis=0)
        za, e1, e2 = z[0], z[1:-1] - z[0], z[2:] - z[0]
        det = (e1.conj() * e2).imag
        with np.errstate(divide="ignore", invalid="ignore"):
            l1 = (-za.conj() * e2).imag / det
            l2 = (e1.conj() * -za).imag / det
            flat = np.abs(det) <= 1e-12 * np.abs(z).max() ** 2
            inside = ~flat & (l1 >= 0) & (l2 >= 0) & (l1 + l2 <= 1)
        if inside.any():
            j = int(np.argmax(inside)) + 1
            zb, zc = z[j], z[j + 1]
            # the ray from z_0 through 0 meets [z_j, z_j+1] at zb + t (zc - zb)
            t, _ = np.linalg.solve(
                [[(zc - zb).real, za.real], [(zc - zb).imag, za.imag]], [-zb.real, -zb.imag]
            )
            u = _segment_point(m, v[j], v[j + 1], float(t))
            d = np.vdot(u, m @ u) - za
            return lower, _segment_point(m, v[0], u, float(-(d.conj() * za).real / abs(d) ** 2))
    edge = np.roll(z, -1) - z
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.nan_to_num(np.clip(-(edge.conj() * z).real / np.abs(edge) ** 2, 0.0, 1.0))
    j = int(np.argmin(np.abs(z + t * edge)))
    return lower, _segment_point(m, v[j], v[(j + 1) % len(z)], float(t[j]))


def _aperiodicity_objective(backend, p, x, b, h=None, twist=None):
    """(build, value) for |alpha(a) b a| on ndarray blocks of L(p,p).

    The linear map T(a) = alpha(a) o b is tabulated once on the matrix-unit
    basis through the arrow API; value(a) is then a matvec, a blockwise
    product T(a)_c @ a_c and spectral norms.  build(params) turns 2*dim real
    parameters into d, then a = d* d (sandwiched by h), scaled to norm one.
    """
    shapes = backend.shape(p, p)
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)

    def alpha(a):
        shifted = a.rtensor(x)
        if twist is None:
            return shifted
        blocks = [u @ blk @ u.conj().T for u, blk in zip(twist, shifted.blocks)]
        return backend.arrow(shifted.range, shifted.source, blocks)

    table = np.column_stack([alpha(e).compose(b).flat() for e in backend.basis(p, p)])
    out = [blk.shape for blk in b.blocks]
    cuts = np.cumsum([r * c for r, c in out])[:-1]
    hb = None if h is None else h.blocks

    def value(a):
        ta = np.split(table @ np.concatenate([np.ravel(blk) for blk in a]), cuts)
        return max(spectral_norm(t.reshape(sh) @ blk) for t, sh, blk in zip(ta, out, a))

    def build(params):
        params = np.asarray(params, dtype=float)
        scale = np.linalg.norm(params)
        if not np.isfinite(scale) or scale <= 1e-14:
            return None
        params = params / scale  # the value is scale-invariant in d
        a = []
        off = 0
        for (r, c), n in zip(shapes, sizes):
            d = (params[off : off + n] + 1j * params[off + total : off + total + n]).reshape(r, c)
            a.append(d.conj().T @ d)
            off += n
        if hb is not None:
            a = [hc @ ac @ hc for hc, ac in zip(hb, a)]
        n = max(spectral_norm(ac) for ac in a)
        return None if n <= 1e-14 else [ac / n for ac in a]

    return build, value


def _powell_search(build, value, total, trials, seed, maxiter):
    """(value, blocks) of the best of trials Powell runs on the objective of
    _aperiodicity_objective, from seeded random starts in 2*total parameters."""
    from scipy import optimize

    rng = random.Random(seed)

    def objective(params):
        a = build(params)
        return 1e6 if a is None else value(a)

    best, found = float("inf"), None
    for _ in range(trials):
        start = np.array([rng.gauss(0, 1) for _ in range(2 * total)])
        start /= max(1.0, np.linalg.norm(start) / 2.0)
        res = optimize.minimize(
            objective, start, method="Powell",
            bounds=[(-4.0, 4.0)] * (2 * total),
            options={"maxiter": maxiter, "xtol": 1e-8, "ftol": 1e-12},
        )
        if float(res.fun) < best:
            best, found = float(res.fun), build(res.x)
    return best, found


def _rank_one_witness(backend, p, b, h=None, twist=None):
    """(blocks, lower_bound) on the colored backend, None off it, where
    tensoring by a unit need not act on each block as a -> U a U*.

    blocks is the rank-one a = V_c v v* V_c* with the least |<v, M_c v>| over
    the colors where h is nonzero.  lower_bound is the least over those
    colors of max(lower_c, 0), lower_c the larger of the sweep's lower and
    lambda_min(Re(e^{i theta} M_c)) at the witness's own angle theta =
    -arg <v, M_c v>; that angle meets |<v, M_c v>| when v attains the point
    of W(M_c) nearest 0.

    Every positive norm-one a on range(h) bounds the objective below: a_c v
    = v for a unit v in range(h_c) in some color c, alpha(a)_c = U_c a_c U_c*
    fixes U_c v, so |alpha(a) b a| >= |<U_c v, alpha(a)_c b_c a_c v>| =
    |<v, U_c* b_c v>|, a point of W(M_c), at least lower_c from 0.
    """
    if not isinstance(backend, ColoredProductSystem):
        return None
    best, lower_bound = None, float("inf")
    for c, (rows, _) in enumerate(backend.shape(p, p)):
        v_c = np.eye(rows, dtype=complex) if h is None else _range_basis(h.blocks[c], RANK_TOL)
        if v_c.shape[1] == 0:
            continue
        u_c = np.eye(rows) if twist is None else twist[c]
        m = v_c.conj().T @ u_c.conj().T @ b.blocks[c] @ v_c
        lower, v = _numerical_range_witness(m)
        z = np.vdot(v, m @ v)
        rot = np.exp(-1j * np.angle(z)) * m
        lower = max(lower, float(np.linalg.eigvalsh((rot + rot.conj().T) / 2.0)[0]))
        lower_bound = min(lower_bound, max(lower, 0.0))
        w = v_c @ v
        if best is None or abs(z) < best[0]:
            best = (abs(z), c, np.outer(w, w.conj()))
    if best is None:
        return None
    _, c, a_c = best
    blocks = [np.zeros(sh, dtype=complex) for sh in backend.shape(p, p)]
    blocks[c] = a_c
    return blocks, lower_bound


class AperiodicityResult:
    """lower_bound <= inf |alpha(a) b a| <= best = min(rank_one_bound,
    search_best), attained by witness, over positive norm-one a on the
    corner range(h) taken at RANK_TOL.

    lower_bound and rank_one_bound are None off the colored backend;
    search_best is None when the bracket [lower_bound, rank_one_bound] was
    already closed to 1e-12 |b| and no search ran.
    """

    def __init__(
        self, best, witness, lower_bound=None, rank_one_bound=None, search_best=None,
        attained_by=None,
    ):
        self.best = best
        self.witness = witness
        self.lower_bound = lower_bound
        self.rank_one_bound = rank_one_bound
        self.search_best = search_best
        self.attained_by = attained_by

    def __repr__(self):
        return f"<aperiodicity best={self.best:.6g} by {self.attained_by}>"


def aperiodicity_search(
    backend, p, x, b, h=None, twist=None, trials=24, seed=0, maxiter=60,
):
    """Bracket the infimum of |alpha(a) b a| over positive norm-one a in the
    hereditary corner of h: the a supported on range(h), taken at RANK_TOL
    as in the certificate below (all of K(p,p) when h is None).

    alpha(a) = (a x 1_x), conjugated per color by the optional twist unitaries
    (the unit's action when it does not act trivially on fibers): one d_c x d_c
    U with |UU* - 1| <= 1e-12 per color, else ValueError.  On a colored
    backend a closed form comes first.  A unit x has dimension 1 in every
    color, so over rank-one a in one color the value is |<v, M_c v>| with
    M_c = V_c* U_c* b_c V_c (V_c an orthonormal basis of range(h_c), U_c the
    twist), and every a is worth at least the distance from 0 to W(M_c) in
    some color: the infimum is the least such distance.  A support-function
    sweep over 720 angles and two segment steps give a witness whose value
    is rank_one_bound (exactly 0 up to round-off when 0 is inside W), and
    the support function at the sweep angles and at the witness's own angle
    gives lower_bound, a proven lower bound on the infimum (at most best,
    where round-off would put it an ulp above).  Only off the
    colored backend, or when rank_one_bound - lower_bound exceeds 1e-12 |b|,
    do random restarts with Powell refinement on a tabulated ndarray
    objective search further (search_best).  Both are attained values, so
    best = the smaller one is an upper bound on the infimum; attained_by
    says which.
    """
    sg = backend.sg
    if not sg.is_unit(x) or x == sg.identity():
        raise ValueError("x must be a nontrivial unit")
    shapes = backend.shape(p, p)
    if twist is not None and len(twist) != len(shapes):
        raise ValueError(f"twist has {len(twist)} blocks, not one per colour ({len(shapes)})")
    for c, ((d, _), u) in enumerate(zip(shapes, twist or ())):
        if np.shape(u) != (d, d) or spectral_norm(np.dot(u, np.conj(u).T) - np.eye(d)) > 1e-12:
            raise ValueError(f"twist block of colour {c} is not a {d}x{d} unitary")
    if b.norm() == 0.0:
        return AperiodicityResult(0.0, None)
    build, value = _aperiodicity_objective(backend, p, x, b, h, twist)
    best, witness, attained_by = float("inf"), None, None
    lower_bound = rank_one_bound = None
    certificate = _rank_one_witness(backend, p, b, h, twist)
    if certificate is not None:
        blocks, lower_bound = certificate
        rank_one_bound = value(blocks)
        best, witness, attained_by = rank_one_bound, blocks, "rank-one"
    search_best = None
    if rank_one_bound is None or rank_one_bound - lower_bound > 1e-12 * b.norm():
        search_best, found = _powell_search(
            build, value, backend.space_dim(p, p), trials, seed, maxiter
        )
        if search_best < best:
            best, witness, attained_by = search_best, found, "search"
    lower_bound = None if lower_bound is None else min(lower_bound, best)
    witness = None if witness is None else backend.arrow(p, p, witness)
    return AperiodicityResult(best, witness, lower_bound, rank_one_bound, search_best, attained_by)


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
