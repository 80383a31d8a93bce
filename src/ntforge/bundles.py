"""Group-indexed fiber bundles and their precategory dictionary.

Over a finite group every morphism space is determined by its grade gh^-1, so
the whole structure compresses to a family of fibers B_g with a graded product
and involution.  Both directions of the dictionary are implemented:

  * ``bundle_from_precategory``: B_g := L(g,e), product (b_g (x) 1_h) b_h,
    star b_g^* (x) 1_{g^-1};
  * ``precategory_from_bundle``: L(g,h) := B_{gh^-1} with identity
    right-tensoring maps.

The round trip is the identity on the nose; the opposite composite is
isomorphic to the original precategory via the maps (x)1_h.  Crossed products
appear as the special case L(g,h) = A with plain multiplication and
a (x) 1_r := alpha_r(a).

The regular representation acts by left convolution on the direct sum of the
fibers with the Hilbert-Schmidt inner product; for a finite group this is a
faithful picture of the (reduced = full) cross-sectional algebra.  Left
convolution by b in B_s maps B_k into B_{sk} by y -> X y colour by colour,
with X = (b (x) 1_k) 1_k, so up to a fixed permutation of H the image is
⊕_c kron(M_c(b), 1_{d_c}) with one |G|·d_c matrix M_c per colour
(``RegularRep``).  Spectra of sections are read from the M_c, and
ranks from the coordinates √d_c · vec(M_c), an isometric image of vec(phi(b)),
so no |H| x |H| matrix is built.  The images of distinct grades have disjoint
supports: ``image_algebra_rank`` ranks them with one SVD per grade and one
cutoff relative to the largest singular value of all.

The graded product takes blocks with leading stack axes through the base
backend's own ampliation and product, so ``BundleBackend`` composes stacks
as every backend does, and ``RegularRep.basis_images`` maps a grade's whole
matrix-unit basis with one broadcast per (k, colour).
"""

from __future__ import annotations

import itertools

import numpy as np

from .analysis import ConcreteRep
from .linalg import norm_at_most, rank_of_values, span_singular_values, spectral_norm
from .precategory import Arrow, _BackendBase
from .semigroups import FiniteGroup


class BlockAction:
    """Action of a finite group on a block algebra ⊕_c M_{d_c}.

    Each alpha_g permutes the slots and conjugates by a unitary per slot:
    alpha_g(a)[c] = U[g][c] @ a[perm[g][c]] @ U[g][c]^*.  Every automorphism
    of a finite-dimensional C*-algebra has this shape.
    """

    def __init__(self, group: FiniteGroup, dims, perms, unitaries):
        self.group = group
        self.dims = [int(d) for d in dims]
        self.perms = perms
        self.unitaries = {
            g: [np.ascontiguousarray(u, dtype=complex) for u in us]
            for g, us in unitaries.items()
        }
        for g in group.elements(1):
            if g not in perms or g not in self.unitaries:
                raise ValueError(f"action data missing for {g!r}")
            for c, src in enumerate(perms[g]):
                if self.dims[c] != self.dims[src]:
                    raise ValueError("slot permutation must preserve dimensions")
        # per g, the slots whose unitary is exactly the identity: there
        # alpha_g only moves the block, and apply skips the conjugation
        self._plain = {
            g: [np.array_equal(u, np.eye(u.shape[0])) for u in us]
            for g, us in self.unitaries.items()
        }
        self._check_homomorphism()

    def apply(self, g, blocks):
        perm, us, plain = self.perms[g], self.unitaries[g], self._plain[g]
        return [
            blocks[perm[c]] if plain[c] else us[c] @ blocks[perm[c]] @ us[c].conj().T
            for c in range(len(self.dims))
        ]

    def _basis_blocks(self):
        for c, d in enumerate(self.dims):
            for i in range(d):
                for j in range(d):
                    blocks = [np.zeros((dd, dd), dtype=complex) for dd in self.dims]
                    blocks[c][i, j] = 1.0
                    yield blocks

    def _check_homomorphism(self, tol=1e-12):
        g_all = self.group.elements(1)
        e = self.group.identity()
        for blocks in self._basis_blocks():
            if not _agree(self.apply(e, blocks), blocks, tol):
                raise ValueError("action is not a homomorphism: alpha_e != id")
            for g, h in itertools.product(g_all, repeat=2):
                if not _agree(self.apply(g, self.apply(h, blocks)), self.apply(g * h, blocks), tol):
                    raise ValueError(f"action is not a homomorphism at ({g!r}, {h!r})")


def _agree(xs, ys, tol):
    """Every block of xs - ys has spectral norm at most tol."""
    return all(norm_at_most(x - y, tol) for x, y in zip(xs, ys))


def trivial_action(group, dims) -> BlockAction:
    els = group.elements(1)
    perm = tuple(range(len(dims)))
    eyes = [np.eye(d, dtype=complex) for d in dims]
    return BlockAction(group, dims, {g: perm for g in els}, {g: eyes for g in els})


class CrossedProductBackend(_BackendBase):
    """L(g,h) = A as blocks, plain composition, a (x) 1_r := alpha_r(a)."""

    kind = "crossed"

    def __init__(self, action: BlockAction):
        if not isinstance(action.group, FiniteGroup):
            raise ValueError("crossed products here need a finite group")
        # chained tensoring applies the automorphisms in reverse group order,
        # so the composition law forces them to commute pointwise
        if not action.group.is_abelian():
            for blocks in action._basis_blocks():
                for g, h in itertools.product(action.group.elements(1), repeat=2):
                    lhs = action.apply(g, action.apply(h, blocks))
                    if not _agree(lhs, action.apply(h, action.apply(g, blocks)), 1e-12):
                        raise ValueError(
                            "tensoring by automorphisms needs a commuting image "
                            f"(fails at ({g!r}, {h!r}))"
                        )
        self.action = action
        self.sg = action.group
        self.slot_count = len(action.dims)
        # conjugation by a non-identity unitary mixes the entries of a block
        self.copies_entries = all(all(plain) for plain in action._plain.values())

    def shape(self, p, q):
        return [(d, d) for d in self.action.dims]

    def _tensor_blocks(self, xs, p, q, r):
        self.sg.check_same(r)
        return self.action.apply(r, xs)


class BundleFiberFamily:
    """Fibers B_g with graded product and involution, closed over a backend."""

    def __init__(self, group: FiniteGroup, backend):
        self.group = group
        self.backend = backend
        self.elements = group.elements(1)

    def shape(self, g):
        return self.backend.shape(g, self.group.identity())

    def fiber_dim(self, g):
        return sum(r * c for r, c in self.shape(g))

    def mul(self, g, a_blocks, h, b_blocks):
        """(b_g (x) 1_h) b_h in B_{gh}."""
        e, arrow = self.group.identity(), self.backend.arrow
        return self._mul(g, arrow(g, e, a_blocks).blocks, h, arrow(h, e, b_blocks).blocks)

    def _mul(self, g, xs, h, ys):
        """mul on checked blocks, which may carry leading stack axes."""
        e, be = self.group.identity(), self.backend
        return be._compose_blocks(be._tensor_blocks(xs, g, e, h), ys, g * h, h, e)

    def star(self, g, a_blocks):
        """b_g^* (x) 1_{g^-1} in B_{g^-1}."""
        e = self.group.identity()
        a = self.backend.arrow(g, e, a_blocks)
        return a.adjoint().rtensor(self.group.inverse(g)).blocks

    def basis(self, g):
        e = self.group.identity()
        return [a.blocks for a in self.backend.basis(g, e)]

    def random_fiber(self, g, rng):
        e = self.group.identity()
        return self.backend.random_arrow(g, e, rng).blocks

    def fiber_norm(self, blocks):
        return max((spectral_norm(b) for b in blocks), default=0.0)


def bundle_from_precategory(backend) -> BundleFiberFamily:
    if not isinstance(backend.sg, FiniteGroup):
        raise ValueError("fiber bundles need a finite group instance")
    return BundleFiberFamily(backend.sg, backend)


class BundleBackend(_BackendBase):
    """L(g,h) := B_{gh^-1}; composition via the bundle product, identity
    right-tensoring (grades are invariant under right translation)."""

    kind = "bundle"
    copies_entries = True

    def __init__(self, bundle: BundleFiberFamily):
        self.bundle = bundle
        self.sg = bundle.group
        self.slot_count = bundle.backend.slot_count

    def _grade(self, g, h):
        return g * self.sg.inverse(h)

    def shape(self, p, q):
        return self.bundle.shape(self._grade(p, q))

    def _compose_blocks(self, xs, ys, p, q, t):
        return self.bundle._mul(self._grade(p, q), xs, self._grade(q, t), ys)

    def _compose_class(self, p, q, t):
        # the graded product reads the two grades
        return self._grade(p, q), self._grade(q, t)

    def _adjoint(self, a):
        s = self._grade(a.range, a.source)
        return Arrow(self, a.source, a.range, self.bundle.star(s, a.blocks))

    def _tensor_blocks(self, xs, p, q, r):
        self.sg.check_same(r)
        return list(xs)


def precategory_from_bundle(bundle: BundleFiberFamily) -> BundleBackend:
    return BundleBackend(bundle)


def semidirect_bundle(action: BlockAction) -> BundleFiberFamily:
    """The crossed-product bundle of the action (fibers all equal to A)."""
    return bundle_from_precategory(CrossedProductBackend(action))


# -- regular representation -----------------------------------------------------


class RegularRep(ConcreteRep):
    """Left convolution on H = ⊕_k B_k, kept as one matrix per colour.

    Block (sk, k) of M_c(b), b in B_s, is colour c of (b (x) 1_k) 1_k.  phi
    scatters kron(M_c, 1_{d_c}) into H through pos_c, whose row (k, i) and
    column j is the coordinate of entry (i, j) of colour c of B_k.
    """

    def __init__(self, bundle: BundleFiberFamily):
        G = sorted(bundle.elements, key=bundle.group.sort_key)
        shapes = {tuple(bundle.shape(g)) for g in G}
        if len(shapes) != 1 or any(r != c for r, c in next(iter(shapes))):
            raise ValueError("the regular representation needs square fibers of one shape per colour")
        self.dims = [d for d, _ in shapes.pop()]
        fiber = sum(d * d for d in self.dims)
        super().__init__(precategory_from_bundle(bundle), len(G) * fiber, None, label="regular")
        self._G, self._index = G, {g: i for i, g in enumerate(G)}
        self._e, self._eyes = bundle.group.identity(), [np.eye(d, dtype=complex) for d in self.dims]
        corners = np.cumsum([0] + [d * d for d in self.dims])
        self._pos = [
            (fiber * np.arange(len(G))[:, None, None] + corner
             + d * np.arange(d)[:, None] + np.arange(d)).reshape(len(G) * d, d)
            for d, corner in zip(self.dims, corners)
        ]

    def colour_blocks(self, s, blocks):
        """[M_c], one |G|·d_c matrix per colour (a stack of them for stacked
        blocks) for blocks of grade s.  Block (sk, k) is the graded product
        (b (x) 1_k) 1_k, one broadcast per (k, colour); the product with 1_k
        applies the action of k, which b (x) 1_k alone may not."""
        ms = [np.zeros((*blocks[0].shape[:-2], len(self._G) * d, len(self._G) * d), dtype=complex)
              for d in self.dims]
        for i, k in enumerate(self._G):
            j = self._index[s * k]
            for m, d, x in zip(ms, self.dims, self.backend.bundle._mul(s, blocks, k, self._eyes)):
                m[..., j * d : (j + 1) * d, i * d : (i + 1) * d] = x
        return ms

    def phi(self, arrow):
        m = np.zeros((self.dim, self.dim), dtype=complex)
        ms = self.colour_blocks(self.backend._grade(arrow.range, arrow.source), arrow.blocks)
        for pos, mc in zip(self._pos, ms):
            m[pos[:, None, :], pos[None, :, :]] = mc[:, :, None]
        return m

    def _flat(self, s, blocks):
        """√d_c · vec(M_c) concatenated over the colours, on the last axis."""
        ms = self.colour_blocks(s, blocks)
        return np.concatenate(
            [np.sqrt(d) * m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1])
             for d, m in zip(self.dims, ms)], axis=-1
        )

    def flat(self, arrow):
        return self._flat(self.backend._grade(arrow.range, arrow.source), arrow.blocks)

    def basis_images(self, p, q):
        return self._flat(self.backend._grade(p, q), self.backend.basis_stack(p, q, self.ideal))


def regular_representation(bundle: BundleFiberFamily) -> RegularRep:
    """Left convolution on H = ⊕_g B_g with Hilbert-Schmidt coordinates."""
    return RegularRep(bundle)


def _section_colour_blocks(bundle: BundleFiberFamily, fam, rep):
    """The rep and Σ_g M_c(fam[g]) per colour, summed from zeros in section order."""
    rep = rep if rep is not None else regular_representation(bundle)
    if not isinstance(rep, RegularRep):
        raise TypeError("rep must be the bundle's regular_representation")
    totals = [np.zeros((len(bundle.elements) * d,) * 2, dtype=complex) for d in rep.dims]
    for g, blocks in fam.items():
        for t, m in zip(totals, rep.colour_blocks(g, rep.backend.arrow(g, rep._e, blocks).blocks)):
            t += m
    return rep, totals


def regular_spectrum(bundle: BundleFiberFamily, fam, rep: RegularRep = None):
    """Eigenvalues of the section's image: those of each Σ_g M_c, d_c times each."""
    rep, totals = _section_colour_blocks(bundle, fam, rep)
    return np.sort_complex(
        np.concatenate([np.repeat(np.linalg.eigvals(t), d) for d, t in zip(rep.dims, totals)])
    )


def image_algebra_rank(bundle: BundleFiberFamily, rep: ConcreteRep = None, tol=1e-8):
    """Linear dimension of the image of ⊕_g B_g under the regular representation.

    Left convolution by b in B_s maps B_k into B_{sk}, so the images of
    distinct grades have disjoint supports and the singular values of all the
    images together are the union of the per-grade ones.  One SVD per grade,
    then the cutoff tol times the largest value over all grades: the same
    count as one SVD of every image stacked.  Each grade's basis is mapped at
    once by rep.basis_images, which on a RegularRep never builds phi; any rep
    whose grades have overlapping supports raises.
    """
    rep = rep if rep is not None else regular_representation(bundle)
    e = bundle.group.identity()
    seen, values = False, []
    for g in bundle.elements:
        images = rep.basis_images(g, e)
        support = images.any(axis=0)
        if (seen & support).any():
            raise ValueError(f"images of grade {g!r} overlap those of another grade")
        seen = seen | support
        values.append(span_singular_values(images))
    return rank_of_values(np.concatenate(values), tol)
