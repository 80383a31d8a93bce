"""Finite-dimensional right-tensor C*-precategories over a right LCM semigroup.

Two backends share one arrow model:

* :class:`ColoredProductSystem` -- morphism spaces L(p,q) are direct sums of
  full rectangular matrix blocks, one per "color", with block shapes given by
  a multiplicative dimension function on the semigroup.  Right tensoring by r
  is Kronecker ampliation with the identity on the right factor.
* :class:`ZeroTensorBackend` -- objects are naturals, off-diagonal morphism
  spaces are zero, diagonal ones are full matrix algebras, and tensoring by
  any r != e is the zero map.  This backend exists to witness failures of
  tensor-nondegeneracy.

Ideals are determined by their diagonal parts; in the block model that means
a subset of colors.  The structural checks run at a chosen depth: well-alignment
is sampled, essentiality reads the block shapes, and nondegeneracy and Cohen
factorization settle each pair by a unit certificate first, with a rank test
as the fallback where the certificate does not apply.

Stack axis: the blockwise hooks behind right tensoring (``_tensor_blocks``)
and composition (``_compose_blocks``) broadcast blocks with leading stack
axes, one arrow per index.  ``basis_stack`` gives the matrix-unit basis as
one such stack per colour (``basis`` slices it into arrows), so the
factorization certificate is one stacked product 1_p b per pair, through
the backend's own product (on a bundle, the graded one).
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .linalg import norm_at_most, rank_of_span, spectral_norm


class Arrow:
    """A morphism p <- q: one complex matrix block per slot (color)."""

    __slots__ = ("backend", "range", "source", "blocks")

    def __init__(self, backend, range_, source, blocks):
        blocks = tuple(np.ascontiguousarray(b, dtype=complex) for b in blocks)
        self._set(backend, range_, source, blocks)

    @classmethod
    def _derived(cls, backend, range_, source, blocks):
        """An arrow from blocks computed out of validated arrows: sums,
        products and ampliations of complex C-contiguous blocks are complex
        and C-contiguous already, so only the copy of the public path is
        skipped; shapes are still checked and blocks made read-only."""
        a = cls.__new__(cls)
        a._set(backend, range_, source, tuple(blocks))
        return a

    def _set(self, backend, range_, source, blocks):
        shapes = backend.shape(range_, source)
        if len(blocks) != len(shapes):
            raise ValueError(f"expected {len(shapes)} blocks, got {len(blocks)}")
        for b, sh in zip(blocks, shapes):
            if b.shape != sh:
                raise ValueError(f"block shape {b.shape} != {sh} for ({range_!r},{source!r})")
        for b in blocks:
            b.setflags(write=False)
        self.backend = backend
        self.range = range_
        self.source = source
        self.blocks = blocks

    def _like(self, other):
        if self.backend is not other.backend:
            raise ValueError("arrows from different backends")

    def __add__(self, other):
        self._like(other)
        if (self.range, self.source) != (other.range, other.source):
            raise ValueError("object mismatch in arrow sum")
        return Arrow._derived(
            self.backend, self.range, self.source,
            [x + y for x, y in zip(self.blocks, other.blocks)],
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return Arrow(self.backend, self.range, self.source, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def adjoint(self):
        return self.backend._adjoint(self)

    def rtensor(self, r):
        return self.backend._rtensor(self, r)

    def compose(self, other):
        self._composable(other)
        return self.backend._compose(self, other)

    def _composable(self, other):
        """Raise unless self's source is other's range in the same backend."""
        self._like(other)
        if self.source != other.range:
            raise ValueError(
                f"object mismatch: cannot compose source {self.source!r} with range {other.range!r}"
            )

    def norm(self):
        return max((spectral_norm(b) for b in self.blocks), default=0.0)

    def is_zero(self, tol=1e-12):
        """norm() <= tol, with the SVD only where the cheap bounds do not decide."""
        return all(norm_at_most(b, tol) for b in self.blocks)

    def flat(self):
        return np.concatenate([np.ravel(b) for b in self.blocks]) if self.blocks else np.zeros(0)

    def __repr__(self):
        return f"<arrow {self.range!r}<-{self.source!r} norm={self.norm():.3g}>"


class ColorIdeal:
    """The ideal of arrows supported on a fixed subset of slots."""

    __slots__ = ("colors",)

    def __init__(self, colors):
        self.colors = frozenset(colors)

    def __repr__(self):
        return f"<ideal colors={sorted(self.colors)}>"


def full_ideal(backend) -> ColorIdeal:
    return ColorIdeal(range(backend.slot_count))


def ideal_unit(backend, K: ColorIdeal, p) -> Arrow:
    """The unit 1_K of K(p,p): identity on the ideal's colors, 0 elsewhere."""
    blocks = []
    for c, (rows, cols) in enumerate(backend.shape(p, p)):
        if c in K.colors:
            blocks.append(np.eye(rows, dtype=complex))
        else:
            blocks.append(np.zeros((rows, cols), dtype=complex))
    return backend.arrow(p, p, blocks)


class _BackendBase:
    """Shared arrow constructors, blockwise product and adjoint; subclasses
    define shapes and right tensoring."""

    sg = None
    slot_count = 0
    copies_entries = False  # True where a x 1_r only copies or drops entries of a

    def shape(self, p, q):
        raise NotImplementedError

    def zero(self, p, q) -> Arrow:
        return Arrow(self, p, q, [np.zeros(sh, dtype=complex) for sh in self.shape(p, q)])

    def identity_arrow(self, p) -> Arrow:
        blocks = []
        for rows, cols in self.shape(p, p):
            assert rows == cols
            blocks.append(np.eye(rows, dtype=complex))
        return Arrow(self, p, p, blocks)

    def arrow(self, p, q, blocks) -> Arrow:
        return Arrow(self, p, q, blocks)

    def basis_stack(self, p, q, ideal=None):
        """The matrix units of L(p,q) (of K(p,q) when ideal given), colour by
        colour and row-major, as one stack per colour: unit k has the blocks
        stack[c][k]."""
        shapes = self.shape(p, q)
        sizes = [r * c if ideal is None or k in ideal.colors else 0 for k, (r, c) in enumerate(shapes)]
        units = np.split(np.eye(sum(sizes), dtype=complex), np.cumsum(sizes)[:-1], axis=1)
        return [u.reshape(len(u), *sh) if size else np.zeros((len(u), *sh), dtype=complex)
                for u, size, sh in zip(units, sizes, shapes)]

    def basis(self, p, q, ideal=None):
        """Matrix-unit arrows spanning L(p,q) (or K(p,q) when ideal given)."""
        return [Arrow(self, p, q, blocks) for blocks in zip(*self.basis_stack(p, q, ideal))]

    def random_arrow(self, p, q, rng, ideal=None) -> Arrow:
        colors = set(range(self.slot_count)) if ideal is None else ideal.colors
        shapes = self.shape(p, q)
        blocks = []
        for c, sh in enumerate(shapes):
            if c in colors:
                blocks.append(
                    np.array(
                        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(sh[1])]
                         for _ in range(sh[0])]
                    ).reshape(sh)
                )
            else:
                blocks.append(np.zeros(sh, dtype=complex))
        return Arrow(self, p, q, blocks)

    def space_dim(self, p, q, ideal=None) -> int:
        colors = range(self.slot_count) if ideal is None else sorted(ideal.colors)
        shapes = self.shape(p, q)
        return sum(shapes[c][0] * shapes[c][1] for c in colors)

    def _compose(self, a, b):
        return Arrow._derived(
            self, a.range, b.source, self._compose_blocks(a.blocks, b.blocks, a.range, a.source, b.source)
        )

    def _compose_blocks(self, xs, ys, p, q, t):
        """The blocks of a b, for a in L(p,q) and b in L(q,t) with blocks xs
        and ys, either with leading stack axes: slotwise matrix products."""
        return [x @ y for x, y in zip(xs, ys)]

    def _rtensor(self, a, r):
        if r == self.sg.one:
            return a
        return Arrow._derived(
            self, a.range * r, a.source * r, self._tensor_blocks(a.blocks, a.range, a.source, r)
        )

    def _tensor_blocks(self, xs, p, q, r):
        """The blocks of a x 1_r for the blocks xs of a in L(p,q), which may
        carry leading stack axes."""
        raise NotImplementedError

    def _adjoint(self, a):
        return Arrow(self, a.source, a.range, [b.conj().T for b in a.blocks])

    @staticmethod
    def _coo(a):
        """Per-slot COO triples (rows, cols, vals) of the nonzeros of a."""
        out = []
        for b in a.blocks:
            i, j = np.nonzero(b)
            out.append((i, j, b[i, j]))
        return out

    def _rtensor_coo(self, a, r, coo):
        """a x 1_r as per-slot COO triples of its nonzeros; coo = _coo(a),
        taken once per arrow by callers that amplify it many times."""
        return self._coo(self._rtensor(a, r))

    #: None: the product L(p,q) x L(q,t) reads only the blocks.  A backend whose
    #: product reads the objects defines _compose_class(p, q, t), a hashable
    #: key on which the product depends beside the block shapes.
    _compose_class = None

    def _ampliation_class(self, r):
        """A hashable key on which a x 1_r depends alone, for every arrow a:
        r itself unless the backend knows a coarser one."""
        return r


def _amplify(b, d):
    """kron(b, 1_d) on the last two axes: b written into the diagonal slices
    of an (..., m, d, n, d) array."""
    lead, (m, n) = b.shape[:-2], b.shape[-2:]
    out = np.zeros(lead + (m, d, n, d), dtype=complex)
    k = np.arange(d)
    out[..., k, :, k] = b
    return out.reshape(lead + (m * d, n * d))


class ColoredProductSystem(_BackendBase):
    """Block-matrix morphism spaces with a multiplicative dimension function.

    gen_dims maps each generator (in sg.generators() order) to its per-color
    dimension tuple; dim(p) is the product over the abelianized generator
    exponents of p.  Validation rejects dimension data that the semigroup's
    relations make non-multiplicative (the absorption monoid forces dimension
    1 on its absorbed generator).
    """

    kind = "colored"
    copies_entries = True

    def __init__(self, sg, gen_dims=(), colors=None, check_depth=3):
        self.sg = sg
        gens = sg.generators()
        gen_dims = [tuple(int(d) for d in row) for row in gen_dims]
        if len(gen_dims) != len(gens):
            raise ValueError(f"need dims for all {len(gens)} generators, got {len(gen_dims)}")
        if colors is None:
            if not gen_dims:
                raise ValueError("colors must be given explicitly when there are no generators")
            colors = len(gen_dims[0])
        if any(len(row) != colors for row in gen_dims):
            raise ValueError("all generator dim tuples must have one entry per color")
        if any(d < 1 for row in gen_dims for d in row):
            raise ValueError("dims must be >= 1")
        self.slot_count = int(colors)
        self.gen_dims = gen_dims
        self._dim_cache = {}
        self._validate(check_depth)

    def dim(self, p):
        cached = self._dim_cache.get(p.data)
        if cached is None:
            dims = [1] * self.slot_count
            for row, e in zip(self.gen_dims, self.sg._exps(p.data)):
                if e:
                    for c, d in enumerate(row):
                        dims[c] *= d**e
            cached = self._dim_cache[p.data] = tuple(dims)
        return cached

    def shape(self, p, q):
        return list(zip(self.dim(p), self.dim(q)))

    def _validate(self, depth):
        e = self.sg.identity()
        if self.dim(e) != (1,) * self.slot_count:
            raise ValueError("identity must have dimension 1 in every color")
        els = self.sg.elements(depth)
        for p, q in itertools.product(els, repeat=2):
            want = tuple(a * b for a, b in zip(self.dim(p), self.dim(q)))
            if self.dim(p * q) != want:
                raise ValueError(
                    f"dimension function is not multiplicative on the pair "
                    f"({p!r}, {q!r}): dim({p * q!r}) = {self.dim(p * q)}, "
                    f"dim({p!r})*dim({q!r}) = {want}"
                )

    def _tensor_blocks(self, xs, p, q, r):
        # blocks are read-only, so a color with dim 1 shares the block itself
        return [b if d == 1 else _amplify(b, d) for b, d in zip(xs, self.dim(r))]

    def _ampliation_class(self, r):
        # a x 1_r is the kron with 1_{dim(r)[c]} in every color
        return self.dim(r)

    def _rtensor_coo(self, a, r, coo):
        # kron(b, 1_d) holds b[i, j] at (i d + k, j d + k) for k < d
        out = []
        for (i, j, vals), d in zip(coo, self.dim(r)):
            if d > 1:
                k = np.arange(d)
                i = (i[:, None] * d + k).ravel()
                j = (j[:, None] * d + k).ravel()
                vals = np.repeat(vals, d)
            out.append((i, j, vals))
        return out


class ZeroTensorBackend(_BackendBase):
    """Objects 0,1,2,... with L(n,m) = 0 for n != m and zero right tensoring.

    Diagonal spaces are full matrix algebras of the given sizes.  Tensoring by
    r != 0 is the zero map, so the full ideal is not tensor-nondegenerate --
    the point of this backend.
    """

    kind = "zero"
    slot_count = 1
    copies_entries = True

    def __init__(self, dims, sg=None):
        from .semigroups import DirectSumN

        self.sg = sg if sg is not None else DirectSumN(1)
        self.dims = [int(d) for d in dims]
        if any(d < 1 for d in self.dims):
            raise ValueError("object dims must be >= 1")

    def _d(self, p):
        n = p.data[0]
        if n >= len(self.dims):
            return self.dims[-1]
        return self.dims[n]

    def shape(self, p, q):
        return [(self._d(p), self._d(q))]

    def basis_stack(self, p, q, ideal=None):
        if p != q:
            return [np.zeros((0, *sh), dtype=complex) for sh in self.shape(p, q)]
        return super().basis_stack(p, q, ideal)

    def random_arrow(self, p, q, rng, ideal=None):
        if p != q:
            return self.zero(p, q)
        return super().random_arrow(p, q, rng, ideal)

    def space_dim(self, p, q, ideal=None):
        return 0 if p != q else super().space_dim(p, q, ideal)

    def _tensor_blocks(self, xs, p, q, r):
        if r == self.sg.one:
            return list(xs)
        lead = xs[0].shape[:-2]
        return [np.zeros((*lead, *sh), dtype=complex) for sh in self.shape(p * r, q * r)]


def ideal_membership(a: Arrow, K: ColorIdeal, tol=1e-12) -> bool:
    """a lies in K(range, source): blocks off the ideal's colors vanish."""
    return blocks_in_ideal(a.blocks, K, tol)


def blocks_in_ideal(blocks, K: ColorIdeal, tol=1e-12) -> bool:
    """ideal_membership on an arrow's blocks alone."""
    return all(c in K.colors or norm_at_most(b, tol) for c, b in enumerate(blocks))


class StructureReport:
    """A structure verdict: how many pairs were checked, how many of them the
    unit certificate settled exactly (the rest took the rank test), and the
    failures."""

    def __init__(self, name, ok, checked, failures, certified=0):
        self.name = name
        self.ok = ok
        self.checked = checked
        self.certified = certified
        self.failures = failures

    def __repr__(self):
        verdict = "pass" if self.ok else "fail"
        return f"<{self.name} {verdict}: {self.checked} checks, {len(self.failures)} failures>"


def check_well_aligned(backend, K: ColorIdeal, depth: int, seed=0, samples=2, tol=1e-12):
    """Aligned products of ideal arrows stay in the ideal, and K tensor 1 <= K.

    For q,s admitting right LCM r and arrows a in K(p,q), b in K(s,t), the
    product (a x 1_{q^-1 r})(b x 1_{s^-1 r}) must lie in K(p q^-1 r, t s^-1 r).
    """
    sg = backend.sg
    rng = random.Random(seed)
    els = sg.elements(depth)
    failures = []
    checked = 0
    for q, s in itertools.product(els, repeat=2):
        r = sg.right_lcm(q, s)
        if r is None:
            continue
        qr, sr = sg.left_divide(q, r), sg.left_divide(s, r)
        pts = [(q, s)] + [(rng.choice(els), rng.choice(els)) for _ in range(samples)]
        for p, t in pts:
            a = backend.random_arrow(p, q, rng, ideal=K)
            b = backend.random_arrow(s, t, rng, ideal=K)
            prod = a.rtensor(qr).compose(b.rtensor(sr))
            checked += 1
            if (prod.range, prod.source) != (p * qr, t * sr):
                failures.append(((p, q, s, t), "aligned product has wrong objects"))
            elif not ideal_membership(prod, K, tol):
                failures.append(((p, q, s, t), "aligned product escapes the ideal"))
            checked += 1
            rr = rng.choice(els)
            if not ideal_membership(a.rtensor(rr), K, tol):
                failures.append(((p, q, rr), "K tensor 1 escapes the ideal"))
    return StructureReport("well-aligned", not failures, checked, failures)


def check_nondegenerate(backend, K: ColorIdeal, depth: int, tol=1e-8):
    """(K(p,p) x 1_r) K(pr,pr) spans K(pr,pr), for non-unit p.

    Unit certificate first: when 1_K(p) x 1_r equals 1_K(pr) entry for
    entry, (1_K(p) x 1_r) v = v for every v in K(pr,pr), so the products span
    K(pr,pr) exactly.  Rank test as fallback, for the pairs whose tensoring
    kills or moves the unit (ZeroTensorBackend): the numerical rank of the
    products of basis arrows must reach dim K(pr,pr).
    """
    sg = backend.sg
    els = sg.elements(depth)
    failures = []
    checked = certified = 0
    for p in els:
        if sg.is_unit(p):
            continue
        unit_p = ideal_unit(backend, K, p)
        for r in els:
            pr = p * r
            target = backend.space_dim(pr, pr, ideal=K)
            if target == 0:
                continue
            checked += 1
            if all(map(np.array_equal, unit_p.rtensor(r).blocks, ideal_unit(backend, K, pr).blocks)):
                certified += 1
                continue
            left = [u.rtensor(r) for u in backend.basis(p, p, ideal=K)]
            right = backend.basis(pr, pr, ideal=K)
            prods = [l.compose(v).flat() for l in left for v in right]
            if rank_of_span(prods, tol) < target:
                failures.append(((p, r), f"span deficient (target {target})"))
    return StructureReport("tensor-nondegenerate", not failures, checked, failures, certified)


def check_essential(backend, K: ColorIdeal, depth: int):
    """K(p,p) essential in L(p,p): no nonzero block outside the ideal's colors."""
    sg = backend.sg
    failures = []
    checked = 0
    for p in sg.elements(depth):
        checked += 1
        shapes = backend.shape(p, p)
        bad = [
            c for c in range(backend.slot_count)
            if c not in K.colors and shapes[c][0] * shapes[c][1] > 0
        ]
        if bad:
            failures.append((p, f"colors {bad} annihilate the ideal"))
    return StructureReport("essential", not failures, checked, failures)


def check_factorization(backend, depth: int, tol=1e-8):
    """L(p,p) L(p,q) spans L(p,q) (finite-dimensional Cohen factorization).

    Unit certificate first: when 1_p b = b entry for entry for every basis
    arrow b of L(p,q), the products already contain that basis.  Rank test as
    fallback, for compositions that do not reproduce b exactly: the numerical
    rank of all products of basis arrows must reach dim L(p,q).  Both take
    one stacked product per pair through the backend's own product.
    """
    sg = backend.sg
    els = sg.elements(depth)
    failures = []
    checked = certified = 0
    for p in els:
        one = backend.identity_arrow(p).blocks
        for q in els:
            target = backend.space_dim(p, q)
            if target == 0:
                continue
            checked += 1
            right = backend.basis_stack(p, q)
            if all(map(np.array_equal, backend._compose_blocks(one, right, p, p, q), right)):
                certified += 1
                continue
            left = backend.basis_stack(p, p)
            prods = backend._compose_blocks([x[:, None] for x in left], [y[None] for y in right], p, p, q)
            n = len(left[0]) * target
            if rank_of_span(np.concatenate([b.reshape(n, -1) for b in prods], axis=1), tol) < target:
                failures.append(((p, q), "factorization span deficient"))
    return StructureReport("factorization", not failures, checked, failures, certified)

