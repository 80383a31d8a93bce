"""Bundle examples and section algebra that no scenario check, CLI command or
benchmark job runs: the swap and conjugation actions, the group algebra
bundle, the bundle-law check with its fiber norm, and the star, convolution
and norm of sections."""

import itertools

import numpy as np

from ntforge.analysis import CheckReport
from ntforge.bundles import (
    BlockAction,
    BundleFiberFamily,
    RegularRep,
    _section_colour_blocks,
    semidirect_bundle,
    trivial_action,
)
from ntforge.linalg import spectral_norm
from ntforge.semigroups import FiniteGroup


def swap_action(group, dim=1) -> BlockAction:
    """The nontrivial element of an order-2 group swaps two slots of size dim."""
    els = group.elements(1)
    if len(els) != 2:
        raise ValueError("swap action needs a group of order 2")
    e = group.identity()
    (u,) = [g for g in els if g != e]
    dims = (dim, dim)
    eyes = [np.eye(dim, dtype=complex)] * 2
    return BlockAction(group, dims, {e: (0, 1), u: (1, 0)}, {e: eyes, u: eyes})


def conjugation_action(group, unitaries_for) -> BlockAction:
    """Inner-type action: each g conjugates slotwise by given unitaries."""
    els = group.elements(1)
    dims = [u.shape[0] for u in unitaries_for[group.identity()]]
    perm = tuple(range(len(dims)))
    return BlockAction(group, dims, {g: perm for g in els}, unitaries_for)


def group_algebra_bundle(group: FiniteGroup) -> BundleFiberFamily:
    return semidirect_bundle(trivial_action(group, [1]))


def fiber_norm(blocks) -> float:
    """The largest spectral norm of a fiber element's blocks."""
    return max((spectral_norm(b) for b in blocks), default=0.0)


def check_bundle_laws(bundle: BundleFiberFamily, samples=4, seed=0, tol=1e-10):
    """Associativity, involution laws, and the C*-identity on B_e."""
    rng = np.random.default_rng(seed)
    G = bundle.elements
    e = bundle.group.identity()
    inv = bundle.group.inverse
    failures = []
    for _ in range(samples):
        g, h, k = (rng.choice(G) for _ in range(3))
        a, b, c = (
            bundle.random_fiber(g, rng),
            bundle.random_fiber(h, rng),
            bundle.random_fiber(k, rng),
        )
        lhs = bundle.mul(g * h, bundle.mul(g, a, h, b), k, c)
        rhs = bundle.mul(g, a, h * k, bundle.mul(h, b, k, c))
        if fiber_norm([x - y for x, y in zip(lhs, rhs)]) > tol:
            failures.append(("associativity", g, h, k))
        dstar = bundle.star(inv(g), bundle.star(g, a))
        if fiber_norm([x - y for x, y in zip(dstar, a)]) > tol:
            failures.append(("star-involutive", g))
        lhs = bundle.star(g * h, bundle.mul(g, a, h, b))
        rhs = bundle.mul(inv(h), bundle.star(h, b), inv(g), bundle.star(g, a))
        if fiber_norm([x - y for x, y in zip(lhs, rhs)]) > tol:
            failures.append(("star-antimultiplicative", g, h))
        # B_e is an honest C*-algebra: tensoring by e is the identity, so the
        # fiber norm is the C*-norm for the e-graded product
        ae = bundle.random_fiber(e, rng)
        aa = bundle.mul(e, bundle.star(e, ae), e, ae)
        want = fiber_norm(ae) ** 2
        if abs(fiber_norm(aa) - want) > tol * max(1.0, want):
            failures.append(("cstar-identity", e))
    return CheckReport("bundle-laws", not failures, {"failures": failures})


def section_star(bundle: BundleFiberFamily, fam):
    return {bundle.group.inverse(g): bundle.star(g, blocks) for g, blocks in fam.items()}


def section_conv(bundle: BundleFiberFamily, fam1, fam2):
    out = {}
    for (g, a), (h, b) in itertools.product(fam1.items(), fam2.items()):
        gh = g * h
        blocks = bundle.mul(g, a, h, b)
        if gh in out:
            out[gh] = [x + y for x, y in zip(out[gh], blocks)]
        else:
            out[gh] = blocks
    return out


def section_norm(bundle: BundleFiberFamily, fam, rep: RegularRep = None) -> float:
    """Reduced (= full, by finiteness) norm of a finitely supported section."""
    _, totals = _section_colour_blocks(bundle, fam, rep)
    return max((spectral_norm(t) for t in totals), default=0.0)
