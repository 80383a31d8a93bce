import itertools
import random

import numpy as np
import pytest

from ntforge.bundles import (
    CrossedProductBackend,
    bundle_from_precategory,
    precategory_from_bundle,
    semidirect_bundle,
    trivial_action,
)
from ntforge.linalg import rank_of_span
from ntforge.precategory import (
    Arrow,
    ColorIdeal,
    ColoredProductSystem,
    ZeroTensorBackend,
    _BackendBase,
    check_essential,
    check_factorization,
    check_nondegenerate,
    check_well_aligned,
    full_ideal,
    ideal_membership,
)
from ntforge.semigroups import (
    AbsorptionMonoid,
    DirectSumN,
    UnitExtension,
    cyclic_group,
    free_monoid,
    symmetric_group_3,
)
from algebra_oracles import adjoint, compose, rtensor
from bundle_oracles import conjugation_action, swap_action

N = DirectSumN(1)
FM = free_monoid("ab")


def colored_N(dims=(2,)):
    return ColoredProductSystem(N, gen_dims=[dims])


def colored_FM(d_a=(2, 1), d_b=(1, 3)):
    return ColoredProductSystem(FM, gen_dims=[d_a, d_b])


def test_dims_multiply_along_words():
    ps = colored_FM()
    assert ps.dim(FM.parse("e")) == (1, 1)
    assert ps.dim(FM.parse("ab")) == (2, 3)
    assert ps.dim(FM.parse("a^2b")) == (4, 3)


def test_nonmultiplicative_dims_rejected_with_pair():
    with pytest.raises(ValueError, match="not multiplicative"):
        ColoredProductSystem(AbsorptionMonoid(), gen_dims=[(2,), (2,)])
    # absorbed generator with dimension 1 is fine
    ColoredProductSystem(AbsorptionMonoid(), gen_dims=[(3,), (1,)])


def test_compose_scalar_example():
    ps = colored_N()
    e, one = N.parse("0"), N.parse("1")
    a = ps.arrow(one, e, [np.array([[1.0], [2.0]])])
    s = ps.arrow(e, e, [np.array([[3.0]])])
    out = compose(a, s)
    assert np.allclose(out.blocks[0], [[3.0], [6.0]])
    with pytest.raises(ValueError, match="mismatch"):
        compose(s, a)


def test_adjoint_involution_and_positivity():
    ps = colored_FM()
    rng = random.Random(1)
    a = ps.random_arrow(FM.parse("ab"), FM.parse("a"), rng)
    assert all(
        np.array_equal(x, y)
        for x, y in zip(adjoint(adjoint(a)).blocks, a.blocks)
    )
    pos = compose(a, adjoint(a))
    for b in pos.blocks:
        evals = np.linalg.eigvalsh(b)
        assert evals.min() >= -1e-12


def test_cstar_identity():
    ps = colored_FM()
    rng = random.Random(2)
    for _ in range(10):
        a = ps.random_arrow(FM.parse("a^2"), FM.parse("b"), rng)
        assert abs(compose(adjoint(a), a).norm() - a.norm() ** 2) <= 1e-10 * max(
            1.0, a.norm() ** 2
        )


def test_rtensor_kron_shape_and_laws():
    ps = colored_N(dims=(2,))
    one, two, three = N.parse("1"), N.parse("2"), N.parse("3")
    rng = random.Random(3)
    a = ps.random_arrow(one, two, rng)  # 2x4 block
    t = rtensor(a, one)
    assert t.blocks[0].shape == (4, 8)
    assert np.array_equal(t.blocks[0], np.kron(a.blocks[0], np.eye(2)))
    # x 1_r then x 1_s equals x 1_{rs}, bit-exact
    assert np.array_equal(
        rtensor(rtensor(a, one), two).blocks[0], rtensor(a, three).blocks[0]
    )
    assert np.array_equal(
        adjoint(rtensor(a, two)).blocks[0], rtensor(adjoint(a), two).blocks[0]
    )
    # isometric and multiplicative
    assert abs(t.norm() - a.norm()) <= 1e-12
    b = ps.random_arrow(two, one, rng)
    lhs = rtensor(compose(a, b), two)
    rhs = compose(rtensor(a, two), rtensor(b, two))
    assert np.allclose(lhs.blocks[0], rhs.blocks[0], atol=1e-12)


def test_unit_tensoring_is_reversible():
    from ntforge.semigroups import UnitExtension

    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    ps = ColoredProductSystem(ext, gen_dims=[(2,)])
    x = ext.parse("(0,1)")
    rng = random.Random(4)
    a = ps.random_arrow(ext.parse("(2,0)"), ext.parse("(1,1)"), rng)
    back = rtensor(rtensor(a, x), x)  # x has order 2
    assert back.range == a.range and back.source == a.source
    assert np.array_equal(back.blocks[0], a.blocks[0])


def test_ideal_membership_and_diagonal_characterization():
    ps = colored_FM()
    K = ColorIdeal({0})
    rng = random.Random(5)
    p, q = FM.parse("a"), FM.parse("ab")
    a = ps.random_arrow(p, q, rng, ideal=K)
    assert ideal_membership(a, K)
    assert ideal_membership(compose(adjoint(a), a), K)
    full = ps.random_arrow(p, q, rng)
    assert ideal_membership(full, full_ideal(ps))
    only_second = ps.random_arrow(p, q, rng, ideal=ColorIdeal({1}))
    assert not ideal_membership(only_second, K)


@pytest.mark.parametrize("colors", [{0}, {1}, {0, 1}])
def test_well_aligned_colored(colors):
    ps = colored_FM(d_a=(2, 1), d_b=(1, 2))
    report = check_well_aligned(ps, ColorIdeal(colors), depth=2, seed=0)
    assert report.ok, report.failures[:3]


def test_well_aligned_zero_backend():
    zb = ZeroTensorBackend([1, 2, 2, 3])
    report = check_well_aligned(zb, full_ideal(zb), depth=3, seed=0)
    assert report.ok, report.failures[:3]


def test_nondegenerate_colored_passes():
    ps = colored_FM(d_a=(2, 1), d_b=(1, 2))  # keep fiber growth tame
    report = check_nondegenerate(ps, full_ideal(ps), depth=2)
    assert report.ok, report.failures[:3]
    sub = check_nondegenerate(ps, ColorIdeal({1}), depth=1)
    assert sub.ok


def test_nondegenerate_zero_backend_fails_off_identity():
    zb = ZeroTensorBackend([2, 2, 2, 2, 2])
    report = check_nondegenerate(zb, full_ideal(zb), depth=2)
    assert not report.ok
    bad = {(repr(p), repr(r)) for (p, r), _ in report.failures}
    assert ("1", "1") in bad
    # only r = e survives
    assert all(r != "0" for _, r in bad)


def test_nondegenerate_group_vacuous():
    g = cyclic_group(3)
    ps = ColoredProductSystem(g, gen_dims=[], colors=2)
    report = check_nondegenerate(ps, full_ideal(ps), depth=1)
    assert report.ok and report.checked == 0


def test_essential_reports():
    ps = colored_FM()
    assert check_essential(ps, full_ideal(ps), depth=2).ok
    partial = check_essential(ps, ColorIdeal({0}), depth=2)
    assert not partial.ok


def test_factorization_spans():
    ps = colored_FM()
    assert check_factorization(ps, depth=1).ok
    zb = ZeroTensorBackend([2, 3])
    assert check_factorization(zb, depth=1).ok


def test_group_backend_has_scalar_fibers():
    g = cyclic_group(2)
    ps = ColoredProductSystem(g, gen_dims=[], colors=3)
    assert ps.dim(g.parse("1")) == (1, 1, 1)
    a = ps.identity_arrow(g.parse("0"))
    assert a.norm() == 1.0


def test_rtensor_shares_dim_one_blocks_and_krons_the_rest():
    ps = colored_FM(d_a=(2, 1), d_b=(1, 3))
    rng = random.Random(17)
    p, q, r = FM.parse("ab"), FM.parse("b"), FM.parse("a")  # dim(a) = (2, 1)
    a = ps.random_arrow(p, q, rng)
    t = a.rtensor(r)
    assert t.blocks[1] is a.blocks[1]
    assert np.array_equal(t.blocks[0], np.kron(a.blocks[0], np.eye(2)))
    assert not t.blocks[1].flags.writeable
    for c, (i, j, vals) in enumerate(ps._rtensor_coo(a, r, ps._coo(a))):
        dense = np.zeros(t.blocks[c].shape, dtype=complex)
        dense[i, j] = vals
        assert np.array_equal(dense, t.blocks[c])
        assert len(vals) == np.count_nonzero(t.blocks[c])
    assert a.rtensor(FM.identity()) is a
    for w in ["b", "ab", "a^2b^2"]:  # dims (1, 3), (2, 3), (4, 9)
        t = a.rtensor(FM.parse(w))
        for b, tb, d in zip(a.blocks, t.blocks, ps.dim(FM.parse(w))):
            assert np.array_equal(tb, np.kron(b, np.eye(d)))


def _contract_backends():
    crossed = CrossedProductBackend(swap_action(cyclic_group(2), dim=2))
    return [
        colored_FM(),
        ZeroTensorBackend([2, 3]),
        crossed,
        precategory_from_bundle(bundle_from_precategory(crossed)),
    ]


@pytest.mark.parametrize("ps", _contract_backends(), ids=lambda ps: ps.kind)
def test_derived_arrows_keep_the_block_contract(ps):
    # +, compose and rtensor build their arrows without the public copy;
    # every block must still have the backend's shape and be a read-only,
    # complex, C-contiguous array
    rng = random.Random(f"contract-{ps.kind}")
    pool = ps.sg.elements(2)
    for _ in range(12):
        p, q, t, r = (rng.choice(pool) for _ in range(4))
        a, a2 = ps.random_arrow(p, q, rng), ps.random_arrow(p, q, rng)
        b = ps.random_arrow(q, t, rng)
        for x in (a + a2, a.compose(b), a.rtensor(r), a.rtensor(r).compose(b.rtensor(r))):
            assert [blk.shape for blk in x.blocks] == list(ps.shape(x.range, x.source))
            for blk in x.blocks:
                assert blk.dtype == complex and blk.flags.c_contiguous
                assert not blk.flags.writeable
    p, q = pool[0], pool[-1]
    wrong = [np.zeros((rows + 1, cols), dtype=complex) for rows, cols in ps.shape(p, q)]
    with pytest.raises(ValueError, match="block shape"):
        Arrow._derived(ps, p, q, wrong)


def test_arrow_is_zero_keeps_the_spectral_verdict():
    # max|entry| <= |A|_2 <= |A|_F: the shortcuts decide outside that band,
    # the SVD inside it; the verdict must equal norm() <= tol everywhere
    ps = colored_N(dims=(3,))
    rng = np.random.default_rng(23)
    p = N.parse("1")
    tol = 1e-3
    seen = set()
    for _ in range(300):
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if rng.random() < 0.3:
            b = np.outer(b[0], b[1])  # rank one: |A|_2 = |A|_F
        b *= tol * rng.uniform(0.2, 2.0) / np.linalg.norm(b, 2)
        a = ps.arrow(p, p, [b])
        assert a.is_zero(tol) == (a.norm() <= tol)
        seen.add((np.abs(b).max() > tol, np.linalg.norm(b) <= tol, a.norm() <= tol))
    assert (False, False, True) in seen and (False, False, False) in seen
    assert ps.zero(p, p).is_zero(tol=0)


# -- unit certificates against the pure rank path ------------------------------


def _rank_nondegenerate(backend, K, depth, tol=1e-8):
    """The rank test alone on every pair: (ok, checked, failures)."""
    sg = backend.sg
    els = sg.elements(depth)
    failures = []
    checked = 0
    for p in els:
        if sg.is_unit(p):
            continue
        for r in els:
            pr = p * r
            target = backend.space_dim(pr, pr, ideal=K)
            if target == 0:
                continue
            checked += 1
            left = [u.rtensor(r) for u in backend.basis(p, p, ideal=K)]
            right = backend.basis(pr, pr, ideal=K)
            if rank_of_span([l.compose(v).flat() for l in left for v in right], tol) < target:
                failures.append(((p, r), f"span deficient (target {target})"))
    return not failures, checked, failures


def _rank_factorization(backend, depth, tol=1e-8):
    els = backend.sg.elements(depth)
    failures = []
    checked = 0
    for p, q in itertools.product(els, repeat=2):
        target = backend.space_dim(p, q)
        if target == 0:
            continue
        checked += 1
        prods = [a.compose(b).flat() for a in backend.basis(p, p) for b in backend.basis(p, q)]
        if rank_of_span(prods, tol) < target:
            failures.append(((p, q), "factorization span deficient"))
    return not failures, checked, failures


H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


class TwistedN(_BackendBase):
    """N with two colors of constant size 2, blockwise composition and
    a x 1_n = alpha^n(a) for a fixed automorphism alpha of M_2 + M_2."""

    kind = "twisted"
    slot_count = 2

    def __init__(self, alpha):
        self.sg = N
        self.alpha = alpha

    def shape(self, p, q):
        return [(2, 2), (2, 2)]

    def _rtensor(self, a, r):
        blocks = a.blocks
        for _ in range(r.data[0]):
            blocks = self.alpha(blocks)
        return Arrow(self, a.range * r, a.source * r, blocks)


def _swap_colors(blocks):
    return [blocks[1], blocks[0]]


def _hadamard(blocks):
    return [H2 @ b @ H2 for b in blocks]


def _n2():
    return ColoredProductSystem(DirectSumN(2), gen_dims=[(2,), (1,)])


def _ab2():
    return ColoredProductSystem(FM, gen_dims=[(2, 1), (1, 1)])


def _nondegenerate_cases():
    ab2 = _ab2()
    ext = UnitExtension(N, cyclic_group(2))
    zb = ZeroTensorBackend([2, 2, 2, 2, 2])
    swap = TwistedN(_swap_colors)
    had = TwistedN(_hadamard)
    n2 = _n2()
    return {
        "n2": (n2, full_ideal(n2), 2),
        "ab": (ab2, full_ideal(ab2), 2),
        "ab-sub": (ab2, ColorIdeal({1}), 2),
        "unit-ext": (ColoredProductSystem(ext, gen_dims=[(2,)]), ColorIdeal({0}), 2),
        "zero": (zb, full_ideal(zb), 2),
        "swap-sub": (swap, ColorIdeal({0}), 2),
        "hadamard": (had, full_ideal(had), 2),
    }


NONDEGENERATE_CASES = _nondegenerate_cases()


@pytest.mark.parametrize("case", sorted(NONDEGENERATE_CASES))
def test_nondegenerate_certificate_matches_rank_path(case):
    backend, K, depth = NONDEGENERATE_CASES[case]
    report = check_nondegenerate(backend, K, depth)
    assert (report.ok, report.checked, report.failures) == _rank_nondegenerate(backend, K, depth)
    assert 0 <= report.certified <= report.checked


def test_nondegenerate_certificate_counts():
    certified = {
        case: (r.ok, r.certified, r.checked)
        for case, (backend, K, depth) in NONDEGENERATE_CASES.items()
        for r in [check_nondegenerate(backend, K, depth)]
    }
    # colored backends ampliate the unit of each color into the unit (the
    # full-ideal ones are counted by the verify-backend test below)
    for case in ("ab-sub", "unit-ext"):
        ok, cert, checked = certified[case]
        assert ok and cert == checked > 0, case
    # r = e certifies; every other r kills the unit (zero tensoring), moves it
    # to the other color (odd swaps) or misses it by round-off (Hadamard)
    non_units = len(N.elements(2)) - 1
    assert certified["zero"][:2] == (False, non_units)
    assert certified["swap-sub"][:2] == (False, 2 * non_units)
    assert not np.array_equal(H2 @ H2, np.eye(2))
    assert certified["hadamard"][:2] == (True, non_units)


def _factorization_cases():
    s3 = precategory_from_bundle(semidirect_bundle(trivial_action(symmetric_group_3(), [2, 1])))
    z2 = cyclic_group(2)
    u = z2.parse("1")
    had = conjugation_action(z2, {z2.identity(): [np.eye(2)], u: [H2]})
    return {
        "n2": (_n2(), 2),
        "ab": (_ab2(), 2),
        "unit-ext": (ColoredProductSystem(UnitExtension(N, z2), gen_dims=[(2,)]), 2),
        "zero": (ZeroTensorBackend([2, 2, 2, 2, 2]), 2),
        "s3-bundle": (s3, 1),
        "z2-hadamard-bundle": (precategory_from_bundle(semidirect_bundle(had)), 1),
    }


FACTORIZATION_CASES = _factorization_cases()


@pytest.mark.parametrize("case", sorted(FACTORIZATION_CASES))
def test_factorization_certificate_matches_rank_path(case):
    backend, depth = FACTORIZATION_CASES[case]
    report = check_factorization(backend, depth)
    assert (report.ok, report.checked, report.failures) == _rank_factorization(backend, depth)
    if case == "z2-hadamard-bundle":
        # 1_p b = alpha_t(1) b misses b by round-off on the grade t != e,
        # so those pairs take the rank test
        assert (report.certified, report.checked) == (2, 4)
    else:
        assert report.certified == report.checked > 0


def test_verify_backends_are_certified_without_svd(monkeypatch):
    import ntforge.precategory as precategory_module

    def no_svd(*args, **kwargs):
        raise AssertionError("rank test ran on a pair the unit certificate settles")

    monkeypatch.setattr(precategory_module, "rank_of_span", no_svd)
    # the structure job of the verify workload, depth 2: 6 elements of N^2 and
    # 7 of ab, one of them the unit
    for backend, n in ((_n2(), 6), (_ab2(), 7)):
        nd = check_nondegenerate(backend, full_ideal(backend), 2)
        fac = check_factorization(backend, 2)
        assert nd.ok and nd.certified == nd.checked == (n - 1) * n
        assert fac.ok and fac.certified == fac.checked == n * n


# -- the stack axis of the blockwise hooks --------------------------------------


def _stack_cases():
    z2 = cyclic_group(2)
    u = z2.parse("1")
    had = conjugation_action(z2, {z2.identity(): [np.eye(2)], u: [H2]})
    return {
        "n2": (_n2(), 1),
        "ab-sub": (_ab2(), 1, ColorIdeal({1})),
        "zero": (ZeroTensorBackend([2, 3]), 1),
        "crossed-hadamard": (CrossedProductBackend(had), 1),
        "crossed-swap": (CrossedProductBackend(swap_action(z2, dim=2)), 1),
        "z2-hadamard-bundle": (precategory_from_bundle(semidirect_bundle(had)), 1),
    }


STACK_CASES = _stack_cases()


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_blockwise_hooks_broadcast_over_a_stacked_basis(case):
    # basis_stack lists the matrix units colour by colour and row-major, and
    # _tensor_blocks and _compose_blocks on stacks agree with the arrow route
    backend, depth, *ideal = STACK_CASES[case]
    ideal = ideal[0] if ideal else None
    els = backend.sg.elements(depth)
    for p, q in itertools.product(els, repeat=2):
        stack = backend.basis_stack(p, q, ideal)
        arrows = backend.basis(p, q, ideal)
        colors = range(backend.slot_count) if ideal is None else sorted(ideal.colors)
        shapes = backend.shape(p, q)
        units = [(c, i, j) for c in colors for i in range(shapes[c][0]) for j in range(shapes[c][1])]
        if not backend.space_dim(p, q):  # zero-tensor off the diagonal
            units = []
        assert [s.shape[1:] for s in stack] == [tuple(sh) for sh in shapes]
        assert all(len(s) == len(units) == len(arrows) for s in stack)
        for k, (c, i, j) in enumerate(units):
            assert [np.count_nonzero(s[k]) for s in stack] == [int(c == d) for d in range(len(stack))]
            assert stack[c][k][i, j] == 1.0 and np.array_equal(arrows[k].blocks[c], stack[c][k])
        for r in els:
            amp = backend._tensor_blocks(stack, p, q, r)
            for k, a in enumerate(arrows):
                assert all(np.array_equal(x[k], y) for x, y in zip(amp, a.rtensor(r).blocks))
        for t in els:
            right = backend.basis_stack(q, t)
            prods = backend._compose_blocks([x[:, None] for x in stack], [y[None] for y in right], p, q, t)
            for (k, a), (m, b) in itertools.product(enumerate(arrows), enumerate(backend.basis(q, t))):
                want = a.compose(b).blocks
                assert all(np.allclose(x[k, m], y, rtol=0, atol=1e-15) for x, y in zip(prods, want))
