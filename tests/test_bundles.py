import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ntforge.analysis import ConcreteRep, check_graded
from ntforge.bundles import (
    BlockAction,
    CrossedProductBackend,
    RegularRep,
    bundle_from_precategory,
    image_algebra_rank,
    precategory_from_bundle,
    regular_representation,
    regular_spectrum,
    semidirect_bundle,
    trivial_action,
)
from ntforge.fock import Truncation, fock_norm, lift
from ntforge.linalg import spectral_norm
from ntforge.precategory import ColorIdeal, ColoredProductSystem, check_well_aligned
from ntforge.semigroups import cyclic_group, symmetric_group_3
from ntforge.wick import NTElement
from bundle_oracles import check_bundle_laws, conjugation_action, group_algebra_bundle, section_conv, section_norm, section_star, swap_action


Z2 = cyclic_group(2)
Z3 = cyclic_group(3)


def z2_pair():
    e = Z2.identity()
    (u,) = [g for g in Z2.elements(1) if g != e]
    return e, u


def test_action_validation():
    trivial_action(Z3, [1, 2])
    swap_action(Z2, dim=2)
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    e, u = z2_pair()
    conjugation_action(Z2, {e: [np.eye(2)], u: [s]})
    # diag(1, i) has order 4 as a conjugation, so it cannot represent Z/2
    with pytest.raises(ValueError, match="homomorphism"):
        conjugation_action(Z2, {e: [np.eye(2)], u: [np.diag([1.0, 1j])]})
    with pytest.raises(ValueError, match="dimensions"):
        BlockAction(Z2, [1, 2], {e: (0, 1), u: (1, 0)}, {e: [np.eye(1), np.eye(2)], u: [np.eye(1), np.eye(2)]})


def test_crossed_backend_tensor_chain():
    ps = CrossedProductBackend(swap_action(Z2, dim=1))
    e, u = z2_pair()
    rng = random.Random(1)
    a = ps.random_arrow(e, u, rng)
    chained = a.rtensor(u).rtensor(u)
    direct = a.rtensor(u * u)
    assert (chained - direct).is_zero(tol=0)
    # the swap actually moves the slots
    moved = a.rtensor(u)
    assert np.allclose(moved.blocks[0], a.blocks[1])
    assert np.allclose(moved.blocks[1], a.blocks[0])


def test_group_algebra_of_z2_multiplication_table():
    B = group_algebra_bundle(Z2)
    e, u = z2_pair()
    one = [np.eye(1, dtype=complex)]
    assert np.allclose(B.mul(u, one, u, one)[0], 1.0)  # u*u = e
    assert np.allclose(B.star(u, [np.array([[2 + 1j]])])[0], 2 - 1j)


BUNDLES = [
    group_algebra_bundle(Z3),
    semidirect_bundle(swap_action(Z2, dim=1)),
    semidirect_bundle(
        conjugation_action(
            Z2,
            {
                z2_pair()[0]: [np.eye(2)],
                z2_pair()[1]: [np.array([[0.0, 1.0], [1.0, 0.0]])],
            },
        )
    ),
    group_algebra_bundle(symmetric_group_3()),
    bundle_from_precategory(ColoredProductSystem(Z2, [], colors=2, check_depth=1)),
    semidirect_bundle(trivial_action(symmetric_group_3(), [2, 1])),
    semidirect_bundle(swap_action(Z2, dim=2)),
]
BUNDLE_IDS = ["Z3-algebra", "Z2-swap", "Z2-conj", "S3-algebra", "Z2-colored", "S3-trivial21",
              "Z2-swap2"]


@pytest.mark.parametrize("bundle", BUNDLES, ids=BUNDLE_IDS)
def test_bundle_laws(bundle):
    report = check_bundle_laws(bundle, samples=5, seed=3)
    assert report.ok, report.details


def test_roundtrip_is_bitwise_identity():
    B = semidirect_bundle(swap_action(Z2, dim=2))
    B2 = bundle_from_precategory(precategory_from_bundle(B))
    rng = random.Random(7)
    for g in B.elements:
        for h in B.elements:
            a = B.random_fiber(g, rng)
            b = B.random_fiber(h, rng)
            for x, y in zip(B.mul(g, a, h, b), B2.mul(g, a, h, b)):
                assert np.array_equal(x, y)
            for x, y in zip(B.star(g, a), B2.star(g, a)):
                assert np.array_equal(x, y)


def test_tensoring_implements_isomorphism_with_original():
    """L_{B^L}(g,h) = B_{gh^-1} -> L(g,h), x -> x (x) 1_h intertwines composition."""
    L = CrossedProductBackend(swap_action(Z2, dim=1))
    B = bundle_from_precategory(L)
    LB = precategory_from_bundle(B)
    e = Z2.identity()
    rng = random.Random(9)

    def iso(arrow):
        g, h = arrow.range, arrow.source
        grade = g * Z2.inverse(h)
        return L.arrow(grade, e, arrow.blocks).rtensor(h)

    for g, h, k in [(e, e, e), (z2_pair()[1], e, z2_pair()[1]), (e, z2_pair()[1], e)]:
        x = LB.random_arrow(g, h, rng)
        y = LB.random_arrow(h, k, rng)
        lhs = iso(x.compose(y))
        rhs = iso(x).compose(iso(y))
        assert (lhs - rhs).norm() <= 1e-12
        r = z2_pair()[1]
        assert (iso(x.rtensor(r)) - iso(x).rtensor(r)).norm() <= 1e-12


def test_regular_representation_z2_matrix_and_spectrum():
    B = group_algebra_bundle(Z2)
    e, u = z2_pair()
    a, b = 1.7, 0.4 - 0.2j
    fam = {e: [np.array([[a]])], u: [np.array([[b]])]}
    rep = regular_representation(B)
    m = np.zeros((2, 2), dtype=complex)
    backend = rep.backend
    for g, blocks in fam.items():
        m += rep.phi(backend.arrow(g, e, blocks))
    assert np.allclose(m, np.array([[a, b], [b, a]]), atol=1e-14)
    spec = regular_spectrum(B, fam, rep)
    want = np.sort_complex(np.array([a + b, a - b]))
    assert np.max(np.abs(spec - want)) <= 1e-12


def _reference_regular_phi(bundle):
    """Left convolution column by column: one bundle product per basis vector."""
    G = sorted(bundle.elements, key=bundle.group.sort_key)
    offsets, total = {}, 0
    for g in G:
        offsets[g] = total
        total += bundle.fiber_dim(g)
    backend = precategory_from_bundle(bundle)

    def phi(arrow):
        s = backend._grade(arrow.range, arrow.source)
        m = np.zeros((total, total), dtype=complex)
        for k in G:
            out = s * k
            for j, basis_blocks in enumerate(bundle.basis(k)):
                image = bundle.mul(s, arrow.blocks, k, basis_blocks)
                m[offsets[out] : offsets[out] + bundle.fiber_dim(out), offsets[k] + j] = (
                    np.concatenate([np.ravel(b) for b in image])
                )
        return m

    return phi


@pytest.mark.parametrize(
    "bundle",
    BUNDLES
    + [bundle_from_precategory(precategory_from_bundle(semidirect_bundle(swap_action(Z2, dim=2))))],
    ids=BUNDLE_IDS + ["Z2-swap2-roundtrip"],
)
def test_regular_representation_matches_per_basis_reference(bundle):
    rep = regular_representation(bundle)
    ref = _reference_regular_phi(bundle)
    e = bundle.group.identity()
    rng = random.Random(11)
    arrows = [rep.backend.arrow(g, e, blocks) for g in bundle.elements for blocks in bundle.basis(g)]
    arrows += [rep.backend.arrow(g, e, bundle.random_fiber(g, rng)) for g in bundle.elements]
    for a in arrows:
        assert np.array_equal(rep.phi(a), ref(a))


def test_sections_satisfy_cstar_identity():
    B = group_algebra_bundle(Z3)
    rep = regular_representation(B)
    rng = random.Random(23)
    for _ in range(6):
        fam = {g: B.random_fiber(g, rng) for g in B.elements}
        xx = section_conv(B, section_star(B, fam), fam)
        lhs = section_norm(B, xx, rep)
        rhs = section_norm(B, fam, rep) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_regular_representation_is_topologically_graded():
    B = semidirect_bundle(swap_action(Z2, dim=2))
    rep = regular_representation(B)
    backend = rep.backend
    e = Z2.identity()
    rng = random.Random(31)
    samples = []
    for _ in range(10):
        samples.append(
            {g: backend.arrow(g, e, B.random_fiber(g, rng)) for g in B.elements}
        )
    report = check_graded(rep, samples, tol=1e-9)
    assert report.ok, report.details


def test_collapsing_character_fails_grading_on_one_minus_u():
    B = group_algebra_bundle(Z2)
    backend = precategory_from_bundle(B)
    e, u = z2_pair()

    def phi(arrow):
        return arrow.blocks[0].reshape(1, 1).astype(complex)

    from ntforge.analysis import ConcreteRep

    collapse = ConcreteRep(backend, 1, phi, label="u-to-1")
    sample = {
        e: backend.arrow(e, e, [np.eye(1, dtype=complex)]),
        u: backend.arrow(u, e, [-np.eye(1, dtype=complex)]),
    }
    report = check_graded(collapse, [sample], tol=1e-9)
    assert not report.ok


def test_e_fiber_compression_is_the_expectation():
    B = semidirect_bundle(swap_action(Z2, dim=1))
    rep = regular_representation(B)
    backend = rep.backend
    e, u = z2_pair()
    rng = random.Random(13)
    fam = {g: B.random_fiber(g, rng) for g in B.elements}
    m = np.zeros((rep.dim, rep.dim), dtype=complex)
    for g, blocks in fam.items():
        m += rep.phi(backend.arrow(g, e, blocks))
    # projection onto the e-fiber summand (fibers are ordered identity-first)
    d = B.fiber_dim(e)
    P = np.zeros((rep.dim, rep.dim))
    P[:d, :d] = np.eye(d)
    compressed = P @ m @ P
    only_e = rep.phi(backend.arrow(e, e, fam[e]))
    assert spectral_norm(compressed - P @ only_e @ P) <= 1e-12


def _random_section(bundle, seed):
    rng = random.Random(seed)
    return {g: bundle.random_fiber(g, rng) for g in bundle.elements}


def _dense_section_matrix(bundle, fam, rep):
    """Σ_g phi(fam[g]) as one |H| x |H| matrix: the route the per-colour
    spectrum and norm replace."""
    e = bundle.group.identity()
    return sum(rep.phi(rep.backend.arrow(g, e, blocks)) for g, blocks in fam.items())


@pytest.mark.parametrize("bundle", BUNDLES, ids=BUNDLE_IDS)
def test_regular_spectrum_and_norm_match_the_dense_sum(bundle):
    rep = regular_representation(bundle)
    for seed in (5, 6):
        fam = _random_section(bundle, seed)
        dense = _dense_section_matrix(bundle, fam, rep)
        want = np.linalg.eigvals(dense)
        got = regular_spectrum(bundle, fam, rep)
        assert np.array_equal(got, np.sort_complex(got))
        # match the two multisets; sort order alone is fragile at ties
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        scale = np.max(np.abs(want))
        assert got.shape == want.shape and np.max(dist[rows, cols]) <= 1e-10 * scale
        norm = spectral_norm(dense)
        assert abs(section_norm(bundle, fam, rep) - norm) <= 1e-10 * norm


@pytest.mark.parametrize("bundle", BUNDLES, ids=BUNDLE_IDS)
def test_regular_flat_is_an_isometry_of_the_raveled_image(bundle):
    rep = regular_representation(bundle)
    e = bundle.group.identity()
    for g in bundle.elements:
        arrows = [rep.backend.arrow(g, e, blocks) for blocks in bundle.basis(g)]
        flat = np.array([rep.flat(a) for a in arrows])
        dense = np.array([np.ravel(rep.phi(a)) for a in arrows])
        assert flat.shape[1] == sum((len(bundle.elements) * d) ** 2 for d in rep.dims)
        assert np.allclose(flat.conj() @ flat.T, dense.conj() @ dense.T, rtol=0, atol=1e-12)


ROUNDTRIP = bundle_from_precategory(precategory_from_bundle(semidirect_bundle(swap_action(Z2, dim=2))))


@pytest.mark.parametrize("bundle", BUNDLES + [ROUNDTRIP], ids=BUNDLE_IDS + ["Z2-swap2-roundtrip"])
def test_regular_basis_images_match_per_arrow_flat(bundle):
    # one broadcast per (k, colour) over each grade's stacked basis, against
    # flat of each basis arrow; an empty ideal gives no rows of flat's length
    rep = regular_representation(bundle)
    e = bundle.group.identity()
    for g in bundle.elements:
        got = rep.basis_images(g, e)
        want = np.array([rep.flat(a) for a in rep.backend.basis(g, e)])
        assert got.shape == want.shape == (bundle.fiber_dim(g), len(rep.flat(rep.backend.zero(g, e))))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    rep.ideal = ColorIdeal(frozenset())
    assert rep.basis_images(e, e).shape == (0, sum((len(bundle.elements) * d) ** 2 for d in rep.dims))


def test_rank_spectrum_and_norm_never_build_the_dense_image(monkeypatch):
    bundle = semidirect_bundle(trivial_action(symmetric_group_3(), [2, 1]))
    rep = regular_representation(bundle)
    assert isinstance(rep, RegularRep)

    def dense(self, arrow):
        raise AssertionError("built a dense |H| x |H| image")

    monkeypatch.setattr(RegularRep, "phi", dense)
    fam = _random_section(bundle, 7)
    assert image_algebra_rank(bundle, rep) == image_algebra_rank(bundle) == rep.dim
    assert regular_spectrum(bundle, fam, rep).shape == (rep.dim,)
    assert section_norm(bundle, fam) == section_norm(bundle, fam, rep) > 0


def test_regular_representation_needs_one_square_shape_per_colour():
    bundle = group_algebra_bundle(Z2)
    bundle.shape = lambda g: [(1, 2)]
    with pytest.raises(ValueError, match="square fibers of one shape per colour"):
        regular_representation(bundle)
    e = Z2.identity()
    bundle.shape = lambda g: [(1, 1) if g == e else (2, 2)]
    with pytest.raises(ValueError, match="square fibers of one shape per colour"):
        regular_representation(bundle)
    other = ConcreteRep(precategory_from_bundle(group_algebra_bundle(Z2)), 2, np.zeros)
    with pytest.raises(TypeError, match="regular_representation"):
        section_norm(group_algebra_bundle(Z2), {e: [np.eye(1)]}, other)


def test_image_algebra_rank_counts_fibers():
    assert image_algebra_rank(group_algebra_bundle(Z3)) == 3
    B = semidirect_bundle(swap_action(Z2, dim=1))
    assert image_algebra_rank(B) == 4


def _stacked_rank(bundle, rep, tol=1e-8):
    """The rank from one SVD of every image stacked: the route the per-grade
    SVDs of image_algebra_rank replace."""
    e = bundle.group.identity()
    m = np.array([
        np.ravel(rep.phi(rep.backend.arrow(g, e, blocks)))
        for g in bundle.elements
        for blocks in bundle.basis(g)
    ])
    m = m[:, np.any(m != 0, axis=0)]
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s.size and s[0] else 0


@pytest.mark.parametrize("bundle", BUNDLES, ids=BUNDLE_IDS)
def test_image_algebra_rank_matches_stacked_svd(bundle):
    rep = regular_representation(bundle)
    total = sum(bundle.fiber_dim(g) for g in bundle.elements)
    assert image_algebra_rank(bundle, rep) == _stacked_rank(bundle, rep) == total


def test_image_algebra_rank_cuts_off_against_the_largest_grade():
    """Two grades on disjoint supports whose scales differ by more than
    1/tol: the one cutoff over all grades drops the small grade, as the
    stacked SVD does, where a cutoff per grade would keep it."""
    B = group_algebra_bundle(Z2)
    backend = precategory_from_bundle(B)
    e, _ = z2_pair()

    def phi(arrow):
        m = np.zeros((2, 2), dtype=complex)
        if arrow.range == e:
            m[0, 0] = arrow.blocks[0][0, 0]
        else:
            m[1, 1] = 1e-10 * arrow.blocks[0][0, 0]
        return m

    scaled = ConcreteRep(backend, 2, phi, label="scaled")
    assert image_algebra_rank(B, scaled) == _stacked_rank(B, scaled) == 1
    overlap = ConcreteRep(backend, 2, lambda a: np.full((2, 2), a.blocks[0][0, 0]), label="overlap")
    with pytest.raises(ValueError, match="overlap"):
        image_algebra_rank(B, overlap)


def test_ideal_correspondence_well_aligned():
    B = semidirect_bundle(trivial_action(Z2, [1, 1]))
    backend = precategory_from_bundle(B)
    for colors in [{0}, {1}, {0, 1}]:
        report = check_well_aligned(backend, ColorIdeal(frozenset(colors)), depth=1, samples=2)
        assert report.ok, (colors, report.failures)


def test_regular_norm_matches_fock_at_identity():
    B = semidirect_bundle(swap_action(Z2, dim=2))
    backend = precategory_from_bundle(B)
    tr = Truncation(backend, 1)
    rep = regular_representation(B)
    e, u = z2_pair()
    rng = random.Random(41)
    for g in (e, u):
        x = NTElement(backend)
        blocks = B.random_fiber(g, rng)
        x.add_term(g, e, backend.arrow(g, e, blocks))
        via_fock = fock_norm(x, tr)
        via_reg = spectral_norm(rep.phi(backend.arrow(g, e, blocks)))
        assert abs(via_fock - via_reg) <= 1e-10


def test_nonabelian_crossed_product_needs_commuting_image():
    s3 = symmetric_group_3()
    CrossedProductBackend(trivial_action(s3, [2]))  # trivial action is fine
    flip = {g: [np.eye(2, dtype=complex)] for g in s3.elements(1)}
    # give two generators genuinely non-commuting conjugations
    names = [g for g in s3.elements(1)]
    # build an action of S3 by conjugation: represent S3 on C^2? No faithful
    # 2-dim unitary rep with commuting image exists, so use the sign character
    # composed with a flip -- this one is legal:
    sgn = {}
    sw = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for g in names:
        sgn[g] = [sw if _sign_of(s3, g) < 0 else np.eye(2, dtype=complex)]
    CrossedProductBackend(conjugation_action(s3, sgn))


def _sign_of(s3, g):
    # transpositions in the 6-element table have order 2 and are not identity
    e = s3.identity()
    if g == e:
        return 1
    return -1 if g * g == e else 1
