import random
import re

import numpy as np
import pytest

from ntforge.analysis import (
    NUMERICAL_RANGE_ANGLES,
    ConcreteRep,
    ProjectionFamily,
    _aperiodicity_objective,
    _numerical_range_witness,
    _powell_search,
    aperiodicity_search,
    check_condition_C,
    check_condition_Cprime,
    check_graded,
    check_projection_equalities,
    check_projection_semilattice,
    check_toeplitz_covariance,
    fock_rep,
    ideal_unit,
)
from ntforge.bundles import (
    CrossedProductBackend,
    image_algebra_rank,
    precategory_from_bundle,
    semidirect_bundle,
    trivial_action,
)
from ntforge.fock import projection_QT
from ntforge.linalg import spectral_norm
from ntforge.precategory import (
    ColorIdeal,
    ColoredProductSystem,
    _BackendBase,
    check_essential,
    check_factorization,
)
from ntforge.semigroups import DirectSumN, UnitExtension, cyclic_group, free_monoid, symmetric_group_3
from rep_oracles import (
    action_on_projection_defect,
    check_extension_kernel,
    check_projection_commutation,
    check_projection_orthogonality,
    check_star,
    extend_representation,
)
from bundle_oracles import swap_action
from rep_oracles import check_injective, degenerate_example_rep


def ps_scalar(sg, n_gens, colors=1):
    return ColoredProductSystem(sg, [(1,) * colors] * n_gens, check_depth=2)


@pytest.fixture(scope="module")
def frep_N():
    return fock_rep(ps_scalar(DirectSumN(1), 1), 6)


@pytest.fixture(scope="module")
def frep_N2():
    return fock_rep(ps_scalar(DirectSumN(2), 2), 4)


@pytest.fixture(scope="module")
def frep_N2_deep():
    """N^2 with generator dims (2,) and (1,) at Fock depth 5: dim 120."""
    return fock_rep(ColoredProductSystem(DirectSumN(2), [(2,), (1,)], check_depth=2), 5)


@pytest.fixture(scope="module")
def frep_FM():
    return fock_rep(ps_scalar(free_monoid("ab"), 2), 4)


def char_rep():
    """Collapses every shift to 1 on a one-dimensional space."""
    ps = ps_scalar(DirectSumN(1), 1)

    def phi(arrow):
        return arrow.blocks[0].reshape(1, 1).astype(complex)

    return ConcreteRep(ps, 1, phi, label="character")


def test_fock_rep_star_compatible(frep_N):
    rep, tr = frep_N
    sg = rep.backend.sg
    keys = [(sg.el((1,)), sg.el((0,))), (sg.el((2,)), sg.el((1,)))]
    assert check_star(rep, keys, tol=1e-10)


def test_projection_matches_algebraic_fock_projection(frep_N, frep_N2_deep):
    for (rep, tr), pstrs in [
        (frep_N, ["2"]),
        (frep_N2_deep, ["(0,0)", "(1,0)", "(0,2)", "(1,1)"]),
    ]:
        fam = ProjectionFamily(rep, tr.S)
        for pstr in pstrs:
            p = rep.backend.sg.parse(pstr)
            want = projection_QT(p, tr).dense()
            assert spectral_norm(fam.Q(p) - want) <= 1e-9
            assert spectral_norm(fam.Q_angle(p) - want) <= 1e-9


def stacked_svd_projection(rep, cols, ws):
    """Reference: projection onto the column span of phi(a), a over the
    matrix units of every K(w,w), w in ws (SVD with relative cutoff)."""
    stack = np.hstack([np.zeros((rep.dim, 0))] + [cols[w] for w in ws])
    if not stack.any():
        return np.zeros((rep.dim, rep.dim))
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    u = u[:, s > 1e-8 * s[0]]
    return u @ u.conj().T


def _two_colour_rep(sg, gen_dims, colour, depth):
    ps = ColoredProductSystem(sg, gen_dims, check_depth=2)
    rep, tr = fock_rep(ps, depth, ideal=ColorIdeal(frozenset({colour})))
    return rep, tr.S


@pytest.mark.parametrize(
    "build",
    [
        lambda: _two_colour_rep(DirectSumN(2), [(2, 1), (1, 1)], 0, 2),
        lambda: _two_colour_rep(free_monoid("ab"), [(2, 1), (1, 2)], 1, 2),
        lambda: (degenerate_example_rep([1, 2, 2])[0], DirectSumN(1).elements(2)),
    ],
    ids=["N2-ideal0", "ab-ideal1", "degenerate"],
)
def test_projections_match_stacked_svd_reference(build):
    rep, window = build()
    sg = rep.backend.sg
    fam = ProjectionFamily(rep, window)
    empty = np.zeros((rep.dim, 0))
    cols = {
        w: np.hstack([empty] + [rep.phi(a) for a in rep.backend.basis(w, w, ideal=rep.ideal)])
        for w in window
    }
    for p in sg.elements(2):
        unit = sg.is_unit(p)
        above = [w for w in window if unit or sg.left_divide(p, w) is not None]
        assert spectral_norm(fam.Q_angle(p) - stacked_svd_projection(rep, cols, above)) <= 1e-9
        want = stacked_svd_projection(rep, cols, above if unit else [p])
        assert spectral_norm(fam.Q(p) - want) <= 1e-9


def test_projection_family_rejects_non_projection_unit_image(frep_N):
    rep, tr = frep_N
    doubled = ConcreteRep(rep.backend, rep.dim, lambda a: 2 * rep.phi(a), label="doubled")
    p = rep.backend.sg.el((1,))
    with pytest.raises(ValueError, match=re.escape(f"phi(1_{p!r})")):
        ProjectionFamily(doubled, tr.S).Q(p)


def _edit_unit_image(rep, w, edit):
    """rep with phi(1_w) edited in place by edit(m); on a scalar backend every
    arrow at (w, w) is a multiple of 1_w, so all of them are edited."""

    def phi(a):
        m = rep.phi(a)
        if a.range == w and a.source == w:
            edit(m)
        return m

    return ConcreteRep(rep.backend, rep.dim, phi, label="edited")


def test_diagonal_certificate_is_exact(frep_N):
    rep, tr = frep_N
    sg = rep.backend.sg
    w, e = sg.el((1,)), sg.identity()
    fam = ProjectionFamily(rep, tr.S)
    assert fam.Q_set(w) is not None and fam.Q_angle_set(e) is not None

    def set_entry(i, j, value):
        def edit(m):
            m[i, j] = value
        return edit

    # each edit leaves a self-adjoint idempotent up to round-off, but not a
    # 0/1 diagonal, so it takes the dense path and still passes there
    for edit in (set_entry(1, 1, 1.0 + 2.0**-52), set_entry(0, 1, 1e-300)):
        fam = ProjectionFamily(_edit_unit_image(rep, w, edit), tr.S)
        assert fam.Q_set(w) is None
        assert fam.Q_angle_set(e) is None and fam.Q_angle_set(w) is None
        assert fam.Q_angle_set(sg.el((2,))) is not None  # w is not in 2P
        assert check_projection_semilattice(fam, depth=2, tol=1e-9).ok
        assert check_projection_equalities(fam, sg.elements(2), tol=1e-9).ok
    # an entry 0.5 is no projection: the dense path rejects it
    fam = ProjectionFamily(_edit_unit_image(rep, w, set_entry(1, 1, 0.5)), tr.S)
    with pytest.raises(ValueError, match=re.escape(f"phi(1_{w!r})")):
        fam.Q_set(w)


def _conjugated(rep, seed):
    """phi' = U phi U* for a random unitary U: no unit image is diagonal."""
    rng = np.random.default_rng(seed)
    shape = (rep.dim, rep.dim)
    u, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ConcreteRep(
        rep.backend, rep.dim, lambda a: u @ rep.phi(a) @ u.conj().T, rep.ideal, label="conjugated"
    )


def _verify_cases():
    """(backend, Fock depth, pair depth, (p, qs)): the verify benchmark's three
    reps, then N^2 with dims (2,)/(1,) at Fock depths 2-5."""
    n2, ab = DirectSumN(2), free_monoid("ab")
    n2_21 = ColoredProductSystem(n2, [(2,), (1,)], check_depth=2)
    n2c2 = ColoredProductSystem(n2, [(1, 2), (2, 1)], check_depth=2)
    abc2 = ColoredProductSystem(ab, [(2, 1), (1, 1)], check_depth=2)
    n2_pq = ("(1,0)", ["(0,1)", "(2,0)"])
    cases = {
        "verify-n2-d4": (n2_21, 4, 3, n2_pq),
        "verify-n2c2-d3": (n2c2, 3, 2, n2_pq),
        "verify-abc2-d3": (abc2, 3, 2, ("a", ["b", "ab"])),
    }
    for depth in range(2, 6):
        cases[f"n2-d{depth}"] = (n2_21, depth, 2, n2_pq)
    return cases


VERIFY_CASES = _verify_cases()


@pytest.mark.parametrize("case", list(VERIFY_CASES))
def test_certified_route_matches_dense_route(case):
    backend, fock_depth, depth, (p, qs) = VERIFY_CASES[case]
    sg = backend.sg
    p, qs = sg.parse(p), [sg.parse(q) for q in qs]
    rep, tr = fock_rep(backend, fock_depth)
    other = _conjugated(rep, 7)
    out = {}
    for name, r in (("certified", rep), ("dense", other)):
        fam = ProjectionFamily(r, tr.S)
        out[name] = (
            check_projection_semilattice(fam, depth, tol=1e-9),
            check_projection_equalities(fam, sg.elements(depth), tol=1e-9),
            check_toeplitz_covariance(r, p, qs),
            check_condition_C(r, ProjectionFamily(r, tr.S), p, qs),
        )
        certified = [fam.Q_angle_set(s) is not None for s in sg.elements(depth)]
        assert all(certified) if name == "certified" else not any(certified)
        if name == "certified":
            for s in sg.elements(depth):
                assert np.array_equal(fam.Q_angle(s), projection_QT(s, tr).dense())
    (semi, eq, toe, cond), (semi_d, eq_d, toe_d, cond_d) = out["certified"], out["dense"]
    assert (semi.ok, eq.ok, toe.ok, cond.ok) == (semi_d.ok, eq_d.ok, toe_d.ok, cond_d.ok)
    assert semi.ok and eq.ok and toe.ok and cond.ok
    assert toe.details == toe_d.details
    assert abs(cond.details["sigma_min"] - cond_d.details["sigma_min"]) <= 1e-12
    assert cond.details["commutation_defect"] == 0.0
    assert cond_d.details["commutation_defect"] <= 1e-9


@pytest.mark.parametrize("case", list(VERIFY_CASES))
def test_condition_Cprime_index_set_route_matches_dense_route(case):
    # the join as a union of index sets and the corner as a row and column
    # mask, against the eigh join and dense corner of a conjugated copy
    backend, fock_depth, _, (p, qs) = VERIFY_CASES[case]
    sg = backend.sg
    p, qs = sg.parse(p), [sg.parse(q) for q in qs]
    rep, tr = fock_rep(backend, fock_depth)
    other = _conjugated(rep, 7)
    fams = [ProjectionFamily(r, tr.S) for r in (rep, other)]
    assert all(fams[0].Q_set(q) is not None for q in qs)
    assert all(fams[1].Q_set(q) is None for q in qs)
    rng = random.Random(5)
    verdicts = []
    for key in (p, qs[0]):  # on qs[0] the corner annihilates the arrow
        a = backend.random_arrow(key, key, rng)
        got, want = (check_condition_Cprime(r, fam, p, qs, a) for r, fam in zip((rep, other), fams))
        assert got.ok == want.ok
        for name in ("norm", "corner_norm"):
            assert abs(got.details[name] - want.details[name]) <= 1e-12 * max(1.0, want.details[name])
        verdicts.append(got.ok)
    assert verdicts == [True, False]


def test_degenerate_basis_images_match_per_arrow_flat():
    rep, zb = degenerate_example_rep([1, 2, 3])
    els = zb.sg.elements(3)
    for p in els:
        for q in els:
            got = rep.basis_images(p, q)
            arrows = zb.basis(p, q)
            assert got.shape == (len(arrows), rep.dim**2)
            if arrows:
                assert np.array_equal(got, np.array([rep.flat(a) for a in arrows]))


def test_verifiers_map_stacked_bases_without_basis_arrows(monkeypatch):
    # on the verify benchmark's three Fock reps and its S3 bundle
    reps = []
    for case in ("verify-n2-d4", "verify-n2c2-d3", "verify-abc2-d3"):
        backend, fock_depth, _, (p, qs) = VERIFY_CASES[case]
        sg = backend.sg
        reps.append((*fock_rep(backend, fock_depth), sg.parse(p), [sg.parse(q) for q in qs]))
    bundle = semidirect_bundle(trivial_action(symmetric_group_3(), [3, 3, 2]))

    def no_basis(self, p, q, ideal=None):
        raise AssertionError("built the basis arrow by arrow")

    monkeypatch.setattr(_BackendBase, "basis", no_basis)
    for rep, tr, p, qs in reps:
        assert check_toeplitz_covariance(rep, p, qs).ok
        assert check_condition_C(rep, ProjectionFamily(rep, tr.S), p, qs).ok
        fac = check_factorization(rep.backend, 2)
        assert fac.ok and fac.certified == fac.checked > 0
    fac = check_factorization(precategory_from_bundle(bundle), 1)
    assert fac.ok and fac.certified == fac.checked == 36
    assert image_algebra_rank(bundle) == 6 * 22


def test_projection_semilattice_N2(frep_N2, frep_N2_deep):
    for rep, tr in (frep_N2, frep_N2_deep):
        fam = ProjectionFamily(rep, tr.S)
        rep_report = check_projection_semilattice(fam, depth=2, tol=1e-9)
        assert rep_report.ok, rep_report.details
        assert check_projection_equalities(fam, rep.backend.sg.elements(2), tol=1e-9).ok


def test_projection_orthogonality_free_monoid(frep_FM):
    rep, tr = frep_FM
    sg = rep.backend.sg
    fam = ProjectionFamily(rep, tr.S)
    a, b = sg.parse("a"), sg.parse("b")
    assert spectral_norm(fam.Q(a) @ fam.Q(b)) <= 1e-10
    report = check_projection_orthogonality(fam, sg.elements(2), tol=1e-10)
    assert report.ok, report.details


def test_projection_equalities_and_commutation(frep_FM):
    rep, tr = frep_FM
    sg = rep.backend.sg
    fam = ProjectionFamily(rep, tr.S)
    assert check_projection_equalities(fam, sg.elements(2), tol=1e-9).ok
    pairs = [(sg.parse("a"), sg.parse("b")), (sg.parse("ab"), sg.parse("a"))]
    assert check_projection_commutation(fam, pairs, tol=1e-9).ok


def test_action_on_projections_fock(frep_FM):
    rep, tr = frep_FM
    sg = rep.backend.sg
    fam = ProjectionFamily(rep, tr.S)
    rng = random.Random(5)
    for p0, q, s in [
        ("a", "a", "ab"),
        ("b", "ab", "a"),
        ("ab", "b", "b"),
        ("e", "a", "b"),
    ]:
        arrow = rep.backend.random_arrow(sg.parse(p0), sg.parse(q), rng)
        for angled in (False, True):
            defect = action_on_projection_defect(rep, fam, arrow, sg.parse(s), angled=angled)
            assert defect <= 1e-9, (p0, q, s, angled, defect)


def test_degenerate_rep_separates_the_two_projections():
    rep, zb = degenerate_example_rep([1, 2, 2])
    sg = zb.sg
    fam = ProjectionFamily(rep, sg.elements(2))
    one = sg.el((1,))
    gap = spectral_norm(fam.Q(one) - fam.Q_angle(one))
    assert gap >= 0.99

    # covariance through Q_s fails concretely (s=1 strictly divides the fiber
    # of a, and 1_{e} tensoring keeps a alive while Q_1 kills it), yet the
    # Q_<s> variant survives
    two = sg.el((2,))
    a = zb.arrow(two, two, [np.eye(2, dtype=complex)])
    assert action_on_projection_defect(rep, fam, a, one, angled=False) >= 0.99
    assert action_on_projection_defect(rep, fam, a, one, angled=True) <= 1e-10


def test_toeplitz_covariance_fock_passes(frep_N):
    rep, tr = frep_N
    sg = rep.backend.sg
    report = check_toeplitz_covariance(rep, sg.el((1,)), [sg.el((2,)), sg.el((3,))])
    assert report.ok, report.details


def test_toeplitz_covariance_character_fails():
    rep = char_rep()
    sg = rep.backend.sg
    report = check_toeplitz_covariance(rep, sg.el((1,)), [sg.el((2,))])
    assert not report.ok
    assert report.details["rank_joint"] < report.details["rank_fiber"] + report.details["rank_span"]


def test_toeplitz_precondition_enforced(frep_N):
    rep, _ = frep_N
    sg = rep.backend.sg
    with pytest.raises(ValueError, match="divides"):
        check_toeplitz_covariance(rep, sg.el((3,)), [sg.el((1,))])


@pytest.mark.parametrize(
    "fixture,pstr,qstrs",
    [
        ("frep_N", "1", ["2"]),
        ("frep_N2", "(1,0)", ["(0,1)", "(2,0)"]),
        ("frep_FM", "a", ["b", "ab"]),
    ],
)
def test_condition_C_fock_induced(request, fixture, pstr, qstrs):
    rep, tr = request.getfixturevalue(fixture)
    sg = rep.backend.sg
    fam = ProjectionFamily(rep, tr.S)
    report = check_condition_C(rep, fam, sg.parse(pstr), [sg.parse(q) for q in qstrs])
    assert report.ok
    assert report.details["sigma_min"] >= 1e-6
    assert report.details["commutation_defect"] <= 1e-9


def test_condition_C_fails_when_projections_saturate():
    rep = char_rep()
    sg = rep.backend.sg
    fam = ProjectionFamily(rep, sg.elements(4))
    report = check_condition_C(rep, fam, sg.el((1,)), [sg.el((2,))])
    assert not report.ok
    assert report.details["sigma_min"] <= 1e-10


def test_condition_C_agrees_with_injective_plus_toeplitz(frep_N):
    # sampled agreement between the two characterizations
    for rep, tr_window in [(frep_N[0], frep_N[1].S), (char_rep(), None)]:
        sg = rep.backend.sg
        window = tr_window if tr_window is not None else sg.elements(4)
        fam = ProjectionFamily(rep, window)
        p, qs = sg.el((1,)), [sg.el((2,))]
        via_C = check_condition_C(rep, fam, p, qs).ok
        keys = [(p, p), (qs[0], qs[0])]
        direct = check_injective(rep, keys).ok and check_toeplitz_covariance(rep, p, qs).ok
        assert via_C == direct


def test_condition_Cprime_fock(frep_N):
    rep, tr = frep_N
    sg = rep.backend.sg
    fam = ProjectionFamily(rep, tr.S)
    one, two = sg.el((1,)), sg.el((2,))
    a = rep.backend.arrow(one, one, [np.array([[1.0]])])
    good = check_condition_Cprime(rep, fam, one, [two], a)
    assert good.ok, good.details

    # an element supported inside q P is annihilated by the corner
    b = rep.backend.arrow(two, two, [np.array([[1.0]])])
    bad = check_condition_Cprime(rep, fam, one, [two], b)
    assert not bad.ok
    assert bad.details["corner_norm"] <= 1e-12
    assert bad.details["norm"] >= 1.0 - 1e-12


def test_extension_kernel_formula():
    ps = ColoredProductSystem(free_monoid("ab"), [(1, 1), (1, 1)], check_depth=2)
    K = ColorIdeal(frozenset({0}))
    rep, tr = fock_rep(ps, 3, ideal=K)
    sg = ps.sg
    rnd = random.Random(11)
    rng = np.random.default_rng(11)
    arrows = []
    for p0, q in [("a", "e"), ("a", "b"), ("ab", "a"), ("e", "e")]:
        arrows.append(ps.random_arrow(sg.parse(p0), sg.parse(q), rnd))
        only1 = [np.zeros((1, 1)), rng.normal(size=(1, 1))]
        arrows.append(ps.arrow(sg.parse(p0), sg.parse(q), only1))
    report = check_extension_kernel(rep, K, arrows)
    assert report.ok, report.details


def test_extension_by_full_ideal_is_identity(frep_N):
    rep, tr = frep_N
    sg = rep.backend.sg
    ext = extend_representation(rep, rep.ideal)
    rng = random.Random(3)
    a = rep.backend.random_arrow(sg.el((2,)), sg.el((1,)), rng)
    assert spectral_norm(ext.phi(a) - rep.phi(a)) <= 1e-12


def test_non_essential_ideal_breaks_injectivity_of_extension():
    ps = ColoredProductSystem(free_monoid("ab"), [(1, 1), (1, 1)], check_depth=2)
    K = ColorIdeal(frozenset({0}))
    assert not check_essential(ps, K, depth=1).ok
    rep, tr = fock_rep(ps, 3, ideal=K)
    ext = extend_representation(rep, K)
    sg = ps.sg
    witness = ps.arrow(sg.parse("a"), sg.parse("a"), [np.zeros((1, 1)), np.eye(1)])
    assert witness.norm() == 1.0
    assert spectral_norm(ext.phi(witness)) <= 1e-12


def test_ideal_unit_is_idempotent_projection():
    ps = ColoredProductSystem(free_monoid("ab"), [(2, 1), (1, 2)], check_depth=2)
    K = ColorIdeal(frozenset({1}))
    u = ideal_unit(ps, K, ps.sg.parse("ab"))
    assert (u.compose(u) - u).is_zero()
    assert (u.adjoint() - u).is_zero()


# -- aperiodicity ---------------------------------------------------------------


def aperiodicity_setup():
    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    ps = ColoredProductSystem(ext, [(2,)], check_depth=2)
    p = ext.parse("(1,0)")
    x = ext.parse("(0,1)")
    px = p * x
    return ps, p, x, px


def test_aperiodicity_trivial_action_stays_at_one():
    ps, p, x, px = aperiodicity_setup()
    b = ps.arrow(px, p, [np.eye(2, dtype=complex)])
    res = aperiodicity_search(ps, p, x, b, trials=4, seed=1, maxiter=30)
    assert abs(res.best - 1.0) <= 1e-6
    assert res.witness is not None and abs(res.witness.norm() - 1.0) <= 1e-9
    # W(I) = {1}: the support function meets the witness there, so the
    # bracket closes at the periodic value and no search runs
    for value in (res.lower_bound, res.rank_one_bound, res.best):
        assert abs(value - 1.0) <= 1e-12
    assert res.search_best is None and res.attained_by == "rank-one"


def test_aperiodicity_flip_action_with_hereditary_constraint():
    ps, p, x, px = aperiodicity_setup()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    b = ps.arrow(px, p, [e11])
    h = ps.arrow(p, p, [0.5 * np.ones((2, 2), dtype=complex)])

    res = aperiodicity_search(ps, p, x, b, h=h, twist=[swap], trials=4, seed=2, maxiter=30)
    # oracle: D is one-dimensional (h is a rank-one projection), so every
    # candidate is h itself and the value is |h e11 h| = 1/2 exactly
    oracle = spectral_norm(swap @ (0.5 * np.ones((2, 2))) @ swap @ e11 @ (0.5 * np.ones((2, 2))))
    assert abs(oracle - 0.5) <= 1e-12
    assert res.best <= 0.5 + 1e-3
    assert res.best >= 0.5 - 1e-6
    assert abs(res.rank_one_bound - 0.5) <= 1e-12


def test_aperiodicity_flip_action_unconstrained_goes_low():
    ps, p, x, px = aperiodicity_setup()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    b = ps.arrow(px, p, [e11])
    res = aperiodicity_search(ps, p, x, b, twist=[swap], trials=8, seed=3, maxiter=60)
    assert res.best <= 5e-2
    # M = swap e11 has W(M) = the disc of radius 1/2 about 0: exact 0, no search
    assert res.attained_by == "rank-one" and res.best <= 1e-12
    assert res.search_best is None
    assert abs(res.witness.norm() - 1.0) <= 1e-12
    assert (res.witness.adjoint() - res.witness).is_zero()


def test_aperiodicity_rank_one_certificate_uses_the_twist():
    # the flip gives M = swap b with W(M) = [-1, 3], so 0 is attained; the
    # untwisted M = b has W = [1, 3] at distance 1
    ps, p, x, px = aperiodicity_setup()
    b = ps.arrow(px, p, [np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    flip = aperiodicity_search(ps, p, x, b, twist=[swap], trials=1, seed=0, maxiter=10)
    assert flip.attained_by == "rank-one" and flip.best <= 1e-12
    plain = aperiodicity_search(ps, p, x, b, trials=1, seed=0, maxiter=10)
    assert abs(plain.rank_one_bound - 1.0) <= 1e-12


def test_aperiodicity_hereditary_corner_is_compressed_not_sandwiched():
    """h lives in color 0 only.  Compressing to range(h) gives W = {1/2}; the
    sandwich P_h M P_h would let vectors outside range(h) put 0 into W, and
    color 1 (h = 0 there, but 0 in W(swap e11)) must not be searched."""
    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    ps = ColoredProductSystem(ext, [(2, 2)], check_depth=2)
    p, x = ext.parse("(1,0)"), ext.parse("(0,1)")
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e11 = np.diag([1.0, 0.0]).astype(complex)
    b = ps.arrow(p * x, p, [e11, e11])
    half = 0.5 * np.ones((2, 2), dtype=complex)
    h = ps.arrow(p, p, [half, np.zeros((2, 2))])
    sandwich = half @ swap @ e11 @ half
    lam = np.linalg.eigvalsh((sandwich + sandwich.conj().T) / 2)
    assert lam[0] <= 0.0 <= lam[-1]  # 0 is in W(P_h M P_h)

    res = aperiodicity_search(ps, p, x, b, h=h, twist=[swap, swap], trials=1, seed=0, maxiter=10)
    assert abs(res.rank_one_bound - 0.5) <= 1e-12
    assert 0.5 - 1e-6 <= res.best <= 0.5 + 1e-12
    assert not res.witness.blocks[1].any()


def _fine_support_max(m, n=1 << 14):
    theta = 2 * np.pi * np.arange(n) / n
    rot = np.exp(1j * theta)[:, None, None] * m
    return float(np.linalg.eigvalsh((rot + rot.conj().transpose(0, 2, 1)) / 2)[:, 0].max())


def test_numerical_range_witness_against_support_function():
    """|<v, M v>| for the witness v against the geometry of W(M).

    lower is the 720-angle support maximum.  Outside W: lower <= dist <= value
    and, since W lies in the disc of radius |M|, value <= (lower + 2|M|
    sin(pi/720)) / cos(pi/720).  When 0 is deeper in W than the gap between
    W and the hull of the support points (|M| sin(pi/720)), value is 0."""
    rng = np.random.default_rng(20)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(6):
            shift = rng.uniform(0, 3) * np.exp(2j * np.pi * rng.uniform())
            cases.append(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + shift * np.eye(n))
    cases += [
        (0.3 - 0.7j) * np.eye(3),  # W a point off 0
        np.zeros((2, 2), dtype=complex),  # W = {0}
        np.diag([0.5, 1.0, 2.0]).astype(complex),  # segment [0.5, 2]
        np.diag([-1.0, 0.25, 3.0]).astype(complex),  # segment through 0
        # a segment off 0 tilted half a grid step: the nearest point is
        # inside an edge, far from both support points next to it
        np.exp(0.5j * np.pi / NUMERICAL_RANGE_ANGLES) * np.diag([1 - 10j, 1 + 10j]),
    ]
    step = np.pi / NUMERICAL_RANGE_ANGLES
    seen = {"outside": 0, "inside": 0}
    for m in cases:
        lower, v = _numerical_range_witness(m)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        value = abs(np.vdot(v, m @ v))
        norm = spectral_norm(m)
        fine = _fine_support_max(m)
        if lower > 0:
            seen["outside"] += 1
            assert lower <= value + 1e-12 and fine <= value + 1e-12
            assert value <= (lower + 2 * norm * np.sin(step)) / np.cos(step) + 1e-12
        elif -fine > 2 * norm * np.sin(step) or norm == 0.0:
            seen["inside"] += 1
            assert value <= 1e-12
        else:
            assert value <= 2 * norm * np.tan(step) + 1e-12
    assert seen["outside"] >= 10 and seen["inside"] >= 5, seen

    # 0 on the boundary of W, at the support point of angle 0
    m = np.array([[0.0, 1.0], [-1.0, 1.0]], dtype=complex)
    _, v = _numerical_range_witness(m)
    assert abs(np.vdot(v, m @ v)) <= 1e-12

    # a grid angle need not be the optimal one, so the distance itself can
    # exceed lower / cos(pi/720): W of this M is the disc of radius 1 about
    # 2 e^{i pi/720}, at distance exactly 1 from 0
    m = np.exp(1j * step) * np.array([[2.0, 2.0], [0.0, 2.0]])
    lower, v = _numerical_range_witness(m)
    value = abs(np.vdot(v, m @ v))
    assert lower / np.cos(step) < 1.0 - 1e-6
    assert 1.0 - 1e-12 <= value <= 1.0 + spectral_norm(m) * np.tan(step)


def _reference_objective(backend, p, x, b, h=None, twist=None):
    """The arrow-path objective: every evaluation builds validated arrows."""
    shapes = backend.shape(p, p)
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)

    def build(params):
        params = np.asarray(params, dtype=float)
        scale = np.linalg.norm(params)
        if not np.isfinite(scale) or scale <= 1e-14:
            return None
        params = params / scale
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
        blocks = [u @ blk @ u.conj().T for u, blk in zip(twist, shifted.blocks)]
        return backend.arrow(shifted.range, shifted.source, blocks)

    def value(a):
        return alpha(a).compose(b).compose(a).norm()

    return build, value


def _objective_cases():
    ps, p, x, px = aperiodicity_setup()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = random.Random(5)
    b = ps.random_arrow(px, p, rng)
    h = ps.arrow(p, p, [np.array([[1.0, 0.3], [0.3, 0.2]], dtype=complex)])
    z2 = cyclic_group(2)
    cp = CrossedProductBackend(swap_action(z2, dim=2))
    (u,) = [g for g in z2.elements(1) if g != z2.identity()]
    e = z2.identity()
    cb = cp.random_arrow(u, e, rng)
    ch = cp.arrow(e, e, [np.diag([1.0, 0.0]), np.eye(2)])
    return [
        (ps, p, x, b, None, [swap]),
        (ps, p, x, b, h, None),
        (cp, e, u, cb, None, None),
        (cp, e, u, cb, ch, [swap, np.eye(2)]),
    ]


@pytest.mark.parametrize("case", range(4), ids=["colored", "colored-h", "crossed", "crossed-h"])
def test_tabulated_objective_matches_arrow_path(case):
    backend, p, x, b, h, twist = _objective_cases()[case]
    build, value = _aperiodicity_objective(backend, p, x, b, h, twist)
    ref_build, ref_value = _reference_objective(backend, p, x, b, h, twist)
    rng = np.random.default_rng(case)
    dim = 2 * backend.space_dim(p, p)
    for _ in range(20):
        params = rng.normal(size=dim)
        a, ref = build(params), ref_build(params)
        for got, want in zip(a, ref.blocks):
            assert np.abs(got - want).max() <= 1e-12
        assert abs(value(a) - ref_value(ref)) <= 1e-12
    assert build(np.zeros(dim)) is None and ref_build(np.zeros(dim)) is None

    res = aperiodicity_search(backend, p, x, b, h=h, twist=twist, trials=1, seed=case, maxiter=4)
    assert (res.rank_one_bound is None) == (backend.kind != "colored")
    assert res.best == min(v for v in (res.rank_one_bound, res.search_best) if v is not None)
    assert abs(ref_value(res.witness) - res.best) <= 1e-12


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _bracket_cases():
    """Seeded cases on UnitExtension(N, Z2) per dims: an untwisted b near 3
    (W curved and far from 0, so the bracket stays open by the sweep's
    error), the same twisted (the twist moves W), a twisted random b on a
    rank-one h (W(M_c) is a point per color) and an untwisted random b."""
    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    p, x = ext.parse("(1,0)"), ext.parse("(0,1)")
    rng = np.random.default_rng(17)
    gauss = lambda d: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))  # noqa: E731
    for dims in [(2,), (3,), (2, 3)]:
        ps = ColoredProductSystem(ext, [dims], check_depth=2)
        for twisted, rank_one, near_one in [
            (False, False, True), (True, False, True), (True, True, False), (False, False, False),
        ]:
            b = ps.arrow(p * x, p, [3.0 * np.eye(d) + 0.3 * gauss(d) if near_one else gauss(d)
                                    for d in dims])
            twist = [_random_unitary(rng, d) for d in dims] if twisted else None
            h = None
            if rank_one:
                ws = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
                h = ps.arrow(p, p, [np.outer(w, w.conj()) for w in ws])
            yield ps, p, x, b, h, twist


def test_aperiodicity_bracket_holds_against_powell():
    """lower_bound is proven for every a on range(h), so no Powell value may
    go below it; the search runs exactly when the bracket is open."""
    seen = {"open": 0, "closed-positive": 0}
    for ps, p, x, b, h, twist in _bracket_cases():
        slack = 1e-12 * b.norm()
        res = aperiodicity_search(ps, p, x, b, h=h, twist=twist, trials=1, seed=1, maxiter=1)
        build, value = _aperiodicity_objective(ps, p, x, b, h, twist)
        search_best, _ = _powell_search(build, value, ps.space_dim(p, p), 1, 1, 1)
        assert search_best >= res.lower_bound - slack
        assert res.lower_bound <= res.best + slack
        is_open = res.rank_one_bound - res.lower_bound > slack
        assert (res.search_best is not None) == is_open
        if res.search_best is not None:
            assert res.search_best >= res.lower_bound - slack
            seen["open"] += 1
        else:
            assert res.best - res.lower_bound <= slack
            seen["closed-positive"] += res.lower_bound > 0.1
    assert seen["open"] >= 2 and seen["closed-positive"] >= 3, seen


def test_aperiodicity_zero_b_and_bad_unit():
    ps, p, x, px = aperiodicity_setup()
    zero = ps.arrow(px, p, [np.zeros((2, 2))])
    assert aperiodicity_search(ps, p, x, zero, trials=1, seed=0).best == 0.0
    with pytest.raises(ValueError, match="unit"):
        aperiodicity_search(ps, p, p, zero, trials=1, seed=0)
    with pytest.raises(ValueError, match="unit"):
        aperiodicity_search(ps, p, ps.sg.identity(), zero, trials=1, seed=0)


# -- grading --------------------------------------------------------------------


def test_check_graded_regular_representation_passes():
    z2 = cyclic_group(2)
    ps = ColoredProductSystem(z2, [], colors=1, check_depth=1)
    rep, tr = fock_rep(ps, 1)
    assert rep.dim == 2
    e = z2.identity()
    (u,) = [g for g in z2.elements(1) if g != e]
    rng = np.random.default_rng(17)
    samples = []
    for _ in range(12):
        samples.append(
            {
                e: ps.arrow(e, e, [rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))]),
                u: ps.arrow(u, e, [rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))]),
            }
        )
    report = check_graded(rep, samples, tol=1e-9)
    assert report.ok, report.details


def test_check_graded_collapsing_character_fails_on_one_minus_u():
    z2 = cyclic_group(2)
    ps = ColoredProductSystem(z2, [], colors=1, check_depth=1)

    def phi(arrow):
        return arrow.blocks[0].reshape(1, 1).astype(complex)

    rep = ConcreteRep(ps, 1, phi, label="trivial-character")
    e = z2.identity()
    (u,) = [g for g in z2.elements(1) if g != e]
    sample = {
        e: ps.arrow(e, e, [np.eye(1, dtype=complex)]),
        u: ps.arrow(u, e, [-np.eye(1, dtype=complex)]),
    }
    report = check_graded(rep, [sample], tol=1e-9)
    assert not report.ok
    assert report.details["failures"][0]["norm_sum"] <= 1e-12
