"""Shipping gate: the twelve acceptance criteria, one test and one printed
PASS/FAIL line each (run with `pytest tests/test_acceptance.py -s` to see the
lines inline; they also appear in failure output)."""

import itertools
import random
import time

import numpy as np
import pytest

from ntforge.analysis import (
    ConcreteRep,
    ProjectionFamily,
    aperiodicity_search,
    check_condition_C,
    check_graded,
    check_projection_equalities,
    check_projection_semilattice,
    fock_rep,
)
from ntforge.bundles import (
    bundle_from_precategory,
    precategory_from_bundle,
    regular_representation,
    regular_spectrum,
    semidirect_bundle,
    trivial_action,
)
from ntforge.fock import (
    Truncation,
    fock_norm,
    lift,
    transcendental_expectation,
)
from ntforge.linalg import spectral_norm
from ntforge.precategory import ColoredProductSystem
from ntforge.segments import check_partition, leq
from ntforge.semigroups import (
    AbsorptionMonoid,
    DirectSumN,
    FreeProduct,
    UnitExtension,
    check_controlled_map,
    controlled_abelianization,
    cyclic_group,
    free_monoid,
    klein_group,
    symmetric_group_3,
)
from ntforge.wick import NTElement, core_norm, nt_mul
from fock_oracles import fock_source_restricted
from rep_oracles import action_on_projection_defect
from bundle_oracles import group_algebra_bundle, swap_action
from rep_oracles import degenerate_example_rep


def _verdict(num, ok, text):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}"
    print(line)
    assert ok, line


def _scalar(sg, n_gens):
    if n_gens:
        return ColoredProductSystem(sg, [(1,)] * n_gens, check_depth=2)
    return ColoredProductSystem(sg, [], colors=1, check_depth=1)


def _random_element(ps, rng, nterms=2, keylen=2, diagonal=False):
    pool = ps.sg.elements(keylen)
    x = NTElement(ps)
    for _ in range(nterms):
        p = rng.choice(pool)
        q = p if diagonal else rng.choice(pool)
        x.add_term(p, q, ps.random_arrow(p, q, rng))
    return x


# -- 1: semigroup laws --------------------------------------------------------------


def test_criterion_01_semigroup_laws():
    instances = [
        ("N", DirectSumN(1)),
        ("N^2", DirectSumN(2)),
        ("free monoid ab", free_monoid("ab")),
        ("N*N", FreeProduct([DirectSumN(1), DirectSumN(1)], names=["u", "v"])),
        ("absorption", AbsorptionMonoid()),
        ("N x Z2", UnitExtension(DirectSumN(1), cyclic_group(2))),
        ("Z4", cyclic_group(4)),
        ("Z2xZ2", klein_group()),
        ("S3", symmetric_group_3()),
    ]
    slowest = 0.0
    for name, sg in instances:
        t0 = time.perf_counter()
        ball = sg.elements(4)
        table = {(p, q): p * q for p in ball for q in ball}
        for p in ball:
            for q in ball:
                pq = table[(p, q)]
                for r in ball:
                    assert pq * r == p * table[(q, r)], f"{name}: associativity"
        for p in ball:
            seen = {}
            for q in ball:
                w = table[(p, q)]
                assert seen.setdefault(w, q) == q, f"{name}: left cancellation at {p!r}"
        for p in ball:
            for q in ball:
                r = sg.right_lcm(p, q)
                if r is None:
                    assert not any(leq(p, w) and leq(q, w) for w in ball), (
                        f"{name}: missed a common multiple of {p!r}, {q!r}"
                    )
                    continue
                assert leq(p, r) and leq(q, r), f"{name}: lcm not a common multiple"
                for w in ball:
                    if leq(p, w) and leq(q, w):
                        assert leq(r, w), f"{name}: lcm not minimal at {p!r}, {q!r}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{name}: laws took {elapsed:.1f}s"
        slowest = max(slowest, elapsed)
    _verdict(
        1,
        True,
        f"semigroup laws to length 4 on {len(instances)} instances "
        f"(slowest {slowest:.2f}s < 10s)",
    )


# -- 2: partition of P by initial-segment cells -------------------------------------


def test_criterion_02_partition_decomposition():
    rng = random.Random(2026)
    families = 0
    for sg in (free_monoid("ab"), DirectSumN(2)):
        pool = [p for p in sg.elements(3) if p != sg.identity()]
        for _ in range(20):
            F = rng.sample(pool, rng.randint(1, 4))
            report = check_partition(sg, F, depth=5)
            assert report.ok, (sg.tag, F, report.failures[:3])
            families += 1
    _verdict(2, True, f"{families} random families, every element in exactly one cell")


# -- 3: controlled abelianization ----------------------------------------------------


def test_criterion_03_controlled_map():
    theta = controlled_abelianization(free_monoid("abc"))
    report = check_controlled_map(theta, depth=4)
    assert report.ok, report.failures[:3]
    _verdict(3, True, f"abelianization of 3 letters onto N^3, {report.checked} pairs to depth 4")


# -- 4: lift is multiplicative -------------------------------------------------------


def test_criterion_04_wick_fock_homomorphism():
    backends = [
        ColoredProductSystem(DirectSumN(1), [(2,)], check_depth=2),
        ColoredProductSystem(free_monoid("ab"), [(2,), (1,)], check_depth=2),
    ]
    pairs, worst = 0, 0.0
    for ps in backends:
        rng = random.Random(ps.sg.tag)
        tr = Truncation(ps, 6)
        for _ in range(60):
            x = _random_element(ps, rng)
            y = _random_element(ps, rng)
            inner = tr.interior(x.max_key_length() + y.max_key_length())
            diff = (lift(x, tr) @ lift(y, tr) - lift(nt_mul(x, y), tr)).restrict_sources(inner)
            worst = max(worst, diff.frobenius())
            pairs += 1
    assert pairs >= 100 and worst <= 1e-9, (pairs, worst)
    _verdict(4, True, f"{pairs} random products at depth 6, worst interior defect {worst:.2e}")


# -- 5: exact core norms vs Fock norms ----------------------------------------------


def test_criterion_05_norm_formula():
    ps0 = _scalar(DirectSumN(1), 1)
    zero, one = ps0.sg.el((0,)), ps0.sg.el((1,))
    x0 = NTElement(ps0)
    x0.add_term(zero, zero, ps0.arrow(zero, zero, [np.eye(1, dtype=complex)]))
    x0.add_term(one, one, ps0.arrow(one, one, [-np.eye(1, dtype=complex)]))
    worked = core_norm(x0)
    assert worked.exact and worked.value == 1.0

    backends = [
        ColoredProductSystem(DirectSumN(1), [(2,)], check_depth=2),
        ColoredProductSystem(free_monoid("ab"), [(2,), (1,)], check_depth=2),
    ]
    count, worst = 0, 0.0
    for ps in backends:
        rng = random.Random(f"norms-{ps.sg.tag}")
        for _ in range(25):
            x = _random_element(ps, rng, nterms=rng.randint(1, 3), diagonal=True)
            cn = core_norm(x)
            assert cn.exact
            fn = fock_norm(x, Truncation(ps, x.max_key_length() + 2))
            worst = max(worst, abs(cn.value - fn))
            count += 1
    assert count >= 50 and worst <= 1e-6, (count, worst)
    _verdict(5, True, f"worked example exactly 1.0; {count} diagonal elements, worst gap {worst:.2e}")


# -- 6: the transcendental part of the core -----------------------------------------


def test_criterion_06_transcendental_expectation():
    ab = AbsorptionMonoid()
    ps = ColoredProductSystem(ab, [(1,), (1,)], check_depth=2)
    p, q = ab.el((0, 1)), ab.el((0, 2))
    x = NTElement(ps).add_term(p, q, ps.arrow(p, q, [np.ones((1, 1), dtype=complex)]))
    kept = transcendental_expectation(x, Truncation(ps, 6)).norm()
    assert kept >= 0.99, kept

    cancellative = [
        (_scalar(DirectSumN(1), 1), "1", "2"),
        (_scalar(DirectSumN(2), 2), "(0,1)", "(0,2)"),
        (_scalar(free_monoid("ab"), 2), "a", "aa"),
        (_scalar(UnitExtension(DirectSumN(1), cyclic_group(2)), 1), "(1,0)", "(2,0)"),
        (_scalar(cyclic_group(4), 0), "1", "2"),
    ]
    worst = 0.0
    for cps, ptxt, qtxt in cancellative:
        sg = cps.sg
        pp, qq = sg.parse(ptxt), sg.parse(qtxt)
        y = NTElement(cps).add_term(pp, qq, cps.arrow(pp, qq, [np.ones((1, 1), dtype=complex)]))
        worst = max(worst, transcendental_expectation(y, Truncation(cps, 6)).norm())
    assert worst <= 1e-12, worst
    _verdict(
        6,
        True,
        f"absorption keeps norm {kept:.3f} >= 0.99; cancellative leak {worst:.1e} <= 1e-12",
    )


# -- 7: projection semilattice -------------------------------------------------------


def test_criterion_07_projection_semilattice():
    worst = 0.0
    for sg, n in ((DirectSumN(2), 2), (free_monoid("ab"), 2)):
        rep, tr = fock_rep(_scalar(sg, n), 5)
        fam = ProjectionFamily(rep, tr.S)
        report = check_projection_semilattice(fam, depth=2, tol=1e-9)
        assert report.ok, report.details["failures"][:3]
        worst = max(worst, report.details["worst"])
    _verdict(7, True, f"Q_<p>Q_<q> = Q_<lcm> (or 0) at depth 5, worst defect {worst:.2e}")


# -- 8: the degenerate example vs the tensor-nondegenerate one -----------------------


def test_criterion_08_degenerate_example():
    rep, zb = degenerate_example_rep([1, 2, 2])
    sg = zb.sg
    fam = ProjectionFamily(rep, sg.elements(2))
    one, two = sg.el((1,)), sg.el((2,))
    gap = spectral_norm(fam.Q(one) - fam.Q_angle(one))
    assert gap >= 0.99
    a = zb.arrow(two, two, [np.eye(2, dtype=complex)])
    broken = action_on_projection_defect(rep, fam, a, one, angled=False)
    assert broken >= 0.99
    assert action_on_projection_defect(rep, fam, a, one, angled=True) <= 1e-10

    # on the colored backend all the equivalent properties hold at once
    crep, ctr = fock_rep(_scalar(DirectSumN(1), 1), 6)
    cfam = ProjectionFamily(crep, ctr.S)
    csg = crep.backend.sg
    assert check_projection_equalities(cfam, csg.elements(3), tol=1e-9).ok
    assert check_projection_semilattice(cfam, depth=2, tol=1e-9).ok
    rng = random.Random(8)
    for p0, q, s in [("1", "1", "2"), ("2", "1", "1"), ("0", "1", "2"), ("1", "2", "1")]:
        arrow = crep.backend.random_arrow(csg.parse(p0), csg.parse(q), rng)
        for angled in (False, True):
            defect = action_on_projection_defect(crep, cfam, arrow, csg.parse(s), angled=angled)
            assert defect <= 1e-9, (p0, q, s, angled, defect)
    _verdict(
        8,
        True,
        f"zero-tensor gap {gap:.3f} >= 0.99, covariance broken ({broken:.3f}); "
        "colored equivalences all hold",
    )


# -- 9: condition (C) on Fock-induced representations --------------------------------


def test_criterion_09_condition_c_fock():
    cases = [
        (DirectSumN(1), 1, 5),
        (DirectSumN(2), 2, 4),
        (free_monoid("ab"), 2, 4),
    ]
    combos, weakest = 0, float("inf")
    for sg, n, depth in cases:
        rep, tr = fock_rep(_scalar(sg, n), depth)
        fam = ProjectionFamily(rep, tr.S)
        els = sg.elements(2)
        nonunits = [q for q in els if q != sg.identity()]
        for p in els:
            pool = [q for q in nonunits if not leq(q, p)]
            for size in (1, 2, 3):
                for qs in itertools.combinations(pool, size):
                    report = check_condition_C(rep, fam, p, list(qs))
                    assert report.ok, (sg.tag, p, qs, report.details)
                    weakest = min(weakest, report.details["sigma_min"])
                    combos += 1
    assert weakest >= 1e-6
    _verdict(9, True, f"{combos} (p, qs) combinations, smallest sigma_min {weakest:.2e}")


# -- 10: group dictionary ------------------------------------------------------------


def test_criterion_10_group_dictionary():
    bundles = [
        group_algebra_bundle(cyclic_group(3)),
        semidirect_bundle(swap_action(cyclic_group(2), dim=1)),
        semidirect_bundle(trivial_action(klein_group(), [2])),
    ]
    for bundle in bundles:
        back = bundle_from_precategory(precategory_from_bundle(bundle))
        rng = random.Random(10)
        for g in bundle.elements:
            for h in bundle.elements:
                a, b = bundle.random_fiber(g, rng), bundle.random_fiber(h, rng)
                assert all(
                    np.array_equal(u, v)
                    for u, v in zip(bundle.mul(g, a, h, b), back.mul(g, a, h, b))
                )
                assert all(
                    np.array_equal(u, v) for u, v in zip(bundle.star(g, a), back.star(g, a))
                )

    z2 = cyclic_group(2)
    bundle = group_algebra_bundle(z2)
    e, u = z2.identity(), z2.parse("1")
    a_val, b_val = 1.25, -0.75
    fam = {e: [np.array([[a_val]])], u: [np.array([[b_val]])]}
    spec = sorted(z.real for z in regular_spectrum(bundle, fam))
    want = sorted([a_val + b_val, a_val - b_val])
    gap = max(abs(s - w) for s, w in zip(spec, want))
    assert gap <= 1e-12, (spec, want)

    reg = regular_representation(bundle)
    collapse = ConcreteRep(
        reg.backend,
        1,
        lambda arrow: np.array([[sum(blk.sum() for blk in arrow.blocks)]]),
        label="collapse",
    )
    one_minus_u = {
        e: reg.backend.arrow(e, e, [np.eye(1, dtype=complex)]),
        u: reg.backend.arrow(u, e, [-np.eye(1, dtype=complex)]),
    }
    assert check_graded(reg, [one_minus_u]).ok
    assert not check_graded(collapse, [one_minus_u]).ok
    _verdict(
        10,
        True,
        f"3 bit-exact roundtrips; Z/2 spectrum within {gap:.1e}; collapse fails 1-u",
    )


# -- 11: aperiodicity search ---------------------------------------------------------


def test_criterion_11_aperiodicity():
    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    ps = ColoredProductSystem(ext, [(2,)], check_depth=2)
    p, x = ext.parse("(1,0)"), ext.parse("(0,1)")
    px = p * x

    trivial = aperiodicity_search(
        ps, p, x, ps.arrow(px, p, [np.eye(2, dtype=complex)]), trials=4, seed=1, maxiter=30
    )
    assert abs(trivial.best - 1.0) <= 1e-6, trivial.best

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    b = ps.arrow(px, p, [e11])
    h = ps.arrow(p, p, [0.5 * np.ones((2, 2), dtype=complex)])
    flip = aperiodicity_search(ps, p, x, b, h=h, twist=[swap], trials=4, seed=2, maxiter=30)
    assert flip.best <= 0.5 + 1e-3, flip.best
    _verdict(
        11,
        True,
        f"trivial action best {trivial.best:.6f} = 1; flip action best {flip.best:.4f} <= 0.5+1e-3",
    )


# -- 12: norm captured by the identity-source fiber ----------------------------------


def test_criterion_12_source_restricted_norm():
    count, worst = 0, 0.0

    z3 = cyclic_group(3)
    gps = _scalar(z3, 0)
    rng = random.Random(12)
    tr = Truncation(gps, 1)
    for _ in range(10):
        x = _random_element(gps, rng, nterms=rng.randint(1, 3), keylen=1)
        full = fock_norm(x, tr)
        restricted = fock_source_restricted(x, z3.identity(), tr).norm()
        worst = max(worst, abs(full - restricted))
        count += 1

    nps = ColoredProductSystem(DirectSumN(1), [(2,)], check_depth=2)
    rng = random.Random(13)
    for _ in range(12):
        x = _random_element(nps, rng, nterms=rng.randint(1, 3), diagonal=True)
        tr = Truncation(nps, x.max_key_length() + 2)
        full = fock_norm(x, tr)
        restricted = fock_source_restricted(x, nps.sg.identity(), tr).norm()
        worst = max(worst, abs(full - restricted))
        count += 1

    assert count >= 20 and worst <= 1e-6, (count, worst)
    _verdict(12, True, f"{count} elements, worst |full - restricted| = {worst:.2e}")
