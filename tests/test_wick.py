import zlib

import numpy as np
import pytest

from ntforge.bundles import (
    CrossedProductBackend,
    precategory_from_bundle,
    semidirect_bundle,
    trivial_action,
)
from ntforge.linalg import norm_at_most
from ntforge.precategory import (
    Arrow,
    ColoredProductSystem,
    ColorIdeal,
    ZeroTensorBackend,
)
from ntforge.semigroups import (
    AbsorptionMonoid,
    DirectSumN,
    MismatchError,
    UnitExtension,
    cyclic_group,
    free_monoid,
    symmetric_group_3,
)
from ntforge.wick import (
    PRUNE_TOL,
    WITNESS_DEPTH,
    GradingMap,
    NTElement,
    abelianization_grading,
    canonical_key,
    core_norm,
    diagonal_expectation,
    nt_adjoint,
    nt_mul,
)
from algebra_oracles import _SwapN2, coeff, grade_project, grades_of, nt_identity, nt_monomial, validate_grading
from bundle_oracles import conjugation_action

N = DirectSumN(1)
N2 = DirectSumN(2)
FM = free_monoid("ab")

ps_N = ColoredProductSystem(N, gen_dims=[(1,)])
ps_N2 = ColoredProductSystem(N2, gen_dims=[(1,), (1,)])
ps_FM = ColoredProductSystem(FM, gen_dims=[(1,), (1,)])
ps_AB = ColoredProductSystem(AbsorptionMonoid(), gen_dims=[(1,), (1,)])


def scalar(ps, p, q, value=1.0):
    sg = ps.sg
    blocks = [np.full((1, 1), value, dtype=complex) for _ in range(ps.slot_count)]
    return nt_monomial(ps, sg.parse(p), sg.parse(q), blocks)


def test_isometry_relations_over_N():
    u = scalar(ps_N, "1", "0")
    uu = nt_mul(nt_adjoint(u), u)
    assert uu.keys() == [(N.parse("0"), N.parse("0"))]
    assert np.allclose(coeff(uu, N.parse("0"), N.parse("0")).blocks[0], 1.0)
    proj = nt_mul(u, nt_adjoint(u))
    assert proj.keys() == [(N.parse("1"), N.parse("1"))]


def test_distinct_letters_annihilate():
    ua = scalar(ps_FM, "a", "e")
    ub = scalar(ps_FM, "b", "e")
    assert nt_mul(nt_adjoint(ua), ub).is_zero()


def test_adjoint_is_involutive_and_antimultiplicative():
    rng = np.random.default_rng(11)
    x = NTElement(ps_FM)
    y = NTElement(ps_FM)
    for el, _ in zip([x, y, x, y], range(4)):
        p, q = rng.choice(FM.elements(2)), rng.choice(FM.elements(2))
        el.add_term(p, q, ps_FM.random_arrow(p, q, rng))
    assert _close(nt_adjoint(nt_adjoint(x)), x)
    assert _close(nt_adjoint(nt_mul(x, y)), nt_mul(nt_adjoint(y), nt_adjoint(x)), tol=1e-10)


def _close(x, y, tol=1e-12):
    if set(x.terms) != set(y.terms):
        return False
    return all(
        np.allclose(a.blocks[c], y.terms[k].blocks[c], atol=tol)
        for k, a in x.terms.items()
        for c in range(len(a.blocks))
    )


def test_mul_is_associative_termwise():
    rng = np.random.default_rng(5)
    pool = FM.elements(2)
    for _ in range(20):
        xs = []
        for _ in range(3):
            el = NTElement(ps_FM)
            for _ in range(2):
                p, q = rng.choice(pool), rng.choice(pool)
                el.add_term(p, q, ps_FM.random_arrow(p, q, rng))
            xs.append(el)
        x, y, z = xs
        assert _close(nt_mul(nt_mul(x, y), z), nt_mul(x, nt_mul(y, z)), tol=1e-10)


def test_unit_orbit_keys_collapse():
    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    ps = ColoredProductSystem(ext, gen_dims=[(2,)])
    p, q = ext.parse("(2,0)"), ext.parse("(1,0)")
    x_unit = ext.parse("(0,1)")
    rng = np.random.default_rng(6)
    a = ps.random_arrow(p, q, rng)
    el = NTElement(ps)
    el.add_term(p, q, a)
    el.add_term(p * x_unit, q * x_unit, a.rtensor(x_unit))
    assert len(el.terms) == 1
    ((kp, kq),) = el.terms
    assert np.allclose(el.terms[(kp, kq)].blocks[0], 2 * a.blocks[0])


def test_diagonal_expectation():
    x = scalar(ps_N, "1", "1") + scalar(ps_N, "2", "0") + scalar(ps_N, "0", "0")
    ex = diagonal_expectation(x)
    assert set(ex.terms) == {(N.parse("1"), N.parse("1")), (N.parse("0"), N.parse("0"))}
    assert _close(diagonal_expectation(ex), ex)
    with pytest.raises(ValueError, match="transcendental"):
        diagonal_expectation(scalar(ps_AB, "(0,1)", "(0,2)"))


def test_grading_examples():
    theta = validate_grading(abelianization_grading(N2), 3)
    key_grade = theta.grade_of_key(N2.parse("(1,0)"), N2.parse("(0,1)"))
    assert key_grade == (1, -1)
    x = scalar(ps_N2, "(1,0)", "(0,1)") + scalar(ps_N2, "(1,1)", "(1,1)")
    assert grades_of(x, theta) == [(0, 0), (1, -1)]
    efib = grade_project(x, theta, (0, 0))
    assert set(efib.terms) == {(N2.parse("(1,1)"), N2.parse("(1,1)"))}

    th_fm = validate_grading(abelianization_grading(FM), 2)
    y = scalar(ps_FM, "ab", "e") + scalar(ps_FM, "ba", "e")
    assert grades_of(y, th_fm) == [(1, 1)]
    assert len(grade_project(y, th_fm, (1, 1)).terms) == 2


def test_grading_on_group_and_absorption():
    g = cyclic_group(3)
    th = validate_grading(abelianization_grading(g), 1)
    assert th.grade_of_key(g.parse("1"), g.parse("2")) == g.parse("2")
    ab = validate_grading(abelianization_grading(AbsorptionMonoid()), 3)
    assert ab.grade_of_key(AbsorptionMonoid().parse("(2,5)"), AbsorptionMonoid().parse("(1,0)")) == (1,)


def test_bad_grading_rejected():
    with pytest.raises(ValueError, match="homomorphism"):
        validate_grading(GradingMap(N2, lambda p: (p.data[0] ** 2,), rank=1), 3)


def test_grading_needs_one_target_and_generators():
    for group, rank in ((None, None), (cyclic_group(2), 1)):
        with pytest.raises(ValueError, match="exactly one of group/rank"):
            GradingMap(N2, lambda p: p, group=group, rank=rank)
    # Z1 extended by Z2: neither a finite group nor generated
    with pytest.raises(ValueError, match="no canonical grading for ext"):
        abelianization_grading(UnitExtension(cyclic_group(1), cyclic_group(2)))


def test_elements_over_different_backends_do_not_add():
    x = scalar(ps_N, "1", "0")
    with pytest.raises(ValueError, match="elements over different backends"):
        x + scalar(ColoredProductSystem(N, gen_dims=[(1,)]), "1", "0")
    assert repr(x + scalar(ps_N, "0", "0")) == "<nt-element 2 terms: (0,0), (1,0)>"


def test_grade_multiplicativity():
    theta = abelianization_grading(FM)
    rng = np.random.default_rng(9)
    pool = FM.elements(2)
    for _ in range(15):
        x, y = NTElement(ps_FM), NTElement(ps_FM)
        px, qx = rng.choice(pool), rng.choice(pool)
        py, qy = rng.choice(pool), rng.choice(pool)
        x.add_term(px, qx, ps_FM.random_arrow(px, qx, rng))
        y.add_term(py, qy, ps_FM.random_arrow(py, qy, rng))
        prod = nt_mul(x, y)
        if prod.is_zero():
            continue
        gx = theta.grade_of_key(px, qx)
        gy = theta.grade_of_key(py, qy)
        expected = tuple(a + b for a, b in zip(gx, gy))
        assert grades_of(prod, theta) == [expected]


def test_core_norm_worked_examples():
    x = scalar(ps_N, "0", "0", 1.0) + scalar(ps_N, "1", "1", -1.0)
    res = core_norm(x)
    assert res.exact and res.value == 1.0
    y = scalar(ps_N, "0", "0", 1.0) + scalar(ps_N, "1", "1", 1.0)
    assert core_norm(y) == (2.0, True)
    single = scalar(ps_FM, "ab", "ab", 3.0)
    assert core_norm(single) == (3.0, True)
    zero = NTElement(ps_N)
    assert core_norm(zero) == (0.0, True)


def test_core_norm_identity_element():
    assert core_norm(nt_identity(ps_FM)) == (1.0, True)


def test_core_norm_mixed_key_absorption():
    x = scalar(ps_AB, "(0,1)", "(0,2)")
    res = core_norm(x, wdepth=3)
    assert not res.exact
    assert res.value >= 0.99  # the off-diagonal key has diagonal Fock blocks


def test_core_norm_builds_its_window_once(monkeypatch):
    AB = ps_AB.sg
    calls = []
    elements = type(AB).elements
    monkeypatch.setattr(type(AB), "elements", lambda self, depth: calls.append(depth) or elements(self, depth))
    mixed = (scalar(ps_AB, "(0,1)", "(0,2)") + scalar(ps_AB, "(1,1)", "(1,1)")
             + scalar(ps_AB, "(0,1)", "(0,3)"))
    assert core_norm(mixed, wdepth=5) == (3.0, False)
    assert calls.count(5) == 1  # not once per segment
    calls.clear()
    diagonal = scalar(ps_AB, "(0,1)", "(0,1)") + scalar(ps_AB, "(1,1)", "(1,1)")
    assert core_norm(diagonal, wdepth=5).exact
    assert calls == []  # w = sigma(C) alone: no window


def test_core_norm_builds_its_witness_window_once(monkeypatch):
    # the core-witness search reads one window of word length WITNESS_DEPTH
    # per call, not one per mixed key; the estimate is unchanged
    AB = ps_AB.sg
    calls = []
    elements = type(AB).elements
    monkeypatch.setattr(type(AB), "elements", lambda self, depth: calls.append(depth) or elements(self, depth))
    mixed = (scalar(ps_AB, "(0,1)", "(0,2)") + scalar(ps_AB, "(1,1)", "(1,1)")
             + scalar(ps_AB, "(0,1)", "(0,3)"))
    assert core_norm(mixed, wdepth=5) == (3.0, False)
    assert calls == [WITNESS_DEPTH, 5] == [4, 5]


def test_core_norm_rejects_non_core_key():
    with pytest.raises(ValueError, match="outside the core"):
        core_norm(scalar(ps_N, "1", "0"))


def test_mul_bilinear():
    rng = np.random.default_rng(13)
    pool = N2.elements(2)
    p, q = rng.choice(pool), rng.choice(pool)
    a = ps_N2.random_arrow(p, q, rng)
    x = NTElement(ps_N2).add_term(p, q, a)
    y = scalar(ps_N2, "(1,0)", "(0,0)")
    lhs = nt_mul(2.0 * x, y)
    rhs = 2.0 * nt_mul(x, y)
    assert _close(lhs, rhs, tol=1e-12)


# -- the stacked contraction against the pairwise loops ----------------------


def _pairwise_mul(x, y):
    """The Wick product one term pair at a time, each product entered through
    add_term: the definition the contraction in NTElement.mul must reproduce."""
    sg = x.backend.sg
    out = NTElement(x.backend, x.ideal)
    for (p, q), a in x.terms.items():
        for (s, t), b in y.terms.items():
            r = sg.right_lcm(q, s)
            if r is None:
                continue
            qr, sr = sg.left_divide(q, r), sg.left_divide(s, r)
            out.add_term(p * qr, t * sr, a.rtensor(qr).compose(b.rtensor(sr)))
    return out


def _mul_pairwise(x, y):
    """The Wick product one pair at a time on Elements and Arrows, with one
    LCM per distinct (q, s) and one ampliation per (term, quotient), summed
    under the canonical keys in pair order: the stacked contraction gives
    the same terms, order and values bit for bit.  The first pair that does
    not compose or escapes the ideal raises."""
    backend, ideal = x.backend, x.ideal
    rights = list(y.terms.items())
    right_amps = [{} for _ in rights]  # per right term: s^-1 r -> (t s^-1 r, b x 1)
    rows = {}  # q -> contraction row, see _contraction_row
    canonical = {}  # output key -> (canonical key, transporting unit or None)
    sums = {}  # canonical key -> summed blocks
    for (p, q), a in x.terms.items():
        row = rows.get(q)
        if row is None:
            row = rows[q] = _contraction_row(backend.sg, q, rights, right_amps)
        left_amps = {}  # q^-1 r -> (p q^-1 r, a x 1)
        for qr, tk, bb in row:
            hit = left_amps.get(qr)
            if hit is None:
                hit = left_amps[qr] = (p * qr, a.rtensor(qr))
            pk, aa = hit
            aa._composable(bb)
            blocks = backend._compose_blocks(aa.blocks, bb.blocks, aa.range, aa.source, bb.source)
            if not all(c in ideal.colors or norm_at_most(z, 1e-12) for c, z in enumerate(blocks)):
                raise ValueError(f"coefficient at ({pk!r},{tk!r}) escapes the ideal")
            canon = canonical.get((pk, tk))
            if canon is None:
                cp, cq, u = canonical_key(backend.sg, pk, tk)
                canon = canonical[pk, tk] = ((cp, cq), None if u == backend.sg.one else u)
            key, u = canon
            if u is not None:
                blocks = Arrow._derived(backend, aa.range, bb.source, blocks).rtensor(u).blocks
            acc = sums.get(key)
            sums[key] = blocks if acc is None else [v + w for v, w in zip(acc, blocks)]
    out = NTElement(backend, ideal)
    for (cp, cq), blocks in sums.items():
        arrow = Arrow._derived(backend, cp, cq, blocks)
        if not arrow.is_zero(PRUNE_TOL):
            out.terms[cp, cq] = arrow
    return out


def _contraction_row(sg, q, rights, right_amps):
    """(q^-1 r, t s^-1 r, b x 1_{s^-1 r}) for each right term (s, t) in
    order whose s has a right LCM r with q; one LCM per distinct s, and the
    ampliations shared through right_amps."""
    quotients = {}
    row = []
    for amps, ((s, t), b) in zip(right_amps, rights):
        if s not in quotients:
            r = sg.right_lcm(q, s)
            quotients[s] = None if r is None else (sg.left_divide(q, r), sg.left_divide(s, r))
        qs = quotients[s]
        if qs is None:
            continue
        qr, sr = qs
        hit = amps.get(sr)
        if hit is None:
            hit = amps[sr] = (t * sr, b.rtensor(sr))
        row.append((qr, *hit))
    return row


H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def _product_cases():
    """name -> (backend, key pool, whether the product must match bit for bit)."""
    z2 = cyclic_group(2)
    hadamard = conjugation_action(z2, {z2.identity(): [np.eye(2)], z2.parse("1"): [H2]})
    ext = UnitExtension(N2, z2)
    return {
        "n2": (ColoredProductSystem(N2, gen_dims=[(2,), (1,)]), N2.elements(2), True),
        "ab": (ColoredProductSystem(FM, gen_dims=[(2, 1), (1, 1)]), FM.elements(2), True),
        "absorb": (ColoredProductSystem(AbsorptionMonoid(), gen_dims=[(2,), (1,)]),
                   AbsorptionMonoid().elements(2), True),
        "zero": (ZeroTensorBackend([2, 1, 3]), N.elements(3), False),
        "unit-ext": (ColoredProductSystem(ext, gen_dims=[(2,), (1,)]), ext.elements(2), False),
        "s3-bundle": (precategory_from_bundle(semidirect_bundle(
            trivial_action(symmetric_group_3(), [2, 1]))), symmetric_group_3().elements(1), False),
        "z2-hadamard-bundle": (precategory_from_bundle(semidirect_bundle(hadamard)),
                               z2.elements(1), False),
        # tensoring by the unit conjugates, so the orbit transport is not the identity
        "z2-hadamard-crossed": (CrossedProductBackend(hadamard), z2.elements(1), False),
    }


PRODUCT_CASES = _product_cases()


def _random_element(backend, pool, rng, terms=6):
    # keys with a zero space (off the diagonal of the zero backend) add no term
    keys = [(p, q) for p in pool for q in pool if backend.space_dim(p, q)]
    x = NTElement(backend)
    for i in rng.integers(len(keys), size=terms):
        p, q = keys[i]
        x.add_term(p, q, backend.random_arrow(p, q, rng))
    return x


def _assert_same_product(z, ref, exact):
    if exact:
        assert list(z.terms) == list(ref.terms)
        for k, a in ref.terms.items():
            assert all(np.array_equal(u, v) for u, v in zip(z.terms[k].blocks, a.blocks)), k
        return
    assert set(z.terms) == set(ref.terms)
    scale = max((a.norm() for a in ref.terms.values()), default=0.0)
    for k, a in ref.terms.items():
        assert (z.terms[k] - a).norm() <= 1e-12 * scale, k


def _small_products(name, backend, x, y):
    """Operand pairs of few terms on the case name, x and y its random
    operands: an empty operand on either side or both, and a single pair;
    on ab a product with no contracting pair, on unit-ext a 1 x 2-term
    product whose output keys need a unit transport, on s3-bundle a
    2 x 2-term product."""
    empty = NTElement(backend)
    (p, q), a = next(iter(x.terms.items()))
    one = NTElement(backend).add_term(p, q, a)
    pairs = [(empty, y), (x, empty), (empty, empty), (one, nt_adjoint(one))]
    sg, rng = backend.sg, np.random.default_rng(7)

    def element(keys):
        z = NTElement(backend)
        for p, q in keys:
            p, q = sg.parse(p), sg.parse(q)
            z.add_term(p, q, backend.random_arrow(p, q, rng))
        return z

    if name == "ab":
        # a and b have no common right multiple
        pairs.append((element([("e", "a"), ("b", "a")]), element([("b", "e"), ("bb", "a")])))
    if name == "unit-ext":
        # lcm(((0,0),1), e) = e, so the left quotient is the unit and every
        # raw output key has the unit on its range
        pairs.append((element([("((0,0),0)", "((0,0),1)")]),
                      element([("((0,0),0)", "((0,0),0)"), ("((0,1),0)", "((1,0),0)")])))
    if name == "s3-bundle":
        two = NTElement(backend)
        for (p, q), a in list(x.terms.items())[:2]:
            two.add_term(p, q, a)
        pairs.append((two, nt_adjoint(two)))
    return pairs


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_wick_product_matches_pairwise_reference(name):
    backend, pool, exact = PRODUCT_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x, y = _random_element(backend, pool, rng), _random_element(backend, pool, rng)
    xx = nt_mul(x, nt_adjoint(x))
    # the square of x x* sums several products under most of its keys
    large = [(x, y), (y, x), (x, nt_adjoint(x)), (xx, xx)]
    for i, (left, right) in enumerate(large + _small_products(name, backend, x, y)):
        z = nt_mul(left, right)
        assert i >= len(large) or not z.is_zero()
        _assert_same_product(z, _pairwise_mul(left, right), exact)
        # the stacked contraction and the pairwise one agree bit for bit on every backend
        _assert_same_product(z, _mul_pairwise(left, right), exact=True)


def test_wick_product_inside_an_ideal_matches_pairwise_reference():
    # coefficients on colour 0 of the two-colour ab case: the products stay
    # in the ideal, so the stacked ideal check passes every pair
    backend, pool, _ = PRODUCT_CASES["ab"]
    ideal, rng = ColorIdeal({0}), np.random.default_rng(11)
    x, y = NTElement(backend, ideal), NTElement(backend, ideal)
    for z in (x, y):
        for _ in range(12):
            p, q = rng.choice(pool), rng.choice(pool)
            z.add_term(p, q, backend.random_arrow(p, q, rng, ideal=ideal))
    z = nt_mul(x, y)
    assert not z.is_zero() and all(not b.any() for a in z.terms.values() for b in a.blocks[1:])
    _assert_same_product(z, _pairwise_mul(x, y), exact=True)
    _assert_same_product(z, _mul_pairwise(x, y), exact=True)


def test_wick_product_drops_a_key_that_cancels_exactly():
    # (1 at (0,0) - 1 at (1,1)) (1 at (1,1)): both pairs land on (1,1)
    x = scalar(ps_N, "0", "0", 1.0) + scalar(ps_N, "1", "1", -1.0)
    y = scalar(ps_N, "1", "1", 1.0) + scalar(ps_N, "0", "2", 1.0)
    z = nt_mul(x, y)
    assert (N.parse("1"), N.parse("1")) not in z.terms
    assert list(z.terms) == list(_pairwise_mul(x, y).terms) == list(_mul_pairwise(x, y).terms) == [
        (N.parse("0"), N.parse("2")), (N.parse("1"), N.parse("3"))
    ]


def test_wick_product_keeps_the_mismatch_errors():
    # add_term rejects a coefficient the contraction could not read from its key
    backend = PRODUCT_CASES["ab"][0]
    e, a, b = FM.parse("e"), FM.parse("a"), FM.parse("b")
    # a coefficient filed under (e, a) that is an arrow e <- b
    with pytest.raises(ValueError, match=r"^object mismatch: coefficient at \(e,a\) is an arrow in L\(e,b\)$"):
        NTElement(backend).add_term(e, a, backend.random_arrow(e, b, np.random.default_rng(2)))
    x = free_monoid("xy").parse("x")
    with pytest.raises(MismatchError) as want:
        FM.check_same(x)
    with pytest.raises(MismatchError) as got:
        NTElement(backend).add_term(e, x, backend.random_arrow(e, a, np.random.default_rng(3)))
    assert str(got.value) == str(want.value)
    twin = ColoredProductSystem(FM, gen_dims=[(2, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"^coefficient at \(e,a\) is an arrow of another backend$"):
        NTElement(backend).add_term(e, a, twin.random_arrow(e, a, np.random.default_rng(4)))


def test_wick_product_raises_when_a_product_escapes_the_ideal():
    backend, ideal = _SwapN2(), ColorIdeal({0})
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    e, s1, s2 = N2.parse("(0,0)"), N2.parse("(1,0)"), N2.parse("(0,1)")
    x = NTElement(backend, ideal).add_term(e, s1, backend.arrow(e, s1, [one, zero]))
    y = NTElement(backend, ideal).add_term(s2, e, backend.arrow(s2, e, [one, zero]))
    # both quotients are odd, so the product lives on color 1 only
    with pytest.raises(ValueError) as want:
        _pairwise_mul(x, y)
    with pytest.raises(ValueError) as got:
        nt_mul(x, y)
    assert str(got.value) == str(want.value) == "coefficient at ((0,1),(1,0)) escapes the ideal"


def _chain_square_operand():
    """x = y y* for a four-term y on the ab case: many pairs share a key pair."""
    backend = PRODUCT_CASES["ab"][0]
    sg = backend.sg
    rng = np.random.default_rng(3)
    y = NTElement(backend)
    for p, q in [("e", "e"), ("a", "e"), ("e", "b"), ("ab", "e")]:
        p, q = sg.parse(p), sg.parse(q)
        y.add_term(p, q, backend.random_arrow(p, q, rng))
    return backend, nt_mul(y, nt_adjoint(y))


def _counting(monkeypatch, obj, name, calls):
    """Count the calls of obj.name in calls[name]."""
    calls[name] = 0
    hook = getattr(obj, name)

    def counted(*args):
        calls[name] += 1
        return hook(*args)

    monkeypatch.setattr(obj, name, counted)


def test_wick_product_contracts_once_per_key_pair(monkeypatch):
    backend, x = _chain_square_operand()
    sg = backend.sg
    key_pairs, left, right, pairs = set(), set(), set(), 0
    for (p, q) in x.terms:
        for (s, t) in x.terms:
            key_pairs.add((q, s))
            r = sg.right_lcm(q, s)
            if r is None:
                continue
            pairs += 1
            left.add((p, q, sg.left_divide(q, r)))
            right.add((s, t, sg.left_divide(s, r)))
    want = _pairwise_mul(x, x)
    assert len(key_pairs) < pairs and len(left) + len(right) < 2 * pairs

    # a x 1_e is a itself, so a quotient e takes no ampliation
    amplified = sum(k[2] != sg.one for k in left) + sum(k[2] != sg.one for k in right)
    calls = {}
    _counting(monkeypatch, sg, "_lcm", calls)
    _counting(monkeypatch, backend, "_tensor_blocks", calls)
    z = nt_mul(x, x)
    monkeypatch.undo()
    assert calls == {"_lcm": len(key_pairs), "_tensor_blocks": amplified}
    _assert_same_product(z, want, exact=True)


def test_wick_product_composes_once_per_group(monkeypatch):
    backend, x = _chain_square_operand()
    sg = backend.sg
    groups, pairs = set(), 0
    for (p, q), a in x.terms.items():
        for (s, t), b in x.terms.items():
            r = sg.right_lcm(q, s)
            if r is None:
                continue
            pairs += 1
            aa, bb = a.rtensor(sg.left_divide(q, r)), b.rtensor(sg.left_divide(s, r))
            groups.add(tuple(u.shape for u in aa.blocks + bb.blocks))
    assert len(groups) < pairs / 10

    calls = {}
    _counting(monkeypatch, backend, "_compose_blocks", calls)
    z = nt_mul(x, x)
    monkeypatch.undo()
    assert calls == {"_compose_blocks": len(groups)}
    _assert_same_product(z, _pairwise_mul(x, x), exact=True)


def test_wick_product_groups_bundle_pairs_by_grade(monkeypatch):
    # every fiber of a crossed-product bundle has one shape, so only the
    # grades of _compose_class keep pairs of different grades apart
    backend, pool, _ = PRODUCT_CASES["s3-bundle"]
    rng = np.random.default_rng(5)
    x = _random_element(backend, pool, rng, terms=8)
    # in a group every pair has an LCM, and tensoring keeps the grades
    grades = {(backend._grade(p, q), backend._grade(s, t)) for p, q in x.terms for s, t in x.terms}
    calls = {}
    _counting(monkeypatch, backend, "_compose_blocks", calls)
    z = nt_mul(x, x)
    monkeypatch.undo()
    assert calls == {"_compose_blocks": len(grades)} and len(grades) > 1
    _assert_same_product(z, _pairwise_mul(x, x), exact=False)
