import random
import zlib

import numpy as np
import pytest

import ntforge.wick as wick
from ntforge.bundles import (
    CrossedProductBackend,
    precategory_from_bundle,
    semidirect_bundle,
    trivial_action,
)
from ntforge.precategory import (
    ColoredProductSystem,
    ColorIdeal,
    ZeroTensorBackend,
    _BackendBase,
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
    GradingMap,
    NTElement,
    abelianization_grading,
    core_norm,
    diagonal_expectation,
    nt_adjoint,
    nt_mul,
)
from algebra_oracles import grade_project, grades_of, nt_identity, nt_monomial
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
    assert np.allclose(uu.coeff(N.parse("0"), N.parse("0")).blocks[0], 1.0)
    proj = nt_mul(u, nt_adjoint(u))
    assert proj.keys() == [(N.parse("1"), N.parse("1"))]


def test_distinct_letters_annihilate():
    ua = scalar(ps_FM, "a", "e")
    ub = scalar(ps_FM, "b", "e")
    assert nt_mul(nt_adjoint(ua), ub).is_zero()


def test_adjoint_is_involutive_and_antimultiplicative():
    rng = random.Random(11)
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
    rng = random.Random(5)
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
    rng = random.Random(6)
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
    theta = abelianization_grading(N2).validate(3)
    key_grade = theta.grade_of_key(N2.parse("(1,0)"), N2.parse("(0,1)"))
    assert key_grade == (1, -1)
    x = scalar(ps_N2, "(1,0)", "(0,1)") + scalar(ps_N2, "(1,1)", "(1,1)")
    assert grades_of(x, theta) == [(0, 0), (1, -1)]
    efib = grade_project(x, theta, (0, 0))
    assert set(efib.terms) == {(N2.parse("(1,1)"), N2.parse("(1,1)"))}

    th_fm = abelianization_grading(FM).validate(2)
    y = scalar(ps_FM, "ab", "e") + scalar(ps_FM, "ba", "e")
    assert grades_of(y, th_fm) == [(1, 1)]
    assert len(grade_project(y, th_fm, (1, 1)).terms) == 2


def test_grading_on_group_and_absorption():
    g = cyclic_group(3)
    th = abelianization_grading(g).validate(1)
    assert th.grade_of_key(g.parse("1"), g.parse("2")) == g.parse("2")
    ab = abelianization_grading(AbsorptionMonoid()).validate(3)
    assert ab.grade_of_key(AbsorptionMonoid().parse("(2,5)"), AbsorptionMonoid().parse("(1,0)")) == (1,)


def test_bad_grading_rejected():
    with pytest.raises(ValueError, match="homomorphism"):
        GradingMap(N2, lambda p: (p.data[0] ** 2,), rank=1).validate(3)


def test_grade_multiplicativity():
    theta = abelianization_grading(FM)
    rng = random.Random(9)
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


def test_core_norm_rejects_non_core_key():
    with pytest.raises(ValueError, match="outside the core"):
        core_norm(scalar(ps_N, "1", "0"))


def test_mul_bilinear():
    rng = random.Random(13)
    pool = N2.elements(2)
    p, q = rng.choice(pool), rng.choice(pool)
    a = ps_N2.random_arrow(p, q, rng)
    x = NTElement(ps_N2).add_term(p, q, a)
    y = scalar(ps_N2, "(1,0)", "(0,0)")
    lhs = nt_mul(2.0 * x, y)
    rhs = 2.0 * nt_mul(x, y)
    assert _close(lhs, rhs, tol=1e-12)


# -- the key-pair contraction against the pairwise loop -----------------------


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
    x = NTElement(backend)
    for _ in range(terms):
        p, q = rng.choice(pool), rng.choice(pool)
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


def _contractions(monkeypatch):
    """Make every product stacked, then every product pair by pair: one
    iteration each."""
    for limit in (-1, 10**9):
        monkeypatch.setattr(wick, "PAIRWISE_MAX", limit)
        yield limit


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_wick_product_matches_pairwise_reference(name, monkeypatch):
    backend, pool, exact = PRODUCT_CASES[name]
    rng = random.Random(zlib.crc32(name.encode()))
    x, y = _random_element(backend, pool, rng), _random_element(backend, pool, rng)
    xx = nt_mul(x, nt_adjoint(x))
    products = []
    for _ in _contractions(monkeypatch):
        # the square of x x* sums several products under most of its keys
        for left, right in [(x, y), (y, x), (x, nt_adjoint(x)), (xx, xx)]:
            z = nt_mul(left, right)
            assert not z.is_zero()
            _assert_same_product(z, _pairwise_mul(left, right), exact)
            products.append(z)
    # stacked and pair by pair agree bit for bit on every backend
    for stacked, pairwise in zip(products[:4], products[4:]):
        _assert_same_product(stacked, pairwise, exact=True)


def test_wick_product_inside_an_ideal_matches_pairwise_reference(monkeypatch):
    # coefficients on colour 0 of the two-colour ab case: the products stay
    # in the ideal, so the stacked ideal check passes every pair
    backend, pool, _ = PRODUCT_CASES["ab"]
    ideal, rng = ColorIdeal({0}), random.Random(11)
    x, y = NTElement(backend, ideal), NTElement(backend, ideal)
    for z in (x, y):
        for _ in range(12):
            p, q = rng.choice(pool), rng.choice(pool)
            z.add_term(p, q, backend.random_arrow(p, q, rng, ideal=ideal))
    for _ in _contractions(monkeypatch):
        z = nt_mul(x, y)
        assert not z.is_zero() and all(not b.any() for a in z.terms.values() for b in a.blocks[1:])
        _assert_same_product(z, _pairwise_mul(x, y), exact=True)


def test_wick_product_drops_a_key_that_cancels_exactly(monkeypatch):
    # (1 at (0,0) - 1 at (1,1)) (1 at (1,1)): both pairs land on (1,1)
    x = scalar(ps_N, "0", "0", 1.0) + scalar(ps_N, "1", "1", -1.0)
    y = scalar(ps_N, "1", "1", 1.0) + scalar(ps_N, "0", "2", 1.0)
    for _ in _contractions(monkeypatch):
        z = nt_mul(x, y)
        assert (N.parse("1"), N.parse("1")) not in z.terms
        assert list(z.terms) == list(_pairwise_mul(x, y).terms) == [
            (N.parse("0"), N.parse("2")), (N.parse("1"), N.parse("3"))
        ]


def test_wick_product_keeps_the_mismatch_errors(monkeypatch):
    backend = PRODUCT_CASES["ab"][0]
    e, a, b = FM.parse("e"), FM.parse("a"), FM.parse("b")
    y = NTElement(backend).add_term(a, e, backend.random_arrow(a, e, random.Random(1)))
    # a coefficient filed under (e, a) that is an arrow e <- b
    x = NTElement(backend).add_term(e, a, backend.random_arrow(e, b, random.Random(2)))
    other = free_monoid("xy")
    z = NTElement(backend).add_term(e, other.parse("x"), backend.random_arrow(e, a, random.Random(3)))
    for _ in _contractions(monkeypatch):
        with pytest.raises(ValueError, match="object mismatch: cannot compose source b with range a"):
            nt_mul(x, y)
        with pytest.raises(MismatchError) as want:
            _pairwise_mul(z, y)
        with pytest.raises(MismatchError) as got:
            nt_mul(z, y)
        assert str(got.value) == str(want.value)


class _SwapN2(_BackendBase):
    """N^2 with two 1x1 colors; a x 1_r swaps the colors |r| times, so an
    ideal on one color is not closed under aligned products."""

    kind = "swap"
    slot_count = 2

    def __init__(self):
        self.sg = N2

    def shape(self, p, q):
        return [(1, 1), (1, 1)]

    def _tensor_blocks(self, xs, p, q, r):
        return list(xs) if sum(r.data) % 2 == 0 else list(xs)[::-1]


def test_wick_product_raises_when_a_product_escapes_the_ideal(monkeypatch):
    backend, ideal = _SwapN2(), ColorIdeal({0})
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    e, s1, s2 = N2.parse("(0,0)"), N2.parse("(1,0)"), N2.parse("(0,1)")
    x = NTElement(backend, ideal).add_term(e, s1, backend.arrow(e, s1, [one, zero]))
    y = NTElement(backend, ideal).add_term(s2, e, backend.arrow(s2, e, [one, zero]))
    # both quotients are odd, so the product lives on color 1 only
    for _ in _contractions(monkeypatch):
        with pytest.raises(ValueError) as want:
            _pairwise_mul(x, y)
        with pytest.raises(ValueError) as got:
            nt_mul(x, y)
        assert str(got.value) == str(want.value) == "coefficient at ((0,1),(1,0)) escapes the ideal"


def _chain_square_operand():
    """x = y y* for a four-term y on the ab case: many pairs share a key pair."""
    backend = PRODUCT_CASES["ab"][0]
    sg = backend.sg
    rng = random.Random(3)
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
    for _ in _contractions(monkeypatch):
        calls = {}
        with pytest.MonkeyPatch.context() as counters:
            _counting(counters, sg, "_lcm", calls)
            _counting(counters, backend, "_tensor_blocks", calls)
            z = nt_mul(x, x)
        assert calls == {"_lcm": len(key_pairs), "_tensor_blocks": amplified}
        _assert_same_product(z, want, exact=True)


def test_wick_product_composes_once_per_group(monkeypatch):
    backend, x = _chain_square_operand()
    assert len(x.terms) ** 2 > wick.PAIRWISE_MAX  # a stacked product
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
    rng = random.Random(5)
    x = _random_element(backend, pool, rng, terms=8)
    monkeypatch.setattr(wick, "PAIRWISE_MAX", -1)
    # in a group every pair has an LCM, and tensoring keeps the grades
    grades = {(backend._grade(p, q), backend._grade(s, t)) for p, q in x.terms for s, t in x.terms}
    calls = {}
    _counting(monkeypatch, backend, "_compose_blocks", calls)
    z = nt_mul(x, x)
    monkeypatch.undo()
    assert calls == {"_compose_blocks": len(grades)} and len(grades) > 1
    _assert_same_product(z, _pairwise_mul(x, x), exact=False)
