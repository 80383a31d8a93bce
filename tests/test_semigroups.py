import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import ntforge.semigroups as semigroups
from ntforge.semigroups import (
    AbsorptionMonoid,
    DirectSumN,
    Element,
    FiniteGroup,
    FreeProduct,
    MismatchError,
    RightLcmSemigroup,
    UnitExtension,
    check_controlled_map,
    controlled_abelianization,
    cyclic_group,
    free_monoid,
    klein_group,
    symmetric_group_3,
    SemigroupHom,
)
from ntforge.scenario import INSTANCE_KINDS, make_group, make_semigroup
from ntforge.wick import canonical_key

N = DirectSumN(1)
N2 = DirectSumN(2)
FM = free_monoid("ab")
AB = AbsorptionMonoid()
EXT = UnitExtension(DirectSumN(1), cyclic_group(2))
Z2 = cyclic_group(2)

INSTANCES = [
    (N2, 3),
    (FM, 3),
    (AB, 4),
    (EXT, 3),
    (Z2, 1),
    (klein_group(), 1),
]


def divides(p, w):
    return p.sg.left_divide(p, w) is not None


# -- brute-force oracle: rP == pP & qP, compared inside a truncation window --

@pytest.mark.parametrize("sg,depth", INSTANCES, ids=lambda v: getattr(v, "tag", v))
def test_lcm_matches_ideal_intersection(sg, depth):
    els = sg.elements(depth)
    window = sg.elements(2 * depth)
    for p, q in itertools.product(els, repeat=2):
        common = {w for w in window if divides(p, w) and divides(q, w)}
        r = sg.right_lcm(p, q)
        if r is None:
            assert not common, (p, q, sorted(common, key=sg.sort_key)[:3])
        else:
            assert common == {w for w in window if divides(r, w)}, (p, q, r)


@pytest.mark.parametrize("sg,depth", INSTANCES, ids=lambda v: getattr(v, "tag", v))
def test_lcm_symmetric_and_unit_minimal(sg, depth):
    els = sg.elements(depth)
    units = sg.units()
    for p, q in itertools.product(els, repeat=2):
        r = sg.right_lcm(p, q)
        assert r == sg.right_lcm(q, p)
        if r is not None:
            # canonical representative is minimal in its unit orbit
            assert all(sg.sort_key(r) <= sg.sort_key(r * x) for x in units)
            # every element generating the same ideal differs by a unit
            for w in els:
                if divides(r, w) and divides(w, r):
                    assert any(r * x == w for x in units)


@pytest.mark.parametrize("sg,depth", INSTANCES, ids=lambda v: getattr(v, "tag", v))
def test_monoid_laws_by_enumeration(sg, depth):
    els = sg.elements(min(depth, 2))
    e = sg.identity()
    for p in els:
        assert p * e == p and e * p == p
    for p, q, r in itertools.product(els, repeat=3):
        assert (p * q) * r == p * (q * r)


@pytest.mark.parametrize("sg,depth", INSTANCES, ids=lambda v: getattr(v, "tag", v))
def test_left_cancellation_and_division(sg, depth):
    els = sg.elements(depth)
    for p in els:
        seen = {}
        for s in els:
            w = p * s
            assert seen.setdefault(w, s) == s  # left cancellation
            d = sg.left_divide(p, w)
            assert d is not None and p * d == w
            assert d == s or not sg.right_cancellative
    # division failure really means no solution
    for p, w in itertools.product(els, repeat=2):
        if sg.left_divide(p, w) is None:
            assert all(p * s != w for s in sg.elements(2 * depth))


def test_direct_sum_examples():
    assert N2.parse("(1,0)") * N2.parse("(0,2)") == N2.parse("(1,2)")
    assert N2.right_lcm(N2.parse("(1,0)"), N2.parse("(0,2)")) == N2.parse("(1,2)")
    assert set(N2.units()) == {N2.identity()}


def test_free_monoid_examples():
    a, b, ab = FM.parse("a"), FM.parse("b"), FM.parse("ab")
    assert a * b == ab
    assert FM.left_divide(a, ab) == b
    assert FM.left_divide(b, ab) is None
    assert FM.right_lcm(a, ab) == ab
    assert FM.right_lcm(a, b) is None
    assert FM.parse("a^2 b") == a * a * b
    assert repr(a * a * b) == "a^2b"


def test_free_product_with_vector_factor():
    # N^2 * N mixes block payloads; lcm needs a factor-level lcm in the last block
    fp = FreeProduct([DirectSumN(2), DirectSumN(1)], names=["u", "v"])
    g = fp.generators()
    u1, u2, v = g
    s = u1 * v * u1
    t = u1 * v * u2
    r = fp.right_lcm(s, t)
    assert r == u1 * v * (u1 * u2)
    assert fp.right_lcm(s, u1 * u1) is None


def _reference_free_product_tables(fp, p):
    """sort_key and gen_exponents of a free-product element, recomputed from
    the factors (and the generator offsets from generators()) on every call."""
    blocks = [(i, fp.factors[i], Element(fp.factors[i], x)) for i, x in p.data]
    key = (sum(f.length(el) for _, f, el in blocks), tuple((i, f.sort_key(el)) for i, f, el in blocks))
    offsets = list(itertools.accumulate((len(f.generators()) for f in fp.factors), initial=0))
    exps = [0] * offsets[-1]
    for i, f, el in blocks:
        for k, v in enumerate(f.gen_exponents(el)):
            exps[offsets[i] + k] += v
    return key, tuple(exps)


def test_free_product_keys_and_exponents_match_recomputation():
    abc = free_monoid("abc")
    els = abc.elements(4)
    words = ["".join(w) for n in range(5) for w in itertools.product("abc", repeat=n)]
    assert set(els) == {abc.parse(w) for w in words}
    assert els == sorted(els, key=lambda p: _reference_free_product_tables(abc, p)[0])
    for w in words:
        p = abc.parse(w)
        key, exps = _reference_free_product_tables(abc, p)
        assert (abc.sort_key(p), abc.length(p)) == (key, len(w))
        assert abc.gen_exponents(p) == exps == tuple(w.count(c) for c in "abc")
    # a factor with two generators shifts the offsets of the next one
    fp = FreeProduct([DirectSumN(2), DirectSumN(1)], names=["u", "v"])
    els = fp.elements(4)
    assert els == sorted(els, key=lambda p: _reference_free_product_tables(fp, p)[0])
    for p in els:
        assert (fp.sort_key(p), fp.gen_exponents(p)) == _reference_free_product_tables(fp, p)


def test_absorption_examples():
    e01, e10, e02 = AB.parse("(0,1)"), AB.parse("(1,0)"), AB.parse("(0,2)")
    assert e01 * e10 == e10
    assert AB.left_divide(e01, AB.parse("(2,3)")) == AB.parse("(2,3)")
    assert AB.right_lcm(e01, e10) == e10
    # not right cancellative
    assert e01 * e10 == e02 * e10 and e01 != e02
    assert not AB.right_cancellative


def test_absorption_lcm_always_exists():
    for p, q in itertools.product(AB.elements(4), repeat=2):
        assert AB.right_lcm(p, q) is not None


def test_unit_extension_units():
    assert {repr(x) for x in EXT.units()} == {"(0,0)", "(0,1)"}
    p, q = EXT.parse("(3,0)"), EXT.parse("(3,1)")
    assert p != q
    # same principal ideal
    assert EXT.left_divide(p, q) is not None and EXT.left_divide(q, p) is not None


def test_free_product_needs_one_distinct_name_per_factor():
    with pytest.raises(ValueError, match="'letters' must be distinct"):
        free_monoid("aa")
    for names in (["u"], ["u", "u"], ["u", "v", "w"], ["u:v", "w"], ["u v", "w"], ["", "w"]):
        with pytest.raises(ValueError, match="'names'"):
            FreeProduct([N, N], names=names)
    # names that are no letters print and parse as name:text blocks
    digits = FreeProduct([N, N], names=["1", "2"])
    word = digits.parse("1:2 2:1")
    assert (digits.format(word), digits.parse(digits.format(word))) == ("1:2 2:1", word)
    assert FreeProduct([N, N]).tag == "free(p0:N^1,p1:N^1)"


def test_finite_group_rejects_a_non_associative_table():
    # identity 0 and two-sided inverses, but (1*1)*2 = 2 while 1*(1*2) = 1*3 = 4
    rows = ["01234", "10342", "24013", "32401", "43120"]
    table = {(a, b): rows[int(a)][int(b)] for a in "01234" for b in "01234"}
    with pytest.raises(ValueError, match=r"not associative: \(1\*1\)\*2 != 1\*\(1\*2\)"):
        FiniteGroup("L5", "01234", table)
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup("G", "01", {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "2"})


@pytest.mark.parametrize("names", [[0, 1], ["a", "a"]], ids=["numbers", "repeated"])
def test_finite_group_names_its_elements_by_distinct_strings(names):
    table = {(a, b): a for a in names for b in names}
    with pytest.raises(ValueError, match="'elements' must be distinct strings"):
        FiniteGroup("G", names, table)
    with pytest.raises(ValueError, match="'elements'"):
        make_group({"elements": names, "table": [names, names]})


def test_group_spec_without_a_table_is_named_a_group_spec():
    # a bundle's group object has no 'kind'; the message must not call it a semigroup spec
    with pytest.raises(ValueError, match=r"^\['table'\]: missing$"):
        make_group({"elements": ["e"]})
    with pytest.raises(ValueError, match=r"^\['table'\]: missing$"):
        make_semigroup({"kind": "finite_group", "elements": ["e"]})


def test_group_lcm_is_identity():
    g = symmetric_group_3()
    for p, q in itertools.product(g.units(), repeat=2):
        assert g.right_lcm(p, q) == g.identity()


def test_abelianization_examples():
    theta = controlled_abelianization(FM)
    assert theta.fn(FM.parse("ab").data) == N2.parse("(1,1)").data
    assert theta.fn(FM.parse("aab").data) == N2.parse("(2,1)").data
    r = FM.right_lcm(FM.parse("a"), FM.parse("ab"))
    image = N2.right_lcm(N2.el(theta.fn(FM.parse("a").data)), N2.el(theta.fn(FM.parse("ab").data)))
    assert theta.fn(r.data) == image.data


def test_controlled_map_check_passes():
    assert check_controlled_map(controlled_abelianization(FM), 3).ok
    ident = SemigroupHom(N2, N2, lambda a: a)
    assert check_controlled_map(ident, 4).ok


def test_constant_map_fails_injectivity():
    const = SemigroupHom(N2, N2, lambda a: (0, 0))
    report = check_controlled_map(const, 2)
    assert not report.ok
    assert any("equal images" in msg for _, msg in report.failures)


def _reference_controlled_map(theta, depth):
    """The controlled-map check applying theta afresh on every use: the
    reference for verdicts, counts and failure texts."""
    dom, cod = theta.domain, theta.codomain

    def image(p):
        return cod.el(theta.fn(p.data))

    failures = []
    els = dom.elements(depth)
    if image(dom.identity()) != cod.identity():
        failures.append(("identity", "theta(e) != e"))
    if {image(x) for x in dom.units()} != set(cod.units()):
        failures.append(("units", "theta(P*) != P'*"))
    checked = 0
    for s, t in itertools.product(els, repeat=2):
        checked += 1
        if image(s * t) != image(s) * image(t):
            failures.append((f"hom s={s!r} t={t!r}", "theta(st) != theta(s)theta(t)"))
            continue
        r = dom.right_lcm(s, t)
        if r is None:
            continue
        if image(s) == image(t) and s != t:
            failures.append((f"s={s!r} t={t!r}", "equal images on a comparable pair"))
        rr = cod.right_lcm(image(s), image(t))
        if rr is None:
            failures.append((f"s={s!r} t={t!r}", "image pair has no LCM"))
            continue
        if not any(rr * x == image(r) for x in cod.units()):
            failures.append((f"s={s!r} t={t!r}", f"LCM not transported: {image(r)!r} vs {rr!r}"))
    return not failures, checked, failures


EXT2 = UnitExtension(N2, cyclic_group(2))
CONTROLLED_MAPS = {
    "abelianization": (controlled_abelianization(FM), 3),
    "id": (SemigroupHom(N2, N2, lambda a: a), 3),
    "const": (SemigroupHom(N2, N2, lambda a: (0, 0)), 2),
    # a homomorphism onto N that does not transport LCMs
    "sum": (SemigroupHom(N2, N, lambda a: (sum(a),)), 3),
    # not a homomorphism: the second coordinate gains one once the first is positive
    "bump": (SemigroupHom(N2, N2, lambda a: (a[0], a[1] + (a[0] > 0))), 2),
    # forgets the unit: equal images on unit-equivalent pairs, P* not onto
    "forget": (SemigroupHom(EXT2, EXT2, lambda a: (a[0], "0")), 2),
    # (i, j) -> a^i b^j: a and b have no common multiple in the free monoid
    "words": (SemigroupHom(N2, FM, lambda a: FM.parse("a" * a[0] + "b" * a[1]).data), 2),
    "shift": (SemigroupHom(N, N, lambda a: (a[0] + 1,)), 2),
}


@pytest.mark.parametrize("theta,depth", list(CONTROLLED_MAPS.values()),
                         ids=[f"{name}-{depth}" for name, (_, depth) in CONTROLLED_MAPS.items()])
def test_controlled_map_matches_reference(theta, depth):
    report = check_controlled_map(theta, depth)
    assert (report.ok, report.checked, report.failures) == _reference_controlled_map(theta, depth)


# -- the public layer over the data hooks -------------------------------------

KERNEL_INSTANCES = INSTANCES + [
    (FreeProduct([DirectSumN(2), DirectSumN(1)], names=["u", "v"]), 2),
]
FOREIGN = DirectSumN(7).identity()  # its tag N^7 is no instance's above


@pytest.mark.parametrize("sg,depth", KERNEL_INSTANCES, ids=lambda v: getattr(v, "tag", v))
def test_public_operations_check_the_instance(sg, depth):
    twin = copy.deepcopy(sg)  # a second, distinct instance with the same tag
    assert twin is not sg and twin.tag == sg.tag
    els = sg.elements(depth)
    ops = [(sg.mul, twin.mul), (sg.left_divide, twin.left_divide), (sg.right_lcm, twin.right_lcm)]
    for op, _ in ops:
        for args in ((FOREIGN, els[-1]), (els[-1], FOREIGN)):
            with pytest.raises(MismatchError):
                op(*args)
    for p, q in itertools.product(els, repeat=2):
        p2, q2 = twin.el(p.data), twin.el(q.data)
        for op, twin_op in ops:
            want = op(p, q)
            assert op(p2, q) == op(p, q2) == op(p2, q2) == twin_op(p, q) == want, (op, p, q)


@pytest.mark.parametrize("sg,depth", KERNEL_INSTANCES, ids=lambda v: getattr(v, "tag", v))
def test_element_hash_is_the_data_hash_across_instances(sg, depth):
    twin = copy.deepcopy(sg)
    els = sg.elements(depth)
    index = {p: i for i, p in enumerate(els)}
    for i, p in enumerate(els):
        p2 = twin.el(p.data)
        assert hash(p) == hash(p.data) == hash(p2) and p2 == p
        assert index[p2] == i
    assert len(index) == len(els)


def _reference_ops(sg):
    """mul, left_divide and a raw LCM of sg on Elements, written per instance
    type from the definitions; a composite instance applies its factors'
    reference operations to one Element per block."""
    if isinstance(sg, DirectSumN):
        def mul(p, q):
            return sg.el(tuple(a + b for a, b in zip(p.data, q.data)))

        def ldiv(p, w):
            diff = tuple(b - a for a, b in zip(p.data, w.data))
            return sg.el(diff) if all(d >= 0 for d in diff) else None

        def lcm(p, q):
            return sg.el(tuple(max(a, b) for a, b in zip(p.data, q.data)))
    elif isinstance(sg, AbsorptionMonoid):
        def mul(p, q):
            (k, m), (l, n) = p.data, q.data
            return sg.el((k + l, n) if l > 0 else (k, m + n))

        def ldiv(p, w):
            found = [s for s in sg.elements(sum(w.data)) if mul(p, s) == w]
            return found[0] if found else None

        def lcm(p, q):
            (k, m), (kk, mm) = p.data, q.data
            return sg.el((k, max(m, mm))) if k == kk else max(p, q, key=lambda x: x.data[0])
    elif isinstance(sg, UnitExtension):
        (bmul, bldiv, blcm), (umul, uldiv, _) = _reference_ops(sg.base), _reference_ops(sg.u)

        def split(p):
            return Element(sg.base, p.data[0]), Element(sg.u, p.data[1])

        def mul(p, q):
            (pb, pu), (qb, qu) = split(p), split(q)
            return sg.el((bmul(pb, qb).data, umul(pu, qu).data))

        def ldiv(p, w):
            (pb, pu), (wb, wu) = split(p), split(w)
            d = bldiv(pb, wb)
            return None if d is None else sg.el((d.data, uldiv(pu, wu).data))

        def lcm(p, q):
            r = blcm(split(p)[0], split(q)[0])
            return None if r is None else sg.el((r.data, sg.u.identity().data))
    elif isinstance(sg, FreeProduct):
        refs = [_reference_ops(f) for f in sg.factors]

        def blocks(p):
            return [(i, Element(sg.factors[i], x)) for i, x in p.data]

        def word(bl):
            # drop identity blocks and merge equal neighbours through the factor
            out = []
            for i, x in bl:
                if out and out[-1][0] == i:
                    x = refs[i][0](out.pop()[1], x)
                if x != sg.factors[i].identity():
                    out.append((i, x))
            return sg.el(tuple((i, x.data) for i, x in out))

        def mul(p, q):
            return word(blocks(p) + blocks(q))

        def ldiv(p, w):
            a, b = blocks(p), blocks(w)
            if not a:
                return w
            n, i = len(a), a[-1][0]
            if n > len(b) or a[:-1] != b[: n - 1] or i != b[n - 1][0]:
                return None
            d = refs[i][1](a[-1][1], b[n - 1][1])
            return None if d is None else word([(i, d)] + b[n:])

        def lcm(p, q):
            # one of p, q is a prefix of the other up to the factor LCM of the
            # last block of the shorter one
            a, b = sorted((blocks(p), blocks(q)), key=len)
            if not a:
                return word(b)
            n, i = len(a), a[-1][0]
            if a[:-1] != b[: n - 1] or i != b[n - 1][0]:
                return None
            if len(b) > n:
                return word(b) if refs[i][1](a[-1][1], b[n - 1][1]) is not None else None
            r = refs[i][2](a[-1][1], b[n - 1][1])
            return None if r is None else word(a[:-1] + [(i, r)])
    else:  # a finite group: every element is a unit
        def mul(p, q):
            return sg.el(sg.table[(p.data, q.data)])

        def ldiv(p, w):
            return next(s for s in sg.units() if mul(p, s) == w)

        def lcm(p, q):
            return sg.identity()
    return mul, ldiv, lcm


KIND_SPECS = [
    ({"kind": "direct_sum", "rank": 2}, 3),
    ({"kind": "free_monoid", "letters": "ab"}, 3),
    ({"kind": "free_product", "names": ["u", "v"],
      "factors": [{"kind": "direct_sum", "rank": 2}, {"kind": "direct_sum", "rank": 1}]}, 3),
    ({"kind": "absorption"}, 4),
    ({"kind": "unit_extension", "base": {"kind": "free_monoid", "letters": "ab"}, "units": "Z3"}, 2),
    ({"kind": "finite_group", "name": "S3"}, 1),
]


def test_kind_specs_cover_every_kind():
    assert {spec["kind"] for spec, _ in KIND_SPECS} == set(INSTANCE_KINDS)


def _reference_tables(sg, p):
    """Length, sort key, generator exponents and text of p, written per
    instance type from the definitions; a composite instance applies its
    factors' references to one Element per block."""
    d = p.data
    if isinstance(sg, (DirectSumN, AbsorptionMonoid)):
        text = str(d[0]) if sg.tag == "N^1" else "(" + ",".join(map(str, d)) + ")"
        return sum(d), (sum(d), d), d, text
    if isinstance(sg, UnitExtension):
        b = _reference_tables(sg.base, Element(sg.base, d[0]))
        u = _reference_tables(sg.u, Element(sg.u, d[1]))
        return b[0], (b[1], u[1]), b[2], f"({b[3]},{u[3]})"
    if isinstance(sg, FreeProduct):
        key, exps = _reference_free_product_tables(sg, p)
        if all(f.tag == "N^1" for f in sg.factors):
            text = "".join(sg.names[i] + ("" if x == (1,) else f"^{x[0]}") for i, x in d) or "e"
        else:
            text = " ".join(
                f"{sg.names[i]}:{_reference_tables(sg.factors[i], Element(sg.factors[i], x))[3]}"
                for i, x in d
            ) or "e"
        return key[0], key, exps, text
    # a finite group: every element has length 0; the identity sorts first
    return 0, (0 if p == sg.identity() else 1, d), (), d


@pytest.mark.parametrize("spec,depth", KIND_SPECS, ids=lambda v: v["kind"] if isinstance(v, dict) else v)
def test_data_hooks_match_element_reference(spec, depth):
    sg = make_semigroup(spec)
    mul, ldiv, lcm = _reference_ops(sg)

    def data(x):
        return None if x is None else x.data

    for p, q in itertools.product(sg.elements(depth), repeat=2):
        assert sg._mul(p.data, q.data) == mul(p, q).data, (p, q)
        w = mul(p, q)
        for a, b in ((p, q), (p, w), (q, w)):
            assert sg._ldiv(a.data, b.data) == data(ldiv(a, b)), (a, b)
        assert sg._lcm(p.data, q.data) == data(lcm(p, q)), (p, q)
    # every unit times at most depth generators, by the reference product
    reached = set(sg.units())
    layer = reached
    for _ in range(depth):
        layer = {mul(s, g) for s in layer for g in sg.generators()} - reached
        reached |= layer
    want = sorted(reached, key=lambda p: _reference_tables(sg, p)[1])
    assert sg._elements(depth) == [p.data for p in want]
    for p in want:
        tables = (sg._length(p.data), sg._key(p.data), sg._exps(p.data), sg._fmt(p.data))
        assert tables == _reference_tables(sg, p), p
        assert tables[0] <= depth


def test_instances_define_only_the_data_hooks():
    public = {"mul", "left_divide", "right_lcm", "length", "sort_key", "gen_exponents",
              "format", "elements"}
    kinds = [
        c for c in vars(semigroups).values()
        if isinstance(c, type) and issubclass(c, RightLcmSemigroup) and c is not RightLcmSemigroup
    ]
    assert {c.__name__ for c in kinds} == {
        "DirectSumN", "FiniteGroup", "FreeProduct", "UnitExtension", "AbsorptionMonoid"
    }
    for c in kinds:
        assert not public & set(vars(c)), (c.__name__, public & set(vars(c)))


@pytest.mark.parametrize("spec,depth", KIND_SPECS, ids=lambda v: v["kind"] if isinstance(v, dict) else v)
def test_negative_depth_is_rejected(spec, depth):
    sg = make_semigroup(spec)
    with pytest.raises(ValueError, match="'depth' must be >= 0, got -1"):
        sg.elements(-1)
    assert sg.elements(0)[0] == sg.identity()


def _orbit_lcm(sg, p, q):
    r = sg._lcm(p.data, q.data)
    return None if r is None else min((sg.el(r) * x for x in sg.units()), key=sg.sort_key)


def _orbit_canonical(sg, p, q):
    return min(
        ((p * u, q * u, u) for u in sg.units()),
        key=lambda t: (sg.sort_key(t[0]), sg.sort_key(t[1])),
    )


class _OffsetLcm(UnitExtension):
    """A unit extension whose _lcm hook returns a non-canonical generator,
    breaking the hook contract: the negative control of the contract check."""

    def _lcm(self, a, b):
        r = super()._lcm(a, b)
        return None if r is None else self._mul(r, self.units()[-1].data)


def _lcm_contract_breaches(sg, depth):
    """The pairs (p, q) to depth where the _lcm hook is not least in its unit
    orbit ("lcm"), or canonical_key is not the (key p u, key q u) minimum of
    the unit orbit ("key")."""
    out = []
    for p, q in itertools.product(sg.elements(depth), repeat=2):
        r = sg._lcm(p.data, q.data)
        if r is not None and sg.el(r) != _orbit_lcm(sg, p, q):
            out.append(("lcm", p, q))
        if canonical_key(sg, p, q) != _orbit_canonical(sg, p, q):
            out.append(("key", p, q))
    return out


@pytest.mark.parametrize("spec,depth", KIND_SPECS, ids=lambda v: v["kind"] if isinstance(v, dict) else v)
def test_lcm_hook_returns_the_canonical_generator(spec, depth):
    assert _lcm_contract_breaches(make_semigroup(spec), depth) == []


def test_lcm_contract_check_flags_a_non_canonical_hook():
    breaches = _lcm_contract_breaches(_OffsetLcm(N2, cyclic_group(3)), 2)
    assert {kind for kind, _, _ in breaches} == {"lcm", "key"}


ORBIT_INSTANCES = [
    UnitExtension(N2, cyclic_group(3)),
    N2,
    FM,
    AB,
]


@pytest.mark.parametrize(
    "sg,pool",
    [(sg, sg.elements(3)) for sg in ORBIT_INSTANCES],
    ids=[type(sg).__name__ for sg in ORBIT_INSTANCES],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_unit_fast_paths_match_orbit_min(sg, pool, data):
    p, q = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    assert sg.right_lcm(p, q) == _orbit_lcm(sg, p, q)
    assert sg.is_unit(p) == any(p == x for x in sg.units())
    assert canonical_key(sg, p, q) == _orbit_canonical(sg, p, q)


def test_make_semigroup_registry():
    assert make_semigroup({"kind": "direct_sum", "rank": 3}).tag == "N^3"
    assert make_semigroup({"kind": "free_monoid", "letters": "xy"}).parse("xy")
    assert make_semigroup({"kind": "absorption"}).tag == "absorb"
    sg = make_semigroup(
        {"kind": "unit_extension", "base": {"kind": "direct_sum", "rank": 1}, "units": "Z2"}
    )
    assert len(sg.units()) == 2
    with pytest.raises(ValueError):
        make_semigroup({"kind": "bogus"})


def test_parse_format_roundtrip():
    for sg, depth in INSTANCES + [(make_semigroup(spec), depth) for spec, depth in KIND_SPECS]:
        for p in sg.elements(depth):
            assert sg.parse(sg.format(p)) == p
        assert sg.parse("e") == sg.one


def test_free_product_parse_reads_name_text_blocks():
    fp = FreeProduct([N2, N], names=["u", "v"])
    u1, u2, v = fp.generators()
    assert fp.parse(" u:(1,0) v:2  u:(0,1) ") == u1 * v * v * u2
    # an identity block is dropped; blocks of one factor in a row merge
    assert fp.parse("u:(0,0) v:1 u:(1,0) u:(0,1)") == v * u1 * u2
    for text in ("u(1,0)", "w:1"):
        with pytest.raises(ValueError, match="as a name:text block"):
            fp.parse(text)
    with pytest.raises(ValueError):  # the factor's parse rejects its text
        fp.parse("u:(1,0)v:1")
    # a nested free product over factors other than N prints with spaces
    nested = FreeProduct([fp, N], names=["x", "y"])
    word = nested.el(((0, (u1 * v).data),))
    with pytest.raises(ValueError, match="a factor text holding spaces cannot be read"):
        nested.parse(nested.format(word))


@pytest.mark.parametrize("build, match", [
    (lambda: DirectSumN(0), "rank must be >= 1"),
    (lambda: N2.parse("(1,2,3)"), "expected 2 components"),
    # a left-zero semigroup: associative, no identity
    (lambda: FiniteGroup("L", "ab", {(x, y): x for x in "ab" for y in "ab"}), "has no identity"),
    # {e, z} with z z = z: a monoid whose z has no inverse
    (lambda: FiniteGroup("M", "ez", {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z", ("z", "z"): "z"}),
     "is not a group"),
    (lambda: Z2.parse("2"), "unknown element '2' of Z2"),
    (lambda: FreeProduct([Z2]), "factors must have trivial units"),
    (lambda: FM.parse("a1"), "cannot parse word 'a1' at position 1"),
    (lambda: FM.parse("ac"), "unknown letter 'c'"),
    (lambda: UnitExtension(EXT, Z2), "must have trivial units"),
    (lambda: UnitExtension(N, symmetric_group_3()), "must be abelian"),
    (lambda: controlled_abelianization(FreeProduct([N2])), "implemented for free monoids"),
], ids=["rank-0", "components", "no-identity", "no-inverse", "unknown-group-element",
        "unit-factor", "bad-token", "unknown-letter", "unit-base", "non-abelian-units",
        "non-letter-abelianization"])
def test_bad_python_api_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_controlled_map_report_prints_its_summary():
    report = check_controlled_map(SemigroupHom(N2, N2, lambda a: (0, 0)), 1)
    assert repr(report) == f"<controlled-map fail: 9 pairs, {len(report.failures)} failures>"


# -- property tests over random elements -------------------------------------

fm_words = st.builds(
    lambda ks: FM.el(()).sg.parse("".join("ab"[i % 2] * k for i, k in enumerate(ks))),
    st.lists(st.integers(min_value=1, max_value=3), max_size=4),
)


@given(fm_words, fm_words, fm_words)
@settings(max_examples=60, deadline=None)
def test_free_monoid_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(fm_words, fm_words)
@settings(max_examples=60, deadline=None)
def test_free_monoid_divide_roundtrip(p, q):
    w = p * q
    assert FM.left_divide(p, w) == q


@given(fm_words, fm_words)
@settings(max_examples=60, deadline=None)
def test_free_monoid_lcm_divides_both_ways(p, q):
    r = FM.right_lcm(p, q)
    if r is not None:
        assert divides(p, r) and divides(q, r)
        # minimality inside the window of left-divisors of r
        for w in (p * FM.left_divide(p, r), q * FM.left_divide(q, r)):
            assert w == r
