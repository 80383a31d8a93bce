import itertools
import random

import pytest

from ntforge.segments import (
    Segment,
    check_partition,
    initial_segments,
    leq,
)
from ntforge.semigroups import (
    AbsorptionMonoid,
    DirectSumN,
    UnitExtension,
    cyclic_group,
    free_monoid,
    symmetric_group_3,
)
from algebra_oracles import is_initial_segment, partition_member, sigma_in, unit_equivalent

N = DirectSumN(1)
N2 = DirectSumN(2)
FM = free_monoid("ab")
EXT = UnitExtension(DirectSumN(1), cyclic_group(2))


def seg_sets(segs):
    return {frozenset(map(repr, s.C)) for s in segs}


def test_leq_examples():
    assert leq(FM.parse("a"), FM.parse("ab"))
    assert not leq(N2.parse("(1,2)"), N2.parse("(1,1)"))
    g = cyclic_group(3)
    assert all(leq(p, q) for p in g.units() for q in g.units())


def test_sigma_examples():
    assert sigma_in(FM, []) == FM.identity()
    assert sigma_in(FM, [FM.parse("a"), FM.parse("ab")]) == FM.parse("ab")
    assert sigma_in(FM, [FM.parse("a"), FM.parse("b")]) is None


def test_sigma_fold_order_independent_up_to_units():
    rng = random.Random(7)
    pool = EXT.elements(3)
    for _ in range(25):
        C = rng.sample(pool, k=rng.randint(1, 4))
        results = []
        for perm in itertools.permutations(C):
            acc = EXT.identity()
            for t in perm:
                acc = EXT.right_lcm(acc, t)
                if acc is None:
                    break
            results.append(acc)
        if results[0] is None:
            assert all(r is None for r in results)
        else:
            assert all(unit_equivalent(r, results[0]) is not None for r in results)


def test_initial_segments_free_monoid():
    F = [FM.parse("a"), FM.parse("ab")]
    assert seg_sets(initial_segments(FM, F)) == {
        frozenset(),
        frozenset({"a"}),
        frozenset({"a", "ab"}),
    }
    F2 = [FM.parse("a"), FM.parse("b")]
    assert seg_sets(initial_segments(FM, F2)) == {
        frozenset(),
        frozenset({"a"}),
        frozenset({"b"}),
    }


def test_initial_segments_with_identity_in_F():
    # F = {0, 1} in N: the empty set is NOT a segment because 0 <= e
    F = [N.parse("0"), N.parse("1")]
    assert seg_sets(initial_segments(N, F)) == {
        frozenset({"0"}),
        frozenset({"0", "1"}),
    }


def _subset_segments(sg, F):
    """Reference: every subset C of F, by size and then position in F, that
    is initial, i.e. sigma(C) exists and C = {t in F : t <= sigma(C)}."""
    F = list(dict.fromkeys(F))
    return [
        Segment(C, sigma_in(sg, C))
        for k in range(len(F) + 1)
        for C in itertools.combinations(F, k)
        if is_initial_segment(sg, F, C)
    ]


@pytest.mark.parametrize(
    "sg,depth",
    [
        (N2, 4),
        (DirectSumN(3), 3),
        (FM, 3),
        (AbsorptionMonoid(), 4),
        (UnitExtension(N2, cyclic_group(2)), 2),
        (symmetric_group_3(), 0),
    ],
    ids=lambda v: getattr(v, "tag", str(v)),
)
def test_closure_segments_match_subset_enumeration(sg, depth):
    rng = random.Random(f"segments-{sg.tag}")
    pool = sg.elements(depth)
    # draws with repeats exercise the dedup; the last family has 10 members
    families = [rng.choices(pool, k=k) for k in range(9)] + [rng.sample(pool, min(10, len(pool)))]
    for F in families:
        got = initial_segments(sg, F)
        want = _subset_segments(sg, F)
        assert [(seg.C, seg.sig) for seg in got] == [(seg.C, seg.sig) for seg in want], F


def test_initial_segments_of_a_16_element_antichain():
    # F = {(i, 15 - i)}: the segments are the empty set and the 136 runs
    # F[i..j], with sigma = (j, 15 - i)
    F = [N2.el((i, 15 - i)) for i in range(16)]
    segs = initial_segments(N2, F)
    assert len(segs) == 137
    runs = {frozenset(F[i:j + 1]): N2.el((j, 15 - i)) for i in range(16) for j in range(i, 16)}
    runs[frozenset()] = N2.identity()
    assert {seg.C: seg.sig for seg in segs} == runs
    report = check_partition(N2, F, 17)
    assert report.ok and report.checked == 171 and len(report.segments) == 137


def test_partition_member_examples():
    F = [FM.parse("a"), FM.parse("ab")]
    assert partition_member(FM.parse("a^2"), F, [FM.parse("a")])
    assert partition_member(FM.parse("e"), F, [])
    assert not partition_member(FM.parse("ab"), F, [FM.parse("a")])
    with pytest.raises(ValueError):
        partition_member(FM.parse("a"), F, [FM.parse("ab")])


@pytest.mark.parametrize(
    "sg,F,depth",
    [
        (FM, ["a", "ab"], 4),
        (FM, ["a", "b", "ab"], 4),
        (N2, ["(1,0)", "(0,1)"], 4),
        (N2, ["(1,1)", "(2,0)", "(0,2)"], 4),
        (EXT, ["(1,0)", "(2,1)"], 3),
        (AbsorptionMonoid(), ["(1,0)", "(0,1)"], 4),
        (cyclic_group(2), ["0"], 1),
    ],
)
def test_partition_decomposition(sg, F, depth):
    F = [sg.parse(f) for f in F]
    report = check_partition(sg, F, depth)
    assert report.ok, report.failures[:3]


def test_partition_random_subsets():
    rng = random.Random(20240811)
    for sg, depth in [(FM, 5), (N2, 5)]:
        pool = sg.elements(3)
        for _ in range(20):
            F = rng.sample(pool, k=rng.randint(1, 4))
            report = check_partition(sg, F, depth)
            assert report.ok, (list(map(repr, F)), report.failures[:3])


def test_unit_equivalent():
    assert unit_equivalent(EXT.parse("(3,0)"), EXT.parse("(3,1)")) is not None
    assert unit_equivalent(N2.parse("(1,0)"), N2.parse("(0,1)")) is None
    g = cyclic_group(4)
    assert all(
        unit_equivalent(p, q) is not None
        for p in g.units()
        for q in g.units()
    )


def test_leq_unit_invariant():
    rng = random.Random(3)
    pool = EXT.elements(3)
    units = EXT.units()
    for _ in range(50):
        p, q = rng.choice(pool), rng.choice(pool)
        base = leq(p, q)
        for x, y in itertools.product(units, repeat=2):
            assert leq(p * x, q * y) == base
