import math
import tracemalloc
import zlib

import numpy as np
import pytest

from ntforge.bundles import (
    CrossedProductBackend,
    precategory_from_bundle,
    semidirect_bundle,
    trivial_action,
)
from ntforge.fock import (
    SMALL_SLOT,
    FockOperator,
    LanczosNoConvergence,
    Truncation,
    _gram_lanczos,
    fock_norm,
    fock_rep,
    lift,
    projection_QT,
    transcendental_expectation,
)
from ntforge.linalg import spectral_norm
from ntforge.precategory import ColorIdeal, ColoredProductSystem, ZeroTensorBackend, full_ideal, ideal_unit
from ntforge.semigroups import (
    AbsorptionMonoid,
    DirectSumN,
    UnitExtension,
    cyclic_group,
    free_monoid,
    symmetric_group_3,
)
from ntforge.scenario import INSTANCE_KINDS, make_semigroup
from ntforge.wick import NTElement, core_norm, nt_adjoint, nt_mul
from fock_oracles import (
    check_divisor_closure,
    check_reducing_condition,
    col_dim,
    col_offset,
    col_source,
    colour_block,
    diagonal_part,
    fiber,
    fiber_layout,
    fock_source_restricted,
    interior,
    norm_by_fibers,
    per_key_lift,
    product_defect,
    projection_Qw,
)
from algebra_oracles import nt_monomial
from bundle_oracles import conjugation_action, swap_action

N = DirectSumN(1)
N2 = DirectSumN(2)
FM = free_monoid("ab")

ps_N = ColoredProductSystem(N, gen_dims=[(1,)])
ps_N2 = ColoredProductSystem(N2, gen_dims=[(1,), (1,)])
ps_FM = ColoredProductSystem(FM, gen_dims=[(2, 1), (1, 2)])
ps_AB = ColoredProductSystem(AbsorptionMonoid(), gen_dims=[(1,), (1,)])


def scalar(ps, p, q, value=1.0):
    sg = ps.sg
    blocks = [np.full((1, 1), value, dtype=complex) for _ in range(ps.slot_count)]
    return nt_monomial(ps, sg.parse(p), sg.parse(q), blocks)


def random_element(ps, rng, nterms=2, keylen=2, pool=None):
    pool = pool if pool is not None else ps.sg.elements(keylen)
    x = NTElement(ps)
    for _ in range(nterms):
        p, q = rng.choice(pool), rng.choice(pool)
        x.add_term(p, q, ps.random_arrow(p, q, rng))
    return x


def _same_entries(a, b):
    """Equal sparse matrices: the same stored positions and the same values."""
    a, b = a.tocoo(), b.tocoo()
    return (
        set(zip(a.row.tolist(), a.col.tolist())) == set(zip(b.row.tolist(), b.col.tolist()))
        and np.array_equal(a.toarray(), b.toarray())
    )


def test_shift_matrix_over_N():
    tr = Truncation(ps_N, 4)
    u = scalar(ps_N, "1", "0")
    m = colour_block(lift(u, tr), 0).toarray()
    expect = np.zeros((5, 5))
    for i in range(4):
        expect[i + 1, i] = 1.0
    assert np.array_equal(m, expect)
    assert fock_norm(u, tr) == 1.0


def test_lift_adjoint_commutes():
    rng = np.random.default_rng(21)
    tr = Truncation(ps_FM, 3)
    x = random_element(ps_FM, rng)
    a, b = lift(nt_adjoint(x), tr), lift(x, tr)
    for c in range(2):
        assert _same_entries(colour_block(a, c), colour_block(b, c).conj().T.tocsr())


@pytest.mark.parametrize("ps,depth", [(ps_N, 6), (ps_FM, 5), (ps_N2, 4)])
def test_lift_is_multiplicative_on_interior(ps, depth):
    rng = np.random.default_rng(zlib.crc32(f"{ps.sg.tag}-homo".encode()))
    tr = Truncation(ps, depth)
    for _ in range(12):
        x = random_element(ps, rng)
        y = random_element(ps, rng)
        margin = x.max_key_length() + y.max_key_length()
        assert product_defect(x, y, nt_mul(x, y), tr, interior(tr, margin)) <= 1e-9


def test_right_tensor_representation_law():
    # single keys with nested sources: lift(a)lift(b) = lift((a x 1)(b))
    rng = np.random.default_rng(8)
    tr = Truncation(ps_FM, 5)
    q, s = FM.parse("a"), FM.parse("ab")  # s in qP
    for _ in range(5):
        p, t = rng.choice(FM.elements(2)), rng.choice(FM.elements(2))
        a = ps_FM.random_arrow(p, q, rng)
        b = ps_FM.random_arrow(s, t, rng)
        x = NTElement(ps_FM).add_term(p, q, a)
        y = NTElement(ps_FM).add_term(s, t, b)
        v = FM.left_divide(q, s)
        z = NTElement(ps_FM).add_term(p * v, t, a.rtensor(v).compose(b))
        assert product_defect(x, y, z, tr, interior(tr, x.max_key_length() + y.max_key_length())) <= 1e-9


def test_fock_norm_examples():
    tr = Truncation(ps_N, 6)
    uu = nt_mul(nt_adjoint(scalar(ps_N, "1", "0")), scalar(ps_N, "1", "0"))
    assert abs(fock_norm(uu, tr) - 1.0) <= 1e-12
    x = scalar(ps_N, "0", "0", 1.0) + scalar(ps_N, "1", "1", -1.0)
    m = colour_block(lift(x, tr), 0).toarray()
    assert abs(np.linalg.norm(m, 2) - 1.0) <= 1e-12
    assert abs(fock_norm(x, tr) - 1.0) <= 1e-12


def test_truncated_toeplitz_norm_vs_closed_form():
    u = scalar(ps_N, "1", "0")
    x = u + nt_adjoint(u)
    vals = []
    for L in (3, 4, 5, 20, 22, 1000):  # L = 1000 is above SMALL_SLOT: Lanczos
        tr = Truncation(ps_N, L)
        got = fock_norm(x, tr)
        # (L+1)-point tridiagonal with unit off-diagonals
        want = 2 * math.cos(math.pi / (L + 2))
        assert abs(got - want) <= 1e-9
        vals.append(got)
    assert vals == sorted(vals)  # monotone in depth
    assert abs(vals[-1] - 2.0) <= 2e-2


def test_diagonal_core_norm_matches_fock():
    rng = np.random.default_rng(31)
    for ps, parse in [(ps_N, N.parse), (ps_N2, N2.parse), (ps_FM, FM.parse)]:
        for _ in range(8):
            x = NTElement(ps)
            for p in rng.choice(ps.sg.elements(2), size=2, replace=False):
                x.add_term(p, p, ps.random_arrow(p, p, rng))
            if x.is_zero():
                continue
            tr = Truncation(ps, x.max_key_length() + 2)
            res = core_norm(x)
            assert res.exact
            assert abs(res.value - fock_norm(x, tr)) <= 1e-6


def test_factored_norm_matches_fiberwise_assembly():
    rng = np.random.default_rng(41)
    tr = Truncation(ps_FM, 3)
    for _ in range(6):
        op = lift(random_element(ps_FM, rng, pool=FM.elements(2)), tr)
        assert abs(op.norm() - norm_by_fibers(op)) <= 1e-10
    # both color slots above SMALL_SLOT: Lanczos against the dense SVD of the
    # t = e fiber, which holds both column factors
    tr = Truncation(ps_FM, 4)
    assert min(tr.col_total(c) for c in range(2)) > SMALL_SLOT
    for _ in range(4):
        x = NTElement(ps_FM)
        for _ in range(2):
            p, q = rng.choice(FM.elements(2), size=2, replace=False)
            x.add_term(p, q, ps_FM.random_arrow(p, q, rng))
        op = lift(x, tr)
        assert abs(op.norm() - norm_by_fibers(op, ts=[FM.identity()])) <= 1e-10
    assert FockOperator(tr, op.matrix - op.matrix).norm() == 0.0  # all zero above SMALL_SLOT
    # zero-tensor backend: K(s,t) = 0 off the diagonal, so each fiber holds
    # only its own diagonal block
    zb = ZeroTensorBackend([1, 2, 2])
    tr = Truncation(zb, 3)
    for t in tr.S:
        assert list(fiber_layout(tr, t)[0]) == [(t, 0)]
    x = NTElement(zb)
    for p in zb.sg.elements(2):
        x.add_term(p, p, zb.random_arrow(p, p, rng))
    op = lift(x, tr)
    assert abs(op.norm() - norm_by_fibers(op)) <= 1e-10


def _dense_block_reference(tr, blocks_at):
    """The dict-of-dense-blocks assembly the CSR slots replaced, per color:
    blocks summed per (target, source) in the order given, then written into
    a dense slot."""
    acc = [dict() for _ in range(tr.backend.slot_count)]
    for target, s, arrow in blocks_at:
        for c, b in enumerate(arrow.blocks):
            if b.size:
                key = (target, s)
                acc[c][key] = b if key not in acc[c] else acc[c][key] + b
    out = []
    for c, d in enumerate(acc):
        n = tr.col_total(c)
        m = np.zeros((n, n), dtype=complex)
        for (so, si), b in d.items():
            ro, ci = col_offset(tr, c, so), col_offset(tr, c, si)
            m[ro : ro + b.shape[0], ci : ci + b.shape[1]] = b
        out.append(m)
    return out


def _reference_lift(x, tr, expectation=False):
    """Old lift / transcendental_expectation: a x 1_v as the kron block of
    Arrow.rtensor at every source."""
    sg = tr.backend.sg
    placed = []
    for (p, q), a in x.terms.items():
        for s in tr.S:
            v = sg.left_divide(q, s)
            if v is None:
                continue
            if expectation:
                if v != sg.left_divide(p, s):
                    continue
                target = s
            else:
                target = p * v
                if target not in tr.index:
                    continue
            placed.append((target, s, a.rtensor(v)))
    return _dense_block_reference(tr, placed)


def _reference_fiber(tr, slots, t):
    """Old FockOperator.fiber on dense slots: every (target, source) block,
    kron the identity of the target's K(s,t) columns, at the fiber layout."""
    layout, total = fiber_layout(tr, t)
    m = np.zeros((total, total), dtype=complex)
    for (so, c), (oo, ro, co) in layout.items():
        for (si, ci_), (oi, ri, cc) in layout.items():
            if ci_ != c:
                continue
            r0, c0 = col_offset(tr, c, so), col_offset(tr, c, si)
            b = slots[c][r0 : r0 + col_dim(tr, c, so), c0 : c0 + col_dim(tr, c, si)]
            if not b.any():
                continue
            m[oo : oo + ro * co, oi : oi + ri * cc] = np.kron(b, np.eye(co, dtype=complex))
    return m


def _reference_projection_QT(p, tr):
    sg = tr.backend.sg
    return _dense_block_reference(
        tr,
        [(s, s, ideal_unit(tr.backend, full_ideal(tr.backend), s)) for s in tr.S if sg.left_divide(p, s) is not None],
    )


ps_N2_21 = ColoredProductSystem(N2, gen_dims=[(2,), (1,)])
ps_AB_21 = ColoredProductSystem(AbsorptionMonoid(), gen_dims=[(2,), (1,)])
zb_122 = ZeroTensorBackend([1, 2, 2])
# units (e, 1) act with dimension 1, so every a x 1_v is still a kron
ps_EXT = ColoredProductSystem(UnitExtension(N2, cyclic_group(2)), gen_dims=[(2, 1), (1, 2)])
# a bundle backend over S3: every object is a unit, right tensoring the identity
bundle_S3 = precategory_from_bundle(semidirect_bundle(trivial_action(symmetric_group_3(), [2, 1])))

BACKENDS = [(ps_N, 5), (ps_N2_21, 5), (ps_FM, 4), (ps_AB, 4), (ps_AB_21, 4), (zb_122, 3),
            (ps_EXT, 3), (bundle_S3, 1)]
BACKEND_IDS = ["N", "N2-dims21", "FM-two-colors", "absorb", "absorb-dims21", "zero-tensor",
               "ext-N2-Z2", "bundle-S3"]


@pytest.mark.parametrize("ps,depth", BACKENDS, ids=BACKEND_IDS)
def test_sparse_slots_equal_dense_block_reference(ps, depth):
    rng = np.random.default_rng(zlib.crc32(f"{ps.sg.tag}-{ps.kind}-{depth}".encode()))
    tr = Truncation(ps, depth)
    pool = ps.sg.elements(2)
    for _ in range(4):
        x = NTElement(ps)
        for _ in range(5):  # several keys, so sums onto one block occur
            p, q = rng.choice(pool), rng.choice(pool)
            if ps.kind == "zero":
                q = p  # off-diagonal arrows of this backend are zero
            x.add_term(p, q, ps.random_arrow(p, q, rng))
        for op, want in [
            (lift(x, tr), _reference_lift(x, tr)),
            (transcendental_expectation(x, tr), _reference_lift(x, tr, expectation=True)),
        ]:
            for c in range(ps.slot_count):
                assert np.array_equal(colour_block(op, c).toarray(), want[c])
                assert colour_block(op, c).nnz == np.count_nonzero(want[c])
            for t in tr.S[:3]:  # e and two generators: widths 1 and above
                assert np.array_equal(fiber(op, t), _reference_fiber(tr, want, t))
    for p in ps.sg.elements(2):
        got, want = projection_QT(p, tr), _reference_projection_QT(p, tr)
        for c in range(ps.slot_count):
            assert np.array_equal(colour_block(got, c).toarray(), want[c])
            assert colour_block(got, c).nnz == np.count_nonzero(want[c])


# one spec per instance kind; free_product mixes in the absorption monoid,
# whose products can be shorter than their factors
INSTANCE_SPECS = {
    "direct_sum": ({"kind": "direct_sum", "rank": 2}, 4),
    "free_monoid": ({"kind": "free_monoid", "letters": "abc"}, 3),
    "free_product": ({"kind": "free_product", "factors": [
        {"kind": "absorption"}, {"kind": "direct_sum", "rank": 1}]}, 4),
    "absorption": ({"kind": "absorption"}, 5),
    "unit_extension": ({"kind": "unit_extension", "base": {"kind": "free_monoid", "letters": "ab"},
                        "units": "Z3"}, 3),
    "finite_group": ({"kind": "finite_group", "name": "S3"}, 1),
}


def test_instance_specs_cover_every_kind():
    assert set(INSTANCE_SPECS) == set(INSTANCE_KINDS)


@pytest.mark.parametrize("kind", sorted(INSTANCE_SPECS))
def test_truncation_tree_and_right_orbits_match_left_divide_scan(kind):
    spec, depth = INSTANCE_SPECS[kind]
    sg = make_semigroup(spec)
    ps = ColoredProductSystem(sg, gen_dims=[(1,)] * len(sg.generators()), colors=1)
    tr = Truncation(ps, depth)
    assert tr.S == sg.elements(depth)
    # the BFS tree covers S once, each level one edge below the last
    level_of = {tr.index[sg.one]: 0}
    for k, (nodes, parents, edges) in enumerate(tr._levels, start=1):
        for v, u, g in zip(nodes.tolist(), parents.tolist(), edges.tolist()):
            assert v not in level_of and level_of[u] == k - 1
            assert tr.S[u] * tr.S[tr._child[tr._root, g]] == tr.S[v]
            level_of[v] = k
    assert sorted(level_of) == list(range(len(tr.S)))
    # the premise: below the root, a tree edge u -> ug never shortens x u
    window = sg.elements(depth + 2)
    for nodes, parents, edges in tr._levels[1:]:
        for v, u in zip(nodes.tolist(), parents.tolist()):
            for x in window:
                assert sg.length(x * tr.S[v]) >= sg.length(x * tr.S[u])
    # the orbit arrays against the scan over S, for x inside and outside S
    for x in window:
        want = np.full(len(tr.S), -1)
        for i, s in enumerate(tr.S):
            v = sg.left_divide(x, s)
            if v is not None:
                assert v in tr.index  # quotients of S stay in S
                want[tr.index[v]] = i
        assert np.array_equal(tr.right_orbit(x), want)


def test_lift_amplifies_once_per_key_and_dim_class(monkeypatch):
    # ab depth 8: a x 1_v depends on v only through dim(v), so lift takes one
    # ampliation per (key, dim class), not one per placement
    ps = ColoredProductSystem(FM, gen_dims=[(2, 1), (1, 2)])
    tr = Truncation(ps, 8)
    rng = np.random.default_rng(7)
    x = NTElement(ps)
    for p, q in [("a", "e"), ("e", "b"), ("ab", "ab")]:
        p, q = FM.parse(p), FM.parse(q)
        x.add_term(p, q, ps.random_arrow(p, q, rng))
    calls = []
    real = ps._rtensor_coo
    monkeypatch.setattr(ps, "_rtensor_coo", lambda xs, p, q, r, coo: calls.append(r) or real(xs, p, q, r, coo))
    op = lift(x, tr)
    classes = placements = 0
    for (p, q), a in x.terms.items():
        dims = set()
        for s in tr.S:
            v = FM.left_divide(q, s)
            if v is not None and p * v in tr.index:
                dims.add(ps.dim(v))
                placements += 1
        classes += len(dims)
    assert len(calls) == classes
    assert placements > 5 * classes
    # the broadcast reaches every placement: one stored entry per nonzero of
    # each a x 1_v (no two keys share a (target, source) block here)
    nnz = sum(
        np.count_nonzero(b) * d
        for (p, q), a in x.terms.items()
        for s in tr.S
        if (v := FM.left_divide(q, s)) is not None and p * v in tr.index
        for b, d in zip(a.blocks, ps.dim(v))
    )
    assert op.matrix.nnz == nnz


# generator dims per instance kind: two colors, each dim 2 somewhere, dim 1
# where the relations force it (absorbed generators, groups)
PHI_GEN_DIMS = {
    "direct_sum": [(2, 1), (1, 2)],
    "free_monoid": [(2, 1), (1, 2), (1, 1)],
    "free_product": [(2, 1), (1, 1), (1, 2)],
    "absorption": [(2, 1), (1, 1)],
    "unit_extension": [(2, 1), (1, 2)],
    "finite_group": [],
}
PHI_BACKENDS = {
    kind: (ColoredProductSystem(make_semigroup(spec), PHI_GEN_DIMS[kind], colors=2), depth)
    for kind, (spec, depth) in INSTANCE_SPECS.items()
}
PHI_BACKENDS["zero-tensor"] = (zb_122, 3)
PHI_BACKENDS["crossed-swap"] = (CrossedProductBackend(swap_action(cyclic_group(2), dim=2)), 1)


@pytest.mark.parametrize("case", sorted(PHI_BACKENDS))
def test_fock_rep_phi_equals_dense_lift(case):
    # the scatter into the dense layout against lift of the one-term element,
    # for every basis arrow of the keys up to length 1 and every unit image;
    # the scattered entries are exactly its nonzeros, each once
    ps, depth = PHI_BACKENDS[case]
    rep, tr = fock_rep(ps, depth)
    pool = ps.sg.elements(1)
    arrows = [a for p in pool for q in pool for a in ps.basis(p, q)]
    arrows += [ideal_unit(ps, full_ideal(ps), w) for w in tr.S]
    assert arrows
    for a in arrows:
        want = lift(NTElement.from_terms(ps, [(a.range, a.source, a)]), tr).dense()
        assert np.array_equal(rep.phi(a), want)
        rows, cols, vals = rep.entries(a)
        assert (vals != 0).all() and len(vals) == np.count_nonzero(want)


def _hadamard_crossed():
    z2 = cyclic_group(2)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    return CrossedProductBackend(conjugation_action(z2, {z2.identity(): [np.eye(2)], z2.parse("1"): [h]}))


@pytest.mark.parametrize("case", sorted(PHI_BACKENDS) + ["crossed-hadamard"])
def test_fock_basis_images_match_per_arrow_flat(case):
    # one lift of the index-labelled arrow and one scatter against flat of
    # each basis arrow, with the full ideal and with a one-colour ideal; the
    # Hadamard conjugation mixes entries, so there each arrow takes phi
    ps, depth = PHI_BACKENDS[case] if case in PHI_BACKENDS else (_hadamard_crossed(), 1)
    pool = ps.sg.elements(1)
    for ideal in (full_ideal(ps), ColorIdeal({ps.slot_count - 1})):
        rep, tr = fock_rep(ps, depth, ideal=ideal)
        for p in pool:
            for q in pool:
                got = rep.basis_images(p, q)
                arrows = ps.basis(p, q, ideal=ideal)
                assert got.shape == (len(arrows), rep.dim**2)
                if arrows:
                    assert np.array_equal(got, np.array([rep.flat(a) for a in arrows]))


def test_fock_rep_phi_on_hadamard_equals_lift_of_unit_canonical_term():
    # phi lifts each arrow at its own key; over a group every key has a
    # unit-canonical form (p u, q u) carrying a x 1_u, and since the
    # truncation is closed under units both lifts are one operator.  The
    # Hadamard conjugation mixes entries, so the two agree to round-off only
    ps = _hadamard_crossed()
    rep, tr = fock_rep(ps, 1)
    pool = ps.sg.elements(1)
    arrows = [a for p in pool for q in pool for a in ps.basis(p, q)]
    arrows += [ps.random_arrow(p, q, np.random.default_rng(3)) for p in pool for q in pool]
    moved = 0
    for a in arrows:
        x = NTElement.from_terms(ps, [(a.range, a.source, a)])
        moved += x.terms.keys() != {(a.range, a.source)}
        assert np.abs(rep.phi(a) - lift(x, tr).dense()).max() <= 1e-12
    assert moved  # some key is transported by a unit


def _sorted_coo(entries):
    """The COO entries (*indices, vals) in lexicographic index order."""
    order = np.lexsort(entries[-2::-1])
    return [z[order] for z in entries]


@pytest.mark.parametrize("case", sorted(PHI_BACKENDS) + ["crossed-hadamard"])
def test_rtensor_coo_matches_coo_of_tensor_blocks(case):
    # the backend's _rtensor_coo (the colored index arithmetic, the default
    # elsewhere) against _coo of _tensor_blocks, entry for entry, on a basis
    # stack (with its stack index) and on one arrow's unstacked blocks
    ps = PHI_BACKENDS[case][0] if case in PHI_BACKENDS else _hadamard_crossed()
    pool, rng = ps.sg.elements(1), np.random.default_rng(11)
    checked = 0
    for p in pool:
        for q in pool:
            for xs in (ps.basis_stack(p, q), ps.random_arrow(p, q, rng).blocks):
                for r in ps.sg.elements(2):
                    got = ps._rtensor_coo(xs, p, q, r, ps._coo(xs))
                    want = ps._coo(ps._tensor_blocks(xs, p, q, r))
                    assert len(got) == len(want) == ps.slot_count
                    for g, w in zip(got, want):
                        assert len(g) == len(w) == np.ndim(xs[0]) + 1
                        for gz, wz in zip(_sorted_coo(g), _sorted_coo(w)):
                            assert np.array_equal(gz, wz)
                        checked += len(w[-1])
    assert checked


# every backend, at a depth where some color slot is just above SMALL_SLOT
LANCZOS_BACKENDS = [(ps_N, 66), (ps_N2_21, 5), (ps_FM, 4), (ps_AB, 10), (ps_AB_21, 5),
                    (zb_122, 33), (ps_EXT, 4), (
                        precategory_from_bundle(semidirect_bundle(
                            trivial_action(symmetric_group_3(), [11, 2]))), 1)]


@pytest.mark.parametrize("ps,depth", LANCZOS_BACKENDS, ids=BACKEND_IDS)
def test_lanczos_norm_matches_dense_svd_on_every_backend(ps, depth):
    rng = np.random.default_rng(zlib.crc32(f"lanczos-{ps.sg.tag}-{ps.kind}".encode()))
    tr = Truncation(ps, depth)
    assert max(tr.col_total(c) for c in range(ps.slot_count)) in range(SMALL_SLOT + 1, 2 * SMALL_SLOT)
    pool = ps.sg.elements(1)
    x = NTElement(ps)
    for _ in range(3):
        p, q = rng.choice(pool), rng.choice(pool)
        if ps.kind == "zero":
            q = p
        x.add_term(p, q, ps.random_arrow(p, q, rng))
    op = lift(x, tr)
    want = max(spectral_norm(colour_block(op, c).toarray()) for c in range(ps.slot_count))
    assert abs(op.norm() - want) <= 1e-8 * want


def _lanczos_cases(n, rng):
    """Zero, rank-one and a repeated top singular value, with their norms."""
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    top = np.linspace(1.0, 0.0, n)
    top[:2] = 3.0
    return [
        ("zero", np.zeros((n, n)), 0.0),
        ("rank-one", np.outer(u, v.conj()), np.linalg.norm(u) * np.linalg.norm(v)),
        ("repeated-top", (q1 * top) @ q2, 3.0),
    ]


@pytest.mark.parametrize("n", [SMALL_SLOT + 1, SMALL_SLOT + 7])
def test_lanczos_special_slots_and_lower_bound(n):
    import scipy.sparse as sp

    rng = np.random.default_rng(n)
    tol = 1e-8
    for name, dense, sigma in _lanczos_cases(n, rng):
        res = _gram_lanczos(sp.csr_matrix(dense), tol, cap=10 * n)
        assert res.lower <= res.value, name
        assert res.lower >= (1 - tol) * sigma, name
        assert abs(res.value - sigma) <= tol * sigma, name


def test_lanczos_step_cap_raises_named_error():
    import scipy.sparse as sp

    rng = np.random.default_rng(3)
    a = sp.csr_matrix(rng.standard_normal((SMALL_SLOT + 1, SMALL_SLOT + 1)))
    with pytest.raises(LanczosNoConvergence, match="not met in 3 steps"):
        _gram_lanczos(a, 1e-8, cap=3)
    assert _gram_lanczos(a, 1e-8, cap=10 * a.shape[0]).value > 0


def test_csr_assembly_sums_repeated_positions_in_input_order():
    from ntforge.fock import _csr

    # positions row·3 + col, in any order
    m = _csr(3, [(np.array([6, 2, 4]), [1.0, 2.0, 3.0])])
    assert np.array_equal(m.toarray(), [[0, 0, 2], [0, 3, 0], [1, 0, 0]])
    # position 1 takes 0.1, 0.2, 0.3 over three parts: the left fold
    # (0.1 + 0.2) + 0.3 is not 0.1 + (0.2 + 0.3); position 5 cancels to
    # exactly 0 and is dropped, as a scipy sum drops it
    m = _csr(3, [([1, 5], [0.1, 2.0]), ([5, 1], [-2.0, 0.2]), ([1], [0.3])])
    assert m.nnz == 1 and m.has_canonical_format
    assert m[0, 1] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert _csr(3).shape == (3, 3) and _csr(3).nnz == 0


def _same_matrix(a, b):
    """Equal CSR matrices, entry for entry (float ==, so 0.0 == -0.0)."""
    return (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("ps,keys", [
    (ps_N, [str(k) for k in range(9)]),
    (ps_FM, ["e"] + ["abababab"[:k] for k in range(1, 9)]),
], ids=["N", "FM-two-colors"])
def test_nine_keys_on_one_position_sum_as_the_per_key_reference(ps, keys):
    # the keys (w, w) over the nine prefixes w of the last key all act on
    # its own block: nine values on one position, past numpy's eight-term
    # pairwise switch, summed bitwise as the per-key sparse sums add them
    rng = np.random.default_rng(29)
    prefixes = [ps.sg.parse(w) for w in keys]
    x = NTElement(ps)
    for w in prefixes:
        x.add_term(w, w, ps.random_arrow(w, w, rng))
    tr = Truncation(ps, ps.sg.length(prefixes[-1]))
    got, want = lift(x, tr).matrix, per_key_lift(x, tr)
    assert _same_matrix(got, want)
    # the order is what the comparison tests: keys summed last to first miss it
    backwards = NTElement.from_terms(ps, [(p, q, x.terms[p, q]) for p, q in reversed(list(x.terms))])
    reverse_sum = per_key_lift(backwards, tr)
    assert np.array_equal(reverse_sum.indices, want.indices)
    assert not np.array_equal(reverse_sum.data, want.data)


@pytest.mark.parametrize("case", sorted(PHI_BACKENDS))
def test_lift_equals_the_per_key_sum_on_every_backend(case):
    ps, depth = PHI_BACKENDS[case]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    tr = Truncation(ps, depth)
    pool = ps.sg.elements(1)
    for _ in range(3):
        x = NTElement(ps)
        for _ in range(6):
            p, q = rng.choice(pool), rng.choice(pool)
            if ps.kind == "zero":
                q = p  # off-diagonal arrows of this backend are zero
            x.add_term(p, q, ps.random_arrow(p, q, rng))
        assert _same_matrix(lift(x, tr).matrix, per_key_lift(x, tr))


def test_empty_element_and_placeless_expectation_give_zero_operators():
    # toeplitz_N's expect of offdiag: over N the key (1, 2) has no source
    # with 1·v = 2·v, so no key contributes an entry
    tr = Truncation(ps_N, 6)
    for op in (lift(NTElement(ps_N), tr), transcendental_expectation(scalar(ps_N, "1", "2"), tr),
               transcendental_expectation(NTElement(ps_N), tr)):
        assert op.matrix.shape == (tr.dim, tr.dim) and op.matrix.nnz == 0
        assert op.norm() == 0.0


def test_lift_stores_no_dense_kron_blocks():
    # the fock-norm n2d11-diag shape: N^2, dims (2,), depth 11, 8,178 columns.
    # Dense a x 1_v blocks took 7.46 M entries (over 100 MB) for 16,344
    # nonzeros; the CSR slot holds just the nonzeros.
    ps = ColoredProductSystem(N2, gen_dims=[(2,), (1,)])
    tr = Truncation(ps, 11)
    x = NTElement(ps)
    for k in ["(0,0)", "(1,0)", "(0,1)", "(1,1)"]:
        p = N2.parse(k)
        rows, cols = ps.shape(p, p)[0]
        # entries 1 + i: no sum onto one entry cancels
        x.add_term(p, p, ps.arrow(p, p, [1.0 + np.arange(rows * cols).reshape(rows, cols)]))
    lift(NTElement(ps), tr)  # loads scipy.sparse outside the traced peak
    tracemalloc.start()
    try:
        op = lift(x, tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.col_total(0) == 8178
    assert peak < 4 * 2**20
    # at s = (k,l) the block is a_e x 1 + a_(1,0) x 1 + ...: for k >= 1 the
    # kron of a full 2x2 with 1_{2^(k-1)}, which covers the diagonal; 1 entry at k = 0
    want = sum(2 ** (k + 1) if k else 1 for k, _ in (s.data for s in tr.S))
    assert want == 16344
    assert op.matrix.nnz == np.count_nonzero(op.matrix.data) == want


def test_expectation_kills_offdiagonal_cancellative():
    tr = Truncation(ps_FM, 4)
    rng = np.random.default_rng(1)
    p, q = FM.parse("ab"), FM.parse("a")
    x = NTElement(ps_FM).add_term(p, q, ps_FM.random_arrow(p, q, rng))
    assert np.linalg.norm(transcendental_expectation(x, tr).dense()) <= 1e-12
    tr2 = Truncation(ps_N2, 4)
    y = scalar(ps_N2, "(1,0)", "(0,1)")
    assert np.linalg.norm(transcendental_expectation(y, tr2).dense()) <= 1e-12


def test_expectation_fixes_diagonal_keys():
    rng = np.random.default_rng(51)
    tr = Truncation(ps_FM, 3)
    p = FM.parse("ab")
    a = ps_FM.random_arrow(p, p, rng)
    x = NTElement(ps_FM).add_term(p, p, a)
    ex = transcendental_expectation(x, tr)
    lf = lift(x, tr)
    for c in range(2):
        assert _same_entries(colour_block(ex, c), colour_block(lf, c))


def test_expectation_is_diagonal_compression_of_lift():
    rng = np.random.default_rng(61)
    for ps in (ps_FM, ps_AB):
        tr = Truncation(ps, 3)
        x = random_element(ps, rng)
        # a diagonal key puts whole a x 1_v blocks, not only their diagonals,
        # on the block diagonal (ps_FM has dims above 1)
        p = rng.choice(ps.sg.elements(2))
        x.add_term(p, p, ps.random_arrow(p, p, rng))
        ex = transcendental_expectation(x, tr)
        compress = diagonal_part(lift(x, tr))
        assert np.linalg.norm(ex.dense() - compress.dense()) <= 1e-12
        # and via explicit Q_w sandwiches
        lf = lift(x, tr).dense()
        acc = np.zeros_like(lf)
        for w in tr.S:
            qw = projection_Qw(w, tr).dense()
            acc += qw @ lf @ qw
        assert np.linalg.norm(ex.dense() - acc) <= 1e-12


def test_transcendental_phenomenon_on_absorption():
    AB = ps_AB.sg
    tr = Truncation(ps_AB, 4)
    x = scalar(ps_AB, "(0,1)", "(0,2)")
    et = transcendental_expectation(x, tr)
    assert et.norm() >= 0.99
    # survives exactly at sources (l,n) with l >= 1
    m = colour_block(et, 0).tocoo()
    big = np.abs(m.data) > 1e-12
    owner = col_source(tr, 0)
    live = {(tr.S[owner[r]], tr.S[owner[k]]) for r, k in zip(m.row[big], m.col[big])}
    assert all(w.data[0] >= 1 for w, _ in live)
    assert (AB.parse("(1,0)"), AB.parse("(1,0)")) in live


def test_expectation_faithful_on_samples():
    rng = np.random.default_rng(71)
    tr = Truncation(ps_FM, 4)
    for _ in range(6):
        x = random_element(ps_FM, rng, pool=FM.elements(1))
        if x.is_zero():
            continue
        val = transcendental_expectation(nt_mul(nt_adjoint(x), x), tr).norm()
        assert val > 1e-8


def test_projection_semilattice():
    tr = Truncation(ps_FM, 4)
    qa = projection_QT(FM.parse("a"), tr)
    qb = projection_QT(FM.parse("b"), tr)
    assert np.linalg.norm(qa.dense() @ qb.dense()) <= 1e-12
    tr2 = Truncation(ps_N2, 4)
    q10 = projection_QT(N2.parse("(1,0)"), tr2)
    q01 = projection_QT(N2.parse("(0,1)"), tr2)
    q11 = projection_QT(N2.parse("(1,1)"), tr2)
    assert np.array_equal(q10.dense() @ q01.dense(), q11.dense())


def test_projection_relation_with_lift():
    rng = np.random.default_rng(81)
    tr = Truncation(ps_FM, 4)
    for p_str, q_str in [("a", "a"), ("a", "ab"), ("b", "a"), ("e", "ab")]:
        p, q = FM.parse(p_str), FM.parse(q_str)
        p0 = rng.choice(FM.elements(1))
        a = ps_FM.random_arrow(p0, q, rng)
        x = NTElement(ps_FM).add_term(p0, q, a)
        lhs = lift(x, tr).dense() @ projection_QT(p, tr).dense()
        w = FM.right_lcm(q, p)
        if w is None:
            assert np.linalg.norm(lhs) <= 1e-12
            continue
        v = FM.left_divide(q, w)
        y = NTElement(ps_FM).add_term(p0 * v, w, a.rtensor(v))
        assert np.linalg.norm(lhs - lift(y, tr).dense()) <= 1e-10


def test_source_restriction_at_identity():
    rng = np.random.default_rng(91)
    tr = Truncation(ps_N, 5)
    x = scalar(ps_N, "1", "1", 2.0) + scalar(ps_N, "2", "2", -1.0)
    fib = fock_source_restricted(x, N.parse("0"), tr)
    assert abs(fib.norm() - fock_norm(x, tr)) <= 1e-6
    zero = fock_source_restricted(NTElement(ps_N), N.parse("0"), tr)
    assert zero.norm() == 0.0
    g = cyclic_group(3)
    ps_g = ColoredProductSystem(g, gen_dims=[], colors=2)
    trg = Truncation(ps_g, 1)
    el = NTElement(ps_g)
    for name in g.names:
        p = g.parse(name)
        el.add_term(p, g.identity(), ps_g.random_arrow(p, g.identity(), rng))
    assert abs(fock_source_restricted(el, g.identity(), trg).norm() - lift(el, trg).norm()) <= 1e-6


def test_reducing_condition_reports():
    assert check_reducing_condition(ps_FM, full_ideal(ps_FM), FM.identity(), 2).ok
    zb = ZeroTensorBackend([2, 2, 2])
    rep = check_reducing_condition(zb, full_ideal(zb), zb.sg.identity(), 2)
    assert not rep.ok


def test_divisor_closure():
    assert check_divisor_closure(Truncation(ps_FM, 3))
    assert check_divisor_closure(Truncation(ps_N2, 3))
    assert not check_divisor_closure(Truncation(ps_AB, 3))


def test_unit_shifted_keys_lift_identically():
    from ntforge.semigroups import UnitExtension

    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    ps = ColoredProductSystem(ext, gen_dims=[(2,)])
    tr = Truncation(ps, 3)
    rng = np.random.default_rng(101)
    p, q, x = ext.parse("(2,0)"), ext.parse("(1,1)"), ext.parse("(0,1)")
    a = ps.random_arrow(p, q, rng)
    one = NTElement(ps).add_term(p, q, a)
    two = NTElement(ps).add_term(p * x, q * x, a.rtensor(x))
    assert np.linalg.norm(lift(one, tr).dense() - lift(two, tr).dense()) <= 1e-10


@pytest.mark.parametrize("case", sorted(PHI_BACKENDS))
def test_lift_is_one_matrix_block_diagonal_over_colours(case):
    # the colours are orthogonal summands of the one column space: no entry
    # of the lifted matrix joins two colours
    ps, depth = PHI_BACKENDS[case]
    tr = Truncation(ps, depth)
    rng = np.random.default_rng(zlib.crc32(f"one-layout-{case}".encode()))
    x = NTElement(ps)
    pool = ps.sg.elements(1)
    for _ in range(4):
        p, q = rng.choice(pool), rng.choice(pool)
        if ps.kind == "zero":
            q = p
        x.add_term(p, q, ps.random_arrow(p, q, rng))
    m = lift(x, tr).matrix.tocoo()
    colour = np.repeat(np.arange(ps.slot_count), [tr.col_total(c) for c in range(ps.slot_count)])
    assert m.shape == (tr.dim, tr.dim) and colour.size == tr.dim and m.nnz
    assert (colour[m.row] == colour[m.col]).all()


def test_two_colours_each_under_small_slot_take_lanczos_on_the_whole_matrix(monkeypatch):
    # 63 + 63 columns: each colour block alone would take the dense SVD, the
    # one matrix takes Gram Lanczos once, and it matches the blocks' SVDs
    import ntforge.fock as fock

    ps = ColoredProductSystem(FM, gen_dims=[(1, 1), (1, 1)])
    tr = Truncation(ps, 5)
    sizes = [tr.col_total(c) for c in range(2)]
    assert max(sizes) <= SMALL_SLOT < sum(sizes) == tr.dim
    rng = np.random.default_rng(17)
    x = random_element(ps, rng, nterms=3)
    op = lift(x, tr)
    calls = []
    real = fock._gram_lanczos
    monkeypatch.setattr(fock, "_gram_lanczos", lambda a, tol, cap: calls.append(a.shape) or real(a, tol, cap))
    got = op.norm()
    assert calls == [(tr.dim, tr.dim)]
    want = max(spectral_norm(colour_block(op, c).toarray()) for c in range(2))
    assert abs(got - want) <= 1e-8 * want


class _GeneratorsMissB:
    """free_monoid("ab") listing a alone as a generator: no edge reaches b."""

    def __init__(self, sg):
        self._sg = sg

    def __getattr__(self, name):
        return getattr(self._sg, name)

    def generators(self):
        return self._sg.generators()[:1]


def test_truncation_raises_when_the_tree_misses_part_of_S():
    from types import SimpleNamespace

    with pytest.raises(ValueError, match="not reachable from e inside S"):
        Truncation(SimpleNamespace(sg=_GeneratorsMissB(FM)), 2)


def test_operators_describe_themselves():
    tr = Truncation(ps_N, 3)
    u = scalar(ps_N, "1", "0")
    assert repr(tr) == "<truncation depth=3 |S|=4>"
    assert repr(lift(u, tr)) == "<fock-operator nnz=3 over <truncation depth=3 |S|=4>>"


def test_fock_rep_entries_reject_an_arrow_outside_the_ideal():
    rep, tr = fock_rep(ps_FM, 2, ideal=ColorIdeal({0}))
    a = ps_FM.arrow(FM.one, FM.one, [np.zeros((1, 1)), np.ones((1, 1))])
    with pytest.raises(ValueError, match="escapes the ideal"):
        rep.entries(a)
    assert repr(rep) == f"<rep fock dim={tr.dim}>"
