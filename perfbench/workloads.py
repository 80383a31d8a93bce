"""The benchmark's three workloads: wick-core, fock-norm and verify.

Each workload is a function ``build(seed, rec)`` that does the set-up (the
backends with their dimension validation, elements, truncations and
representations) and returns its jobs.  A job's ``run`` is the timed call
into ntforge's public API; its ``check`` compares the output with an
independent route from ``oracles`` and runs outside the timed interval.
The oracle is computed once and reused for every pass.

The seed draws every random coefficient block.  The structure of each job
(semigroup, dimensions, keys, depth, family F) is fixed, so every seed asks
for the same amount of work.  Why each job is here, and what each timing
should move, is written down in NOTES.md next to this file.

Only API that the planned refactors keep is called: no ``dense_cap`` or
``DENSE_CAP``, no ``FockOperator.cols``/``block``, no ``segments.sigma``, no
``ConcreteRep.phi_nt``, nothing from ``ntforge.linalg``, no
``scenario.CHECKS`` or ``cli.EXPLAIN``.  A job reaches a norm path only
through its problem size.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import zlib

import numpy as np

import oracles
from oracles import NORM_TOL, WRONG_TOL, rel_err

from ntforge import (
    AbsorptionMonoid,
    ColoredProductSystem,
    DirectSumN,
    NTElement,
    ProjectionFamily,
    Truncation,
    UnitExtension,
    aperiodicity_search,
    check_condition_C,
    check_controlled_map,
    check_essential,
    check_factorization,
    check_nondegenerate,
    check_partition,
    check_projection_equalities,
    check_projection_semilattice,
    check_toeplitz_covariance,
    check_well_aligned,
    controlled_abelianization,
    core_norm,
    cyclic_group,
    fock_rep,
    free_monoid,
    full_ideal,
    initial_segments,
    lift,
    nt_adjoint,
    nt_mul,
    projection_QT,
    regular_representation,
    regular_spectrum,
    semidirect_bundle,
    symmetric_group_3,
    transcendental_expectation,
    trivial_action,
)
from ntforge.bundles import image_algebra_rank
from ntforge.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ("toeplitz_N", "z2_bundle")


class Job:
    """One timed call (``run``) and its oracle comparison (``check``).

    ``check(output)`` returns ``(error or None, info dict)``.
    """

    def __init__(self, name, module, run, check):
        self.name = name
        self.module = module
        self.run = run
        self.check = check


def once(fn):
    """Compute an oracle on first use and keep it for later passes."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def rng_for(seed, name):
    """An independent stream per (workload seed, input name)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _draw_element(backend, keys, rng):
    sg = backend.sg
    items = []
    for ps, qs in keys:
        p, q = sg.parse(ps), sg.parse(qs)
        blocks = [gaussian(rng, sh) for sh in backend.shape(p, q)]
        items.append((p, q, backend.arrow(p, q, blocks)))
    return NTElement.from_terms(backend, items)


def random_element(backend, keys, rng, rec):
    """An element with a Gaussian coefficient block at each (p, q) key."""
    with rec.span("wick.build", terms=len(keys)):
        return _draw_element(backend, keys, rng)


def make_backend(rec, sg, gen_dims, **kw):
    with rec.span("precategory.backend", generators=len(gen_dims)):
        return ColoredProductSystem(sg, gen_dims, **kw)


def verdict(ok, what):
    return None if ok else what


# =============================================================================
# wick-core: semigroups, segments, wick and precategory arrows; no BLAS work
# =============================================================================


def _lcm_job(rec, name, sg, depth, disagreements):
    """Right-LCM table over all pairs of elements up to a word length.

    ``disagreements(table)`` counts the entries the oracle rejects.
    """

    def run():
        with rec.span("semigroups.lcm_table", depth=depth) as sz:
            els = sg.elements(depth)
            table = {(p, q): sg.right_lcm(p, q) for p in els for q in els}
            sz["elements"] = len(els)
            sz["pairs"] = len(table)
        return table

    def check(table):
        bad = disagreements(table)
        return verdict(bad == 0, f"{bad} LCMs disagree with the oracle"), {"pairs": len(table)}

    return Job(name, "semigroups", run, check)


def _lcm_closed_form(sg, depth, formula, build):
    """Disagreements with a closed form, tabulated once as normal-form data."""
    els = sg.elements(depth)
    want = once(lambda: {
        (p, q): None if (r := formula(p, q)) is None else build(r) for p in els for q in els
    })

    def disagreements(table):
        ref = want()
        return len(set(ref) ^ set(table)) + sum(
            1 for key, r in table.items()
            if key in ref and ref[key] != (None if r is None else r.data)
        )

    return disagreements


def _segments_job(rec, name, sg, F, depth, window, leq):
    def run():
        with rec.span("segments.initial_segments", F=len(F)) as sz:
            segs = initial_segments(sg, F)
            sz["count"] = len(segs)
        with rec.span("segments.partition", F=len(F), depth=depth) as sz:
            report = check_partition(sg, F, depth)
            sz["elements"] = report.checked
            sz["segments"] = len(report.segments)
        return segs, report

    want = once(lambda: oracles.down_sets(F, window, leq))

    def check(out):
        segs, report = out
        got = {seg.C for seg in segs}
        if got != want():
            return f"segments {len(got)} != oracle {len(want())}", {}
        if not report.ok or report.checked != len(sg.elements(depth)):
            return f"partition verdict {report!r}", {}
        return None, {"segments": len(segs)}

    return Job(name, "segments", run, check)


def _core_norm_job(rec, name, x, window, wdepth=4):
    """core_norm of x, checked by a direct sup and, when diagonal, ||x*x|| = ||x||^2."""

    def run():
        with rec.span("wick.core_norm", terms=len(x.terms), F=len(x.support())):
            return core_norm(x, wdepth=wdepth)

    def oracle():
        direct = oracles.core_window_norm(x, window)
        square = None
        if x.is_diagonal():  # the C*-identity through the Wick product
            square = oracles.core_window_norm(nt_mul(nt_adjoint(x), x), window)
        return direct, square

    ref = once(oracle)

    def check(out):
        direct, square = ref()
        err = rel_err(out.value, direct)
        if out.exact != x.is_diagonal():
            return f"exact flag {out.exact}", {"rel_err": err}
        if err > NORM_TOL:
            return f"core norm {out.value!r} vs direct {direct!r} (rel_err {err:.2e})", {"rel_err": err}
        if square is not None and rel_err(square, out.value ** 2) > NORM_TOL:
            return f"C*-identity: |x*x| = {square!r}, |x|^2 = {out.value ** 2!r}", {"rel_err": err}
        return None, {"rel_err": err}

    return Job(name, "wick", run, check)


def build_wick_core(seed, rec):
    jobs = []

    abc = free_monoid("abc")
    n3 = DirectSumN(3)
    n2z2 = UnitExtension(DirectSumN(2), cyclic_group(2))
    absorb = AbsorptionMonoid()
    e_unit = cyclic_group(2).identity().data
    jobs += [
        _lcm_job(rec, "lcm-abc5", abc, 5, _lcm_closed_form(
            abc, 5, lambda p, q: oracles.lcm_free(abc, p, q),
            lambda letters: oracles.free_word_data(abc, letters))),
        _lcm_job(rec, "lcm-n3d6", n3, 6, _lcm_closed_form(
            n3, 6, lambda p, q: oracles.lcm_max(p.data, q.data), tuple)),
        _lcm_job(rec, "lcm-n2z2d4", n2z2, 4, _lcm_closed_form(
            n2z2, 4, lambda p, q: (oracles.lcm_max(p.data[0], q.data[0]), e_unit), tuple)),
        _lcm_job(rec, "lcm-absorb12", absorb, 12, oracles.absorb_lcm_disagreements),
    ]

    theta = controlled_abelianization(abc)

    def run_controlled():
        with rec.span("semigroups.controlled_map", depth=4) as sz:
            report = check_controlled_map(theta, 4)
            sz["pairs"] = report.checked
        return report

    n_abc4 = sum(3 ** k for k in range(5))
    jobs.append(Job(
        "controlled-abc4", "semigroups", run_controlled,
        lambda r: (verdict(r.ok and r.checked == n_abc4 ** 2, f"verdict {r!r}"), {}),
    ))

    n2 = DirectSumN(2)
    box = [n2.el((i, j)) for i in range(7) for j in range(7)]
    n2_leq = lambda t, s: all(u <= v for u, v in zip(t.data, s.data))  # noqa: E731
    F8 = [n2.el(v) for v in [(0, 3), (1, 1), (1, 2), (2, 0), (2, 2), (3, 1), (0, 4), (4, 0)]]
    F10 = F8 + [n2.el((1, 4)), n2.el((3, 3))]
    jobs += [
        _segments_job(rec, "segments-n2-F8", n2, F8, 7, box, n2_leq),
        _segments_job(rec, "segments-n2-F10", n2, F10, 7, box, n2_leq),
    ]

    ps_n2 = make_backend(rec, n2, [(2,), (1,)])
    ab = free_monoid("ab")
    ps_ab = make_backend(rec, ab, [(2,), (1,)])
    ps_ext = make_backend(rec, n2z2, [(2,), (1,)])
    ps_abs = make_backend(rec, absorb, [(2,), (1,)])

    def diag(keys):
        return [(k, k) for k in keys]

    x_n2 = random_element(ps_n2, diag(
        ["(0,0)", "(1,0)", "(0,1)", "(1,1)", "(2,0)", "(0,2)", "(2,1)", "(1,2)", "(3,0)", "(2,2)"]),
        rng_for(seed, "core-n2"), rec)
    x_ab = random_element(ps_ab, diag(
        ["e", "a", "b", "aa", "ab", "ba", "aab", "aba", "abb", "ba^2"]),
        rng_for(seed, "core-ab"), rec)
    x_ext = random_element(ps_ext, diag(
        ["((0,0),0)", "((1,0),1)", "((0,1),0)", "((1,1),1)", "((2,0),0)",
         "((0,2),1)", "((2,1),0)", "((1,2),1)", "((3,0),0)", "((2,2),1)"]),
        rng_for(seed, "core-ext"), rec)
    x_abs = random_element(ps_abs, [
        ("(0,1)", "(0,2)"), ("(0,2)", "(0,1)"), ("(0,0)", "(0,0)"), ("(1,0)", "(1,0)"),
        ("(0,1)", "(0,3)"), ("(1,1)", "(1,1)"),
    ], rng_for(seed, "core-absorb"), rec)
    jobs += [
        _core_norm_job(rec, "core-norm-n2-F10", x_n2, n2.elements(8)),
        _core_norm_job(rec, "core-norm-ab-F10", x_ab, ab.elements(4)),
        _core_norm_job(rec, "core-norm-ext-F10", x_ext, n2z2.elements(8)),
        _core_norm_job(rec, "core-norm-absorb-mixed", x_abs, absorb.elements(5), wdepth=5),
    ]

    y = random_element(ps_ab, [("e", "e"), ("a", "e"), ("e", "b"), ("ab", "e")],
                       rng_for(seed, "wick-chain"), rec)

    def mul(u, v):
        with rec.span("wick.mul", left=len(u.terms), right=len(v.terms)) as sz:
            z = nt_mul(u, v)
            sz["terms"] = len(z.terms)
        return z

    def run_chain():
        with rec.span("wick.adjoint", terms=len(y.terms)):
            ys = nt_adjoint(y)
        chain = [mul(y, ys)]
        for _ in range(3):
            chain.append(mul(chain[-1], chain[0]))
        return chain

    verified = {}

    def check_chain(chain):
        """Identities on the first pass's chain; later chains must equal it."""
        if not verified:
            verified["chain"], verified["error"] = chain, chain_identities(chain)
        if verified["error"] or chain is verified["chain"]:
            return verified["error"], {"terms": len(chain[-1].terms)}
        gap = oracles.element_gap(chain[-1], verified["chain"][-1])
        if gap > 1e-12 * oracles.element_scale(chain[-1]):
            return f"(yy*)^4 differs from the verified first pass by {gap:.2e}", {}
        return None, {"terms": len(chain[-1].terms)}

    def chain_identities(chain):
        gap = oracles.element_gap(nt_mul(chain[1], chain[1]), chain[3])
        if gap > 1e-9 * oracles.element_scale(chain[3]):
            return f"(yy*)^4 != (yy*)^2 (yy*)^2: gap {gap:.2e}"
        for k, z in enumerate(chain, 1):
            gap = oracles.element_gap(nt_adjoint(z), z)
            if gap > 1e-9 * oracles.element_scale(z):
                return f"(yy*)^{k} not self-adjoint: gap {gap:.2e}"
        return None

    jobs.append(Job("wick-chain-ab4", "wick", run_chain, check_chain))

    trio = [
        random_element(ps_ab, keys, rng_for(seed, f"wick-triple-{i}"), rec)
        for i, keys in enumerate([
            [("a", "e"), ("e", "b"), ("b", "b")],
            [("e", "a"), ("ab", "e"), ("b", "e")],
            [("a", "a"), ("e", "ab"), ("ba", "e")],
        ])
    ]

    def run_triple():
        u, v, w = trio
        left = mul(mul(u, v), w)
        right = mul(u, mul(v, w))
        with rec.span("wick.adjoint", terms=len(u.terms) + len(v.terms)):
            star_uv = nt_adjoint(mul(u, v))
            vs_us = mul(nt_adjoint(v), nt_adjoint(u))
        return left, right, star_uv, vs_us

    def check_triple(out):
        left, right, star_uv, vs_us = out
        gap = oracles.element_gap(left, right)
        if gap > 1e-9 * oracles.element_scale(left):
            return f"(uv)w != u(vw): gap {gap:.2e}", {}
        gap = oracles.element_gap(star_uv, vs_us)
        if gap > 1e-9 * oracles.element_scale(star_uv):
            return f"(uv)* != v*u*: gap {gap:.2e}", {}
        return None, {}

    jobs.append(Job("wick-triple-ab", "wick", run_triple, check_triple))
    return jobs


# =============================================================================
# fock-norm: lift + norm on both norm paths and both block shapes
# =============================================================================


def phased_element(backend, keys, name, seed, rec, self_adjoint=False):
    """A fixed template element times a unit phase drawn from the seed.

    Power iteration's work and accuracy depend on the spectrum and on how
    its fixed start vector meets the top singular vector.  Any change of the
    operator beyond a global phase moves both, so a fresh random element per
    seed would make solve_s and the pass/fail count depend on the seed rather
    than on the code.  The template's blocks come from a stream that does not
    depend on the seed.  With ``self_adjoint`` the template is A + A* for the
    coefficients A at the given keys ('a + a*' for the key (a, e)).
    """
    template = rng_for(0, name)
    phase = np.exp(2j * np.pi * rng_for(seed, name).random())
    with rec.span("wick.build", terms=len(keys) * (2 if self_adjoint else 1)):
        x = _draw_element(backend, keys, template)
        if self_adjoint:
            x = x + nt_adjoint(x)
        return phase * x


# Norm jobs that miss NORM_TOL at the commit the benchmark was added at.  A
# run must not fail on the program as it stands, so for these a miss of
# NORM_TOL is reported (``tol_miss`` in the check's info, printed by name on
# every run, and the per-layer ``fock.norm.<job>.rel_err``) instead of failing
# the job; an error above WRONG_TOL still fails it, so a faster but wrong norm
# cannot pass.  ab8-shift: power iteration stops on a small change of the
# estimate while still 7.8e-8 off (250 iterations).
KNOWN_TOL_MISSES = frozenset({"ab8-shift"})


def _norm_job(rec, name, x, tr, oracle_kind, expectation=False):
    """lift (or the expectation) plus norm(tol=1e-8), held to that tol.

    The oracle is ``core_norm`` ("core") or svds on the benchmark's own sparse
    assembly ("sparse"); the expectation is checked by its direct
    block-diagonal supremum over the truncation.  Jobs in KNOWN_TOL_MISSES are
    held to WRONG_TOL and report a miss of NORM_TOL.
    """

    def run():
        with rec.span("fock.lift" if not expectation else "fock.expectation",
                      terms=len(x.terms), S=len(tr.S), columns=tr.col_total(0)):
            op = transcendental_expectation(x, tr) if expectation else lift(x, tr)
        with rec.span("fock.norm", job=name, columns=tr.col_total(0)):
            return op.norm(tol=NORM_TOL)

    def oracle():
        """(reference norm, stored blocks of the benchmark's own assembly)."""
        if expectation:
            return oracles.core_window_norm(x, tr.S), 0
        mats, blocks = oracles.sparse_lift(x, tr.S)
        if oracle_kind == "sparse":
            return oracles.sparse_norm(mats), blocks
        cn = core_norm(x)
        if not cn.exact:
            raise ValueError(f"{name}: core_norm is not exact for this element")
        return cn.value, blocks

    ref = once(oracle)

    def check(value):
        reference, blocks = ref()
        err = rel_err(value, reference)
        info = {"rel_err": err, "blocks": blocks}
        bound = WRONG_TOL if name in KNOWN_TOL_MISSES else NORM_TOL
        if err > bound:
            return f"norm {value!r} vs oracle {reference!r}: rel_err {err:.2e} > {bound:g}", info
        if err > NORM_TOL:
            info["tol_miss"] = f"rel_err {err:.2e} > tol {NORM_TOL:g} (known; held to {WRONG_TOL:g})"
        return None, info

    return Job(name, "fock", run, check)


def build_fock_norm(seed, rec):
    ab = free_monoid("ab")
    n2 = DirectSumN(2)
    absorb = AbsorptionMonoid()
    ps_ab = make_backend(rec, ab, [(2,), (1,)])
    ps_n2 = make_backend(rec, n2, [(2,), (1,)])
    ps_abs = make_backend(rec, absorb, [(2,), (1,)])

    def truncation(backend, depth):
        with rec.span("fock.truncation", depth=depth) as sz:
            tr = Truncation(backend, depth)
            sz["S"] = len(tr.S)
            sz["columns"] = sum(tr.col_total(c) for c in range(backend.slot_count))
        return tr

    tr_ab6 = truncation(ps_ab, 6)
    tr_ab8 = truncation(ps_ab, 8)
    tr_n2d8 = truncation(ps_n2, 8)
    tr_n2d11 = truncation(ps_n2, 11)
    tr_abs = truncation(ps_abs, 7)

    diag_n2 = [(k, k) for k in ["(0,0)", "(1,0)", "(0,1)", "(1,1)"]]
    diag_ab = [(k, k) for k in ["e", "a", "b", "ab"]]
    x_ab6 = phased_element(ps_ab, [("a", "e"), ("e", "b"), ("ab", "ab")], "ab6-mixed", seed, rec)
    x_n2d8 = phased_element(ps_n2, diag_n2, "n2d8-diag", seed, rec)
    x_ab8 = phased_element(ps_ab, diag_ab, "ab8-diag", seed, rec)
    x_n2d11 = phased_element(ps_n2, diag_n2, "n2d11-diag", seed, rec)
    x_shift = phased_element(ps_ab, [("a", "e")], "ab8-shift", seed, rec, self_adjoint=True)
    x_long = phased_element(ps_ab, [("ab", "e"), ("e", "ba")], "ab8-long", seed, rec)
    x_abs = phased_element(ps_abs, [
        ("(0,1)", "(0,2)"), ("(0,2)", "(0,1)"), ("(0,0)", "(0,0)"), ("(1,0)", "(1,0)"),
    ], "absorb-expect", seed, rec)

    return [
        _norm_job(rec, "ab6-mixed", x_ab6, tr_ab6, "sparse"),
        _norm_job(rec, "n2d8-diag", x_n2d8, tr_n2d8, "core"),
        _norm_job(rec, "ab8-diag", x_ab8, tr_ab8, "core"),
        _norm_job(rec, "n2d11-diag", x_n2d11, tr_n2d11, "core"),
        _norm_job(rec, "ab8-shift", x_shift, tr_ab8, "sparse"),
        _norm_job(rec, "ab8-long", x_long, tr_ab8, "sparse"),
        _norm_job(rec, "absorb-expect", x_abs, tr_abs, None, expectation=True),
    ]


# =============================================================================
# verify: analysis, bundles, precategory structure, scenario/cli
# =============================================================================


def _rep_jobs(rec, label, rep, tr, depth, p, qs):
    """Projection families, covariance and condition C on one representation."""
    sg = rep.backend.sg
    els = sg.elements(depth)

    def run_projections():
        with rec.span("analysis.projections", rep_dim=rep.dim, depth=depth, pairs=len(els) ** 2):
            fam = ProjectionFamily(rep, tr.S)
            semi = check_projection_semilattice(fam, depth)
            eq = check_projection_equalities(fam, els)
        return fam, semi, eq

    def check_projections(out):
        fam, semi, eq = out
        if not (semi.ok and eq.ok):
            return f"verdicts semilattice={semi.ok} equality={eq.ok}", {}
        worst = 0.0
        for q in els:  # the algebraic Q_<q> of the Fock module
            gap = np.linalg.norm(fam.Q_angle(q) - projection_QT(q, tr).dense(), 2)
            worst = max(worst, float(gap))
        if worst > 1e-9:
            return f"Q_<q> differs from the algebraic projection by {worst:.2e}", {}
        return None, {"rep_dim": rep.dim}

    def run_covariance():
        with rec.span("analysis.covariance", rep_dim=rep.dim, qs=len(qs)):
            toe = check_toeplitz_covariance(rep, p, qs)
            cond = check_condition_C(rep, ProjectionFamily(rep, tr.S), p, qs)
        return toe, cond

    def check_covariance(out):
        toe, cond = out
        if not toe.ok:
            return f"Toeplitz covariance failed: {toe.details}", {}
        d = cond.details
        if not (cond.ok and d["sigma_min"] >= 1e-6 and d["commutation_defect"] <= 1e-9):
            return f"condition C: {d}", {}
        return None, {}

    return [
        Job(f"projections-{label}", "analysis", run_projections, check_projections),
        Job(f"covariance-{label}", "analysis", run_covariance, check_covariance),
    ]


def build_verify(seed, rec):
    jobs = []
    n2 = DirectSumN(2)
    ab = free_monoid("ab")
    ps_n2 = make_backend(rec, n2, [(2,), (1,)])
    ps_n2c2 = make_backend(rec, n2, [(1, 2), (2, 1)])
    ps_abc2 = make_backend(rec, ab, [(2, 1), (1, 1)])

    reps = []
    for label, backend, depth in [("n2-d4", ps_n2, 4), ("n2c2-d3", ps_n2c2, 3), ("abc2-d3", ps_abc2, 3)]:
        with rec.span("analysis.fock_rep", depth=depth) as sz:
            rep, tr = fock_rep(backend, depth)
            sz["rep_dim"] = rep.dim
        reps.append((label, rep, tr))

    P = lambda sg, *ws: [sg.parse(w) for w in ws]  # noqa: E731
    (lab, rep, tr) = reps[0]
    jobs += _rep_jobs(rec, lab, rep, tr, 3, n2.parse("(1,0)"), P(n2, "(0,1)", "(2,0)"))
    (lab, rep, tr) = reps[1]
    jobs += _rep_jobs(rec, lab, rep, tr, 2, n2.parse("(1,0)"), P(n2, "(0,1)", "(2,0)"))
    (lab, rep, tr) = reps[2]
    jobs += _rep_jobs(rec, lab, rep, tr, 2, ab.parse("a"), P(ab, "b", "ab"))

    # aperiodicity on N x Z2 with fiber M_2: the flip and the trivial action
    ext = UnitExtension(DirectSumN(1), cyclic_group(2))
    ps_ext = make_backend(rec, ext, [(2,)], check_depth=2)
    p, x = ext.parse("(1,0)"), ext.parse("(0,1)")
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    b_flip = ps_ext.arrow(p * x, p, [e11])
    b_triv = ps_ext.arrow(p * x, p, [np.eye(2, dtype=complex)])

    def run_flip():
        with rec.span("analysis.aperiodicity", action="flip", trials=1):
            return aperiodicity_search(ps_ext, p, x, b_flip, twist=[swap], trials=1, seed=3, maxiter=60)

    def run_trivial():
        with rec.span("analysis.aperiodicity", action="trivial", trials=4):
            return aperiodicity_search(ps_ext, p, x, b_triv, trials=4, seed=1, maxiter=30)

    jobs += [
        Job("aperiodicity-flip", "analysis", run_flip,
            lambda r: (verdict(r.best <= 5e-2, f"best {r.best:.3g} > 5e-2"), {"best": r.best})),
        Job("aperiodicity-trivial", "analysis", run_trivial,
            lambda r: (verdict(abs(r.best - 1.0) <= 1e-6, f"best {r.best!r} != 1"), {"best": r.best})),
    ]

    # the regular representation of S3 acting trivially on M_3 + M_3 + M_2
    s3 = symmetric_group_3()
    dims = [3, 3, 2]
    with rec.span("bundles.build", group="S3"):
        bundle = semidirect_bundle(trivial_action(s3, dims))
    rng = rng_for(seed, "s3-section")
    section = {}
    for g in s3.elements(1):
        gi = s3.inverse(g)
        if gi in section:
            section[g] = [blk.conj().T for blk in section[gi]]
        elif g == gi:
            section[g] = [(m + m.conj().T) / 2 for m in (gaussian(rng, (d, d)) for d in dims)]
        else:
            section[g] = [gaussian(rng, (d, d)) for d in dims]
    total_dim = len(s3.elements(1)) * sum(d * d for d in dims)

    def run_bundles():
        with rec.span("bundles.regular", rep_dim=total_dim):
            rep = regular_representation(bundle)
            rank = image_algebra_rank(bundle, rep)
        with rec.span("bundles.spectrum", rep_dim=rep.dim):
            spec = regular_spectrum(bundle, section, rep)
        return rank, spec

    spectrum = once(lambda: oracles.trivial_crossed_spectrum(s3, dims, section))

    def check_bundles(out):
        rank, spec = out
        if rank != total_dim:
            return f"image rank {rank} != {total_dim}", {}
        want = spectrum()
        got = np.sort(spec.real)
        gap = float(np.max(np.abs(got - want))) if got.shape == want.shape else np.inf
        if gap > 1e-8 * max(1.0, float(np.max(np.abs(want)))) or np.max(np.abs(spec.imag)) > 1e-8:
            return f"spectrum differs from lambda(g) (x) a_g by {gap:.2e}", {}
        return None, {"rep_dim": total_dim}

    jobs.append(Job("bundles-s3", "bundles", run_bundles, check_bundles))

    # structure checks on the colored backends
    def run_structure():
        reports = []
        for backend, depth in [(ps_n2, 2), (ps_abc2, 2)]:
            K = full_ideal(backend)
            with rec.span("precategory.structure", depth=depth):
                reports += [
                    check_well_aligned(backend, K, depth, seed=seed),
                    check_nondegenerate(backend, K, depth),
                    check_essential(backend, K, depth),
                    check_factorization(backend, depth),
                ]
        return reports

    jobs.append(Job(
        "structure", "precategory", run_structure,
        lambda reports: (verdict(all(r.ok for r in reports),
                                 "; ".join(repr(r) for r in reports if not r.ok)), {}),
    ))

    # the bundled scenarios, through the CLI entry point, against their golden reports
    for name in SCENARIOS:
        jobs.append(_scenario_job(rec, name))
    return jobs


def _scenario_job(rec, name):
    path = ROOT / "scenarios" / f"{name}.json"
    golden = json.loads((ROOT / "scenarios" / f"{name}.report.json").read_text())

    def run():
        buf = io.StringIO()
        with rec.span("scenario.run", scenario=name), contextlib.redirect_stdout(buf):
            code = cli_main(["run", str(path)])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}", {}
        gap = oracles.report_gap(json.loads(text), golden)
        return verdict(gap is None, f"differs from golden report: {gap}"), {}

    return Job(f"scenario-{name}", "scenario", run, check)


WORKLOADS = {
    "wick-core": build_wick_core,
    "fock-norm": build_fock_norm,
    "verify": build_verify,
}
