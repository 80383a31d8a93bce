"""Scenario files: declarative JSON descriptions of a semigroup, a backend,
named elements, and a list of checks to run.

Complex scalars are encoded as [re, im] pairs (bare numbers are accepted as
reals).  A block family is a list with one matrix per color.  Reports carry
the settings they were produced with so a run can be reproduced exactly; the
only non-deterministic field is "generated_at".
"""

from __future__ import annotations

import json
from collections import namedtuple

import numpy as np

from . import __version__
from .analysis import (
    ProjectionFamily,
    aperiodicity_search,
    check_condition_C,
    check_condition_Cprime,
    check_graded,
    check_projection_equalities,
    check_projection_semilattice,
    check_toeplitz_covariance,
    fock_rep,
)
from .bundles import (
    BlockAction,
    bundle_from_precategory,
    precategory_from_bundle,
    regular_representation,
    regular_spectrum,
    semidirect_bundle,
    image_algebra_rank,
)
from .fock import SMALL_SLOT, Truncation, fock_norm, transcendental_expectation
from .precategory import (
    ColorIdeal,
    ColoredProductSystem,
    ZeroTensorBackend,
    check_essential,
    check_nondegenerate,
    check_well_aligned,
    full_ideal,
)
from .segments import check_partition
from .semigroups import make_group, make_semigroup
from .wick import NTElement, abelianization_grading, core_norm


class ScenarioError(ValueError):
    pass


# -- JSON codecs ----------------------------------------------------------------


def to_complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ScenarioError(f"expected number or [re, im] pair, got {v!r}")


def from_complex(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def to_matrix(rows):
    return np.array([[to_complex(v) for v in row] for row in rows], dtype=complex)


def from_matrix(m):
    return [[from_complex(z) for z in row] for row in np.atleast_2d(m)]


def to_blocks(data):
    return [to_matrix(rows) for rows in data]


def from_blocks(blocks):
    return [from_matrix(b) for b in blocks]


# -- builders ---------------------------------------------------------------------


def _typed(spec, field, kind, what, default=None):
    """spec[field], or default; a ScenarioError naming it unless a kind."""
    value = spec.get(field, default)
    if not isinstance(value, kind):
        raise ScenarioError(f"{field!r} must be {what}, got {value!r}")
    return value


def build_backend(sg, spec: dict):
    spec = dict(spec or {})
    kind = spec.get("kind", "colored")
    if kind == "colored":
        gen_dims = spec.get("gen_dims")
        if gen_dims is None:
            gen_dims = [[1]] * len(sg.generators())
        backend = ColoredProductSystem(
            sg, gen_dims, colors=spec.get("colors"), check_depth=int(spec.get("check_depth", 3))
        )
    elif kind == "zero":
        backend = ZeroTensorBackend([int(d) for d in spec["dims"]], sg=sg)
    else:
        raise ScenarioError(f"unknown backend kind {kind!r}")
    ideal = spec.get("ideal")
    ideal = full_ideal(backend) if ideal is None else ColorIdeal(frozenset(int(c) for c in ideal))
    return backend, ideal


def build_element(sg, backend, ideal, terms) -> NTElement:
    x = NTElement(backend, ideal)
    for i, term in enumerate(terms):
        fields = ("range", "source", "blocks")
        missing = [k for k in fields if not isinstance(term, dict) or k not in term]
        if missing:
            raise ScenarioError(f"term {i} needs a {missing[0]!r}")
        p = sg.parse(term["range"])
        q = sg.parse(term["source"])
        blocks = to_blocks(term["blocks"])
        x.add_term(p, q, backend.arrow(p, q, blocks))
    return x


def element_to_json(x: NTElement):
    sg = x.backend.sg
    return [
        {"range": sg.format(p), "source": sg.format(q), "blocks": from_blocks(a.blocks)}
        for (p, q), a in sorted(
            x.terms.items(), key=lambda kv: (sg.sort_key(kv[0][0]), sg.sort_key(kv[0][1]))
        )
    ]


def build_bundle(spec: dict):
    if "group" not in spec:
        raise ScenarioError("bundle needs a 'group'")
    group = make_group(spec["group"])
    dims = [int(d) for d in spec.get("dims", [1])]
    action_spec = spec.get("action")
    if action_spec is None:
        perms = {g: tuple(range(len(dims))) for g in group.elements(1)}
        units = {g: [np.eye(d, dtype=complex) for d in dims] for g in group.elements(1)}
    else:
        perms = {
            group.parse(name): tuple(int(c) for c in perm)
            for name, perm in action_spec["perms"].items()
        }
        units = {
            group.parse(name): [to_matrix(u) for u in us]
            for name, us in action_spec["unitaries"].items()
        }
    action = BlockAction(group, dims, perms, units)
    return semidirect_bundle(action)


class Scenario:
    """A parsed scenario: instance + backend + named elements + checks."""

    def __init__(self, data: dict):
        self.data = data
        given = data.get("settings", {})
        unknown = sorted(set(given) - {"depth", "tol", "seed"})
        if unknown:
            raise ScenarioError(f"unknown setting {unknown[0]!r}; settings are depth, tol, seed")
        self.settings = {
            "depth": int(given.get("depth", 4)),
            "tol": float(given.get("tol", 1e-8)),
            "seed": int(given.get("seed", 0)),
        }
        self.sg = None
        self.backend = None
        self.ideal = None
        self.elements = {}
        self._truncations, self._families = {}, {}  # by depth
        if "semigroup" in data:
            self.sg = make_semigroup(_typed(data, "semigroup", dict, "an object"))
            self.backend, self.ideal = build_backend(self.sg, data.get("backend"))
            for name, terms in _typed(data, "elements", dict, "an object of named terms", {}).items():
                try:
                    self.elements[name] = build_element(self.sg, self.backend, self.ideal, terms)
                except ScenarioError as exc:
                    raise ScenarioError(f"element {name!r}: {exc}") from None
        self.bundle = build_bundle(data["bundle"]) if "bundle" in data else None
        self.sections = {}
        if self.bundle is not None:
            for name, fam in data.get("sections", {}).items():
                self.sections[name] = {
                    self.bundle.group.parse(g): to_blocks(blocks) for g, blocks in fam.items()
                }
        self.checks = data.get("checks", [])
        for i, check in enumerate(self.checks):
            if not isinstance(check, dict):
                raise ScenarioError(
                    f"'checks' entry {i} is {check!r}, not an object with a 'name'"
                )
            if check.get("name") in CHECKS:  # an unknown name is reported in place by run_scenario
                check_params(check["name"], _params(check))

    @classmethod
    def from_path(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        return cls(data)

    def element(self, name) -> NTElement:
        if name not in self.elements:
            raise ScenarioError(f"unknown element {name!r}; defined: {sorted(self.elements)}")
        return self.elements[name]

    def need_bundle(self):
        """The bundle of the scenario; a ScenarioError when it has none."""
        if self.bundle is None:
            raise ScenarioError("scenario has no bundle section; this check needs one")
        return self.bundle

    def section(self, name):
        self.need_bundle()
        if name not in self.sections:
            raise ScenarioError(f"unknown section {name!r}; defined: {sorted(self.sections)}")
        return self.sections[name]

    def parse_el(self, text):
        return self.sg.parse(text)

    def truncation(self, depth=None) -> Truncation:
        """The Truncation at depth (default settings.depth), built once per depth."""
        depth = self.settings["depth"] if depth is None else depth
        if depth not in self._truncations:
            self._truncations[depth] = Truncation(self.backend, depth)
        return self._truncations[depth]

    def fock_family(self, depth=None):
        """(rep, truncation, projection family) of the Fock representation at
        depth, built once per depth on the shared truncation."""
        depth = self.settings["depth"] if depth is None else depth
        if depth not in self._families:
            rep, tr = fock_rep(self.backend, depth, self.ideal, tr=self.truncation(depth))
            self._families[depth] = rep, tr, ProjectionFamily(rep, tr.S)
        return self._families[depth]


# -- check registry ----------------------------------------------------------------


def run_segments(sc: Scenario, params):
    F = [sc.parse_el(t) for t in params["F"]]
    report = check_partition(sc.sg, F, depth=int(params.get("depth", sc.settings["depth"])))
    data = {
        "F": [sc.sg.format(f) for f in F],
        "segments": [
            {"C": sorted(sc.sg.format(t) for t in seg.C), "sigma": sc.sg.format(seg.sig)}
            for seg in report.segments
        ],
        "partition_ok": bool(report.ok),
    }
    return ("pass" if report.ok else "fail"), data


def run_core_norm(sc: Scenario, params):
    x = sc.element(params["element"])
    value = core_norm(x, wdepth=int(params.get("wdepth", sc.settings["depth"])))
    return "info", {"value": value.value, "exact": value.exact}


def run_fock_norm(sc: Scenario, params):
    x = sc.element(params["element"])
    depth = int(params.get("depth", sc.settings["depth"]))
    tr = sc.truncation(depth)
    value = fock_norm(x, tr, tol=sc.settings["tol"])
    exact = x.is_diagonal() and x.max_key_length() + 2 <= depth
    return "info", {"norm": value, "exact": bool(exact), "depth": depth}


def run_norm_agreement(sc: Scenario, params):
    x = sc.element(params["element"])
    depth = x.max_key_length() + 2
    cn = core_norm(x, wdepth=depth)
    tol = sc.settings["tol"]
    fn = fock_norm(x, sc.truncation(depth), tol=tol)
    ok = cn.exact and abs(cn.value - fn) <= tol * max(1.0, cn.value)
    return ("pass" if ok else "fail"), {"core": cn.value, "fock": fn, "depth": depth}


def run_expect(sc: Scenario, params):
    x = sc.element(params["element"])
    tr = sc.truncation(int(params.get("depth", sc.settings["depth"])))
    op = transcendental_expectation(x, tr)
    return "info", {"norm": op.norm(tol=sc.settings["tol"]), "depth": tr.depth}


def run_grade(sc: Scenario, params):
    x = sc.element(params["element"])
    theta = abelianization_grading(sc.sg)
    raw = {theta.grade_of_key(p, q) for p, q in x.keys()}
    if theta.group is not None:
        grades = sorted(theta.group.format(g) for g in raw)
    else:
        grades = [list(g) for g in sorted(raw)]
    return "info", {"grades": grades}


def run_structure(sc: Scenario, params, which):
    depth = int(params.get("depth", min(2, sc.settings["depth"])))
    if which == "well-aligned":
        rep = check_well_aligned(sc.backend, sc.ideal, depth=depth, seed=sc.settings["seed"])
    elif which == "nondegenerate":
        rep = check_nondegenerate(sc.backend, sc.ideal, depth=depth)
    else:
        rep = check_essential(sc.backend, sc.ideal, depth=depth)
    data = {"checked": rep.checked}
    if which == "nondegenerate":
        data["certified"] = rep.certified
    data["failures"] = [repr(f) for f in rep.failures[:5]]
    return ("pass" if rep.ok else "fail"), data


def run_toeplitz(sc: Scenario, params):
    rep, tr, fam = sc.fock_family(params.get("depth"))
    p = sc.parse_el(params["p"])
    qs = [sc.parse_el(q) for q in params["qs"]]
    rp = check_toeplitz_covariance(rep, p, qs, tol=sc.settings["tol"])
    return ("pass" if rp.ok else "fail"), rp.details


def run_condition_c(sc: Scenario, params):
    rep, tr, fam = sc.fock_family(params.get("depth"))
    p = sc.parse_el(params["p"])
    qs = [sc.parse_el(q) for q in params["qs"]]
    rp = check_condition_C(rep, fam, p, qs, tol=sc.settings["tol"])
    return ("pass" if rp.ok else "fail"), rp.details


def run_condition_cprime(sc: Scenario, params):
    rep, tr, fam = sc.fock_family(params.get("depth"))
    p = sc.parse_el(params["p"])
    qs = [sc.parse_el(q) for q in params["qs"]]
    _, arrow = _single_term(sc, "element", params["element"])
    rp = check_condition_Cprime(rep, fam, p, qs, arrow, tol=float(params.get("tol", 1e-6)))
    return ("pass" if rp.ok else "fail"), rp.details


def run_projections(sc: Scenario, params):
    rep, tr, fam = sc.fock_family(params.get("fock_depth"))
    depth = int(params.get("depth", 2))
    semi = check_projection_semilattice(fam, depth=depth, tol=float(params.get("tol", 1e-9)))
    eq = check_projection_equalities(fam, sc.sg.elements(depth), tol=float(params.get("tol", 1e-9)))
    ok = semi.ok and eq.ok
    return ("pass" if ok else "fail"), {
        "semilattice_worst": semi.details["worst"],
        "equality_worst": eq.details["worst"],
    }


def _single_term(sc: Scenario, field, name):
    """The one (key, coefficient) of the named element; a ScenarioError
    naming the element when it has another number of terms."""
    x = sc.element(name)
    if len(x.terms) != 1:
        raise ScenarioError(f"{field}: element {name!r} has {len(x.terms)} terms, not one")
    return next(iter(x.terms.items()))


def _coefficient_in(sc: Scenario, field, name, range_, source):
    """The one coefficient of the named element as an arrow in L(range_, source).

    Keys are stored unit-canonical, so the stored coefficient at (r, s) is
    transported by the unit u with (r u, s u) = (range_, source).
    """
    (r, s), arrow = _single_term(sc, field, name)
    for u in sc.sg.units():
        if r * u == range_ and s * u == source:
            return arrow.rtensor(u)
    fmt = sc.sg.format
    raise ScenarioError(
        f"{field}: element {name!r} sits at ({fmt(r)},{fmt(s)}), "
        f"not in L({fmt(range_)},{fmt(source)}) up to a unit"
    )


def run_aperiodicity(sc: Scenario, params):
    p = sc.parse_el(params["p"])
    u = sc.parse_el(params["unit"])
    b = _coefficient_in(sc, "b", params["b"], p * u, p)
    h = _coefficient_in(sc, "h", params["h"], p, p) if params.get("h") else None
    twist = [to_matrix(m) for m in params["twist"]] if params.get("twist") else None
    res = aperiodicity_search(
        sc.backend, p, u, b, h=h, twist=twist,
        trials=int(params.get("trials", 12)),
        seed=int(params.get("seed", sc.settings["seed"])),
    )
    data = {
        "best": res.best,
        "lower_bound": res.lower_bound,
        "rank_one_bound": res.rank_one_bound,
        "search_best": res.search_best,
        "attained_by": res.attained_by,
    }
    if res.witness is not None:
        data["witness"] = from_blocks(res.witness.blocks)
    return "info", data


def run_graded(sc: Scenario, params):
    bundle = sc.need_bundle()
    rep = regular_representation(bundle)
    backend = rep.backend
    e = bundle.group.identity()
    import random as _random

    rng = _random.Random(int(params.get("seed", sc.settings["seed"])))
    samples = []
    for _ in range(int(params.get("trials", 8))):
        samples.append(
            {g: backend.arrow(g, e, bundle.random_fiber(g, rng)) for g in bundle.elements}
        )
    for name in params.get("sections", []):
        fam = sc.section(name)
        samples.append({g: backend.arrow(g, e, blocks) for g, blocks in fam.items()})
    rp = check_graded(rep, samples, tol=float(params.get("tol", 1e-9)))
    return ("pass" if rp.ok else "fail"), rp.details


def run_bundle_roundtrip(sc: Scenario, params):
    import random as _random

    B = sc.need_bundle()
    B2 = bundle_from_precategory(precategory_from_bundle(B))
    rng = _random.Random(int(params.get("seed", sc.settings["seed"])))
    exact = True
    for g in B.elements:
        for h in B.elements:
            a, b = B.random_fiber(g, rng), B.random_fiber(h, rng)
            for x, y in zip(B.mul(g, a, h, b), B2.mul(g, a, h, b)):
                exact = exact and bool(np.array_equal(x, y))
            for x, y in zip(B.star(g, a), B2.star(g, a)):
                exact = exact and bool(np.array_equal(x, y))
    return ("pass" if exact else "fail"), {"bit_exact": exact}


def run_bundle_regular(sc: Scenario, params):
    bundle = sc.need_bundle()
    rep = regular_representation(bundle)
    rank = image_algebra_rank(bundle, rep)
    total = sum(bundle.fiber_dim(g) for g in bundle.elements)
    return ("pass" if rank == total else "fail"), {"dim": rep.dim, "image_rank": rank, "fiber_dim_sum": total}


def run_bundle_spectrum(sc: Scenario, params):
    spec = regular_spectrum(sc.need_bundle(), sc.section(params["section"]))
    return "info", {"spectrum": [from_complex(z) for z in spec]}


#: one entry per check: the runner, the parameters it must be given, the
#: parameters it may be given, and the text `ntforge explain` prints
Check = namedtuple("Check", "run required optional doc")

CHECKS = {
    "segments": Check(run_segments, ("F",), ("depth",),
        "List the initial segments of a finite family F: the sets C in F whose\n"
        "iterated right LCM sigma(C) exists and that hold every t in F with\n"
        "t <= sigma(C), each recorded with the canonical sigma(C).  They are\n"
        "found from the closure of {e} under right LCMs with members of F, one\n"
        "segment {t in F : t <= w} per w in the closure, so |F| is not bounded.\n"
        "Informational; also reports whether the induced cells partition the\n"
        "enumerated ball (see partition-check)."),
    "partition-check": Check(run_segments, ("F",), ("depth",),
        "Verify that the cells {p : the part of F dividing p is exactly C} for C\n"
        "ranging over the initial segments of F cover every enumerated element\n"
        "exactly once.  Verdict: pass iff no element lies in zero or two cells."),
    "core-norm": Check(run_core_norm, ("element",), ("wdepth",),
        "Exact norm of a diagonal core element from the initial-segment formula:\n"
        "the maximum over segments C of the norm of sum_{p in C} a_p tensored\n"
        "into the fiber at sigma(C).  Reports {value, exact}; exact is false\n"
        "when off-diagonal keys force a truncated lower-bound estimate instead."),
    "fock-norm": Check(run_fock_norm, ("element",), ("depth",),
        "Operator norm of the element on the truncated Fock space of the given\n"
        "depth: the largest over colors of the norm of the column factor (the\n"
        "fibers over source objects only ampliate it), stored as one sparse\n"
        f"matrix per color.  A color slot of at most {SMALL_SLOT} columns takes a dense\n"
        "SVD; a larger one takes plain Lanczos on its Gram operator A*A, which\n"
        "stops once Paige's residual estimate beta_k |s_k| is at most the\n"
        "scenario's tol times the top Ritz value; past ten steps per column it\n"
        "raises LanczosNoConvergence, reported as an error item.  Reports\n"
        "{norm, exact, depth}; exact is true when the truncation provably\n"
        "attains the limit (diagonal element, depth at least max key\n"
        "length + 2)."),
    "norm-agreement": Check(run_norm_agreement, ("element",), (),
        "Cross-check that core-norm and fock-norm agree on a diagonal core\n"
        "element at depth max key length + 2, the Fock norm solved at the\n"
        "scenario's tol.  Verdict: pass iff the exact value and the Fock value\n"
        "differ by at most tol * max(1, exact value)."),
    "expect": Check(run_expect, ("element",), ("depth",),
        "Block-diagonal compression of the lifted element: sum over sources w of\n"
        "Q_w lift(x) Q_w.  Over right-cancellative instances every off-diagonal\n"
        "key dies; absorption-style instances keep some alive, which is the\n"
        "phenomenon this check measures.  Reports the compression's norm,\n"
        "solved as in fock-norm at the scenario's tol."),
    "grade": Check(run_grade, ("element",), (),
        "Grades of the element's keys under the generator-counting homomorphism\n"
        "to Z^k (or the group itself when the instance is a group).  The grade\n"
        "of a key (p, q) is theta(p) - theta(q).  Informational."),
    "well-aligned": Check(lambda sc, p: run_structure(sc, p, "well-aligned"), (), ("depth",),
        "Random products of ideal-supported arrows stay ideal-supported after\n"
        "composition and right tensoring, sampled with the scenario's seed.\n"
        "Verdict: pass iff no sampled product leaves the ideal."),
    "nondegenerate": Check(lambda sc, p: run_structure(sc, p, "nondegenerate"), (), ("depth",),
        "For every non-unit p and every r, the products (K(p,p) x 1_r) K(pr,pr)\n"
        "span K(pr,pr), restricted to the ideal's colors.  Unit certificate\n"
        "first: when 1_K(p) x 1_r equals 1_K(pr) entry for entry, it fixes every\n"
        "arrow of K(pr,pr) and the span is exact; rank test as fallback on the\n"
        "other pairs.  Verdict: pass iff every span attains full dimension.\n"
        "Reports checked and certified (the pairs the unit certificate settled)."),
    "essential": Check(lambda sc, p: run_structure(sc, p, "essential"), (), ("depth",),
        "K(p,p) is essential in L(p,p): no (p,p) fiber carries a nonzero block\n"
        "in a color outside the ideal.  Verdict: pass iff no such block occurs."),
    "toeplitz": Check(run_toeplitz, ("p", "qs"), ("depth",),
        "Rank test for covariance: the (p,p) fiber image must intersect the span\n"
        "of the (q,q) fiber images trivially, i.e. rank[A|B] = rank A + rank B\n"
        "for the vectorized images, at the scenario's tol.  Each fiber's matrix-\n"
        "unit basis is mapped at once, and the images are ranked as rows on the\n"
        "union of their supports.  Precondition: no q may divide p.\n"
        "Certificate: the three ranks."),
    "condition-c": Check(run_condition_c, ("p", "qs"), ("depth",),
        "Faithfulness of a |-> phi(a) prod_i (1 - Q_<q_i>) on the (p,p) fiber:\n"
        "the smallest singular value of the linearized map must exceed the\n"
        "scenario's tol, and the compression must commute with the fiber action.\n"
        "The images of the fiber's matrix-unit basis come as one stack, and the\n"
        "compression is broadcast over it.  When every Q_<q_i> is an index set\n"
        "(see projections), the product is a column mask, and the commutator is\n"
        "nonzero only where phi(a) has an entry whose row and column the mask\n"
        "treats differently.  Otherwise the product is formed densely.  A\n"
        "spectral norm is taken only of a nonzero commutator.  Precondition: no\n"
        "q may divide p.  Certificate: sigma_min and the commutation defect."),
    "condition-cprime": Check(run_condition_cprime, ("p", "qs", "element"), ("depth", "tol"),
        "Norm preservation in the corner: compressing the represented element by\n"
        "1 - (Q_{q_1} v ... v Q_{q_n}) must not change its norm by more than tol\n"
        "(default 1e-6).  The element has one term.  Precondition: no q may\n"
        "divide p.  Certificate: full norm and corner norm."),
    "projections": Check(run_projections, (), ("depth", "fock_depth", "tol"),
        "Semilattice law for the range projections: Q_<p> Q_<q> equals Q_<lcm>\n"
        "when p and q have a common multiple and 0 otherwise, plus the per-\n"
        "element equality Q_p = Q_<p>.  Q_p = phi(1_p), the image of the unit\n"
        "of K(p,p).  Diagonal certificate first: a phi(1_w) with no nonzero\n"
        "entry off its diagonal and every diagonal entry exactly 0 or 1 (no\n"
        "tolerance) is the projection onto an index set.  When every w in pP of\n"
        "the window is certified, Q_<p> is the union of their sets and both laws\n"
        "are set identities, each defect exactly 0.0 or 1.0.  On the Fock\n"
        "representation of a colored backend every phi(1_w) is certified.\n"
        "Otherwise (dense fallback) phi(1_w) must be a self-adjoint idempotent,\n"
        "Q_<p> is the range projection of the sum of the phi(1_w) over the\n"
        "window's w in pP by eigh with relative cutoff 1e-8, and a defect is a\n"
        "spectral norm.  depth is the word length of the pairs and tol bounds\n"
        "each defect; tol defaults to 1e-9 and does not follow the scenario's\n"
        "settings.tol.\n"
        "Certificate: worst defect per law."),
    "aperiodicity": Check(run_aperiodicity, ("p", "unit", "b"), ("h", "twist", "trials", "seed"),
        "Bracket the infimum of |alpha(a) b a| over positive norm-one a supported\n"
        "on the hereditary corner of the (p,p) fiber cut out by range(h), taken\n"
        "at relative cutoff 1e-8, where alpha twists by the given unit.  On a\n"
        "colored backend the unit has dimension 1 in every color, so for rank-one\n"
        "a = v v* in one color the value is |<v, M v>| with M = V* U* b V (V a\n"
        "basis of range(h), U the twist), and every a is worth at least the\n"
        "distance from 0 to the numerical range of M in some color.  A sweep of\n"
        "720 support angles plus two segment steps gives a witness; its value is\n"
        "rank_one_bound, exactly 0 when 0 is inside the numerical range.  The\n"
        "support function at those angles and at the witness's own angle gives\n"
        "lower_bound, a proven lower bound on the infimum.  Only when the\n"
        "bracket stays open by more than 1e-12 |b| (or off the colored backend)\n"
        "do random restarts with Powell refinement search further (search_best).\n"
        "best is the smaller attained value and attained_by names its source,\n"
        "so lower_bound <= infimum <= best (lower_bound and rank_one_bound are\n"
        "null off the colored backend).  Values near 0 witness aperiodicity;\n"
        "1.0 is the trivial-action value.  b is one term, in L(p unit, p) up to\n"
        "a unit; h is one term, in L(p, p).  Informational; reports best,\n"
        "lower_bound, rank_one_bound, search_best, attained_by and the witness."),
    "graded": Check(run_graded, (), ("trials", "seed", "tol", "sections"),
        "Topological-grading inequality for a representation of a group-graded\n"
        "family: the identity-fiber coefficient satisfies |b_e| <= |sum_g\n"
        "phi(b_g)| on every sample.  Collapsing representations (for instance\n"
        "sending a unitary generator to 1) fail on elements like 1 - u.\n"
        "The samples are random fibers plus the named sections.  tol is the\n"
        "slack of the inequality; it defaults to 1e-9 and does not follow the\n"
        "scenario's settings.tol."),
    "bundle-roundtrip": Check(run_bundle_roundtrip, (), ("seed",),
        "Rebuild the fiber family from its own arrow category and replay random\n"
        "products and stars along both routes.  Verdict: pass iff every replay\n"
        "is bit-for-bit identical (the two routes execute the same float ops)."),
    "bundle-regular": Check(run_bundle_regular, (), (),
        "Left-convolution representation on the direct sum of the fibers with\n"
        "the Hilbert-Schmidt inner product, kept as one matrix per colour.  Each\n"
        "grade's matrix-unit basis is mapped at once through the graded product\n"
        "and ranked by one SVD per grade, with one cutoff relative to the largest\n"
        "value of all.  Verdict: pass iff the image algebra has full rank, i.e.\n"
        "the representation separates the fibers."),
    "bundle-spectrum": Check(run_bundle_spectrum, ("section",), (),
        "Eigenvalues of the regular-representation matrix of a named section.\n"
        "For the order-two group acting trivially on C, a + b u has spectrum\n"
        "{a + b, a - b}.  Informational."),
}


def params_text(name) -> str:
    """The parameters of a check in one line, generated from its entry."""
    spec = CHECKS[name]
    required, optional = (", ".join(names) or "none" for names in (spec.required, spec.optional))
    return f"required {required}; optional {optional}"


def check_params(name, params):
    """Reject a parameter the check does not read, or a missing required one."""
    spec = CHECKS[name]
    unknown = sorted(set(params) - set(spec.required) - set(spec.optional))
    missing = [k for k in spec.required if k not in params]
    if unknown or missing:
        problem = (
            f"unknown parameter {unknown[0]!r}" if unknown else f"missing parameter {missing[0]!r}"
        )
        raise ScenarioError(f"check {name!r}: {problem}; {params_text(name)}")


def run_check(sc: Scenario, name, params):
    """Validate the parameters, then run the check: (status, data)."""
    check_params(name, params)
    return CHECKS[name].run(sc, params)


def _params(check: dict) -> dict:
    return {k: v for k, v in check.items() if k != "name"}


def run_scenario(source, overrides=None) -> dict:
    """Execute every check in declaration order; failures do not abort the run."""
    import datetime

    sc = Scenario.from_path(source) if not isinstance(source, dict) else Scenario(source)
    if overrides:
        sc.settings.update({k: v for k, v in overrides.items() if v is not None})
    items = []
    for check in sc.checks:
        name = check.get("name")
        params = _params(check)
        if name not in CHECKS:
            items.append({"name": name, "status": "error", "error": f"unknown check {name!r}"})
            continue
        try:
            status, data = run_check(sc, name, params)
            items.append({"name": name, "params": params, "status": status, "data": data})
        except Exception as exc:  # keep going; report the failure in place
            items.append({"name": name, "params": params, "status": "error", "error": str(exc)})
    return {
        "version": __version__,
        "settings": sc.settings,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "items": items,
    }


def report_ok(report: dict) -> bool:
    return all(item["status"] in ("pass", "info") for item in report["items"])
