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
from .fock import (
    Truncation,
    fock_norm,
    lift,
    projection_QT,
    transcendental_expectation,
)
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
from .wick import NTElement, abelianization_grading, core_norm, diagonal_expectation


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
    for term in terms:
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
        if "semigroup" in data:
            self.sg = make_semigroup(data["semigroup"])
            self.backend, self.ideal = build_backend(self.sg, data.get("backend"))
            for name, terms in data.get("elements", {}).items():
                self.elements[name] = build_element(self.sg, self.backend, self.ideal, terms)
        self.bundle = build_bundle(data["bundle"]) if "bundle" in data else None
        self.sections = {}
        if self.bundle is not None:
            for name, fam in data.get("sections", {}).items():
                self.sections[name] = {
                    self.bundle.group.parse(g): to_blocks(blocks) for g, blocks in fam.items()
                }
        self.checks = data.get("checks", [])
        for check in self.checks:
            spec = CHECKS.get(check.get("name"))
            if spec is None:
                continue  # reported in place by run_scenario
            unknown = sorted(set(check) - {"name"} - set(spec.params))
            if unknown:
                raise ScenarioError(
                    f"check {check['name']!r}: unknown parameter {unknown[0]!r}; "
                    f"parameters are {', '.join(spec.params) or 'none'}"
                )

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

    def parse_el(self, text):
        return self.sg.parse(text)

    def truncation(self, depth=None) -> Truncation:
        return Truncation(self.backend, self.settings["depth"] if depth is None else depth)

    def fock_family(self, depth=None):
        rep, tr = fock_rep(self.backend, self.settings["depth"] if depth is None else depth, self.ideal)
        return rep, tr, ProjectionFamily(rep, tr.S)


# -- check registry ----------------------------------------------------------------


def _fmt(sg, p):
    return sg.format(p)


def run_segments(sc: Scenario, params):
    F = [sc.parse_el(t) for t in params["F"]]
    report = check_partition(sc.sg, F, depth=int(params.get("depth", sc.settings["depth"])))
    data = {
        "F": [_fmt(sc.sg, f) for f in F],
        "segments": [
            {"C": sorted(_fmt(sc.sg, t) for t in seg.C), "sigma": _fmt(sc.sg, seg.sig)}
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
    x = sc.element(params["element"])
    (key,) = list(x.keys())
    rp = check_condition_Cprime(rep, fam, p, qs, x.terms[key], tol=float(params.get("tol", 1e-6)))
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


def _coefficient_in(sc: Scenario, field, name, range_, source):
    """The one coefficient of the named element as an arrow in L(range_, source).

    Keys are stored unit-canonical, so the stored coefficient at (r, s) is
    transported by the unit u with (r u, s u) = (range_, source).
    """
    x = sc.element(name)
    (key,) = list(x.keys())
    r, s = key
    for u in sc.sg.units():
        if r * u == range_ and s * u == source:
            return x.terms[key].rtensor(u)
    raise ScenarioError(
        f"{field}: element {name!r} sits at ({_fmt(sc.sg, r)},{_fmt(sc.sg, s)}), "
        f"not in L({_fmt(sc.sg, range_)},{_fmt(sc.sg, source)}) up to a unit"
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
        "rank_one_bound": res.rank_one_bound,
        "search_best": res.search_best,
        "attained_by": res.attained_by,
    }
    if res.witness is not None:
        data["witness"] = from_blocks(res.witness.blocks)
    return "info", data


def run_graded(sc: Scenario, params):
    if sc.bundle is None:
        raise ScenarioError("graded check needs a bundle section")
    rep = regular_representation(sc.bundle)
    backend = rep.backend
    e = sc.bundle.group.identity()
    import random as _random

    rng = _random.Random(int(params.get("seed", sc.settings["seed"])))
    samples = []
    for _ in range(int(params.get("trials", 8))):
        samples.append(
            {g: backend.arrow(g, e, sc.bundle.random_fiber(g, rng)) for g in sc.bundle.elements}
        )
    for name in params.get("sections", []):
        fam = sc.sections[name]
        samples.append({g: backend.arrow(g, e, blocks) for g, blocks in fam.items()})
    rp = check_graded(rep, samples, tol=float(params.get("tol", 1e-9)))
    return ("pass" if rp.ok else "fail"), rp.details


def run_bundle_roundtrip(sc: Scenario, params):
    if sc.bundle is None:
        raise ScenarioError("roundtrip needs a bundle section")
    import random as _random

    B = sc.bundle
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
    rep = regular_representation(sc.bundle)
    rank = image_algebra_rank(sc.bundle, rep)
    total = sum(sc.bundle.fiber_dim(g) for g in sc.bundle.elements)
    return ("pass" if rank == total else "fail"), {"dim": rep.dim, "image_rank": rank, "fiber_dim_sum": total}


def run_bundle_spectrum(sc: Scenario, params):
    fam = sc.sections[params["section"]]
    spec = regular_spectrum(sc.bundle, fam)
    return "info", {"spectrum": [from_complex(z) for z in spec]}


#: one entry per check: the runner and the names of the parameters it reads
Check = namedtuple("Check", "run params")

CHECKS = {
    "segments": Check(run_segments, ("F", "depth")),
    "partition-check": Check(run_segments, ("F", "depth")),
    "core-norm": Check(run_core_norm, ("element", "wdepth")),
    "fock-norm": Check(run_fock_norm, ("element", "depth")),
    "norm-agreement": Check(run_norm_agreement, ("element",)),
    "expect": Check(run_expect, ("element", "depth")),
    "grade": Check(run_grade, ("element",)),
    "well-aligned": Check(lambda sc, p: run_structure(sc, p, "well-aligned"), ("depth",)),
    "nondegenerate": Check(lambda sc, p: run_structure(sc, p, "nondegenerate"), ("depth",)),
    "essential": Check(lambda sc, p: run_structure(sc, p, "essential"), ("depth",)),
    "toeplitz": Check(run_toeplitz, ("p", "qs", "depth")),
    "condition-c": Check(run_condition_c, ("p", "qs", "depth")),
    "condition-cprime": Check(run_condition_cprime, ("p", "qs", "element", "depth", "tol")),
    "projections": Check(run_projections, ("depth", "fock_depth", "tol")),
    "aperiodicity": Check(run_aperiodicity, ("p", "unit", "b", "h", "twist", "trials", "seed")),
    "graded": Check(run_graded, ("trials", "seed", "tol", "sections")),
    "bundle-roundtrip": Check(run_bundle_roundtrip, ("seed",)),
    "bundle-regular": Check(run_bundle_regular, ()),
    "bundle-spectrum": Check(run_bundle_spectrum, ("section",)),
}


def run_scenario(source, overrides=None) -> dict:
    """Execute every check in declaration order; failures do not abort the run."""
    import datetime

    sc = Scenario.from_path(source) if not isinstance(source, dict) else Scenario(source)
    if overrides:
        sc.settings.update({k: v for k, v in overrides.items() if v is not None})
    items = []
    for check in sc.checks:
        name = check.get("name")
        params = {k: v for k, v in check.items() if k != "name"}
        if name not in CHECKS:
            items.append({"name": name, "status": "error", "error": f"unknown check {name!r}"})
            continue
        try:
            status, data = CHECKS[name].run(sc, params)
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
