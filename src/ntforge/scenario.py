"""Scenario files: declarative JSON descriptions of a semigroup, a backend,
named elements, a bundle with named sections, settings, and checks to run.

`Scenario(data)` reads one in a pass, each value by a `Kind` of the tables
below: INSTANCE_KINDS beside the semigroup builders, BACKEND_KINDS, TERM,
BUNDLE, SECTIONS, SETTINGS, and PARAMS, one kind per check parameter name.  A
bad value is a ScenarioError naming its JSON path, e.g.
scenario['elements']['x'][0]['range'], which the error collects on its way
out of the readers.  A good value is resolved (words parsed, blocks shaped
into arrows, names looked up), so runners read values only; a report's params
stay as written.  Scalars are numbers or [re, im] pairs; a block family has
one matrix per colour; only "generated_at" varies by run.
"""

from __future__ import annotations

import functools
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
)
from .bundles import (
    BlockAction,
    bundle_from_precategory,
    precategory_from_bundle,
    regular_representation,
    regular_spectrum,
    semidirect_bundle,
    image_algebra_rank,
    trivial_action,
)
from .fock import SMALL_SLOT, Truncation, fock_norm, fock_rep, transcendental_expectation
from .precategory import (
    ColorIdeal,
    ColoredProductSystem,
    ZeroTensorBackend,
    full_ideal,
    check_essential,
    check_nondegenerate,
    check_well_aligned,
)
from .segments import check_partition
from .semigroups import (AbsorptionMonoid, DirectSumN, FiniteGroup, FreeProduct, RightLcmSemigroup,
                         UnitExtension, cyclic_group, free_monoid, klein_group, symmetric_group_3)
from .wick import NTElement, abelianization_grading, core_norm


class ScenarioError(ValueError):
    """Bad input at the JSON path root[key]...: each container that read the
    value adds its key on the way out (_under), the entry point the root (_at)."""
    root = ""

    def __init__(self, problem, keys=()):
        super().__init__(problem)
        self.keys = keys

    def __str__(self):
        where = self.root + "".join(f"[{k!r}]" for k in self.keys)
        return f"{where}: {self.args[0]}" if where else str(self.args[0])


# -- JSON output ----------------------------------------------------------------


def from_complex(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def from_blocks(blocks):
    return [[[from_complex(z) for z in row] for row in np.atleast_2d(b)] for b in blocks]


def element_to_json(x: NTElement):
    sg = x.backend.sg
    return [
        {"range": sg.format(p), "source": sg.format(q), "blocks": from_blocks(a.blocks)}
        for (p, q), a in sorted(
            x.terms.items(), key=lambda kv: (sg.sort_key(kv[0][0]), sg.sort_key(kv[0][1]))
        )
    ]


# -- the schema -------------------------------------------------------------------

#: what a value must be (for messages and `explain`), and read(value, sc)
#: giving its resolved value, sc the Scenario as read so far
Kind = namedtuple("Kind", "what read")


def _under(key, read, *args):
    """read(*args); a ScenarioError from it is placed under key."""
    try:
        return read(*args)
    except ScenarioError as exc:
        exc.keys = (key,) + exc.keys
        raise


def _at(root, read, *args):
    """read(*args); a ScenarioError from it names its path from root."""
    try:
        return read(*args)
    except ScenarioError as exc:
        exc.root = root
        raise


def _then(kind, build):
    """kind, then build(value, sc); a ValueError from build becomes a ScenarioError at the value."""
    def read(v, sc):
        value = kind.read(v, sc)
        try:
            return build(value, sc)
        except ValueError as exc:
            raise ScenarioError(exc) from None
    return Kind(kind.what, read)


def _plain(what, types, test=lambda v: True):
    """A value of the given JSON types passing test, as written (a bool is never a number)."""
    def read(v, sc):
        if isinstance(v, bool) or not isinstance(v, types) or not test(v):
            raise ScenarioError(f"expected {what}, got {v!r}")
        return v
    return Kind(what, read)


def _each(kind, what, of=list, nonempty=False):
    """A list (of=list) or an object of any keys (of=dict), each member read as kind."""
    def read(v, sc):
        if not isinstance(v, of) or (nonempty and not v):
            raise ScenarioError(f"expected {what}, got {v!r}")
        if of is list:
            return [_under(k, kind.read, x, sc) for k, x in enumerate(v)]
        return {k: _under(k, kind.read, x, sc) for k, x in v.items()}
    return Kind(what, read)


def _object(what, need=(), **fields):
    """An object with keys among fields (key=kind), every key of need given,
    read to {key: value} for the keys given."""
    def read(v, sc):
        if not isinstance(v, dict):
            raise ScenarioError(f"expected {what}, got {v!r}")
        out = {}
        for key, x in v.items():
            if key not in fields:
                raise ScenarioError(f"unknown key of {what}; keys: {', '.join(fields) or 'none'}", (key,))
            out[key] = _under(key, fields[key].read, x, sc)
        for key in need:
            if key not in v:
                raise ScenarioError("missing", (key,))
        return out
    return Kind(what, read)


def _by_kind(table, v, sc, default=None):
    """v read by the entry of table that its 'kind' (default when absent) names."""
    if not isinstance(v, dict):
        raise ScenarioError(f"expected object with a 'kind', got {v!r}")
    kind = v.get("kind", default)
    if not isinstance(kind, str) or kind not in table:
        problem = "missing" if kind is None else f"unknown kind {kind!r}"
        raise ScenarioError(f"{problem}; kinds: {', '.join(table)}", ("kind",))
    return table[kind].read({k: x for k, x in v.items() if k != "kind"}, sc)


def _scalar(v, sc):
    re, im = v if isinstance(v, list) and len(v) == 2 else (v, 0)
    return complex(_NUMBER.read(re, sc), _NUMBER.read(im, sc))


_NUMBER = _plain("finite number or [re, im] pair", (int, float), lambda v: abs(v) <= 1e308)
STRING = _plain("string", str)
NATURAL = _plain("integer >= 0", int, lambda v: v >= 0)
POSITIVE = _plain("integer >= 1", int, lambda v: v >= 1)
TOL = _plain("number >= 0", (int, float), lambda v: v >= 0)
MATRIX = _then(_each(_each(Kind("number", _scalar), "list of numbers"), "matrix (list of rows)"),
               lambda rows, sc: np.array(rows, dtype=complex))
BLOCKS = _each(MATRIX, "list of matrices, one per colour")
WORD = _then(_plain("word", str), lambda text, sc: sc.sg.parse(text))
DIMS = _each(POSITIVE, "non-empty list of integers >= 1", nonempty=True)


def _table_group(f, sc):
    names, rows = f["elements"], f["table"]
    if len(rows) != len(names) or any(len(row) != len(names) for row in rows):
        raise ValueError(f"group 'table' needs {len(names)} rows of {len(names)} entries")
    table = {(a, b): rows[i][j] for i, a in enumerate(names) for j, b in enumerate(names)}
    return FiniteGroup(f.get("name", "G"), names, table)


#: the groups a scenario may name
BUILTIN_GROUPS = {**{f"Z{n}": functools.partial(cyclic_group, n) for n in range(1, 7)},
                  "Z2xZ2": klein_group, "S3": symmetric_group_3}
_STRINGS = _each(STRING, "list of strings")
_ROW = Kind("string or list of strings", lambda v, sc: v if isinstance(v, str) else _STRINGS.read(v, sc))
TABLE_GROUP = _then(_object("group name or object", ("elements", "table"), name=STRING, elements=_STRINGS,
                            table=_each(_ROW, "list of rows")), _table_group)


def make_group(spec) -> FiniteGroup:
    """A finite group from its spec: a builtin's name, an object holding only
    that, or elements and a table; a ScenarioError names a bad path in it."""
    if isinstance(spec, dict) and set(spec) == {"name"}:
        spec = spec["name"]
    if not isinstance(spec, str):
        return TABLE_GROUP.read(spec, None)
    if spec not in BUILTIN_GROUPS:
        raise ScenarioError(f"unknown group {spec!r}; builtins: {', '.join(BUILTIN_GROUPS)}")
    return BUILTIN_GROUPS[spec]()


def make_semigroup(spec) -> RightLcmSemigroup:
    """An instance from its spec, read by the entry of INSTANCE_KINDS its
    'kind' names; a ScenarioError names a bad path in it."""
    return _by_kind(INSTANCE_KINDS, spec, None)


GROUP = Kind(TABLE_GROUP.what, lambda v, sc: make_group(v))
SEMIGROUP = Kind("semigroup spec", lambda v, sc: make_semigroup(v))

#: kind -> the schema of its spec, built into the instance; `what` is the
#: description `ntforge list-instances` prints
INSTANCE_KINDS = {
    "direct_sum": _then(_object("N^k vectors under addition (rank parameter)", rank=POSITIVE),
                        lambda f, sc: DirectSumN(f.get("rank", 1))),
    "free_monoid": _then(_object("free monoid on letters (free product of copies of N)", ("letters",),
                                 letters=_plain("string of letters", str, lambda v: v.isascii() and v.isalpha())),
                         lambda f, sc: free_monoid(f["letters"])),
    "free_product": _then(_object("free product of trivial-unit instances", ("factors",),
                                  factors=_each(SEMIGROUP, "list of semigroup specs"), names=_STRINGS),
                          lambda f, sc: FreeProduct(f["factors"], names=f.get("names"))),
    "absorption": _then(_object("pairs (k,m), (k,m)(l,n)=(k+l,n) for l>0; not right cancellative"),
                        lambda f, sc: AbsorptionMonoid()),
    "unit_extension": _then(_object("base instance times a finite abelian unit group", ("base", "units"),
                                    base=SEMIGROUP, units=GROUP),
                            lambda f, sc: UnitExtension(f["base"], f["units"])),
    "finite_group": GROUP._replace(what="multiplication-table group; builtins "
                                   + ", ".join(sorted(BUILTIN_GROUPS))),
}


def _with_ideal(backend, f):
    """(backend, the ideal of the colours f lists, or of all of them)."""
    if any(c >= backend.slot_count for c in f.get("ideal", ())):
        raise ValueError(f"'ideal' names a colour outside 0..{backend.slot_count - 1}")
    return backend, ColorIdeal(f["ideal"]) if "ideal" in f else full_ideal(backend)


_IDEAL = _each(NATURAL, "list of colours")
BACKEND_KINDS = {
    "colored": _then(_object("colored backend", gen_dims=_each(DIMS, "list of dims per generator"),
                             colors=POSITIVE, check_depth=NATURAL, ideal=_IDEAL),
                     lambda f, sc: _with_ideal(ColoredProductSystem(
                         sc.sg, f.get("gen_dims", [[1]] * len(sc.sg.generators())),
                         colors=f.get("colors"), check_depth=f.get("check_depth", 3)), f)),
    "zero": _then(_object("zero backend", ("dims",), dims=DIMS, ideal=_IDEAL),
                  lambda f, sc: _with_ideal(ZeroTensorBackend(f["dims"], sg=sc.sg), f)),
}
BACKEND = Kind("backend spec", lambda v, sc: _by_kind(BACKEND_KINDS, v, sc, "colored"))
TERM = _then(_object("term object", ("range", "source", "blocks"), range=WORD, source=WORD, blocks=BLOCKS),
             lambda t, sc: (t["range"], t["source"], sc.backend.arrow(t["range"], t["source"], t["blocks"])))


def _element(terms, sc):
    """The sum of the (range, source, arrow) terms, in the scenario's ideal."""
    x = NTElement(sc.backend, sc.ideal)
    for p, q, arrow in terms:
        x.add_term(p, q, arrow)
    return x


def _bundle(f, sc):
    group, dims = f["group"], f.get("dims", [1])
    if "action" not in f:
        return semidirect_bundle(trivial_action(group, dims))
    perms = {group.parse(g): tuple(perm) for g, perm in f["action"]["perms"].items()}
    units = {group.parse(g): us for g, us in f["action"]["unitaries"].items()}
    n = len(dims)
    if any(sorted(p) != list(range(n)) for p in perms.values()) or any(len(u) != n for u in units.values()):
        raise ValueError(f"each action entry needs a permutation of the {n} slots and {n} unitaries")
    return semidirect_bundle(BlockAction(group, dims, perms, units))


def _section(fam, sc):
    grades = {sc.bundle.group.parse(name): blocks for name, blocks in fam.items()}
    if len(grades) < len(fam):
        raise ValueError("two names of one group element")
    return {g: sc.bundle.backend.arrow(g, sc.bundle.group.identity(), blocks) for g, blocks in grades.items()}


ACTION = _object("action object", ("perms", "unitaries"),
                 perms=_each(_each(NATURAL, "list of slots"), "object from group elements to slots", dict),
                 unitaries=_each(BLOCKS, "object from group elements to unitaries", dict))
BUNDLE = _then(_object("bundle object", ("group",), group=GROUP, dims=DIMS, action=ACTION), _bundle)
ELEMENTS = _each(_then(_each(TERM, "list of terms"), _element), "object of named term lists", dict)
SECTIONS = _each(_then(_each(BLOCKS, "object from group elements to blocks", dict), _section),
                 "object of named sections", dict)
SETTINGS = _object("settings object", depth=NATURAL, tol=TOL, seed=NATURAL)


def _defined(table, what):
    """A name of sc's table (elements or sections), resolved to what it names."""
    def read(v, sc):
        known = getattr(sc, table)
        if not isinstance(v, str) or v not in known:
            raise ScenarioError(f"unknown {what} {v!r}, not in scenario[{table!r}]: {sorted(known)}")
        return known[v]
    return Kind(f"{what} name", read)


ELEMENT, SECTION = _defined("elements", "element"), _defined("sections", "section")


class Scenario:
    """A scenario read against the schema: instance, backend, elements, bundle,
    sections, settings, and per check (name, params as written, resolved params)."""

    #: every top-level key, with the key it needs beside it
    NEEDS = {"settings": None, "semigroup": None, "backend": "semigroup", "elements": "semigroup",
             "bundle": None, "sections": "bundle", "checks": None}

    def __init__(self, data: dict):
        self._families = {}  # by depth
        _at("scenario", self._read, data)

    def _read(self, data):
        _object("scenario object", **dict.fromkeys(self.NEEDS, Kind("value", lambda v, sc: v))).read(data, self)
        for key, need in self.NEEDS.items():
            if key in data and need is not None and need not in data:
                raise ScenarioError(f"missing; scenario[{key!r}] needs it", (need,))

        def read(kind, key, default):
            return _under(key, kind.read, data.get(key, default), self)

        self.settings = {"depth": 4, "tol": 1e-8, "seed": 0, **read(SETTINGS, "settings", {})}
        self.sg = read(SEMIGROUP, "semigroup", None) if "semigroup" in data else None
        self.backend, self.ideal = read(BACKEND, "backend", {}) if self.sg is not None else (None, None)
        self.elements = read(ELEMENTS, "elements", {})
        self.bundle = read(BUNDLE, "bundle", None) if "bundle" in data else None
        self.sections = read(SECTIONS, "sections", {})
        self.checks = read(CHECK_LIST, "checks", [])

    @classmethod
    def from_path(cls, path):
        with open(path) as fh:
            try:
                return cls(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")

    def need(self, key):
        """A ScenarioError unless the scenario has a semigroup (key "sg") or bundle."""
        if getattr(self, key) is None:
            what = "semigroup" if key == "sg" else "bundle section"
            raise ScenarioError(f"scenario has no {what}; this check needs one")

    def truncation(self, depth=None) -> Truncation:
        """The Truncation at depth (default settings.depth), that of fock_family."""
        return self.fock_family(depth)[1]

    def fock_family(self, depth=None):
        """(rep, truncation, projection family) of the Fock representation at
        depth (default settings.depth), built once per depth."""
        depth = self.settings["depth"] if depth is None else depth
        if depth not in self._families:
            rep, tr = fock_rep(self.backend, depth, self.ideal)
            self._families[depth] = rep, tr, ProjectionFamily(rep, tr.S)
        return self._families[depth]


# -- check registry ----------------------------------------------------------------


def run_segments(sc: Scenario, args):
    report = check_partition(sc.sg, args["F"], depth=args.get("depth", sc.settings["depth"]))
    data = {
        "F": [sc.sg.format(f) for f in args["F"]],
        "segments": [
            {"C": sorted(sc.sg.format(t) for t in seg.C), "sigma": sc.sg.format(seg.sig)}
            for seg in report.segments
        ],
        "partition_ok": bool(report.ok),
    }
    return ("pass" if report.ok else "fail"), data


def run_core_norm(sc: Scenario, args):
    value = core_norm(args["element"], wdepth=args.get("wdepth", sc.settings["depth"]))
    return "info", {"value": value.value, "exact": value.exact}


def run_fock_norm(sc: Scenario, args):
    x = args["element"]
    depth = args.get("depth", sc.settings["depth"])
    tr = sc.truncation(depth)
    value = fock_norm(x, tr, tol=sc.settings["tol"])
    exact = x.is_diagonal() and x.max_key_length() + 2 <= depth
    return "info", {"norm": value, "exact": bool(exact), "depth": depth}


def run_norm_agreement(sc: Scenario, args):
    x = args["element"]
    depth = x.max_key_length() + 2
    cn = core_norm(x, wdepth=depth)
    tol = sc.settings["tol"]
    fn = fock_norm(x, sc.truncation(depth), tol=tol)
    ok = cn.exact and abs(cn.value - fn) <= tol * max(1.0, cn.value)
    return ("pass" if ok else "fail"), {"core": cn.value, "fock": fn, "depth": depth}


def run_expect(sc: Scenario, args):
    tr = sc.truncation(args.get("depth"))
    op = transcendental_expectation(args["element"], tr)
    return "info", {"norm": op.norm(tol=sc.settings["tol"]), "depth": tr.depth}


def run_grade(sc: Scenario, args):
    theta = abelianization_grading(sc.sg)
    raw = {theta.grade_of_key(p, q) for p, q in args["element"].keys()}
    if theta.group is not None:
        grades = sorted(theta.group.format(g) for g in raw)
    else:
        grades = [list(g) for g in sorted(raw)]
    return "info", {"grades": grades}


def run_structure(sc: Scenario, args, which):
    depth = args.get("depth", min(2, sc.settings["depth"]))
    if which == "well-aligned":
        rep = check_well_aligned(sc.backend, sc.ideal, depth=depth, seed=sc.settings["seed"])
    elif which == "nondegenerate":
        rep = check_nondegenerate(sc.backend, sc.ideal, depth=depth)
    else:
        rep = check_essential(sc.backend, sc.ideal, depth=depth)
    data = {"checked": rep.checked}
    if which != "essential":
        data["certified"] = rep.certified
    data["failures"] = [repr(f) for f in rep.failures[:5]]
    return ("pass" if rep.ok else "fail"), data


def run_toeplitz(sc: Scenario, args):
    rep, tr, fam = sc.fock_family(args.get("depth"))
    rp = check_toeplitz_covariance(rep, args["p"], args["qs"], tol=sc.settings["tol"])
    return ("pass" if rp.ok else "fail"), rp.details


def run_condition_c(sc: Scenario, args):
    rep, tr, fam = sc.fock_family(args.get("depth"))
    rp = check_condition_C(rep, fam, args["p"], args["qs"], tol=sc.settings["tol"])
    return ("pass" if rp.ok else "fail"), rp.details


def run_condition_cprime(sc: Scenario, args):
    rep, tr, fam = sc.fock_family(args.get("depth"))
    _, arrow = _single_term("element", args["element"])
    rp = check_condition_Cprime(rep, fam, args["p"], args["qs"], arrow, tol=args.get("tol", 1e-6))
    return ("pass" if rp.ok else "fail"), rp.details


def run_projections(sc: Scenario, args):
    rep, tr, fam = sc.fock_family(args.get("fock_depth"))
    depth = args.get("depth", 2)
    semi = check_projection_semilattice(fam, depth=depth)
    eq = check_projection_equalities(fam, sc.sg.elements(depth))
    ok = semi.ok and eq.ok
    return ("pass" if ok else "fail"), {
        "semilattice_worst": semi.details["worst"],
        "equality_worst": eq.details["worst"],
    }


def _single_term(field, x):
    """The one (key, coefficient) of an element; a ScenarioError naming field otherwise."""
    if len(x.terms) != 1:
        raise ScenarioError(f"{field!r}: the element has {len(x.terms)} terms, not one")
    return next(iter(x.terms.items()))


def _coefficient_in(sc: Scenario, field, x, range_, source):
    """The one coefficient of the element x as an arrow in L(range_, source).

    Keys are stored unit-canonical, so the stored coefficient at (r, s) is
    transported by the unit u with (r u, s u) = (range_, source).
    """
    (r, s), arrow = _single_term(field, x)
    for u in sc.sg.units():
        if r * u == range_ and s * u == source:
            return arrow.rtensor(u)
    fmt = sc.sg.format
    raise ScenarioError(
        f"{field!r}: the element sits at ({fmt(r)},{fmt(s)}), "
        f"not in L({fmt(range_)},{fmt(source)}) up to a unit"
    )


def run_aperiodicity(sc: Scenario, args):
    p, u = args["p"], args["unit"]
    b = _coefficient_in(sc, "b", args["b"], p * u, p)
    h = _coefficient_in(sc, "h", args["h"], p, p) if "h" in args else None
    res = aperiodicity_search(
        sc.backend, p, u, b, h=h, twist=args.get("twist") or None,
        trials=args.get("trials", 12), seed=args.get("seed", sc.settings["seed"]),
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


def run_graded(sc: Scenario, args):
    bundle = sc.bundle
    rep = regular_representation(bundle)
    backend = rep.backend
    e = bundle.group.identity()
    rng = np.random.default_rng(args.get("seed", sc.settings["seed"]))
    samples = [{g: backend.arrow(g, e, bundle.random_fiber(g, rng)) for g in bundle.elements}
               for _ in range(args.get("trials", 8))]
    samples += [{g: backend.arrow(g, e, a.blocks) for g, a in fam.items()} for fam in args.get("sections", [])]
    rp = check_graded(rep, samples, tol=args.get("tol", 1e-9))
    return ("pass" if rp.ok else "fail"), rp.details


def run_bundle_roundtrip(sc: Scenario, args):
    B = sc.bundle
    B2 = bundle_from_precategory(precategory_from_bundle(B))
    rng = np.random.default_rng(args.get("seed", sc.settings["seed"]))
    exact = True
    for g in B.elements:
        for h in B.elements:
            a, b = B.random_fiber(g, rng), B.random_fiber(h, rng)
            for x, y in zip(B.mul(g, a, h, b), B2.mul(g, a, h, b)):
                exact = exact and bool(np.array_equal(x, y))
            for x, y in zip(B.star(g, a), B2.star(g, a)):
                exact = exact and bool(np.array_equal(x, y))
    return ("pass" if exact else "fail"), {"bit_exact": exact}


def run_bundle_regular(sc: Scenario, args):
    rep = regular_representation(sc.bundle)
    rank = image_algebra_rank(sc.bundle, rep)
    total = sum(sc.bundle.fiber_dim(g) for g in sc.bundle.elements)
    return ("pass" if rank == total else "fail"), {"dim": rep.dim, "image_rank": rank, "fiber_dim_sum": total}


def run_bundle_spectrum(sc: Scenario, args):
    spec = regular_spectrum(sc.bundle, {g: a.blocks for g, a in args["section"].items()})
    return "info", {"spectrum": [from_complex(z) for z in spec]}


#: one kind per check parameter name: a name means the same in every check
PARAMS = {"p": WORD, "unit": WORD, "qs": _each(WORD, "list of words"), "F": _each(WORD, "list of words"),
          "element": ELEMENT, "b": ELEMENT, "h": ELEMENT,
          "section": SECTION, "sections": _each(SECTION, "list of section names"),
          "depth": NATURAL, "wdepth": NATURAL, "fock_depth": NATURAL, "trials": NATURAL, "seed": NATURAL,
          "tol": TOL, "twist": _each(MATRIX, "list of matrices")}

#: one entry per check: the runner, the parameters it must be given, the
#: parameters it may be given, the text `ntforge explain` prints, and what the
#: scenario must hold for it: its semigroup ("sg") or its bundle
Check = namedtuple("Check", "run required optional doc needs", defaults=("sg",))

CHECKS = {
    "segments": Check(run_segments, ("F",), ("depth",),
        "List the initial segments of a finite family F: the sets C in F whose\n"
        "iterated right LCM sigma(C) exists and that hold every t in F with\n"
        "t <= sigma(C), each recorded with the canonical sigma(C).  They are\n"
        "found from the closure of {e} under right LCMs with members of F, one\n"
        "segment {t in F : t <= w} per w in the closure, so |F| is not bounded.\n"
        "Verdict: pass iff the induced cells partition the enumerated ball (see\n"
        "partition-check); the `ntforge segments` command always exits 0."),
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
        "depth: the norm of the column factor (the fibers over source objects\n"
        "only ampliate it), stored as one sparse matrix over every color's\n"
        f"columns, block-diagonal over colors.  At most {SMALL_SLOT} columns in all\n"
        "take a dense SVD; more take plain Lanczos on the Gram operator A*A, which\n"
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
        "composition and right tensoring.  Certificate first: an ideal of every\n"
        "colour holds every arrow, so each sample is settled without a draw;\n"
        "otherwise arrows are drawn with numpy from the scenario's seed and only\n"
        "colours outside the ideal are read.  Verdict: pass iff no sampled\n"
        "product leaves the ideal.  Reports checked and certified."),
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
        "compression is broadcast over it.  Each Q_<q_i> is an index set (see\n"
        "projections; a unit image off its certificate is an error item), so the\n"
        "product is a column mask, and the commutator is nonzero only where\n"
        "phi(a) has an entry whose row and column the mask treats differently.\n"
        "A spectral norm is taken only of a nonzero commutator.  Precondition: no\n"
        "q may divide p.  Certificate: sigma_min and the commutation defect."),
    "condition-cprime": Check(run_condition_cprime, ("p", "qs", "element"), ("depth", "tol"),
        "Norm preservation in the corner: compressing the represented element by\n"
        "1 - (Q_{q_1} v ... v Q_{q_n}) must not change its norm by more than tol\n"
        "(default 1e-6).  The element has one term.  Precondition: no q may\n"
        "divide p.  Certificate: full norm and corner norm."),
    "projections": Check(run_projections, (), ("depth", "fock_depth"),
        "Semilattice law for the range projections: Q_<p> Q_<q> equals Q_<lcm>\n"
        "when p and q have a common multiple and 0 otherwise, plus the per-\n"
        "element equality Q_p = Q_<p>, on the Fock representation at fock_depth.\n"
        "Q_p = phi(1_p), the image of the unit of K(p,p).  There is one route,\n"
        "by index sets: the nonzero entries of each phi(1_w), read from the\n"
        "lifted key's triples, must lie on the diagonal and equal exactly 1 (no\n"
        "tolerance), so phi(1_w) projects onto an index set; a unit image that\n"
        "fails this certificate is an error item naming phi(1_w).  On the colored\n"
        "and zero-tensor backends every phi(1_w) passes.  Q_<p> is the union of\n"
        "the sets of the window's w in pP, and both laws are set identities,\n"
        "each defect exactly 0.0 or 1.0, so the verdict is exact and takes no\n"
        "tolerance.  depth is the word length of the pairs.\n"
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
        "scenario's settings.tol.", "bundle"),
    "bundle-roundtrip": Check(run_bundle_roundtrip, (), ("seed",),
        "Rebuild the fiber family from its own arrow category and replay random\n"
        "products and stars along both routes.  Verdict: pass iff every replay\n"
        "is bit-for-bit identical (the two routes execute the same float ops).", "bundle"),
    "bundle-regular": Check(run_bundle_regular, (), (),
        "Left-convolution representation on the direct sum of the fibers with\n"
        "the Hilbert-Schmidt inner product, kept as one matrix per colour.  Each\n"
        "grade's matrix-unit basis is mapped at once through the graded product\n"
        "and ranked by one SVD per grade, with one cutoff relative to the largest\n"
        "value of all.  Verdict: pass iff the image algebra has full rank, i.e.\n"
        "the representation separates the fibers.", "bundle"),
    "bundle-spectrum": Check(run_bundle_spectrum, ("section",), (),
        "Eigenvalues of the regular-representation matrix of a named section.\n"
        "For the order-two group acting trivially on C, a + b u has spectrum\n"
        "{a + b, a - b}.  Informational.", "bundle"),
}


#: per check, the object kind of its parameters
_ARGS = {name: _object(f"check {name!r}", c.required, **{k: PARAMS[k] for k in c.required + c.optional})
         for name, c in CHECKS.items()}


def params_text(name) -> str:
    """The parameters of a check and their kinds in one line, from its entry and PARAMS."""
    spec = CHECKS[name]
    required, optional = (", ".join(f"{k} ({PARAMS[k].what})" for k in names) or "none"
                          for names in (spec.required, spec.optional))
    return f"required {required}; optional {optional}"


def _check_args(name, params, sc):
    """The check's params resolved by their kinds in PARAMS, once the scenario
    holds what the check needs."""
    sc.need(CHECKS[name].needs)
    return _ARGS[name].read(params, sc)


def _check(v, sc):
    """(name, params as written, resolved params) of one check entry; the
    resolved params are None for a name not in CHECKS, which run_scenario
    reports in place."""
    if not isinstance(v, dict):
        raise ScenarioError(f"expected check object, got {v!r}")
    name = _under("name", STRING.read, v.get("name"), sc)
    params = {k: x for k, x in v.items() if k != "name"}
    return name, params, (_check_args(name, params, sc) if name in CHECKS else None)


CHECK_LIST = _each(Kind("check object", _check), "list of checks")


def run_check(sc: Scenario, name, params):
    """Resolve the parameters, then run the check: (status, data)."""
    return CHECKS[name].run(sc, _at(f"check {name!r}", _check_args, name, params, sc))


def run_scenario(source, overrides=None) -> dict:
    """Execute every check in declaration order; failures do not abort the run.
    Bad input raises a ScenarioError before any check runs."""
    import datetime

    sc = Scenario.from_path(source) if not isinstance(source, dict) else Scenario(source)
    if overrides:
        sc.settings.update({k: v for k, v in overrides.items() if v is not None})
    items = []
    for name, params, args in sc.checks:
        if args is None:
            items.append({"name": name, "status": "error", "error": f"unknown check {name!r}"})
            continue
        try:
            status, data = CHECKS[name].run(sc, args)
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
