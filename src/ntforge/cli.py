"""Scenario-driven command line.

    ntforge run scenario.json [--depth N] [--tol X] [--seed S] [--out report.json]
    ntforge explain <check>
    ntforge list-instances
    ntforge segments scenario.json -F 1 -F 11 [--depth N]
    ntforge partition-check scenario.json -F ... [--depth N]
    ntforge nt {mul,adjoint,expect,grade,norm} scenario.json x [y]
    ntforge fock {build,norm,expect,project} scenario.json [x] [--depth --tol]
    ntforge check {toeplitz,condition-c,condition-cprime,aperiodicity,graded,projections} ...
    ntforge bundle {roundtrip,regular,spectrum} scenario.json

Everything reads element/section names from the scenario file; results are JSON
on stdout.  Exit code 0 when all checks pass or are informational, 1 on a
failed check, 2 on bad input.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys

from .fock import SMALL_SLOT, Truncation, lift, projection_Qw, projection_QT
from .scenario import (
    CHECKS,
    Scenario,
    ScenarioError,
    element_to_json,
    report_ok,
    run_scenario,
)
from .semigroups import INSTANCE_KINDS
from .wick import core_norm, diagonal_expectation, nt_adjoint, nt_mul

EXPLAIN = {
    "segments": (
        "List the initial segments of a finite family F: the sets C in F whose\n"
        "iterated right LCM sigma(C) exists and that hold every t in F with\n"
        "t <= sigma(C), each recorded with the canonical sigma(C).  They are\n"
        "found from the closure of {e} under right LCMs with members of F, one\n"
        "segment {t in F : t <= w} per w in the closure, so |F| is not bounded.\n"
        "Parameters: F (elements), depth.  Informational; also reports whether\n"
        "the induced cells partition the enumerated ball (see partition-check)."
    ),
    "partition-check": (
        "Verify that the cells {p : the part of F dividing p is exactly C} for C\n"
        "ranging over the initial segments of F cover every enumerated element\n"
        "exactly once.  Parameters: F, depth.  Verdict: pass iff no element lies\n"
        "in zero or two cells."
    ),
    "core-norm": (
        "Exact norm of a diagonal core element from the initial-segment formula:\n"
        "the maximum over segments C of the norm of sum_{p in C} a_p tensored\n"
        "into the fiber at sigma(C).  Parameters: element, wdepth.  Reports\n"
        "{value, exact}; exact is false when off-diagonal keys force a truncated\n"
        "lower-bound estimate instead."
    ),
    "fock-norm": (
        "Operator norm of the element on the truncated Fock space of the given\n"
        "depth: the largest over colors of the norm of the column factor (the\n"
        "fibers over source objects only ampliate it), stored as one sparse\n"
        f"matrix per color.  A color slot of at most {SMALL_SLOT} columns takes a dense\n"
        "SVD; a larger one goes to ARPACK at relative accuracy tol.  Parameters:\n"
        "element, depth, tol.  Reports {norm, exact, depth}; exact is true when the\n"
        "truncation provably attains the limit (diagonal element, depth at\n"
        "least max key length + 2)."
    ),
    "norm-agreement": (
        "Cross-check that core-norm and fock-norm agree on a diagonal core\n"
        "element at depth max key length + 2, the Fock norm solved at the\n"
        "scenario's tol.  Verdict: pass iff the exact value and the Fock value\n"
        "differ by at most tol * max(1, exact value)."
    ),
    "expect": (
        "Block-diagonal compression of the lifted element: sum over sources w of\n"
        "Q_w lift(x) Q_w.  Over right-cancellative instances every off-diagonal\n"
        "key dies; absorption-style instances keep some alive, which is the\n"
        "phenomenon this check measures.  Parameters: element, depth.  Reports\n"
        "the compression's norm, solved as in fock-norm at the scenario's tol."
    ),
    "grade": (
        "Grades of the element's keys under the generator-counting homomorphism\n"
        "to Z^k (or the group itself when the instance is a group).  The grade\n"
        "of a key (p, q) is theta(p) - theta(q).  Informational."
    ),
    "well-aligned": (
        "Random products of ideal-supported arrows stay ideal-supported after\n"
        "composition and right tensoring, sampled with the scenario's seed.\n"
        "Parameters: depth.  Verdict: pass iff no sampled product leaves the\n"
        "ideal."
    ),
    "nondegenerate": (
        "For every non-unit p and every r, the products (K(p,p) x 1_r) K(pr,pr)\n"
        "span K(pr,pr), restricted to the ideal's colors.  Unit certificate\n"
        "first: when 1_K(p) x 1_r equals 1_K(pr) entry for entry, it fixes every\n"
        "arrow of K(pr,pr) and the span is exact; rank test as fallback on the\n"
        "other pairs.  Parameters: depth.  Verdict: pass iff every span attains\n"
        "full dimension.  Reports checked and certified (the pairs the unit\n"
        "certificate settled)."
    ),
    "essential": (
        "K(p,p) is essential in L(p,p): no (p,p) fiber carries a nonzero block\n"
        "in a color outside the ideal.  Parameters: depth.  Verdict: pass iff no\n"
        "such block occurs."
    ),
    "toeplitz": (
        "Rank test for covariance: the (p,p) fiber image must intersect the span\n"
        "of the (q,q) fiber images trivially, i.e. rank[A|B] = rank A + rank B\n"
        "for the vectorized images, at the scenario's tol.  Parameters: p, qs,\n"
        "depth.  Precondition: no q may divide p.  Certificate: the three ranks."
    ),
    "condition-c": (
        "Faithfulness of a |-> phi(a) prod_i (1 - Q_<q_i>) on the (p,p) fiber:\n"
        "the smallest singular value of the linearized map must exceed the\n"
        "scenario's tol, and the compression must commute with the fiber action.\n"
        "Parameters: p, qs, depth.  Precondition: no q may divide p.\n"
        "Certificate: sigma_min and the commutation defect."
    ),
    "condition-cprime": (
        "Norm preservation in the corner: compressing the represented element by\n"
        "1 - (Q_{q_1} v ... v Q_{q_n}) must not change its norm.  Parameters:\n"
        "p, qs, element, depth, tol.  Precondition: no q may divide p.\n"
        "Certificate: full norm and corner norm."
    ),
    "projections": (
        "Semilattice law for the range projections: Q_<p> Q_<q> equals Q_<lcm>\n"
        "when p and q have a common multiple and 0 otherwise, plus the per-\n"
        "element equality Q_p = Q_<p>.  Q_p = phi(1_p), the image of the unit\n"
        "of K(p,p); Q_<p> is the range projection of the sum of the phi(1_w)\n"
        "over the window's w in pP, by eigh with relative cutoff 1e-8.\n"
        "Parameters: depth (word length of the pairs), fock_depth, tol (bound\n"
        "on each defect).  Certificate: worst defect per law."
    ),
    "aperiodicity": (
        "Infimum of |alpha(a) b a| over positive norm-one a supported on a\n"
        "hereditary corner of the (p,p) fiber, where alpha twists by the given\n"
        "unit.  On a colored backend it starts from a closed form: for rank-one\n"
        "a = v v* in one color the value is |<v, M v>| with M = V* U* b V (V a\n"
        "basis of range(h), U the twist), so the rank-one infimum is the\n"
        "distance from 0 to the numerical range of M.  A sweep of 720 support\n"
        "angles plus two segment steps gives a witness; its value is\n"
        "rank_one_bound, exactly 0 when 0 is inside the numerical range.  Only\n"
        "when it is positive (or off the colored backend) do random restarts\n"
        "with Powell refinement search further (search_best).  best is the\n"
        "smaller of the two and attained_by names its source; both are\n"
        "attained values, so best is an upper bound on the infimum.  Values\n"
        "near 0 witness aperiodicity; 1.0 is the trivial-action value.\n"
        "Parameters: p, unit, b (one term, in L(p unit, p) up to a unit),\n"
        "optional h (one term, in L(p, p)) and twist, trials, seed.\n"
        "Informational; reports best, rank_one_bound, search_best, attained_by\n"
        "and the witness."
    ),
    "graded": (
        "Topological-grading inequality for a representation of a group-graded\n"
        "family: the identity-fiber coefficient satisfies |b_e| <= |sum_g\n"
        "phi(b_g)| on every sample.  Collapsing representations (for instance\n"
        "sending a unitary generator to 1) fail on elements like 1 - u.\n"
        "Parameters: trials, seed, tol, optional named sections."
    ),
    "bundle-roundtrip": (
        "Rebuild the fiber family from its own arrow category and replay random\n"
        "products and stars along both routes.  Verdict: pass iff every replay\n"
        "is bit-for-bit identical (the two routes execute the same float ops).\n"
        "Parameters: seed."
    ),
    "bundle-regular": (
        "Left-convolution representation on the direct sum of the fibers with\n"
        "the Hilbert-Schmidt inner product.  Verdict: pass iff the image algebra\n"
        "has full rank, i.e. the representation separates the fibers."
    ),
    "bundle-spectrum": (
        "Eigenvalues of the regular-representation matrix of a named section.\n"
        "For the order-two group acting trivially on C, a + b u has spectrum\n"
        "{a + b, a - b}.  Informational."
    ),
}


def _print(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _finish(status, data):
    _print({"status": status, "data": data})
    return 0 if status in ("pass", "info") else 1


def _scenario(args) -> Scenario:
    sc = Scenario.from_path(args.scenario)
    for key in ("depth", "tol", "seed"):
        v = getattr(args, key, None)
        if v is not None:
            sc.settings[key] = v
    return sc


# -- command handlers -------------------------------------------------------------


def cmd_run(args):
    overrides = {"depth": args.depth, "tol": args.tol, "seed": args.seed}
    report = run_scenario(args.scenario, overrides)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    else:
        _print(report)
    return 0 if report_ok(report) else 1


def cmd_explain(args):
    name = args.check
    if name not in EXPLAIN:
        near = difflib.get_close_matches(name, EXPLAIN, n=3)
        hint = f" (did you mean: {', '.join(near)}?)" if near else ""
        sys.stderr.write(
            f"unknown check {name!r}{hint}\navailable: {', '.join(sorted(EXPLAIN))}\n"
        )
        return 2
    print(f"{name}\n{'-' * len(name)}\n{EXPLAIN[name]}")
    return 0


def cmd_list_instances(args):
    _print(INSTANCE_KINDS)
    return 0


def cmd_segments(args):
    sc = _scenario(args)
    params = {"F": args.F}
    if args.depth is not None:
        params["depth"] = args.depth
    status, data = CHECKS["segments"].run(sc, params)
    _print(data)
    return 0 if (args.command == "segments" or status == "pass") else 1


def cmd_nt(args):
    sc = _scenario(args)
    x = sc.element(args.x)
    if args.op == "mul":
        z = nt_mul(x, sc.element(args.y))
        return _finish("info", {"terms": element_to_json(z)})
    if args.op == "adjoint":
        return _finish("info", {"terms": element_to_json(nt_adjoint(x))})
    if args.op == "expect":
        return _finish("info", {"terms": element_to_json(diagonal_expectation(x))})
    if args.op == "grade":
        status, data = CHECKS["grade"].run(sc, {"element": args.x})
        return _finish(status, data)
    value = core_norm(x, wdepth=sc.settings["depth"])
    return _finish("info", {"value": value.value, "exact": value.exact})


def cmd_fock(args):
    sc = _scenario(args)
    depth = sc.settings["depth"]
    tr = Truncation(sc.backend, depth)
    if args.op == "project":
        if (args.word is None) == (args.above is None):
            raise ScenarioError("fock project needs exactly one of --word/--above")
        if args.word is not None:
            op = projection_Qw(sc.parse_el(args.word), tr)
        else:
            op = projection_QT(sc.parse_el(args.above), tr)
        rank = sum(int(round(m.diagonal().sum().real)) for m in op.slots)
        norm = op.norm(tol=sc.settings["tol"])
        return _finish("info", {"norm": norm, "exact": True, "depth": depth, "rank": rank})
    x = sc.element(args.x)
    exact = bool(x.is_diagonal() and x.max_key_length() + 2 <= depth)
    if args.op == "build":
        op = lift(x, tr)
        data = {
            "norm": op.norm(tol=sc.settings["tol"]),
            "exact": exact,
            "depth": depth,
            "sources": len(tr.S),
        }
        return _finish("info", data)
    if args.op == "norm":
        status, data = CHECKS["fock-norm"].run(sc, {"element": args.x, "depth": depth})
        return _finish(status, data)
    status, data = CHECKS["expect"].run(sc, {"element": args.x, "depth": depth})
    data["exact"] = False
    return _finish(status, data)


def cmd_check(args):
    sc = _scenario(args)
    params = {"seed": sc.settings["seed"]}
    if args.trials is not None:
        params["trials"] = args.trials
    if args.tol is not None:
        params["tol"] = args.tol
    if args.which in ("toeplitz", "condition-c", "condition-cprime"):
        params.update({"p": args.p, "qs": args.qs})
        if args.which == "condition-cprime":
            params["element"] = args.element
    elif args.which == "aperiodicity":
        params.update({"p": args.p, "unit": args.unit, "b": args.b})
        if args.element:
            params["h"] = args.element
    elif args.which == "projections":
        params["depth"] = min(sc.settings["depth"], 2)
        params["fock_depth"] = sc.settings["depth"]
    status, data = CHECKS[args.which].run(sc, params)
    return _finish(status, data)


def cmd_bundle(args):
    sc = _scenario(args)
    if sc.bundle is None:
        raise ScenarioError("scenario has no bundle section")
    if args.op == "roundtrip":
        status, data = CHECKS["bundle-roundtrip"].run(sc, {"seed": sc.settings["seed"]})
    elif args.op == "regular":
        status, data = CHECKS["bundle-regular"].run(sc, {})
    else:
        if not args.section:
            raise ScenarioError("bundle spectrum needs --section")
        status, data = CHECKS["bundle-spectrum"].run(sc, {"section": args.section})
    return _finish(status, data)


# -- wiring ---------------------------------------------------------------------


def _add_settings(p):
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="ntforge", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run every check in a scenario file")
    p.add_argument("scenario")
    p.add_argument("--out", default=None)
    _add_settings(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explain", help="describe a check and its verdict semantics")
    p.add_argument("check")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("list-instances", help="list the semigroup instance kinds")
    p.set_defaults(fn=cmd_list_instances)

    for name in ("segments", "partition-check"):
        p = sub.add_parser(name, help="initial segments / cell partition of a family F")
        p.add_argument("scenario")
        p.add_argument("-F", action="append", required=True, help="element of F (repeatable)")
        _add_settings(p)
        p.set_defaults(fn=cmd_segments)

    p = sub.add_parser("nt", help="symbolic operations on named elements")
    p.add_argument("op", choices=["mul", "adjoint", "expect", "grade", "norm"])
    p.add_argument("scenario")
    p.add_argument("x")
    p.add_argument("y", nargs="?")
    _add_settings(p)
    p.set_defaults(fn=cmd_nt)

    p = sub.add_parser("fock", help="truncated Fock operators")
    p.add_argument("op", choices=["build", "norm", "expect", "project"])
    p.add_argument("scenario")
    p.add_argument("x", nargs="?")
    p.add_argument("--word", default=None, help="source word for a Q_w projection")
    p.add_argument("--above", default=None, help="p for the Q_<p> projection (sources in pP)")
    _add_settings(p)
    p.set_defaults(fn=cmd_fock)

    p = sub.add_parser("check", help="numerical verdicts with certificates")
    p.add_argument(
        "which",
        choices=["toeplitz", "condition-c", "condition-cprime", "aperiodicity", "graded", "projections"],
    )
    p.add_argument("scenario")
    p.add_argument("--p", default=None)
    p.add_argument("--qs", nargs="*", default=[])
    p.add_argument("--element", default=None, help="named element (corner h for aperiodicity)")
    p.add_argument("--unit", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_settings(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bundle", help="group-graded fiber families")
    p.add_argument("op", choices=["roundtrip", "regular", "spectrum"])
    p.add_argument("scenario")
    p.add_argument("--section", default=None)
    _add_settings(p)
    p.set_defaults(fn=cmd_bundle)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
