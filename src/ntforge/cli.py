"""Scenario-driven command line.

    ntforge run scenario.json [--depth N] [--tol X] [--seed S] [--out report.json]
    ntforge explain <check>
    ntforge list-instances
    ntforge segments scenario.json -F 1 -F 11 [--depth N]
    ntforge partition-check scenario.json -F ... [--depth N]
    ntforge nt {mul,adjoint,expect,grade,norm} scenario.json x [y]
    ntforge fock {build,norm,expect,project} scenario.json [x | --word W | --above P] [--depth --tol]
    ntforge check <check> scenario.json [--p P --qs Q.. --element X --unit U --b B --trials N]
    ntforge bundle {regular,roundtrip,spectrum} scenario.json [--section S]

Everything reads element/section names from the scenario file; results are JSON
on stdout.  Exit code 0 when all checks pass or are informational, 1 on a
failed check or an error inside one, 2 on bad input (the message names its
JSON path).
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import sys

from .scenario import (
    CHECKS,
    ELEMENT,
    INSTANCE_KINDS,
    Scenario,
    ScenarioError,
    element_to_json,
    params_text,
    report_ok,
    run_check,
    run_scenario,
)
from .wick import diagonal_expectation, nt_adjoint, nt_mul


def _print(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _finish(status, data):
    _print({"status": status, "data": data})
    return 0 if status in ("pass", "info") else 1


def _scenario(args) -> Scenario:
    sc = Scenario.from_path(args.scenario)
    sc.settings.update(_given({key: getattr(args, key, None) for key in ("depth", "tol", "seed")}))
    return sc


def _given(params):
    """The check parameters whose flags were given on the command line."""
    return {k: v for k, v in params.items() if v is not None}


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
    if name not in CHECKS:
        near = difflib.get_close_matches(name, CHECKS, n=3)
        hint = f" (did you mean: {', '.join(near)}?)" if near else ""
        sys.stderr.write(
            f"unknown check {name!r}{hint}\navailable: {', '.join(sorted(CHECKS))}\n"
        )
        return 2
    print(f"{name}\n{'-' * len(name)}\n{CHECKS[name].doc}\nParameters: {params_text(name)}.")
    return 0


def cmd_list_instances(args):
    _print({name: kind.what for name, kind in INSTANCE_KINDS.items()})
    return 0


def cmd_segments(args):
    sc = _scenario(args)
    status, data = run_check(sc, args.command, _given({"F": args.F, "depth": args.depth}))
    _print(data)
    return 0 if (args.command == "segments" or status == "pass") else 1


def cmd_nt(args):
    sc = _scenario(args)
    x = ELEMENT.read(args.x, sc)
    if args.op == "mul":
        z = nt_mul(x, ELEMENT.read(args.y, sc))
        return _finish("info", {"terms": element_to_json(z)})
    if args.op == "adjoint":
        return _finish("info", {"terms": element_to_json(nt_adjoint(x))})
    if args.op == "expect":
        return _finish("info", {"terms": element_to_json(diagonal_expectation(x))})
    name = "grade" if args.op == "grade" else "core-norm"
    return _finish(*run_check(sc, name, {"element": args.x}))


def cmd_fock(args):
    """project reads the scenario's projection family; build/norm/expect run a check."""
    sc = _scenario(args)
    sc.need("sg")
    if args.op == "project":
        if (args.word is None) == (args.above is None):
            raise ScenarioError("fock project needs exactly one of --word/--above")
        _, tr, fam = sc.fock_family()
        if args.word is not None:
            keep = fam.Q_set(sc.sg.parse(args.word))
        else:
            keep = fam.Q_angle_set(sc.sg.parse(args.above))
        rank = int(keep.sum())
        return _finish("info", {"norm": float(rank > 0), "exact": True, "depth": tr.depth, "rank": rank})
    name = "expect" if args.op == "expect" else "fock-norm"
    status, data = run_check(sc, name, _given({"element": args.x}))
    if args.op == "expect":
        data["exact"] = False
    elif args.op == "build":
        data["sources"] = len(sc.truncation().S)
    return _finish(status, data)


def cmd_check(args):
    """Run one check with its flags; --depth, --tol and --seed also go to the
    check as parameters when it declares them."""
    sc = _scenario(args)
    spec = CHECKS[args.which]
    params = {
        "p": args.p,
        "qs": args.qs,
        "h" if args.which == "aperiodicity" else "element": args.element,
        "unit": args.unit,
        "b": args.b,
        "trials": args.trials,
    }
    declared = spec.required + spec.optional
    params.update({k: getattr(args, k) for k in ("depth", "tol", "seed") if k in declared})
    if args.which == "projections":
        params.update(depth=min(sc.settings["depth"], 2), fock_depth=sc.settings["depth"])
    return _finish(*run_check(sc, args.which, _given(params)))


def cmd_bundle(args):
    sc = _scenario(args)
    return _finish(*run_check(sc, f"bundle-{args.op}", _given({"section": args.section})))


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
    p.add_argument("--word", default=None,
                   help="w for Q_w = phi(1_w), the projections check's range projection "
                        "(it honours the scenario's ideal)")
    p.add_argument("--above", default=None, help="p for Q_<p>, the join of the Q_w over w in pP")
    _add_settings(p)
    p.set_defaults(fn=cmd_fock)

    p = sub.add_parser("check", help="numerical verdicts with certificates")
    p.add_argument("which", choices=sorted(CHECKS))
    p.add_argument("scenario")
    p.add_argument("--p", default=None)
    p.add_argument("--qs", nargs="*", default=None)
    p.add_argument("--element", default=None, help="named element (corner h for aperiodicity)")
    p.add_argument("--unit", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_settings(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bundle", help="group-graded fiber families")
    ops = [name[len("bundle-"):] for name in sorted(CHECKS) if name.startswith("bundle-")]
    p.add_argument("op", choices=ops)
    p.add_argument("scenario")
    p.add_argument("--section", default=None)
    _add_settings(p)
    p.set_defaults(fn=cmd_bundle)

    return ap


@functools.cache
def _parser():
    """One parser per process: building it costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a ScenarioError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
