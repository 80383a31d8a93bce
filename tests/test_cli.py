import argparse
import ast
import functools
import json
import operator
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ntforge.cli import build_parser, main
from ntforge.fock import FockOperator, Truncation
from ntforge.scenario import (BACKEND_KINDS, CHECKS, INSTANCE_KINDS, PARAMS, Scenario, ScenarioError,
                              run_scenario, report_ok)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
TOEPLITZ = str(SCENARIOS / "toeplitz_N.json")
Z2 = str(SCENARIOS / "z2_bundle.json")


def _normalized(report):
    report = json.loads(json.dumps(report))
    report["generated_at"] = "REGENERATED"
    return report


# -- run ------------------------------------------------------------------------


def test_run_matches_golden_report():
    golden = json.loads((SCENARIOS / "toeplitz_N.report.json").read_text())
    fresh = _normalized(run_scenario(TOEPLITZ))
    assert fresh == golden


def test_bundle_golden_report():
    golden = json.loads((SCENARIOS / "z2_bundle.report.json").read_text())
    assert _normalized(run_scenario(Z2)) == golden


def test_golden_reports_are_byte_identical():
    # the parsed comparisons above forgive formatting; regen_golden.py --check
    # compares the bytes of each report apart from generated_at
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "regen_golden.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "toeplitz_N.report.json: identical",
        "z2_bundle.report.json: identical",
    ]


def test_run_is_deterministic_modulo_timestamp():
    a, b = run_scenario(TOEPLITZ), run_scenario(TOEPLITZ)
    a["generated_at"] = b["generated_at"] = "X"
    assert json.dumps(a) == json.dumps(b)


def test_empty_scenario_gives_empty_report(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text("{}")
    assert main(["run", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["items"] == []


def test_malformed_dims_name_the_pair(tmp_path, capsys):
    # absorption: (0,1)(1,1) = (1,1), so a nontrivial dim on the second
    # generator cannot be multiplicative
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps(
            {
                "semigroup": {"kind": "absorption"},
                "backend": {"gen_dims": [[1], [2]]},
                "checks": [],
            }
        )
    )
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "not multiplicative on the pair" in err
    assert "(" in err  # the offending pair is spelled out


def test_stale_dense_cap_setting_is_rejected(tmp_path, capsys):
    p = tmp_path / "stale.json"
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["settings"]["dense_cap"] = 10
    p.write_text(json.dumps(data))
    assert main(["run", str(p)]) == 2
    assert "'dense_cap'" in capsys.readouterr().err


def test_removed_dense_cap_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fock", "norm", TOEPLITZ, "x", "--dense-cap", "10"])
    assert exc.value.code == 2
    assert "--dense-cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check, field",
    [
        ({"name": "projections", "depht": 2}, "depht"),
        ({"name": "fock-norm", "element": "x", "deptth": 3}, "deptth"),
        ({"name": "nondegenerate", "dpeth": 1}, "dpeth"),
        # well-aligned samples with the scenario's seed, not a seed of its own
        ({"name": "well-aligned", "seed": 3}, "seed"),
        # each projections defect is 0.0 or 1.0, so the verdict takes no tol
        ({"name": "projections", "tol": 1e-9}, "tol"),
    ],
)
def test_misspelled_check_parameter_is_rejected(tmp_path, capsys, check, field):
    p = tmp_path / "typo.json"
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["checks"] = [{"name": "core-norm", "element": "x"}, check]
    p.write_text(json.dumps(data))
    assert main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"scenario['checks'][1][{field!r}]: unknown key of check {check['name']!r}" in captured.err


def _with_checks(*checks):
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["checks"] = list(checks)
    return data


def _with_term_field(field, value):
    """The toeplitz scenario with field of x's first term set to value."""
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["elements"]["x"][0][field] = value
    return data


class _Whole:
    """A scenario file holding value as a whole, which need not be an object."""

    def __init__(self, value):
        self.value = value


N1 = {"kind": "direct_sum", "rank": 1}


@pytest.mark.parametrize(
    "argv, field",
    [
        (["check", "aperiodicity", TOEPLITZ, "--p", "1"], "unit"),
        (["check", "toeplitz", TOEPLITZ, "--p", "1", "--qs", "2", "--trials", "3"], "trials"),
        (["check", "toeplitz", TOEPLITZ], "p"),
        # y = u + u* has two terms; condition-cprime takes a one-term element
        (["check", "condition-cprime", TOEPLITZ, "--p", "1", "--qs", "2", "--element", "y"], "element"),
        (["run", _with_checks({"name": "fock-norm"})], "element"),
        (["bundle", "spectrum", Z2, "--section", "nope"], "nope"),
        (["run", {"semigroup": {"rank": 1}}], "kind"),
        (["run", {"semigroup": {"kind": "free_monoid"}}], "letters"),
        (["run", _with_checks("core-norm")], "checks"),
        (["run", {"semigroup": {"kind": "direct_sum", "rank": 1},
                  "elements": {"x": [{"range": "1", "source": "0"}]}}], "blocks"),
        (["run", {"semigroup": {"kind": "free_monoid", "letters": "aa"}}], "letters"),
        (["run", {"semigroup": {"kind": "free_product", "names": ["u"],
                                "factors": [{"kind": "direct_sum"}, {"kind": "direct_sum"}]}}],
         "names"),
        (["fock", "norm", TOEPLITZ, "y", "--depth", "-1"], "depth"),
        (["run", {"semigroup": {"kind": "finite_group", "name": "L5", "elements": list("01234"),
                                "table": ["01234", "10342", "24013", "32401", "43120"]}}], "table"),
        (["run", {"semigroup": {"kind": "finite_group", "elements": [0, 1],
                                "table": [[0, 1], [1, 0]]}}], "elements"),
        (["run", {"semigroup": {"kind": "unit_extension", "base": {"kind": "direct_sum"},
                                "units": {"elements": ["a", "a"], "table": ["aa", "aa"]}}}],
         "elements"),
        (["run", {"semigroup": "N"}], "semigroup"),
        (["run", {"semigroup": {"kind": ["x"], "rank": 1}}], "kind"),
        (["run", {"semigroup": {"kind": "direct_sum", "rank": 1}, "elements": []}], "elements"),
        (["run", {"bundle": {"dims": [1]}}], "group"),
        (["run", _with_term_field("range", ["0"])], "range"),
        (["run", _with_term_field("source", 0)], "source"),
        (["run", _with_checks({"name": ["segments"]})], "name"),
        (["run", {"semigroup": {"kind": "direct_sum", "rank": 1}, "checks": [{"depth": 2}]}], "name"),
        (["run", {"semigroup": {"kind": "unit_extension", "base": {"kind": "direct_sum"}, "units": []}}],
         "units"),
        (["run", {"semigroup": {"kind": "free_product", "factors": "x"}}], "factors"),
        (["run", {"bundle": {"group": "Z2", "action": []}}], "action"),
        (["run", {"bundle": {"group": "Z2", "action": {"perms": []}}}], "perms"),
        (["run", {"bundle": {"group": {"elements": ["e"]}}}], "table"),
        # inputs that once raised or were silently misread; None: the whole file
        (["run", _with_term_field("blocks", 3)], "blocks"),
        (["run", {"bundle": {"group": "Z2"}, "sections": {"s": {"0": 3}}}], "0"),
        (["run", _Whole([])], None),
        (["run", _Whole("x")], None),
        (["run", _Whole(None)], None),
        (["run", {"semigroup": N1, "elements": {"x": 3}}], "x"),
        (["run", _with_checks({"name": "toeplitz", "p": "1", "qs": "23"})], "qs"),
        (["run", _with_checks({"name": "segments", "F": "12"})], "F"),
        (["run", _with_checks({"name": "projections", "depth": 2.7})], "depth"),
        (["run", _with_checks({"name": "projections", "depth": True})], "depth"),
        (["run", {"settings": {"depth": "6"}}], "depth"),
        (["run", {"settings": {"depth": 6.9}}], "depth"),
        (["run", {"settings": {"tol": "1e-8"}}], "tol"),
        (["run", {"semigroup": N1, "backend": []}], "backend"),
        (["run", {"semigroup": N1, "backend": {"gen_dims": [["2"]]}}], "gen_dims"),
        # a semigroup check on a scenario without one; an empty bundle
        (["check", "projections", Z2], "projections"),
        (["run", {"bundle": {"group": "Z2"}, "checks": [{"name": "segments", "F": ["1"]}]}], "checks"),
        (["run", {"bundle": {"group": "Z2", "dims": []}}], "dims"),
        # a number no float holds; two names ("0" and "e") of one grade
        (["run", _with_term_field("blocks", [[[10 ** 400]]])], "blocks"),
        (["run", {"bundle": {"group": "Z2"}, "sections": {"s": {"0": [[[3]]], "e": [[[5]]]}}}], "s"),
        # a table short of a row; an ideal colour the backend lacks; a slot outside the bundle
        (["run", {"semigroup": {"kind": "finite_group", "elements": ["a", "b"], "table": ["ab"]}}], "table"),
        (["run", {"semigroup": N1, "backend": {"ideal": [1]}}], "ideal"),
        (["run", {"bundle": {"group": "Z2", "action": {"perms": {"0": [0], "1": [1]},
                                                      "unitaries": {"0": [[[1]]], "1": [[[1]]]}}}}], "bundle"),
    ],
    ids=["missing-unit", "unread-trials", "missing-p", "two-terms", "scenario-missing-element",
         "unknown-section", "missing-kind", "missing-letters", "string-check", "missing-blocks",
         "repeated-letters", "missing-name", "negative-depth", "non-associative-table",
         "numeric-group-elements", "repeated-unit-elements", "string-semigroup", "list-kind",
         "list-elements", "bundle-without-group", "list-range", "numeric-source", "list-name",
         "check-without-name", "list-units", "string-factors", "list-action", "list-perms",
         "group-without-table", "numeric-blocks", "numeric-section-grade", "list-file", "string-file",
         "null-file", "numeric-element", "string-qs", "string-F", "fractional-depth", "boolean-depth",
         "string-setting-depth", "fractional-setting-depth", "string-setting-tol", "list-backend",
         "string-gen-dims", "check-without-semigroup", "run-without-semigroup", "empty-bundle-dims",
         "overflowing-entry", "one-grade-twice", "short-table", "ideal-colour-out-of-range",
         "perm-outside-slots"],
)
def test_bad_input_exits_2_naming_the_field(tmp_path, capsys, argv, field):
    path = tmp_path / "scenario.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, (dict, _Whole)):
            path.write_text(json.dumps(arg.value if isinstance(arg, _Whole) else arg))
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if field is None:
        assert captured.err.startswith("error: scenario: expected scenario object, got ")
    else:
        assert repr(field) in captured.err


def test_check_on_scenario_without_semigroup(tmp_path, capsys):
    # the check needs the semigroup the bundle scenario lacks: exit 2 before
    # any check runs, from `check` and from `run`
    assert main(["check", "projections", Z2]) == 2
    assert capsys.readouterr().err == (
        "error: check 'projections': scenario has no semigroup; this check needs one\n")
    data = json.loads(pathlib.Path(Z2).read_text())
    data["checks"].append({"name": "segments", "F": ["1"]})
    path = tmp_path / "segments.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario['checks'][4]: scenario has no semigroup; this check needs one\n"


def test_run_on_a_directory_exits_2_naming_it(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(tmp_path) in captured.err


def _mutation_paths(node, at=()):
    """The path of every key and list entry of a JSON tree, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield at + (k,)
        yield from _mutation_paths(v, at + (k,))


def _path(at):
    """The JSON path of the entry at, as a ScenarioError spells it."""
    return "scenario" + "".join(f"[{k!r}]" for k in at)


def _names_entry(err, at):
    """err names the entry at, or the object that holds it; a list entry is
    named through its list (a block through the term or section it shapes)."""
    while isinstance(at[-1], int):
        at = at[:-1]
    return _path(at) in err or (len(at) > 1 and _path(at[:-1]) in err)


def _mutated(data, path, how):
    """A copy of data with the entry at path dropped (how "drop") or set to how."""
    data = json.loads(json.dumps(data))
    *parents, last = path
    node = functools.reduce(operator.getitem, parents, data)
    if how == "drop":
        del node[last]
    else:
        node[last] = how
    return data


#: the mutations that once raised instead of exiting 2, with the field each
#: error must name
ONCE_RAISED = {
    ("toeplitz_N", ("semigroup", "rank"), "[]"): "rank",
    ("toeplitz_N", ("backend", "gen_dims", 0, 0), "[]"): "gen_dims",
    ("toeplitz_N", ("settings",), "[]"): "settings",
    ("toeplitz_N", ("settings", "depth"), "[]"): "depth",
    ("toeplitz_N", ("settings", "tol"), "[]"): "tol",
    ("toeplitz_N", ("settings", "seed"), "[]"): "seed",
    ("z2_bundle", ("settings",), "[]"): "settings",
    ("z2_bundle", ("settings", "seed"), "[]"): "seed",
    ("z2_bundle", ("bundle", "group"), "[]"): "group",
    ("z2_bundle", ("bundle", "dims", 0), "[]"): "dims",
    ("z2_bundle", ("sections",), "'x'"): "sections",
    ("z2_bundle", ("sections",), "[]"): "sections",
    ("z2_bundle", ("sections", "s"), "'x'"): "s",
    ("z2_bundle", ("sections", "s"), "[]"): "s",
    ("z2_bundle", ("sections", "u_defect"), "'x'"): "u_defect",
    ("z2_bundle", ("sections", "u_defect"), "[]"): "u_defect",
}


def test_every_scenario_mutation_exits_0_1_or_2(tmp_path, capsys):
    # every key and list entry of both bundled scenarios dropped, set to "x"
    # or set to []: 396 runs, none of which may raise.  Exit 2 names the
    # mutated entry; exit 1 only reports a check name that is not registered
    # (set to "x"), since bad input never reaches a check
    path, runs, codes = tmp_path / "mutated.json", 0, set()
    for name in ("toeplitz_N", "z2_bundle"):
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        for at in list(_mutation_paths(data)):
            for how in ("drop", "x", []):
                path.write_text(json.dumps(_mutated(data, at, how)))
                code = main(["run", str(path)])
                out, err = capsys.readouterr()
                runs += 1
                codes.add(code)
                field = ONCE_RAISED.get((name, at, repr(how)))
                if field is not None:
                    assert code == 2 and repr(field) in err, (name, at, how, err)
                if code == 2:
                    assert _names_entry(err, at), (name, at, how, err)
                if code == 1:
                    errors = [i["error"] for i in json.loads(out)["items"] if i["status"] == "error"]
                    assert errors == ["unknown check 'x'"], (name, at, how, errors)
    assert runs == 396
    assert codes <= {0, 1, 2}, codes


#: the values each single-field mutation of the fuzz guard writes
FUZZ_VALUES = (None, True, -1, 0, 1.5, "x", "e", [], {}, [[1]], [1, 2], 7)


def _fuzzed(data):
    """Every single-field mutation of data: the whole of it replaced by each
    of FUZZ_VALUES, each key and list entry dropped or set to each of them,
    and each 'kind' set to every other kind of its table."""
    yield from FUZZ_VALUES
    for at in list(_mutation_paths(data)):
        for how in ("drop", *FUZZ_VALUES):
            yield _mutated(data, at, how)
        if at[-1] == "kind":
            value = functools.reduce(operator.getitem, at, data)
            table = INSTANCE_KINDS if value in INSTANCE_KINDS else BACKEND_KINDS
            yield from (_mutated(data, at, kind) for kind in table if kind != value)


def test_every_single_field_mutation_reads_or_names_its_path():
    # loading only: checks run on a mutated depth could build a huge truncation
    count = 0
    for name in ("toeplitz_N", "z2_bundle"):
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        for mutated in _fuzzed(data):
            count += 1
            try:
                Scenario(mutated)
            except ScenarioError as exc:
                assert str(exc).startswith("scenario"), (name, mutated, str(exc))
    assert count == 1746


def test_zero_tensor_projections_fail_the_equality_law(tmp_path, capsys):
    # on the zero-tensor backend 1_w x 1_v = 0, so phi(1_w) keeps only the
    # source-w columns while Q_<w> keeps all of wP: the equality law fails
    # with defect 1.0 and the semilattice law holds
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({
        "semigroup": {"kind": "direct_sum", "rank": 1},
        "backend": {"kind": "zero", "dims": [1, 2, 2]},
        "checks": [{"name": "projections", "depth": 2, "fock_depth": 3}],
    }))
    assert main(["run", str(p)]) == 1
    [item] = json.loads(capsys.readouterr().out)["items"]
    assert item["status"] == "fail"
    assert item["data"] == {"semilattice_worst": 0.0, "equality_worst": 1.0}


@pytest.mark.parametrize("semigroup, elements", [
    # once a TypeError traceback while reading the element
    ({"kind": "free_monoid", "letters": "ab"}, {"x": [{"range": "a", "source": "a", "blocks": [[[1, 0], [0, 1]]]}]}),
    # once error items of the essential check
    ({"kind": "free_monoid", "letters": "ab"}, {}),
    ({"kind": "unit_extension", "base": N1, "units": "Z2"}, {}),
    ({"kind": "finite_group", "name": "Z2"}, {}),
    # once read objects by their first coordinate, failing projections silently
    ({"kind": "direct_sum", "rank": 2}, {}),
], ids=["words-with-element", "words", "unit-extension", "finite-group", "direct-sum-2"])
def test_zero_backend_over_an_instance_other_than_N_exits_2(tmp_path, capsys, semigroup, elements):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({
        "semigroup": semigroup, "backend": {"kind": "zero", "dims": [1, 2]}, "elements": elements,
        "checks": [{"name": "essential"}, {"name": "projections", "depth": 1, "fock_depth": 2}],
    }))
    assert main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scenario['backend']: the zero backend's objects are naturals")


def test_structure_checks_report_certified_pairs(tmp_path, capsys):
    p = tmp_path / "structure.json"
    p.write_text(json.dumps({
        "semigroup": {"kind": "direct_sum", "rank": 2},
        "backend": {"gen_dims": [[2], [1]]},
        "checks": [
            {"name": "well-aligned", "depth": 1},
            {"name": "nondegenerate"},
            {"name": "essential", "depth": 1},
        ],
    }))
    assert main(["run", str(p)]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    assert [i["status"] for i in items] == ["pass"] * 3
    # 5 non-units times 6 elements of N^2 at the default depth 2
    assert items[1]["data"] == {"checked": 30, "certified": 30, "failures": []}
    # the full ideal covers every colour: each of the 3 samples times 2 checks
    # per LCM pair of the 9 at depth 1 is certified without a draw
    assert items[0]["data"] == {"checked": 54, "certified": 54, "failures": []}
    assert "certified" not in items[2]["data"]


def test_scenario_run_builds_one_truncation_per_depth(monkeypatch):
    # toeplitz_N reads depths 3 (fock-norm, norm-agreement), 6 (fock-norm,
    # expect, toeplitz, condition-c) and 5 (projections)
    depths = []
    init = Truncation.__init__

    def counted(self, backend, depth, *args, **kwargs):
        depths.append(depth)
        init(self, backend, depth, *args, **kwargs)

    monkeypatch.setattr(Truncation, "__init__", counted)
    report = run_scenario(TOEPLITZ)
    assert report_ok(report)
    assert sorted(depths) == [3, 5, 6]


def test_run_writes_out_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", TOEPLITZ, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report_ok(report)
    assert {i["name"] for i in report["items"]} >= {"segments", "core-norm", "toeplitz"}


def test_failing_check_sets_exit_code(tmp_path, capsys):
    p = tmp_path / "fail.json"
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["checks"] = [{"name": "no-such-check"}]
    p.write_text(json.dumps(data))
    assert main(["run", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["items"][0]["status"] == "error"


def test_item_errors_do_not_abort_the_run(tmp_path, capsys):
    p = tmp_path / "mixed.json"
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    # toeplitz with a dividing q violates the precondition; the next item
    # still runs
    data["checks"] = [
        {"name": "toeplitz", "p": "2", "qs": ["1"]},
        {"name": "core-norm", "element": "x"},
    ]
    p.write_text(json.dumps(data))
    assert main(["run", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["items"][0]["status"] == "error"
    assert "precondition violated" in report["items"][0]["error"]
    assert report["items"][1]["status"] == "info"
    assert report["items"][1]["data"]["value"] == 1.0


@pytest.mark.parametrize(
    "tol, offset, status", [(1e-6, 5e-7, "pass"), (1e-8, 5e-7, "fail"), (1e-8, 5e-9, "pass")]
)
def test_norm_agreement_uses_settings_tol(tmp_path, monkeypatch, tol, offset, status):
    import ntforge.scenario as scenario_module

    seen = []
    real = scenario_module.fock_norm

    def shifted(x, tr, **kw):
        seen.append(kw.get("tol"))
        return real(x, tr, **kw) + offset

    monkeypatch.setattr(scenario_module, "fock_norm", shifted)
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["settings"]["tol"] = tol
    data["checks"] = [{"name": "norm-agreement", "element": "x"}]
    p = tmp_path / "agree.json"
    p.write_text(json.dumps(data))
    report = run_scenario(str(p))
    assert report["items"][0]["status"] == status
    assert seen == [tol]


def test_norm_agreement_on_sixteen_diagonal_keys():
    # F = the 4 x 4 box in N^2: more keys than any subset enumeration could
    # take; every sigma(C) lies in the box, so inside the Fock truncation
    rng = np.random.default_rng(16)
    terms = []
    for i in range(4):
        for j in range(4):
            block = rng.standard_normal((2 ** i, 2 ** i)).tolist()
            terms.append({"range": f"({i},{j})", "source": f"({i},{j})", "blocks": [block]})
    report = run_scenario({
        "semigroup": {"kind": "direct_sum", "rank": 2},
        "backend": {"gen_dims": [[2], [1]]},
        "settings": {"depth": 8, "tol": 1e-8},
        "elements": {"x": terms},
        "checks": [{"name": "norm-agreement", "element": "x"}],
    })
    (item,) = report["items"]
    assert item["status"] == "pass", item
    assert item["data"]["depth"] == 8


def test_condition_cprime_reports_full_and_corner_norms():
    # Q_1 covers every source but 0, so the corner keeps the (0, 0) entry alone
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["elements"]["unit"] = [{"range": "0", "source": "0", "blocks": [[[1]]]}]
    data["checks"] = [{"name": "condition-cprime", "p": "0", "qs": ["1"], "element": name}
                      for name in ("offdiag", "unit")]
    offdiag, unit = run_scenario(data)["items"]
    assert (offdiag["status"], offdiag["data"]) == ("fail", {"norm": 1.0, "corner_norm": 0.0})
    assert (unit["status"], unit["data"]) == ("pass", {"norm": 1.0, "corner_norm": 1.0})


def test_condition_c_on_an_empty_fiber_reports_null():
    # the ideal keeps no colour, so K(1, 1) is zero
    report = run_scenario({
        "semigroup": {"kind": "direct_sum", "rank": 1},
        "backend": {"kind": "colored", "gen_dims": [[1]], "ideal": []},
        "checks": [{"name": "condition-c", "p": "1", "qs": ["2"]}],
    })
    (item,) = report["items"]
    assert (item["status"], item["data"]) == ("pass", {"sigma_min": None, "note": "empty fiber"})
    json.dumps(report, allow_nan=False)


def test_grade_on_a_finite_group_formats_group_elements():
    # keys (1, e) and (2, 1) both have grade 1 - 0 = 2 - 1 = 1 in Z3
    report = run_scenario({
        "semigroup": {"kind": "finite_group", "name": "Z3"},
        "backend": {"kind": "colored", "colors": 1},
        "settings": {"depth": 1},
        "elements": {"x": [{"range": "1", "source": "e", "blocks": [[[1]]]},
                           {"range": "2", "source": "1", "blocks": [[[2]]]}]},
        "checks": [{"name": "grade", "element": "x"}],
    })
    (item,) = report["items"]
    assert (item["status"], item["data"]) == ("info", {"grades": ["1"]})


def test_aperiodicity_report_carries_certificate(tmp_path):
    data = {
        "semigroup": {"kind": "unit_extension", "base": {"kind": "direct_sum", "rank": 1}, "units": "Z2"},
        "backend": {"kind": "colored", "gen_dims": [[2]]},
        "settings": {"depth": 3, "tol": 1e-8, "seed": 3},
        # keys are canonical with the unit on the source: b sits in L(p, p x)
        "elements": {
            "b": [{"range": "(1,0)", "source": "(1,1)", "blocks": [[[1, 0], [0, 0]]]}],
            "one": [{"range": "(1,0)", "source": "(1,1)", "blocks": [[[1, 0], [0, 1]]]}],
        },
        "checks": [
            {"name": "aperiodicity", "p": "(1,1)", "unit": "(0,1)", "b": "b",
             "twist": [[[0, 1], [1, 0]]], "trials": 2},
            {"name": "aperiodicity", "p": "(1,1)", "unit": "(0,1)", "b": "one", "trials": 1},
        ],
    }
    p = tmp_path / "aperiodic.json"
    p.write_text(json.dumps(data))
    report = run_scenario(str(p))
    flip, trivial = (item["data"] for item in report["items"])
    assert flip["attained_by"] == "rank-one" and flip["search_best"] is None
    assert flip["best"] == flip["rank_one_bound"] <= 1e-12
    assert flip["lower_bound"] == 0.0
    # W(I) = {1}: the bracket closes at the periodic value, so no search runs
    for key in ("lower_bound", "rank_one_bound", "best"):
        assert abs(trivial[key] - 1.0) <= 1e-12
    assert trivial["search_best"] is None and trivial["attained_by"] == "rank-one"
    assert _normalized(run_scenario(str(p))) == _normalized(report)


def _flip_scenario(p, b_range, b_source):
    return {
        "semigroup": {"kind": "unit_extension", "base": {"kind": "direct_sum", "rank": 1}, "units": "Z2"},
        "backend": {"kind": "colored", "gen_dims": [[2]]},
        "settings": {"depth": 3, "tol": 1e-8, "seed": 3},
        "elements": {
            "b": [{"range": b_range, "source": b_source, "blocks": [[[1, 0], [0, 0]]]}],
            "one": [{"range": b_range, "source": b_source, "blocks": [[[1, 0], [0, 1]]]}],
        },
        "checks": [
            {"name": "aperiodicity", "p": p, "unit": "(0,1)", "b": "b",
             "twist": [[[0, 1], [1, 0]]], "trials": 2},
            {"name": "aperiodicity", "p": p, "unit": "(0,1)", "b": "one", "trials": 1},
        ],
    }


def test_aperiodicity_takes_b_in_the_written_frame(tmp_path, capsys):
    # b in L(px, p) for p = (1,0), x = (0,1), written as range (1,1), source
    # (1,0); its stored canonical key is ((1,0),(1,1)), the canonical form of
    # the certificate test above (p = (1,1))
    reports = []
    for name, args in [("canonical", ("(1,1)", "(1,0)", "(1,1)")),
                       ("written", ("(1,0)", "(1,1)", "(1,0)"))]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_flip_scenario(*args)))
        reports.append([item["data"] for item in run_scenario(str(path))["items"]])
    canonical, written = reports
    assert written[0]["attained_by"] == "rank-one" and written[0]["best"] <= 1e-12
    assert written == canonical
    # no unit moves ((1,1),(1,0)) into L(px, p) = L((2,1),(2,0))
    path = tmp_path / "misplaced.json"
    path.write_text(json.dumps(_flip_scenario("(2,0)", "(1,1)", "(1,0)")))
    argv = ["check", "aperiodicity", str(path), "--p", "(2,0)", "--unit", "(0,1)", "--b", "b"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'b': the element sits at ((1,0),(1,1))" in err and "L((2,1),(2,0))" in err


def test_main_parses_with_one_parser_per_process(capsys, monkeypatch):
    # the parser is built once; repeated runs, an exit 2 from the runner and
    # one from the parser among them, leave the next run's output unchanged
    import re

    import ntforge.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()

    def run(argv):
        code = main(argv)
        return code, re.sub(r'"generated_at": "[^"]*"', "", capsys.readouterr().out)

    first = run(["run", TOEPLITZ])
    assert first[0] == 0 and first[1]
    assert run(["run", TOEPLITZ]) == first
    assert run(["run", str(SCENARIOS / "no-such-scenario.json")])[0] == 2
    assert run(["run", TOEPLITZ]) == first
    with pytest.raises(SystemExit) as exc:
        main(["run", TOEPLITZ, "--depth", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["run", TOEPLITZ]) == first
    assert built == [1]
    cli._parser.cache_clear()


# -- explain / list-instances ----------------------------------------------------


def test_explain_known_checks(capsys):
    for name in ("condition-c", "partition-check", "aperiodicity"):
        assert main(["explain", name]) == 0
        out = capsys.readouterr().out
        assert name in out and "Parameters" in out or "Verdict" in out


def test_check_lists_agree(capsys):
    # scenario.CHECKS is the one list: `ntforge check` offers exactly its
    # names and `explain` prints each entry's parameters from the entry, each
    # with its kind from scenario.PARAMS
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (which,) = [a for a in sub.choices["check"]._actions if a.dest == "which"]
    assert which.choices == sorted(CHECKS)
    for name, check in CHECKS.items():
        assert main(["explain", name]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("Parameters:")]
        required, optional = line[len("Parameters: "):].rstrip(".").split("; ")
        assert required == "required " + (", ".join(f"{k} ({PARAMS[k].what})" for k in check.required) or "none")
        assert optional == "optional " + (", ".join(f"{k} ({PARAMS[k].what})" for k in check.optional) or "none")


def test_explain_segments_states_its_verdict(capsys):
    # the segments check reports pass or fail, which sets the exit code of
    # `ntforge run`; only the `ntforge segments` command always exits 0
    assert main(["explain", "segments"]) == 0
    out = capsys.readouterr().out
    assert "Verdict: pass iff the induced cells partition" in out and "Informational" not in out


def test_explain_unknown_suggests(capsys):
    assert main(["explain", "toepliz"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err
    assert "toeplitz" in err  # close-match suggestion
    assert "condition-c" in err  # full listing


def test_list_instances(capsys):
    assert main(["list-instances"]) == 0
    kinds = json.loads(capsys.readouterr().out)
    assert set(kinds) == {
        "direct_sum",
        "free_monoid",
        "free_product",
        "absorption",
        "unit_extension",
        "finite_group",
    }


# -- segments --------------------------------------------------------------------


def test_segments_json_shape(capsys):
    assert main(["segments", TOEPLITZ, "-F", "1", "-F", "2", "--depth", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"F", "segments", "partition_ok"}
    assert data["partition_ok"] is True
    sigs = {seg["sigma"] for seg in data["segments"]}
    assert sigs == {"0", "1", "2"}
    assert all(set(seg) == {"C", "sigma"} for seg in data["segments"])


def test_segments_takes_sixteen_F_flags(tmp_path, capsys):
    p = tmp_path / "n2.json"
    p.write_text(json.dumps({"semigroup": {"kind": "direct_sum", "rank": 2}}))
    argv = ["segments", str(p), "--depth", "17"]
    for i in range(16):
        argv += ["-F", f"({i},{15 - i})"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["segments"]) == 137 and data["partition_ok"] is True


def test_partition_check_exit(capsys):
    assert main(["partition-check", TOEPLITZ, "-F", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["partition_ok"] is True


# -- nt --------------------------------------------------------------------------


def test_nt_adjoint_swaps_keys(capsys):
    assert main(["nt", "adjoint", TOEPLITZ, "offdiag"]) == 0
    terms = json.loads(capsys.readouterr().out)["data"]["terms"]
    assert [(t["range"], t["source"]) for t in terms] == [("2", "1")]


def test_nt_adjoint_reads_re_im_pairs(tmp_path, capsys):
    # a scalar may be an [re, im] pair; the adjoint conjugates it
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "semigroup": {"kind": "direct_sum", "rank": 1},
        "elements": {"z": [{"range": "1", "source": "0", "blocks": [[[[1, 2]]]]}]},
    }))
    assert main(["nt", "adjoint", str(path), "z"]) == 0
    [term] = json.loads(capsys.readouterr().out)["data"]["terms"]
    assert (term["range"], term["source"]) == ("0", "1")
    assert term["blocks"] == [[[[1.0, -2.0]]]]


def test_nt_expect_keeps_the_diagonal_keys(capsys):
    assert main(["nt", "expect", TOEPLITZ, "x"]) == 0
    terms = json.loads(capsys.readouterr().out)["data"]["terms"]
    assert [(t["range"], t["source"]) for t in terms] == [("0", "0"), ("1", "1")]


def test_nt_mul_emits_element_json(capsys):
    assert main(["nt", "mul", TOEPLITZ, "y", "y"]) == 0
    terms = json.loads(capsys.readouterr().out)["data"]["terms"]
    keys = {(t["range"], t["source"]) for t in terms}
    # u*u contracts to 1; uu* stays behind as the (1,1) monomial
    assert keys == {("0", "0"), ("2", "0"), ("0", "2"), ("1", "1")}
    diag = next(t for t in terms if t["range"] == "0" and t["source"] == "0")
    assert diag["blocks"][0][0][0] == [1.0, 0.0]


def test_nt_norm_exact(capsys):
    assert main(["nt", "norm", TOEPLITZ, "x"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data == {"value": 1.0, "exact": True}


def test_nt_unknown_element(capsys):
    assert main(["nt", "norm", TOEPLITZ, "nope"]) == 2
    assert "unknown element" in capsys.readouterr().err


# -- fock ------------------------------------------------------------------------


def test_fock_norm_flags(capsys):
    assert main(["fock", "norm", TOEPLITZ, "x", "--depth", "3"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data == {"norm": 1.0, "exact": True, "depth": 3}


def test_fock_norm_inexact_when_shallow(capsys):
    assert main(["fock", "norm", TOEPLITZ, "x", "--depth", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["exact"] is False


def test_fock_expect_is_never_exact(capsys):
    # the off-diagonal key (1, 2) dies under the block-diagonal compression
    assert main(["fock", "expect", TOEPLITZ, "offdiag"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["norm"] == 0.0 and data["exact"] is False


def test_fock_project_rank_counts_sources(capsys):
    assert main(["fock", "project", TOEPLITZ, "--above", "2", "--depth", "5"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["rank"] == 4  # sources 2,3,4,5
    assert data["norm"] == 1.0
    assert main(["fock", "project", TOEPLITZ, "--word", "3", "--depth", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["rank"] == 3  # Q_3 = phi(1_3): sources 3,4,5


def test_fock_project_reads_the_scenario_projection_family(tmp_path, monkeypatch, capsys):
    # two colours, the ideal keeps colour 0 alone: one column per source 0..5
    path = tmp_path / "two_colours.json"
    path.write_text(json.dumps({
        "semigroup": {"kind": "direct_sum", "rank": 1},
        "backend": {"kind": "colored", "gen_dims": [[1, 2]], "ideal": [0]},
        "settings": {"depth": 5},
    }))
    norms = []
    monkeypatch.setattr(FockOperator, "norm", lambda self, **kw: norms.append(self))
    for flag, word, rank, norm in [("--above", "2", 4, 1.0), ("--word", "0", 6, 1.0),
                                   ("--word", "9", 0, 0.0)]:
        assert main(["fock", "project", str(path), flag, word]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data == {"norm": norm, "exact": True, "depth": 5, "rank": rank}, (flag, word)
    assert norms == []


def test_fock_project_needs_one_flag(capsys):
    assert main(["fock", "project", TOEPLITZ]) == 2
    assert "exactly one of" in capsys.readouterr().err


def test_fock_build_reports_sources(capsys):
    assert main(["fock", "build", TOEPLITZ, "y", "--depth", "4"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["sources"] == 5 and data["depth"] == 4


@pytest.mark.parametrize("name,depth", [("x", "2"), ("x", "4"), ("y", "5")])
def test_fock_build_is_the_fock_norm_check_plus_sources(name, depth, capsys):
    assert main(["fock", "norm", TOEPLITZ, name, "--depth", depth]) == 0
    norm = json.loads(capsys.readouterr().out)["data"]
    assert main(["fock", "build", TOEPLITZ, name, "--depth", depth]) == 0
    build = json.loads(capsys.readouterr().out)["data"]
    assert build == {**norm, "sources": int(depth) + 1}


def test_fock_build_without_element_names_the_check(capsys):
    assert main(["fock", "build", TOEPLITZ]) == 2
    assert "check 'fock-norm'['element']: missing" in capsys.readouterr().err


def test_cli_imports_nothing_from_fock():
    tree = ast.parse((ROOT / "src" / "ntforge" / "cli.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fock" not in modules and "ntforge.fock" not in modules


@pytest.mark.parametrize("argv", [["build", TOEPLITZ, "y"], ["norm", TOEPLITZ, "x"],
                                  ["expect", TOEPLITZ, "offdiag"], ["project", TOEPLITZ, "--word", "3"]],
                         ids=["build", "norm", "expect", "project"])
def test_fock_builds_one_truncation(argv, monkeypatch, capsys):
    built = []
    init = Truncation.__init__
    monkeypatch.setattr(Truncation, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    assert main(["fock", *argv]) == 0
    assert len(built) == 1


# -- check -----------------------------------------------------------------------


def test_check_toeplitz_cli(capsys):
    assert main(["check", "toeplitz", TOEPLITZ, "--p", "1", "--qs", "2", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"
    assert out["data"]["rank_joint"] == out["data"]["rank_fiber"] + out["data"]["rank_span"]


def test_check_precondition_violation_is_an_error(capsys):
    assert main(["check", "toeplitz", TOEPLITZ, "--p", "2", "--qs", "1"]) == 2
    assert "precondition violated" in capsys.readouterr().err


def test_check_condition_c_cli(capsys):
    assert main(["check", "condition-c", TOEPLITZ, "--p", "1", "--qs", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass" and out["data"]["sigma_min"] >= 1e-6


def test_check_projections_cli(capsys):
    assert main(["check", "projections", TOEPLITZ, "--depth", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"
    assert out["data"]["semilattice_worst"] <= 1e-9


# -- bundle ----------------------------------------------------------------------


def test_bundle_roundtrip_cli(capsys):
    assert main(["bundle", "roundtrip", Z2]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["bit_exact"] is True


def test_bundle_regular_cli(capsys):
    assert main(["bundle", "regular", Z2]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["image_rank"] == data["fiber_dim_sum"] == 2


def test_bundle_spectrum_cli(capsys):
    assert main(["bundle", "spectrum", Z2, "--section", "s"]) == 0
    spec = json.loads(capsys.readouterr().out)["data"]["spectrum"]
    values = sorted(re for re, im in spec)
    assert values == pytest.approx([2.0, 4.0], abs=1e-12)


def test_bundle_with_an_action_object(tmp_path, capsys):
    # Z2 swapping two one-dimensional slots, given as perms and unitaries
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({
        "bundle": {"group": "Z2", "dims": [1, 1], "action": {
            "perms": {"0": [0, 1], "1": [1, 0]},
            "unitaries": {"0": [[[1]], [[1]]], "1": [[[1]], [[1]]]},
        }},
        "checks": [{"name": "bundle-regular"}, {"name": "bundle-roundtrip"}, {"name": "graded", "trials": 2}],
    }))
    assert main(["run", str(path)]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    assert [i["status"] for i in items] == ["pass"] * 3


def test_bundle_on_scenario_without_bundle(capsys):
    assert main(["bundle", "roundtrip", TOEPLITZ]) == 2
    assert "no bundle section" in capsys.readouterr().err


def test_check_graded_cli(capsys):
    assert main(["check", "graded", Z2, "--trials", "3", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


# -- scenario plumbing -------------------------------------------------------------


def test_scenario_settings_defaults():
    sc = Scenario({"semigroup": {"kind": "direct_sum", "rank": 1}})
    assert sc.settings["depth"] == 4 and sc.settings["seed"] == 0


def test_scenario_parse_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"semigroup": }')
    with pytest.raises(ValueError, match="line 1 column"):
        Scenario.from_path(str(p))


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "ntforge.cli", "explain", "fock-norm"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0
    assert "Operator norm" in proc.stdout


def test_import_leaves_scipy_optimize_and_sparse_unloaded():
    # then a closed-bracket aperiodicity search (the trivial action, W = {1})
    # still runs no Powell search, so it loads no scipy.optimize either; and a
    # Fock norm on a slot above SMALL_SLOT (126 columns) takes the Gram
    # Lanczos path, which loads no scipy.sparse.linalg
    code = (
        "import sys, numpy as np, ntforge as nt\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))\n"
        "ext = nt.UnitExtension(nt.DirectSumN(1), nt.cyclic_group(2))\n"
        "ps = nt.ColoredProductSystem(ext, [(2,)], check_depth=2)\n"
        "p, x = ext.parse('(1,0)'), ext.parse('(0,1)')\n"
        "res = nt.aperiodicity_search(ps, p, x, ps.arrow(p * x, p, [np.eye(2)]))\n"
        "print(res.search_best, 'scipy.optimize' in sys.modules)\n"
        "tr = nt.Truncation(ps, 5)\n"
        "y = nt.NTElement.from_terms(ps, [(p, ext.identity(), ps.arrow(p, ext.identity(), [np.ones((2, 1))]))])\n"
        "print(tr.col_total(0), round(nt.fock_norm(y, tr), 12), 'scipy.sparse.linalg' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "None False", f"126 {round(2 ** 0.5, 12)} False", ""]
