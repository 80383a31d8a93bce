import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ntforge.cli import build_parser, main
from ntforge.fock import Truncation
from ntforge.scenario import CHECKS, Scenario, run_scenario, report_ok

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
    assert f"check {check['name']!r}: unknown parameter {field!r}" in captured.err


def _with_checks(*checks):
    data = json.loads(pathlib.Path(TOEPLITZ).read_text())
    data["checks"] = list(checks)
    return data


@pytest.mark.parametrize(
    "argv, field",
    [
        (["check", "aperiodicity", TOEPLITZ, "--p", "1"], "unit"),
        (["check", "toeplitz", TOEPLITZ, "--p", "1", "--qs", "2", "--trials", "3"], "trials"),
        (["check", "toeplitz", TOEPLITZ], "p"),
        # y = u + u* has two terms; condition-cprime takes a one-term element
        (["check", "condition-cprime", TOEPLITZ, "--p", "1", "--qs", "2", "--element", "y"], "y"),
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
    ],
    ids=["missing-unit", "unread-trials", "missing-p", "two-terms", "scenario-missing-element",
         "unknown-section", "missing-kind", "missing-letters", "string-check", "missing-blocks",
         "repeated-letters", "missing-name", "negative-depth", "non-associative-table",
         "numeric-group-elements", "repeated-unit-elements", "string-semigroup", "list-kind",
         "list-elements", "bundle-without-group"],
)
def test_bad_input_exits_2_naming_the_field(tmp_path, capsys, argv, field):
    path = tmp_path / "scenario.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(field) in captured.err


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
    # only nondegenerate has a unit certificate
    assert "certified" not in items[0]["data"] and "certified" not in items[2]["data"]


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
    assert "b: element 'b'" in err and "L((2,1),(2,0))" in err


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
    # names and `explain` prints each entry's parameters from the entry
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (which,) = [a for a in sub.choices["check"]._actions if a.dest == "which"]
    assert which.choices == sorted(CHECKS)
    for name, check in CHECKS.items():
        assert main(["explain", name]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("Parameters:")]
        required, optional = line[len("Parameters: "):].rstrip(".").split("; ")
        assert required == "required " + (", ".join(check.required) or "none")
        assert optional == "optional " + (", ".join(check.optional) or "none")


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


def test_fock_project_rank_counts_sources(capsys):
    assert main(["fock", "project", TOEPLITZ, "--above", "2", "--depth", "5"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["rank"] == 4  # sources 2,3,4,5
    assert data["norm"] == 1.0
    assert main(["fock", "project", TOEPLITZ, "--word", "3", "--depth", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["rank"] == 1


def test_fock_project_needs_one_flag(capsys):
    assert main(["fock", "project", TOEPLITZ]) == 2
    assert "exactly one of" in capsys.readouterr().err


def test_fock_build_reports_sources(capsys):
    assert main(["fock", "build", TOEPLITZ, "y", "--depth", "4"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["sources"] == 5 and data["depth"] == 4


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
