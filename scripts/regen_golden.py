#!/usr/bin/env python3
"""Regenerate the shipped golden reports for the bundled scenarios.

Run from the repository root after intentional behavior changes:

    python3 scripts/regen_golden.py

With --check, regenerate the reports in memory only, compare their bytes
(apart from "generated_at") with the shipped files, write nothing, and exit 1
naming every file that differs:

    python3 scripts/regen_golden.py --check
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ntforge.scenario import run_scenario  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main():
    ap = argparse.ArgumentParser(description="Regenerate or check the golden reports.")
    ap.add_argument("--check", action="store_true", help="compare only; write nothing")
    check = ap.parse_args().check
    differ = []
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        if scenario.name.endswith(".report.json"):
            continue
        report = run_scenario(str(scenario))
        report["generated_at"] = "REGENERATED"  # the one non-deterministic field
        out = scenario.with_suffix("").with_suffix(".report.json")
        if check:
            shipped = out.read_bytes() if out.exists() else b""
            if shipped:
                report["generated_at"] = json.loads(shipped).get("generated_at")
            same = (json.dumps(report, indent=2) + "\n").encode() == shipped
            print(f"{out.name}: {'identical' if same else 'DIFFERS'}")
            if not same:
                differ.append(out.name)
            continue
        out.write_text(json.dumps(report, indent=2) + "\n")
        statuses = [item["status"] for item in report["items"]]
        print(f"{out.name}: {len(statuses)} items, {statuses.count('fail')} failed")
    if differ:
        print("differ from the shipped reports: " + ", ".join(differ), file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
