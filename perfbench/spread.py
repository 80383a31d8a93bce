#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads fock-norm --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace-seed 1 --out perfbench/BENCH_seed.json

For every end-to-end metric it prints the median of the per-seed values and
the distance between their first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None, help="also make one traced run")
    ap.add_argument("--out", default=None, help="write the results as JSON")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric, runs = {}, []
        for seed in parse_seeds(args.seeds):
            res, lines = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "lines": lines})
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: "
                  + "  ".join(f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"metrics": {k: summarize(v) for k, v in per_metric.items()}, "runs": runs}
        for name, s in entry["metrics"].items():
            print(f"  {workload} {name}: median {s['median']:.5g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds.get(name)})", flush=True)
        if args.trace_seed is not None:
            res, _ = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "correct": res["correct"],
                              "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
