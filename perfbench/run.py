#!/usr/bin/env python3
"""ntforge benchmark: one workload, end to end, from the repository root.

    python3 perfbench/run.py --workload wick-core --seed 1 --seconds 35 --trace 0

Workloads: wick-core, fock-norm, verify (see workloads.py and NOTES.md).
Each run starts the workload in fresh processes (``worker.py``) with the
ntforge sources under ``src/`` on the path and a fixed BLAS thread count:

* ``SETUP_SAMPLES`` processes only set up and exit; with the main process
  they give the set-up samples, timed from process start to the moment the
  first job may start.  ``setup_s`` is their median.
* the main process then runs the jobs in passes for ``--seconds``;
  ``solve_s`` is one pass with tracing off: the sum of each job's median
  time over the passes.

``--trace 0`` prints the end-to-end metrics (setup_s, solve_s, peak_rss_mb,
passed_frac); ``--trace 1`` prints the per-module metrics from a traced run
and writes its spans to ``perfbench/out/``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is non-zero, and no result is printed, when a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

from worker import solve_time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wick-core", "fock-norm", "verify")
BLAS_THREADS = 1
SETUP_SAMPLES = 4  # set-up-only processes, in addition to the main one
PROCESS_LIMIT_S = 170.0  # a process still running by then is killed


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, setup_only, deadline):
    """Start one worker; returns (seconds until READY, parsed result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--threads", str(BLAS_THREADS),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} ({'after' if line else 'before'} set-up)")
    if setup_only:
        return ready_s, None
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    if not lines:
        raise WorkerError("worker printed no result")
    return ready_s, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ntforge" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ntforge sources under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + PROCESS_LIMIT_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setup.append(run_worker(args, True, deadline)[0])
        ready_s, res = run_worker(args, False, deadline)
    except WorkerError as exc:
        sys.stderr.write(f"error: {args.workload}: {exc}\n")
        return 1
    setup.append(ready_s)

    env = res["env"]
    untraced = [p for p in res["passes"] if not p["traced"]]
    attempted = res["attempted"]
    wrong = len(res["failures"])  # job runs that raised or failed their oracle check
    raised = sum(1 for f in res["failures"] if f["raised"])
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(res['jobs'])}  "
          f"passes {len(res['passes'])}  trace {args.trace}")
    print(f"env python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"BLAS threads {env['blas_threads_requested']} (reported {env['blas_threads_reported']})  "
          f"nproc {env['nproc']}")
    failed_jobs = sorted({f["job"]: f["error"] for f in res["failures"]}.items())
    for job, err in failed_jobs:
        print(f"FAILED {job}: {err}")
    for job, err in sorted({m["job"]: m["error"] for m in res["tol_misses"]}.items()):
        print(f"TOL_MISS {job}: {err}")

    if args.trace:
        metrics = res["per_layer"]
        print(f"trace file {res['trace_file']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            # one pass's time from each job's median over the passes: a stall
            # during one job then moves only that job's sample
            "solve_s": {"value": solve_time(untraced), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "passed_frac": {"value": 1.0 - wrong / attempted, "unit": "fraction"},
        }
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
        pass_s = [p["solve_s"] for p in untraced]
        print(f"solve passes (s): {', '.join(f'{s:.4f}' for s in pass_s)}  "
              f"(median pass {statistics.median(pass_s):.4f})")
        print(f"failed_frac {wrong / attempted:.6g} fraction ({wrong}/{attempted} job runs)")
        missed = len(res["tol_misses"])
        print(f"tol_miss_frac {missed / attempted:.6g} fraction ({missed}/{attempted} job runs "
              "within the known-defect bound but not the tol they were called with)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": raised,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
