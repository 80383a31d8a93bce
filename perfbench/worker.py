"""One workload in one fresh process: set up, then run the jobs back to back.

``run.py`` starts this script and times it from outside.  The protocol on
standard output is two lines: ``READY`` once set-up is done (the first timed
job starts right after it), then one JSON object with the passes, failures,
peak memory, environment and, with ``--trace 1``, the per-module metrics.

A pass runs every job of the workload once, as a closed loop with one caller.
Passes repeat until the next one would overrun ``--seconds`` (at least
``MIN_PASSES``).  With ``--trace 1`` passes alternate between tracing off and
on, starting with an untraced warm-up, and the spans of the traced passes
give the per-module numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

from spans import Recorder, self_times

MIN_PASSES = 3
MIN_TRACE_PASSES = 3  # a warm-up, then one pass with tracing and one without
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

FOCK_JOBS = ("ab6-mixed", "n2d8-diag", "ab8-diag", "n2d11-diag", "ab8-shift", "ab8-long", "absorb-expect")
MODULES = ("semigroups", "segments", "wick", "fock", "analysis", "bundles", "precategory", "scenario")

# (metric, unit): busy_s is self time summed over a pass; a count or size is
# summed over the spans of a pass; setup-phase metrics come from set-up.
PER_LAYER = (
    [
        ("import.busy_s", "s"),
        ("precategory.backend.busy_s", "s"),
        ("wick.build.busy_s", "s"),
        ("fock.truncation.busy_s", "s"),
        ("fock.truncation.columns", "count"),
        ("fock.truncation.elements", "count"),
        ("semigroups.lcm_table.busy_s", "s"),
        ("semigroups.lcm_table.pairs", "count"),
        ("semigroups.controlled_map.busy_s", "s"),
        ("segments.initial_segments.busy_s", "s"),
        ("segments.initial_segments.count", "count"),
        ("segments.partition.busy_s", "s"),
        ("segments.partition.elements", "count"),
        ("wick.mul.busy_s", "s"),
        ("wick.mul.terms", "count"),
        ("wick.core_norm.busy_s", "s"),
        ("fock.lift.busy_s", "s"),
        ("fock.lift.blocks", "count"),
        ("fock.expectation.busy_s", "s"),
        ("fock.norm.busy_s", "s"),
        ("fock.norm.tol_misses", "count"),
    ]
    + [(f"fock.norm.{job}.busy_s", "s") for job in FOCK_JOBS]
    + [(f"fock.norm.{job}.rel_err", "ratio") for job in FOCK_JOBS]
    + [
        ("analysis.projections.busy_s", "s"),
        ("analysis.projections.rep_dim", "count"),
        ("analysis.covariance.busy_s", "s"),
        ("analysis.aperiodicity.busy_s", "s"),
        ("analysis.aperiodicity.best", "ratio"),
        ("bundles.regular.busy_s", "s"),
        ("bundles.regular.rep_dim", "count"),
        ("bundles.spectrum.busy_s", "s"),
        ("precategory.structure.busy_s", "s"),
        ("scenario.run.busy_s", "s"),
    ]
    + [(f"{m}.failed", "count") for m in MODULES]
    + [("trace.solve_s", "s"), ("trace.overhead_s", "s")]
)

# per-layer metric -> (span name, summed size) for counts and sizes
SIZE_METRICS = {
    "fock.truncation.columns": ("fock.truncation", "columns"),
    "fock.truncation.elements": ("fock.truncation", "S"),
    "semigroups.lcm_table.pairs": ("semigroups.lcm_table", "pairs"),
    "segments.initial_segments.count": ("segments.initial_segments", "count"),
    "segments.partition.elements": ("segments.partition", "elements"),
    "wick.mul.terms": ("wick.mul", "terms"),
}
SETUP_SPANS = ("import", "precategory.backend", "wick.build", "fock.truncation")


def blas_threads():
    """Threads the bundled OpenBLAS reports, or None when it cannot be asked."""
    import numpy

    libdir = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def environment(threads_requested):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": threads_requested,
        "blas_threads_reported": blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_pass(jobs, rec, traced, pass_no):
    """Run every job once; returns (solve_s, job times, outputs).  Checks come later.

    Garbage from earlier passes is collected first, and what survives (the
    inputs and the cached oracles) is frozen out of the collector's view, so
    every pass starts from the same heap.
    """
    rec.enabled = traced
    rec.pass_no = pass_no
    gc.collect()
    gc.freeze()
    outputs, times = [], []
    start = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        with rec.span("job." + job.name):
            try:
                outputs.append((job.run(), None))
            except Exception as exc:  # a raising job is a failed job; keep going
                outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t)
    solve_s = time.perf_counter() - start
    rec.enabled = False
    return solve_s, times, outputs


def check_pass(jobs, outputs):
    """Compare each output with its oracle: a list of (error or None, info, raised)."""
    results = []
    for job, (out, err) in zip(jobs, outputs):
        info = {}
        raised = err is not None
        if not raised:
            try:
                err, info = job.check(out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        results.append((err, info, raised))
    return results


def solve_time(passes):
    """One pass's time, from each job's median over the given passes."""
    return sum(statistics.median(t) for t in zip(*(p["job_s"] for p in passes)))


def per_layer_metrics(rec, passes, jobs, last_results):
    """The PER_LAYER metrics from the spans of the traced passes.

    Times are medians over traced passes; counts, sizes and oracle figures
    come from the last traced pass; set-up spans occur once.
    """
    records = rec.records()
    busy, sizes = self_times(records)
    traced = [p["pass"] for p in passes if p["traced"]]
    last = traced[-1]
    infos = {j.name: info for j, (_, info, _) in zip(jobs, last_results)}

    def busy_of(span):
        if span in SETUP_SPANS:
            return busy["setup"].get(span, 0.0)
        return statistics.median(busy[n].get(span, 0.0) for n in traced)

    def norm_busy(job):
        return statistics.median(
            sum(r["end"] - r["start"] for r in records
                if r["pass"] == n and r["name"] == "fock.norm" and r["sizes"].get("job") == job)
            for n in traced
        )

    def largest(span, key):
        return max((r["sizes"].get(key, 0) for r in records
                    if r["name"] == span and r["pass"] == last), default=0)

    values = {}
    for metric, _ in PER_LAYER:
        if metric.endswith(".busy_s") and not metric.startswith("fock.norm."):
            values[metric] = busy_of(metric[: -len(".busy_s")])
    values["fock.norm.busy_s"] = busy_of("fock.norm")
    for metric, (span, key) in SIZE_METRICS.items():
        values[metric] = sizes["setup" if span in SETUP_SPANS else last][span].get(key, 0)
    for job in FOCK_JOBS:
        values[f"fock.norm.{job}.busy_s"] = norm_busy(job)
        values[f"fock.norm.{job}.rel_err"] = infos.get(job, {}).get("rel_err", 0.0)
    values["fock.norm.tol_misses"] = sum(1 for info in infos.values() if info.get("tol_miss"))
    values["fock.lift.blocks"] = sum(info.get("blocks", 0) for info in infos.values())
    values["analysis.projections.rep_dim"] = largest("analysis.projections", "rep_dim")
    values["bundles.regular.rep_dim"] = largest("bundles.regular", "rep_dim")
    values["analysis.aperiodicity.best"] = infos.get("aperiodicity-flip", {}).get("best", 0.0)
    for module in MODULES:
        values[f"{module}.failed"] = sum(
            1 for j, (err, _, _) in zip(jobs, last_results) if j.module == module and err
        )
    # pass 0 warms up; the overhead compares the later passes with and without tracing
    traced_solve = solve_time(p for p in passes if p["traced"])
    values["trace.solve_s"] = traced_solve
    values["trace.overhead_s"] = traced_solve - solve_time(
        p for p in passes if not p["traced"] and p["pass"] > 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rec = Recorder(enabled=bool(args.trace))
    with rec.span("import"):
        import ntforge  # noqa: F401
    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed, rec)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes, failures, tol_misses = [], [], []
    attempted = 0
    last_results = []
    start = time.perf_counter()
    min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
    while True:
        n = len(passes)
        traced = bool(args.trace) and n % 2 == 1
        solve_s, times, outputs = run_pass(jobs, rec, traced, n)
        results = check_pass(jobs, outputs)
        passes.append({"pass": n, "solve_s": solve_s, "job_s": times, "traced": traced})
        attempted += len(jobs)
        for job, (err, info, raised) in zip(jobs, results):
            if err:
                failures.append({"job": job.name, "pass": n, "error": err, "raised": raised})
            elif info.get("tol_miss"):
                tol_misses.append({"job": job.name, "pass": n, "error": info["tol_miss"]})
        if traced or not args.trace:
            last_results = results
        del outputs
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["solve_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break

    env = environment(args.threads)
    result = {
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
        "tol_misses": tol_misses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
        "jobs": [j.name for j in jobs],
    }
    if args.trace:
        result["per_layer"] = per_layer_metrics(rec, passes, jobs, last_results)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        rec.write_jsonl(path, {"workload": args.workload, "seed": args.seed, "env": env,
                               "passes": passes})
        result["trace_file"] = str(path.relative_to(OUT_DIR.parent.parent))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
