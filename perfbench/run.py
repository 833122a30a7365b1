"""flatiso benchmark runner.

    python3 perfbench/run.py --workload catalog-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload is a single-client closed
loop over seeded requests against flatiso's public API; every request's
output is checked against a known answer.  The work is done in worker
processes (perfbench/worker.py) with BLAS limited to one thread.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json;
--trace 1 runs one pass untraced and the same pass with every layer
wrapped, and prints the per-layer metrics.  The last stdout line is the
JSON result; a copy with the environment and the per-item records is
written to .perfbench_run/.  See perfbench/README.md for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_run"
DEADLINE_S = 170

# Nominal cost of one pass on a 2-CPU x86-64 box (CPython 3.11), fresh
# process included for catalog-exact.  A run does round(seconds / cost)
# passes, so both sides of a comparison do the same work and the tail
# percentile covers the same items.  path-sweep is given six passes so that
# its tail sample falls inside the cluster of LT14 Schlesinger sweeps rather
# than on the edge between two clusters.
WORKLOADS = {
    "catalog-exact": {"pass_s": 7.5, "fresh_process_per_pass": True},
    "path-sweep": {"pass_s": 5.0, "fresh_process_per_pass": False},
    "isomonodromy-ode": {"pass_s": 7.5, "fresh_process_per_pass": False},
}
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Times are reported in reference seconds: wall seconds times CAL_REF_S /
# (mean time of the calibration kernel run after each of the CAL_WINDOW
# items on either side; for set-up, run right after it).  The host's speed
# drifts by 1.3-1.5x over seconds to minutes; the kernel slows with it, and
# the ratio cancels the drift.  Wall-clock figures are kept in the result
# record.
CAL_REF_S = 0.003
CAL_WINDOW = 5


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {spec}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {spec}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(durations):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    d = sorted(durations)
    n = len(d)
    if n <= TAIL_BEYOND:
        return d[-1], 100.0
    return d[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def reference_times(items):
    """Item times of one worker, scaled to the reference machine speed."""
    cal = [r[7] for r in items]
    out = []
    for i, r in enumerate(items):
        near = cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
        out.append(r[2] * CAL_REF_S * len(near) / sum(near))
    return out


def timing(durations):
    value, pct = tail(durations)
    return {"items_per_s": len(durations) / sum(durations),
            "item_s.p50": statistics.median(durations),
            "item_s.tail": value}, pct


def summarize(reports):
    items = [r for rep in reports for r in rep["items"]]
    failed = [r for r in items if r[3] != "ok"]
    margins = [r[4] for r in items if r[4] is not None]
    return {
        "attempted": len(items),
        "failed": len(failed),
        "wrong": sum(r[3] == "wrong" for r in items),
        "failed_ratio": len(failed) / len(items) if items else 0.0,
        "tol_margin_max": max(margins, default=0.0),
        "failures": sorted({f"{r[0]}: {(r[6] or '').split(':')[0]}" for r in failed}),
    }


def end_to_end(name, seed, seconds, deadline):
    plan = WORKLOADS[name]
    n = max(1, round(seconds / plan["pass_s"]))
    base = {"workload": name, "seed": seed, "trace": False}
    if plan["fresh_process_per_pass"]:
        reports = [run_worker({**base, "passes": [p]}, deadline) for p in range(n)]
        measured = reports
    else:
        setup_only = [run_worker({**base, "passes": list(range(n)), "setup_only": True},
                                 deadline)
                      for _ in range(SETUP_REPEATS - 1)]
        main = run_worker({**base, "passes": list(range(n))}, deadline)
        measured = [main]
        reports = setup_only + [main]
    setups = [r["setup_s"] * CAL_REF_S / r["setup_cal_s"] for r in reports]
    durations = [t for rep in measured for t in reference_times(rep["items"])]
    metrics, pct = timing(durations)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(r["rss_mb"] for r in reports)
    raw, _ = timing([r[2] for rep in measured for r in rep["items"]])
    calibration = [r[7] for rep in measured for r in rep["items"]]
    raw["setup_s"] = statistics.median(r["setup_s"] for r in reports)
    extra = {"passes": n, "setup_samples": setups, "tail_percentile": pct,
             "samples": len(durations), "wall_clock": raw,
             "calibration_mean_s": statistics.mean(calibration)}
    return metrics, measured, extra


def traced(name, seed, deadline):
    base = {"workload": name, "seed": seed, "passes": [0]}
    plain = run_worker({**base, "trace": False, "probes": True}, deadline)
    spans = WORK_DIR / f"spans-{name}-seed{seed}.tsv"
    wrapped = run_worker({**base, "trace": True, "spans": str(spans)}, deadline)
    s = summarize([plain])
    metrics = {**wrapped["layers"], **plain["probes"],
               "failed_ratio": s["failed_ratio"], "tol_margin_max": s["tol_margin_max"],
               "trace.overhead_s": (wrapped["setup_s"] + wrapped["timed_s"])
               - (plain["setup_s"] + plain["timed_s"])}
    extra = {"spans_file": str(spans.relative_to(ROOT)),
             "traced_wall_s": wrapped["setup_s"] + wrapped["timed_s"],
             "untraced_wall_s": plain["setup_s"] + plain["timed_s"]}
    return metrics, [plain, wrapped], extra


def environment(seed, report):
    env = {"python": report["python"], "numpy": report["numpy"],
           "scipy": report["scipy"], "nproc": os.cpu_count(),
           "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": None,
           "git_commit": None, "seed": seed}
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in f
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        env["git_commit"] = proc.stdout.strip() or None
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, reports, extra = traced(args.workload, args.seed, deadline)
        else:
            values, reports, extra = end_to_end(args.workload, args.seed,
                                                args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    s = summarize(reports)
    result = {"correct": s["wrong"] == 0, "attempted": s["attempted"],
              "failed": s["failed"],
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed, reports[0]),
              **extra, **{k: s[k] for k in ("failed_ratio", "tol_margin_max", "failures")},
              "result": result, "items": [r for rep in reports for r in rep["items"]]}
    out = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(record["environment"]))
    print("# " + json.dumps({k: v for k, v in record.items()
                             if k not in ("environment", "result", "items")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
