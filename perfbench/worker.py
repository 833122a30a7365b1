"""One benchmark process: set a workload up, run its items, report as JSON.

    python3 perfbench/worker.py '<spec>'

run.py starts it from the checkout root with single-threaded BLAS.  The
spec is a JSON object with the keys workload, seed, passes (pass indices),
setup_only (set up for those passes, run no item), trace (wrap the
layers), probes (time the fixed-input probes after the passes) and spans
(file for the trace spans, or null).  The last line of stdout is the JSON
report; each item is recorded as [kind, entry, seconds, status, margin,
points, error, calibration seconds], and setup_cal_s is the calibration
measured right after set-up.

Set-up time starts before numpy is imported: importing flatiso imports
numpy and scipy, and every user of the package pays for it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
PROBE_REPEATS = 5
CAL_REPEATS = 3
SETUP_CAL = 5                   # calibrations right after set-up, to scale it


def main(spec):
    # every timed set-up must start cold: no flatiso state kept from before
    loaded = [m for m in sys.modules if m == "flatiso" or m.startswith("flatiso.")]
    if loaded:
        raise RuntimeError(f"flatiso imported before set-up began: {loaded}")
    seed, passes = spec["seed"], spec["passes"]

    t0 = time.perf_counter()
    import numpy as np
    import scipy
    import workloads
    wl = workloads.WORKLOADS[spec["workload"]]
    sys.path.insert(0, str(ROOT / "src"))
    import flatiso.cli
    src = (ROOT / "src").resolve()
    if src not in Path(flatiso.__file__).resolve().parents:
        raise RuntimeError(f"flatiso loaded from {flatiso.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    state = wl.setup(seed, passes)
    setup_s = time.perf_counter() - t0
    setup_cal_s = statistics.mean(calibrate() for _ in range(SETUP_CAL))

    records = []
    timed_s = 0.0
    for p in [] if spec.get("setup_only") else passes:
        start = time.perf_counter()
        for item in wl.items(state, seed, p):
            if tracer is not None:
                tracer.item = len(records)
            records.append(_run_item(item) + [calibrate()])
        timed_s += time.perf_counter() - start

    report = {"setup_s": setup_s, "setup_cal_s": setup_cal_s, "timed_s": timed_s,
              "items": records,
              "python": sys.version.split()[0], "numpy": np.__version__,
              "scipy": scipy.__version__}
    if tracer is not None:
        tracer.item = -1
        report["layers"] = spans.layer_metrics(
            tracer, items=len(records), points=sum(r[5] for r in records),
            entries=wl.entries(state))
        if spec.get("spans"):
            tracer.write(spec["spans"])
    if spec.get("probes"):
        report["probes"] = run_probes()
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


def calibrate():
    """Mean seconds of CAL_REPEATS runs of a fixed kernel mixing the program's work.

    Small complex eigenproblems, Fraction arithmetic and tuple-keyed dict
    updates: the numeric layers, the rational coefficients and the sparse
    polynomials of the ring.  It runs after every item, untimed, so run.py
    can scale item times to a reference machine speed.  GC is off while it
    runs, so garbage left by an item is not collected on its clock.
    """
    import gc
    from fractions import Fraction

    import numpy as np
    gc.disable()
    try:
        a = np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=complex)
        t = time.perf_counter()
        for _ in range(CAL_REPEATS):
            for _ in range(20):
                np.linalg.eig(a)
            x = Fraction(0)
            for i in range(1, 300):
                x += Fraction(1, i) * i
            d = {}
            for i in range(2000):
                d[(i, i + 1)] = d.get((i - 1, i), 0) + i
        return (time.perf_counter() - t) / CAL_REPEATS
    finally:
        gc.enable()


def _run_item(item):
    """[kind, entry, seconds, status, margin, points, error] for one request.

    status is ok, wrong (a gate failed) or error (the request raised); the
    margin is the worst value / tolerance over the numeric gates, 0 for
    exact verdicts.
    """
    from workloads import Gate, Verdict
    t = time.perf_counter()
    try:
        gates = item.run()
    except Exception as exc:        # recorded as a failed item; the run goes on
        dur = time.perf_counter() - t
        return [item.kind, item.entry, dur, "error", None, item.points,
                f"{type(exc).__name__}: {str(exc)[:200]}"]
    dur = time.perf_counter() - t
    margin = 0.0
    bad = []
    for g in gates:
        if isinstance(g, Verdict):
            if g.got != g.expected:
                bad.append(f"{g.name}={g.got}, expected {g.expected}")
        elif isinstance(g, Gate):
            ratio = g.value / g.tol if math.isfinite(g.value) else math.inf
            margin = max(margin, ratio)
            if not g.value < g.tol:
                bad.append(f"{g.name}={g.value:.3e} >= {g.tol:.1e}")
    if bad:
        print(f"wrong: {item.kind} {item.entry}: {'; '.join(bad)}", file=sys.stderr)
    return [item.kind, item.entry, dur, "wrong" if bad else "ok", margin,
            item.points, "; ".join(bad) or None]


def run_probes():
    """Fixed-input layer probes, untraced, median of PROBE_REPEATS each."""
    import numpy as np
    import workloads
    from flatiso import catalog, cli, flatcore, isomono, p6
    lt19 = catalog.catalog_get("LT19")
    m = flatcore.build_saito_matrices(lt19.pvf)
    # the nonzero entries of B~^(1) and B~^(2): 14 of them, 196 products
    entries = [x for B in m.Btilde[:2] for row in B for x in row if not x.is_zero()]
    dp = lt19.doc["default_path"]
    path = [(dp["t1"], s) for s in np.linspace(dp["t2_start"], dp["t2_end"], 801)]

    def products():
        for a in entries:
            for b in entries:
                a * b

    def t0_eval():
        sampler = p6.StructureSampler(m, z_seed=lt19.z_seed)
        for pt in path:
            sampler.t0_matrix(pt)

    def median_time(fn):
        times = []
        for _ in range(PROBE_REPEATS):
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    out = {"ring.probe.lt19_btilde_products_s": median_time(products),
           "p6.probe.lt19_t0_eval_801_s": median_time(t0_eval)}

    # integrate_p6_hamiltonian alone, inside the jm-roundtrip verb at its
    # default seed
    spent = []
    integrate = isomono.integrate_p6_hamiltonian

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return integrate(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - t)

    isomono.integrate_p6_hamiltonian = timed
    try:
        for _ in range(PROBE_REPEATS):
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["jm-roundtrip", "--json",
                          os.path.join(workloads.WORK_DIR, "jm-roundtrip.json")])
    finally:
        isomono.integrate_p6_hamiltonian = integrate
    out["isomono.probe.jm_default_seed_s"] = statistics.median(spent)
    return out


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
