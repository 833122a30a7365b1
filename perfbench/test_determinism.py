"""Two traced runs on the same seed must count the same work.

    python3 -m pytest -q perfbench/test_determinism.py

For every workload and for two seeds, runs `run.py --trace 1` twice and
requires every per-layer metric that is not a time to be identical: the
`*.calls` and `*.failed` counts, the `*_per_*` ratios, the ODE counts,
`failed_ratio` and `tol_margin_max`.  Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = (1, 2)
WORKLOADS = ("catalog-exact", "path-sweep", "isomonodromy-ode")


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=RUN.parent.parent, stdout=subprocess.PIPE, text=True, check=True,
        timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untimed(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload, seed):
    first, second = traced(workload, seed), traced(workload, seed)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    counts = untimed(first)
    assert any(k.endswith(".calls") and v > 0 for k, v in counts.items())
    assert counts == untimed(second)
