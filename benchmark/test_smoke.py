"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmark import heat  # noqa: E402
from benchmark.common import Tally, triplet_spmv  # noqa: E402
from linopkit import SolveReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "heat": ("setup_s", "solve_s_ref", "solve_s_par"),
    "stepping": ("setup_s", "steps_per_s", "step_ms_p50", "step_ms_tail"),
    "batched": ("setup_s", "systems_per_s_ref", "systems_per_s_par"),
}


def run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", sorted(NAMED))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    text = "\n".join(lines[:-1])
    if trace:
        spans = json.loads((ROOT / "benchmark" / "out" / f"trace-{workload}-seed3.json").read_text())
        assert spans["spans"] and {"name", "start", "end", "parent", "run_id"} <= set(spans["spans"][0])
    else:
        for name in NAMED[workload] + ("failed_frac", "peak_rss_mb"):
            assert any(line.split()[:1] == [name] for line in text.splitlines()), name
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0


def test_the_same_seed_gives_the_same_inputs():
    a, b = heat.Problem(5, "tiny"), heat.Problem(5, "tiny")
    assert np.array_equal(a.rhs(0)[1], b.rhs(0)[1])
    assert not np.array_equal(a.rhs(0)[1], heat.Problem(6, "tiny").rhs(0)[1])


class _WrongSolver:
    """Writes a slightly wrong x and claims convergence."""

    iteration_callback = None

    def __init__(self, x):
        self._x = x

    def solve(self, b, x):
        x.data()[:] = self._x
        return SolveReport(1, 1.0, 1e-12, True, "residual_norm")


def test_gate_trips_on_a_wrong_x():
    problem = heat.Problem(1, "tiny")
    u, b = problem.rhs(0)
    dense = np.zeros((problem.n, problem.n))
    np.add.at(dense, (problem.rows, problem.cols), problem.vals)
    exact = np.linalg.solve(dense, b)

    good = Tally()
    problem.solve(good, _WrongSolver(exact), b)
    assert good.correct and good.failed == 0

    bad = Tally()
    problem.solve(bad, _WrongSolver(exact * (1 + 1e-6)), b)
    assert not bad.correct and bad.failed == 1


def test_triplet_spmv_sums_duplicates():
    rows, cols = np.array([0, 0, 1]), np.array([1, 1, 0])
    y = triplet_spmv(rows, cols, np.array([1.0, 2.0, 4.0]), np.array([10.0, 100.0]), 2)
    assert np.array_equal(y, [300.0, 40.0])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("heat", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
