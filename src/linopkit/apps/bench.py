"""Benchmark driver: read a matrix, run one solve, report flat JSON."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from ..executor import executor_from_name
from ..facade import AppMatrix, AppVector, SolverOptions, create_solver
from .config import RunConfig, lcg_uniform, parse_rhs_spec
from .mtx import read_matrix_market

#: JSON key order of a benchmark report; nothing else may appear.
REPORT_KEYS = (
    "matrix",
    "rows",
    "cols",
    "nnz",
    "backend",
    "algorithm",
    "iterations",
    "initial_residual_norm",
    "final_residual_norm",
    "converged",
    "wall_time_ms",
)


@dataclass
class BenchReport:
    matrix: str
    rows: int
    cols: int
    nnz: int
    backend: str
    algorithm: str
    iterations: int
    initial_residual_norm: float
    final_residual_norm: float
    converged: bool
    wall_time_ms: float

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in REPORT_KEYS}
        return json.dumps(payload)


def _build_rhs(cfg: RunConfig, n: int) -> np.ndarray:
    kind, detail = parse_rhs_spec(cfg.rhs)
    if kind == "ones":
        return np.ones(n)
    if kind == "random":
        return lcg_uniform(detail, n)
    values = np.loadtxt(detail, dtype=np.float64).reshape(-1)
    if values.shape[0] != n:
        raise ConfigurationError(
            f"rhs file holds {values.shape[0]} values, matrix needs {n}"
        )
    return values


def run_benchmark(cfg: RunConfig) -> BenchReport:
    """One timed solve according to cfg. The clock covers only the solve."""
    exec_ = executor_from_name(cfg.backend)
    data = read_matrix_market(cfg.matrix)
    rows, cols = data.size
    matrix = AppMatrix(rows, cols)
    matrix.add_entries(*data.arrays())

    b = AppVector.from_values(_build_rhs(cfg, rows))
    x = AppVector(cols)
    options = SolverOptions(
        algorithm=cfg.solver,
        max_iters=cfg.max_iters,
        reduction_factor=cfg.reduction_factor,
        wrap_in_gmres=False,
        preconditioner=cfg.preconditioner,
    )
    solver = create_solver(exec_, matrix, options, restart=cfg.restart)

    start = time.perf_counter()
    report = solver.solve(b, x)
    wall_ms = (time.perf_counter() - start) * 1e3

    return BenchReport(
        matrix=Path(cfg.matrix).stem,
        rows=rows,
        cols=cols,
        nnz=np.unique(np.stack(data.arrays()[:2]), axis=1).shape[1],  # distinct (row, col)
        backend=cfg.backend,
        algorithm=cfg.solver,
        iterations=report.iterations,
        initial_residual_norm=report.initial_residual_norm,
        final_residual_norm=report.final_residual_norm,
        converged=report.converged,
        wall_time_ms=wall_ms,
    )
