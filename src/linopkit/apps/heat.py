"""Steady-state heat conduction on the unit square, facade edition.

The Poisson problem -lap(u) = f with u = 0 on the boundary, discretized with
the 5-point stencil on an n x n interior grid.  The manufactured solution
u*(x, y) = e^x sin(pi x) sin(pi y) gives
f = e^x sin(pi y) ((2 pi^2 - 1) sin(pi x) - 2 pi cos(pi x)), so the
discretization error is known to shrink like h^2.  u* is not an eigenvector
of the stencil (sin(pi x) sin(pi y) alone is one, and CG stops after one
iteration on it), nor a polynomial of degree 3 or less per variable (on
which the stencil is exact), so the demo exercises both the Krylov loop and
the discretization.

Everything below talks to the solver exclusively through the application
facade: assembly into AppMatrix, vectors in AppVector, configuration through
SolverOptions.  No backend type appears, which is the point of the demo; the
backend is chosen by a single string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..executor import executor_from_name
from ..facade import AppMatrix, AppVector, SolverOptions, create_solver


@dataclass
class HeatReport:
    n: int
    backend: str
    iterations: int
    converged: bool
    initial_residual_norm: float
    final_residual_norm: float
    max_error: float
    solution: np.ndarray


def assemble_poisson(n: int) -> AppMatrix:
    """5-point stencil for the n x n interior grid, scaled by 1/h^2.

    Row ``i * n + j`` holds, in this order, the diagonal and the neighbours
    above, below, left and right that lie inside the grid; the whole stencil
    is built with numpy and stored with one ``add_entries`` call.
    """
    h = 1.0 / (n + 1)
    diag = 4.0 / (h * h)
    off = -1.0 / (h * h)
    row = np.arange(n * n, dtype=np.int64)
    i, j = np.divmod(row, n)
    # one column per stencil slot: self, up, down, left, right
    cols = row[:, None] + np.array([0, -n, n, -1, 1])
    inside = np.stack([np.ones(n * n, dtype=bool), i > 0, i < n - 1, j > 0, j < n - 1], axis=1)
    vals = np.array([diag, off, off, off, off])
    matrix = AppMatrix(n * n, n * n)
    matrix.add_entries(
        np.broadcast_to(row[:, None], cols.shape)[inside],
        cols[inside],
        np.broadcast_to(vals, cols.shape)[inside],
    )
    return matrix


def _grid(n: int) -> np.ndarray:
    """The interior grid points along one axis; x runs along the first grid index."""
    return (np.arange(n) + 1) / (n + 1)


def manufactured_solution(n: int) -> np.ndarray:
    """u* at the grid points, in row order ``i * n + j`` for (x_i, y_j)."""
    x = _grid(n)
    return np.outer(np.exp(x) * np.sin(math.pi * x), np.sin(math.pi * x)).ravel()


def run_heat_demo(n: int, backend: str = "reference", worker_count: int | None = None,
                  reduction_factor: float = 1e-10, max_iters: int | None = None,
                  preconditioner: str = "jacobi") -> HeatReport:
    """Assemble, solve with CG, and compare against the manufactured solution."""
    exec_ = executor_from_name(backend, worker_count)
    matrix = assemble_poisson(n)
    exact = manufactured_solution(n)
    grid = _grid(n)
    # f = -lap(u*), the module docstring's formula
    f = np.outer(np.exp(grid) * ((2.0 * math.pi**2 - 1.0) * np.sin(math.pi * grid)
                                 - 2.0 * math.pi * np.cos(math.pi * grid)),
                 np.sin(math.pi * grid)).ravel()

    b = AppVector.from_values(f)
    x = AppVector(n * n)
    options = SolverOptions(
        algorithm="cg",
        max_iters=max_iters if max_iters is not None else 10 * n * n,
        reduction_factor=reduction_factor,
        wrap_in_gmres=False,
        preconditioner=preconditioner,
    )
    solver = create_solver(exec_, matrix, options)
    report = solver.solve(b, x)

    solution = x.to_array()
    return HeatReport(
        n=n,
        backend=backend,
        iterations=report.iterations,
        converged=report.converged,
        initial_residual_norm=report.initial_residual_norm,
        final_residual_norm=report.final_residual_norm,
        max_error=float(np.max(np.abs(solution - exact))),
        solution=solution,
    )
