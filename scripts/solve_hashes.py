#!/usr/bin/env python3
"""Print sha256 hashes of solve outputs, one line per group of cases plus a total.

A change that should keep every result bit prints the same lines as its
parent: run ``PYTHONPATH=<tree>/src python scripts/solve_hashes.py`` against
each tree and compare.  Only the public API is used, so an older tree runs it
too.  Each group hashes the solutions and the reports: iteration counts,
residual norms, stop reasons, callback histories and breakdown messages.

- heat: the heat demo, n = 200, with and without Jacobi, on reference and
  parallel(2);
- euler: the implicit Euler decay demo's u after 10 steps;
- solver: 1- and 5-column 40 x 40 solves of every algorithm, with and without
  Jacobi, under Iteration(60) and Iteration(500) + ResidualNorm(1e-12),
  before and after a refresh, plus a 2 x 2 indefinite system that breaks down;
- batched: 30-system cg and bicgstab batches, with and without Jacobi, on
  reference and parallel(2);
- kinetics: the batched kinetics step, on reference and parallel(2).

Everything prints twice: on SpMV's compiled body (the numpy body when scipy
is missing) and with the numpy body forced.  The two bodies must give equal
bits, so the script exits 1 when the two totals differ.
"""

import hashlib
import sys

import numpy as np

from linopkit import (
    BatchCsr,
    BatchDense,
    BreakdownError,
    Csr,
    Dense,
    Iteration,
    MatrixData,
    ResidualNorm,
    SolverFactory,
    batch_solve,
    executor_from_name,
    kernels,
)
from linopkit.apps.euler import integrate_decay
from linopkit.apps.heat import run_heat_demo
from linopkit.apps.kinetics import run_kinetics_step

KINDS = (("reference", None), ("parallel", 2))
ALGORITHMS = ("cg", "bicgstab", "gmres", "lu", "gmres_lu")
CRITERIA = ((Iteration(60),), (Iteration(500), ResidualNorm(1e-12)))


def feed(h, *items):
    """Add each item to the hash ``h``: arrays by their bytes, anything else by repr."""
    for item in items:
        h.update(np.ascontiguousarray(item).tobytes() if isinstance(item, np.ndarray)
                 else repr(item).encode())


def lattice(n, rng):
    """An n x n symmetric, diagonally dominant matrix: a 3-point chain plus a
    few random symmetric couplings, its diagonal varying so that Jacobi acts."""
    i = np.arange(n)
    far = rng.integers(0, n, size=(2, n))
    far = far[:, far[0] != far[1]]
    rows = np.concatenate([i, i[1:], i[:-1], far[0], far[1]])
    cols = np.concatenate([i, i[:-1], i[1:], far[1], far[0]])
    vals = np.concatenate([4.0 + rng.uniform(0.0, 4.0, n), -np.ones(2 * (n - 1)),
                           np.tile(rng.uniform(-0.5, 0.5, far.shape[1]), 2)])
    data = MatrixData((n, n))
    data.add_entries(rows, cols, vals)
    return data


def solve_case(h, solver, b):
    """Solve from a zero guess; hash x, the report or the breakdown, and the residual history."""
    x = Dense.create(b.executor, b.size)
    history = []
    try:
        report = solver.solve(b, x, callback=lambda k, norm: history.append((k, norm)))
        feed(h, report.iterations, report.initial_residual_norm, report.final_residual_norm,
             report.converged, report.stop_reason)
    except BreakdownError as err:
        feed(h, str(err), err.iterations, err.residual_norm)
    feed(h, x.view2d(), history)


def heat(h):
    for kind, workers in KINDS:
        for preconditioner in ("jacobi", "none"):
            rep = run_heat_demo(200, backend=kind, worker_count=workers,
                                preconditioner=preconditioner)
            feed(h, rep.iterations, rep.converged, rep.initial_residual_norm,
                 rep.final_residual_norm, rep.solution)


def euler(h):
    feed(h, integrate_decay(10, 0.1, executor_from_name("reference")))


def solver(h):
    exec_ = executor_from_name("reference")
    rng = np.random.default_rng(40)
    rhs = rng.normal(size=(40, 5))
    for algorithm in ALGORITHMS:
        for preconditioner in (None, "jacobi"):
            for criteria in CRITERIA:
                a = Csr.from_data(exec_, lattice(40, np.random.default_rng(7)))
                s = SolverFactory(algorithm, criteria, preconditioner, restart=10).generate(a)
                for _ in range(2):  # as generated, then refreshed after a value change
                    for cols in (1, 5):
                        b = Dense.create(exec_, (40, cols))
                        b.view2d()[...] = rhs[:, :cols]
                        solve_case(h, s, b)
                    values = a.get_values().numpy()
                    a.update_values(values * 1.5 + np.where(values > 0.0, 1.0, 0.0))
                    s.refresh()
    indefinite = Csr.from_data(exec_, MatrixData((2, 2), [(0, 0, 1.0), (1, 1, -1.0)]))
    for algorithm in ("cg", "bicgstab", "gmres"):
        b = Dense.create(exec_, (2, 1))
        b.view2d()[...] = 1.0
        solve_case(h, SolverFactory(algorithm, CRITERIA[1]).generate(indefinite), b)


def batched(h):
    n, num = 16, 30
    template = lattice(n, np.random.default_rng(16))
    for kind, workers in KINDS:
        exec_ = executor_from_name(kind, workers)
        rng = np.random.default_rng(30)
        base = Csr.from_data(exec_, template).get_values().numpy()
        values = base * rng.uniform(0.5, 1.5, size=(num, base.size))
        a = BatchCsr.from_template(exec_, num, template, values)
        rhs = rng.normal(size=(num, n, 1))
        for algorithm in ("cg", "bicgstab"):
            for preconditioner in (None, "jacobi"):
                for criteria in CRITERIA:
                    x = BatchDense.zeros(exec_, num, (n, 1))
                    rep = batch_solve(algorithm, a, BatchDense.from_values(exec_, rhs), x,
                                      criteria, preconditioner)
                    feed(h, x.values, rep.iterations, rep.final_residual_norms, rep.converged,
                         rep.stop_reasons)


def kinetics(h):
    for kind, workers in KINDS:
        rep = run_kinetics_step(1000, backend=kind, worker_count=workers)
        feed(h, rep.solutions, rep.solve.iterations, rep.solve.final_residual_norms,
             rep.solve.stop_reasons)


GROUPS = (heat, euler, solver, batched, kinetics)


def main():
    compiled, totals = kernels._SPARSETOOLS, []
    for body, tools in (("compiled" if compiled is not None else "numpy", compiled),
                        ("numpy", None)):
        kernels._SPARSETOOLS = tools
        total = hashlib.sha256()
        for group in GROUPS:
            h = hashlib.sha256()
            group(h)
            total.update(h.digest())
            print(f"{body:8s} {group.__name__:9s} {h.hexdigest()}")
        print(f"{body:8s} {'total':9s} {total.hexdigest()}")
        totals.append(total.hexdigest())
    kernels._SPARSETOOLS = compiled
    if totals[0] != totals[1]:
        print("the compiled and numpy SpMV bodies gave different bits", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
