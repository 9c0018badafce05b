"""Workload ``heat``: the facade pipeline on 2-D Poisson, reference and parallel(2).

Set-up is the heat app's own assembly plus ``create_solver``.  Every solve
has a seeded random true solution u and b = A u computed here in numpy: the
demo's manufactured right-hand side is an eigenvector of the stencil and
converges in one iteration, which would measure nothing.
"""

from __future__ import annotations

import numpy as np

from linopkit import AppVector, Iteration, ResidualNorm, SolverFactory, SolverOptions
from linopkit.apps.heat import assemble_poisson

from .common import Tally, Tracer, gate, median, now, triplet_spmv
from .layers import (
    KINDS,
    checked_create_solver,
    csr_arrays,
    dense_column,
    facade_solve,
    overhead_metrics,
    setup_metrics,
    solver_metrics,
    traced_setup,
)
from .probes import executor_probes, kernel_probes

GRID = {"full": 200, "tiny": 12}
REDUCTION = 1e-8
MAX_ITERS = 20000
#: ||x_ref - x_par|| / ||u|| above this means the backends disagree.
AGREEMENT = 1e-8
#: Distinct seeded right-hand sides per run.
SYSTEMS = 3
#: Solve index of the warm-up right-hand side, apart from the measured ones.
WARM_UP = 2**31

OPTIONS = SolverOptions("cg", max_iters=MAX_ITERS, reduction_factor=REDUCTION,
                        preconditioner="jacobi")
FACTORY = SolverFactory("cg", criteria=(Iteration(MAX_ITERS), ResidualNorm(REDUCTION)),
                        preconditioner="jacobi")


class Problem:
    """The grid, the benchmark's own copy of the triplets, and seeded right-hand sides."""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.grid = GRID[size]
        self.n = self.grid * self.grid
        trip = np.array(list(assemble_poisson(self.grid)), dtype=np.float64)
        self.rows = trip[:, 0].astype(np.int64)
        self.cols = trip[:, 1].astype(np.int64)
        self.vals = trip[:, 2].copy()
        self.sorted_vals = self.vals[np.lexsort((self.cols, self.rows))]  # converted order

    def rhs(self, index: int):
        """True solution u and b = A u for solve number ``index``."""
        u = np.random.default_rng([self.seed, index]).standard_normal(self.n)
        return u, triplet_spmv(self.rows, self.cols, self.vals, u, self.n)

    def setup(self, tally: Tally, kind: str = "ref"):
        """Raw inputs to a ready solver: the app's assembly plus create_solver."""
        t0 = now()
        matrix = assemble_poisson(self.grid)
        solver = checked_create_solver(tally, kind, matrix, OPTIONS)
        return solver, now() - t0

    def solve(self, tally: Tally, solver, b, tracer=None):
        """One facade solve from x = 0, judged by the independent residual."""
        x = AppVector(self.n)
        elapsed, report = facade_solve(tally, solver, AppVector.from_values(b), x, tracer)
        xa = x.to_array()
        b_norm = np.linalg.norm(b)
        true = np.linalg.norm(b - triplet_spmv(self.rows, self.cols, self.vals, xa, self.n))
        ok = bool(gate(true, b_norm, REDUCTION))
        tally.add(1, 0 if report.converged and ok else 1)
        if report.converged and not ok:
            tally.violations.append(
                f"heat solve reported convergence at ||b-Ax||/||b|| = {true / b_norm:.3e}"
            )
        return elapsed, xa, report


def measure(seed: int, seconds: float, size: str):
    problem = Problem(seed, size)
    tally = Tally()
    solver, elapsed = problem.setup(tally)
    setup = [elapsed]
    solvers = {"ref": solver, "par": problem.setup(tally, "par")[0]}

    _, b = problem.rhs(WARM_UP)
    for kind in KINDS:  # warm-up: checked, not timed or counted
        problem.solve(Tally(), solvers[kind], b)

    # Rounds of one set-up and one solve per kind (alternating which goes
    # first), cycling through a few seeded right-hand sides: each one's
    # solves repeat identical work, and several average out how the
    # iteration count depends on the right-hand side.
    systems = [problem.rhs(index) for index in range(SYSTEMS)]
    times = [{kind: [] for kind in KINDS} for _ in systems]
    iterations = set()
    worst_gap = 0.0
    start = now()
    rounds = 0
    while rounds < 2 * SYSTEMS or now() - start < seconds:
        index = rounds % SYSTEMS
        u, b = systems[index]
        setup.append(problem.setup(tally)[1])
        xs = {}
        for kind in KINDS if rounds % 2 == 0 else KINDS[::-1]:
            elapsed, xs[kind], report = problem.solve(tally, solvers[kind], b)
            times[index][kind].append(elapsed)
            iterations.add(report.iterations)
        gap = float(np.linalg.norm(xs["ref"] - xs["par"]) / np.linalg.norm(u))
        if gap > AGREEMENT:
            tally.violate(f"heat: reference and parallel(2) solutions differ by {gap:.3e}")
        worst_gap = max(worst_gap, gap)
        rounds += 1

    best = {kind: float(np.mean([min(t[kind]) for t in times])) for kind in KINDS}
    metrics = {"setup_s": min(setup), "ref_ms_best": best["ref"] * 1e3}
    named = [("setup_s", metrics["setup_s"], "s", f"best of {len(setup)} set-ups, median {median(setup):.4g}")]
    for kind in KINDS:
        solves = [x for t in times for x in t[kind]]
        named.append((f"solve_s_{kind}", median(solves), "s",
                      f"median of {len(solves)} solves; mean over {SYSTEMS} systems of the best "
                      f"solve {best[kind]:.4g}"))
    notes = [
        f"N={problem.n} nnz={len(problem.vals)}; CG+Jacobi to {REDUCTION:g}; "
        f"iterations per solve {sorted(iterations)}",
        f"worst ||x_ref - x_par|| / ||u|| = {worst_gap:.2e} (limit {AGREEMENT:g})",
    ]
    return metrics, named, notes, tally


def trace(seed: int, seconds: float, size: str, tracer: Tracer):
    problem = Problem(seed, size)
    tally = Tally()
    solver = problem.setup(tally)[0]
    _, b = problem.rhs(0)
    problem.solve(Tally(), solver, b)  # warm-up
    passes = []
    start = now()
    while not passes or now() - start < seconds:
        passes.append(_trace_pass(problem, solver, b, tracer, tally))
    return passes, tally


def _trace_pass(problem: Problem, solver, b, tracer: Tracer, tally: Tally):
    """A fixed program: traced set-up, paired untraced/traced solves, the
    solve again on a span-recording Csr, and the kernel probes."""
    metrics, counts = {}, {}
    mark = len(tracer.spans)
    with tracer.span("apps.assemble"):
        matrix = assemble_poisson(problem.grid)
    with tracer.span("facade.create_solver"):
        checked_create_solver(tally, "ref", matrix, OPTIONS)
    csr, mirror = traced_setup(tracer, matrix, FACTORY)
    for part in (
        setup_metrics(tracer, mark, ("apps.assemble", "facade.create_solver",
                                     "container.matrixdata", "linop.csr_from_data",
                                     "solver.generate")),
        _facade_pass(problem, solver, b, tracer, tally),
        _mirror_pass(problem, mirror, b, tracer),
        kernel_probes(tracer, csr_arrays(csr), np.random.default_rng(problem.seed)),
        executor_probes(tracer),
    ):
        metrics.update(part[0])
        counts.update(part[1])
    return metrics, counts


def _facade_pass(problem, solver, b, tracer, tally):
    mark = len(tracer.spans)
    with tracer.span("facade.update"):  # as an app re-setting its coefficients
        solver.update_matrix_values(problem.sorted_vals)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(problem.solve(tally, solver, b)[0])
        elapsed, _, report = problem.solve(tally, solver, b, tracer)
        traced.append(elapsed)
    iters = tracer.durations("solver.iteration", mark, parent="facade.solve")
    metrics = {"solver.iterations": report.iterations, "solver.iter_us": median(iters) * 1e6,
               "facade.update_ms": tracer.durations("facade.update", mark)[0] * 1e3}
    counts = {"solver.iterations": 1, "solver.iter_us": len(iters), "facade.update_ms": 1}
    overhead = overhead_metrics(untraced, traced)
    return {**metrics, **overhead[0]}, {**counts, **overhead[1]}


def _mirror_pass(problem, mirror, b, tracer):
    mark = len(tracer.spans)
    x = dense_column("ref", np.zeros(problem.n))
    with tracer.span("solver.solve"):
        mirror.solve(dense_column("ref", b), x, callback=tracer.iteration_hook())
        tracer.close_iterations()
    return solver_metrics(tracer, mark)
