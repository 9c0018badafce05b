"""Workload ``batched``: one backward Euler step for many independent kinetics cells.

Each cell is a 16-species reversible chain A0 <-> A1 <-> ... <-> A15 (the
kinetics demo widened from 3 species): tridiagonal 16 x 16, 46 stored
entries, rates log-uniform in 1..1000, dt = 0.01, everything starting as A0.
``batch_solve`` runs BiCGStab + Jacobi over all cells in lockstep on the
reference and parallel(2) kinds; only the ``batched`` layer (and
``run_partitioned``) is exercised.

Some seeds contain cells whose BiCGStab run stops with ``breakdown`` near
convergence; they count as failures and are listed, never re-seeded away.
Each batch counts its cells once per kind, however many times it is solved
again for timing, and every repeat must fail the same cells.
"""

from __future__ import annotations

import numpy as np

from linopkit import (
    AppMatrix,
    AppVector,
    BatchCsr,
    BatchDense,
    Iteration,
    MatrixData,
    ResidualNorm,
    SolverFactory,
    SolverOptions,
    batch_solve,
    copy_stats,
)

from .common import Tally, Tracer, gate, median, now, triplet_spmv
from .layers import (
    KINDS,
    TracedCsr,
    checked_create_solver,
    dense_column,
    executor,
    facade_solve,
    overhead_metrics,
    setup_metrics,
    solver_metrics,
    watch_conversions,
    watch_copies,
)
from .probes import executor_probes, kernel_probes

CELLS = {"full": 20000, "tiny": 200}
SINGLE_LOOP = {"full": 200, "tiny": 20}
SETUPS_PER_ROUND = 4
#: Distinct seeded batches per run.
BATCHES = 4
SPECIES = 16
DT = 0.01
REDUCTION = 1e-10
MAX_ITERS = 100
CRITERIA = (Iteration(MAX_ITERS), ResidualNorm(REDUCTION))
#: Batched results must not depend on the kind; allow rounding only.
AGREEMENT = 1e-12


def _pattern():
    """Row-major, column-sorted (row, col) pattern of the tridiagonal cell matrix."""
    entries = [(i, j) for i in range(SPECIES) for j in (i - 1, i, i + 1) if 0 <= j < SPECIES]
    return np.array([r for r, _ in entries]), np.array([c for _, c in entries])


class Problem:
    """Batch number ``batch`` of a seed: its rates, values and reference residuals."""

    def __init__(self, seed: int, size: str, batch: int = 0):
        self.batch = batch
        self.count = CELLS[size]
        self.single_loop = SINGLE_LOOP[size]
        self.rows, self.cols = _pattern()
        rng = np.random.default_rng([seed, batch])
        self.rates = 10.0 ** rng.uniform(0.0, 3.0, (self.count, 2 * (SPECIES - 1)))
        self.values = self.cell_values()
        self.u_old = np.zeros((self.count, SPECIES, 1))
        self.u_old[:, 0, 0] = 1.0
        b = self.u_old[:, :, 0]
        self.b_norm = np.linalg.norm(b, axis=1)
        self.r0_norm = np.linalg.norm(b - self.apply(b), axis=1)

    def cell_values(self) -> np.ndarray:
        """The app's assembly: every cell's I - dt K in pattern order."""
        forward, backward = self.rates[:, 0::2], self.rates[:, 1::2]  # A_i -> A_i+1, back
        diag = np.ones((self.count, SPECIES))
        diag[:, :-1] += DT * forward
        diag[:, 1:] += DT * backward
        values = np.empty((self.count, len(self.rows)))
        values[:, self.rows == self.cols] = diag
        values[:, self.cols == self.rows + 1] = -DT * backward  # gain from A_i+1
        values[:, self.cols == self.rows - 1] = -DT * forward  # gain from A_i-1
        return values

    def apply(self, x):
        """Every cell's A x, from the benchmark's own copy of the values."""
        return triplet_spmv(self.rows, self.cols, self.values, x, SPECIES)

    def template(self) -> MatrixData:
        return MatrixData((SPECIES, SPECIES), [(r, c, 1.0) for r, c in zip(self.rows, self.cols)])

    def setup(self, tally: Tally, kind: str = "ref"):
        """Raw arrays to solver-ready batch objects."""
        t0 = now()
        before = copy_stats().matrix_conversions
        a = BatchCsr.from_template(executor(kind), self.count, self.template(), self.values)
        b = BatchDense.from_values(executor(kind), self.u_old)
        BatchDense.from_values(executor(kind), self.u_old)
        elapsed = now() - t0
        watch_conversions(tally, before, "BatchCsr.from_template")
        return (a, b), elapsed

    def solve(self, tally: Tally, system, kind: str):
        """One timed batch solve from x = u_old, judged system by system."""
        a, b = system
        x = BatchDense.from_values(executor(kind), self.u_old)
        before = copy_stats().element_copies
        t0 = now()
        report = batch_solve("bicgstab", a, b, x, criteria=CRITERIA, preconditioner="jacobi")
        elapsed = now() - t0
        watch_copies(tally, before, "a batch solve")
        xv = x.values[:, :, 0]
        true = np.linalg.norm(self.u_old[:, :, 0] - self.apply(xv), axis=1)
        ok = gate(true, self.r0_norm, REDUCTION)
        converged = np.asarray(report.converged)
        tally.add_once((f"batch {self.batch}", kind), ~(converged & ok))
        lying = int(np.sum(converged & ~ok))
        if lying:
            tally.violations.append(f"{lying} systems reported convergence the residual does not show")
        return elapsed, xv.copy(), report, true


def measure(seed: int, seconds: float, size: str):
    problems = [Problem(seed, size, batch) for batch in range(BATCHES)]
    tally = Tally()
    setup, systems = [], []
    for problem in problems:
        system, elapsed = problem.setup(tally)
        setup.append(elapsed)
        systems.append({"ref": system, "par": problem.setup(tally, "par")[0]})
    for kind in KINDS:  # warm-up
        problems[0].solve(Tally(), systems[0][kind], kind)

    # Rounds of a few set-ups and one batch solve per kind (alternating
    # which goes first), cycling through the batches: each batch's solves
    # repeat identical work, and several batches average out how the
    # slowest cell of a batch sets the lockstep length.
    times = [{kind: [] for kind in KINDS} for _ in problems]
    outcomes = []
    start = now()
    rounds = 0
    while rounds < 2 * BATCHES or now() - start < seconds:
        batch = rounds % BATCHES
        problem = problems[batch]
        setup += [problem.setup(tally)[1] for _ in range(SETUPS_PER_ROUND)]
        xs = {}
        for kind in KINDS if rounds % 2 == 0 else KINDS[::-1]:
            elapsed, xs[kind], report, true = problem.solve(tally, systems[batch][kind], kind)
            times[batch][kind].append(elapsed)
        if rounds < BATCHES:
            outcomes.append(_outcome(problem, batch, report, true))
        gap = float(np.max(np.abs(xs["ref"] - xs["par"])))
        if gap > AGREEMENT:
            tally.violate(f"batched: reference and parallel(2) differ by {gap:.3e}")
        rounds += 1

    best = {kind: np.mean([min(t[kind]) for t in times]) for kind in KINDS}
    metrics = {"setup_s": min(setup), "ref_ms_best": best["ref"] * 1e3}
    named = [("setup_s", metrics["setup_s"], "s", f"best of {len(setup)} set-ups, median {median(setup):.4g}")]
    for kind in KINDS:
        solves = [x for t in times for x in t[kind]]
        named.append((f"systems_per_s_{kind}", problem.count * len(solves) / sum(solves), "1/s",
                      f"{len(solves)} batch solves of {problem.count}; mean over {BATCHES} batches "
                      f"of the best solve {best[kind] * 1e3:.4g} ms"))
    notes = [f"{problem.count} cells x {SPECIES} species, nnz {len(problem.rows)} each; "
             f"BiCGStab+Jacobi to {REDUCTION:g}"] + outcomes
    return metrics, named, notes, tally


def _outcome(problem: Problem, batch: int, report, true) -> str:
    """One line per batch: iterations, and every cell that did not converge."""
    iters = np.asarray(report.iterations)
    failed = np.flatnonzero(~np.asarray(report.converged))
    cells = ", ".join(
        f"cell {i} {report.stop_reasons[i]} at ||b-Ax||/||b|| = {true[i] / problem.b_norm[i]:.1e}"
        for i in failed
    )
    return (f"batch {batch}: iterations mean {iters.mean():.2f}, max {iters.max()}; "
            f"not converged: {len(failed)}" + (f" ({cells})" if cells else ""))


def trace(seed: int, seconds: float, size: str, tracer: Tracer):
    problem = Problem(seed, size)
    tally = Tally()
    systems = {kind: problem.setup(tally, kind)[0] for kind in KINDS}
    problem.solve(Tally(), systems["ref"], "ref")  # warm-up
    passes = []
    start = now()
    while not passes or now() - start < seconds:
        passes.append(_trace_pass(problem, systems, tracer, tally))
    return passes, tally


def _trace_pass(problem: Problem, systems, tracer: Tracer, tally: Tally):
    """A fixed program: traced set-up, paired untraced/traced batch solves,
    one cell through the facade, a loop of single solves for comparison,
    and the kernel probes."""
    mark = len(tracer.spans)
    with tracer.span("apps.assemble"):
        problem.cell_values()
    with tracer.span("batched.from_template"):
        problem.setup(tally)
    with tracer.span("container.matrixdata"):
        template = problem.template()
    with tracer.span("linop.csr_from_data"):
        TracedCsr.from_data(executor("ref"), template)
    metrics, counts = setup_metrics(
        tracer, mark, ("apps.assemble", "container.matrixdata", "linop.csr_from_data"))

    untraced = [problem.solve(tally, systems["ref"], "ref")[0]]
    with tracer.span("batched.batch_solve.ref"):
        elapsed, _, report, _ = problem.solve(tally, systems["ref"], "ref")
    with tracer.span("batched.batch_solve.par"):
        problem.solve(tally, systems["par"], "par")
    iters = np.asarray(report.iterations)
    loop_metrics, loop_counts, loop_s = _single_loop(problem, tracer)
    metrics.update({
        "batched.iterations_mean": float(iters.mean()),
        "batched.iterations_max": int(iters.max()),
        "batched.lockstep_util": float(iters.sum() / (len(iters) * iters.max())),
        "batched.breakdowns": sum(1 for r in report.stop_reasons if r == "breakdown"),
        "batched.single_loop_slowdown": loop_s / problem.single_loop / (elapsed / problem.count),
    })
    counts.update({key: problem.count for key in metrics if key.startswith("batched.")})
    counts["batched.single_loop_slowdown"] = problem.single_loop
    for part in (
        (loop_metrics, loop_counts),
        _facade_cell(problem, tracer, tally),
        overhead_metrics(untraced, [elapsed]),
        kernel_probes(tracer, _block_diagonal(problem), np.random.default_rng(problem.count)),
        executor_probes(tracer),
    ):
        metrics.update(part[0])
        counts.update(part[1])
    return metrics, counts


def _single_loop(problem: Problem, tracer: Tracer):
    """The first cells one at a time: SolverFactory on a span-recording Csr.

    Returns the solver and SpMV figures of the loop and its total seconds
    (generate + solve per cell).
    """
    factory = SolverFactory("bicgstab", criteria=CRITERIA, preconditioner="jacobi")
    row_ptrs = np.concatenate([[0], np.cumsum(np.bincount(problem.rows, minlength=SPECIES))])
    mark = len(tracer.spans)
    iterations = 0
    for k in range(problem.single_loop):
        csr = TracedCsr.from_arrays(executor("ref"), (SPECIES, SPECIES), row_ptrs, problem.cols,
                                    problem.values[k])
        csr.tracer = tracer
        with tracer.span("solver.generate"):
            solver = factory.generate(csr)
        b = dense_column("ref", problem.u_old[k, :, 0])
        x = dense_column("ref", problem.u_old[k, :, 0])
        with tracer.span("solver.solve"):
            iterations += solver.solve(b, x, callback=tracer.iteration_hook()).iterations
            tracer.close_iterations()
    generate = tracer.durations("solver.generate", mark)
    iters = tracer.durations("solver.iteration", mark, parent="solver.solve")
    metrics, counts = solver_metrics(tracer, mark)
    metrics.update({"solver.generate_s": median(generate), "solver.iterations": iterations,
                    "solver.iter_us": median(iters) * 1e6})
    counts.update({"solver.generate_s": len(generate), "solver.iterations": 1,
                   "solver.iter_us": len(iters)})
    return metrics, counts, sum(generate) + sum(tracer.durations("solver.solve", mark))


def _facade_cell(problem: Problem, tracer: Tracer, tally: Tally):
    """Cell 0 through the facade: create_solver, one solve, one value update."""
    matrix = AppMatrix(SPECIES, SPECIES)
    for r, c, v in zip(problem.rows.tolist(), problem.cols.tolist(), problem.values[0].tolist()):
        matrix.add_entry(r, c, v)
    options = SolverOptions("bicgstab", max_iters=MAX_ITERS, reduction_factor=REDUCTION,
                            preconditioner="jacobi")
    mark = len(tracer.spans)
    with tracer.span("facade.create_solver"):
        solver = checked_create_solver(tally, "ref", matrix, options)
    b, x = (AppVector.from_values(problem.u_old[0, :, 0]) for _ in range(2))
    facade_solve(tally, solver, b, x, tracer)
    with tracer.span("facade.update"):
        solver.update_matrix_values(problem.values[0])
    metrics = {"facade.create_solver_s": tracer.durations("facade.create_solver", mark)[0],
               "facade.update_ms": tracer.durations("facade.update", mark)[0] * 1e3}
    return metrics, {key: 1 for key in metrics}


def _block_diagonal(problem: Problem):
    """The whole batch as one block-diagonal CSR: the batched working set."""
    per = len(problem.rows)
    counts = np.bincount(problem.rows, minlength=SPECIES)
    row_ptrs = np.concatenate([[0], np.cumsum(np.tile(counts, problem.count))])
    offsets = np.repeat(np.arange(problem.count) * SPECIES, per)
    col_idxs = np.tile(problem.cols, problem.count) + offsets
    return row_ptrs, col_idxs, problem.values.ravel().copy()
