"""Workload ``stepping``: implicit Euler for 2-D convection-diffusion via the facade.

(I - dt L) u_{n+1} = u_n + dt f_n with L = eps * laplace - v . grad (central
differences), solved by GMRES(30) + Jacobi, each step starting from the
previous solution.  A Gaussian source circles the domain so every step does
real work.  dt alternates x1.5 / /1.5 every quarter period; each switch calls
``update_matrix_values``, which refreshes the Jacobi diagonal, so the matrix
is written as well as read.

The source is periodic and every period restarts from u = 0 with the base
dt, so each period performs exactly the same steps: medians over whole
periods do not drift with how many periods fit in the time budget.  The
parallel(2) kind, an order of magnitude slower at this size, runs only the
first steps of a period, to check that both kinds agree.
"""

from __future__ import annotations

import numpy as np

from linopkit import AppMatrix, AppVector, Iteration, ResidualNorm, SolverFactory, SolverOptions

from .common import Tally, Tracer, gate, median, now, tail, triplet_spmv
from .layers import (
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

GRID = {"full": 32, "tiny": 8}
PERIOD = {"full": 200, "tiny": 20}
SETUPS_PER_ROUND = 4
#: Steps run on parallel(2), which is an order of magnitude slower here.
PAR_STEPS = 10
EPS = 1.0
VELOCITY = (40.0, 20.0)
SOURCE_WIDTH = 0.05
SOURCE_RADIUS = 0.25
DT = 1e-3
DT_FACTOR = 1.5
REDUCTION = 1e-8
MAX_ITERS = 1000
RESTART = 30
#: ||x_ref - x_par|| / ||x_ref|| above this means the backends disagree.
AGREEMENT = 1e-6

OPTIONS = SolverOptions("gmres", max_iters=MAX_ITERS, reduction_factor=REDUCTION,
                        preconditioner="jacobi")
FACTORY = SolverFactory("gmres", criteria=(Iteration(MAX_ITERS), ResidualNorm(REDUCTION)),
                        preconditioner="jacobi", restart=RESTART)


def _triplets(grid: int):
    """Pattern and the two operator parts of I - dt L: (rows, cols, ident, lap)."""
    h = 1.0 / (grid + 1)
    d = EPS / (h * h)
    vx, vy = VELOCITY
    # neighbour offsets (di, dj) and the coefficient of L on that neighbour
    stencil = ((-1, 0, d + vy / (2 * h)), (1, 0, d - vy / (2 * h)),
               (0, -1, d + vx / (2 * h)), (0, 1, d - vx / (2 * h)))
    i, j = np.divmod(np.arange(grid * grid), grid)
    rows, cols, ident, lap = [i * grid + j], [i * grid + j], [np.ones(grid * grid)], [
        np.full(grid * grid, -4.0 * d)]
    for di, dj, coef in stencil:
        ok = (i + di >= 0) & (i + di < grid) & (j + dj >= 0) & (j + dj < grid)
        rows.append((i * grid + j)[ok])
        cols.append(((i + di) * grid + j + dj)[ok])
        ident.append(np.zeros(ok.sum()))
        lap.append(np.full(ok.sum(), coef))
    return tuple(np.concatenate(part) for part in (rows, cols, ident, lap))


class Problem:
    def __init__(self, seed: int, size: str):
        self.grid = GRID[size]
        self.n = self.grid * self.grid
        self.period = PERIOD[size]
        self.quarter = self.period // 4
        self.rows, self.cols, ident, lap = _triplets(self.grid)
        self.dts = (DT, DT * DT_FACTOR)
        self.vals = [ident - dt * lap for dt in self.dts]
        order = np.lexsort((self.cols, self.rows))  # the facade's converted order
        self.sorted_vals = [v[order] for v in self.vals]

        # The seed sets the source's strength and where on its circle it
        # starts; width and radius stay fixed so seeds keep similar work.
        rng = np.random.default_rng(seed)
        amplitude = rng.uniform(50.0, 150.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sigma, radius = SOURCE_WIDTH, SOURCE_RADIUS
        xs = (np.arange(self.grid) + 1.0) / (self.grid + 1)
        gx, gy = np.meshgrid(xs, xs)
        angle = phase + 2.0 * np.pi * np.arange(self.period) / self.period
        cx = 0.5 + radius * np.cos(angle)
        cy = 0.5 + radius * np.sin(angle)
        dist2 = (gx.ravel()[None, :] - cx[:, None]) ** 2 + (gy.ravel()[None, :] - cy[:, None]) ** 2
        self.source = amplitude * np.exp(-dist2 / (2.0 * sigma * sigma))

    def assemble(self) -> AppMatrix:
        """The app's assembly: one add_entry per triplet, base dt."""
        matrix = AppMatrix(self.n, self.n)
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals[0].tolist()):
            matrix.add_entry(r, c, v)
        return matrix

    def setup(self, tally: Tally, kind: str = "ref"):
        t0 = now()
        solver = checked_create_solver(tally, kind, self.assemble(), OPTIONS, restart=RESTART)
        return solver, now() - t0

    def residual(self, which: int, b, x) -> float:
        return float(np.linalg.norm(b - triplet_spmv(self.rows, self.cols, self.vals[which], x, self.n)))

    def run(self, tally: Tally, solver, steps: int, states=None, compare=None, tracer=None):
        """``steps`` steps of one period from u = 0; returns step times and iterations.

        ``states`` collects each step's solution; ``compare`` holds another
        backend's solutions to check agreement against.
        """
        x, b = AppVector(self.n), AppVector(self.n)
        times, iterations = [], []
        worst_gap = 0.0
        for k in range(steps):
            which = (k // self.quarter) % 2
            b.data()[:] = x.data() + self.dts[which] * self.source[k]
            x_prev = x.data().copy()
            if tracer:
                tracer.begin("apps.step")
            t0 = now()
            if k % self.quarter == 0:
                _update(solver, self.sorted_vals[which], tracer)
            report = facade_solve(tally, solver, b, x, tracer)[1]
            times.append(now() - t0)
            if tracer:
                tracer.end()
            iterations.append(report.iterations)
            xa = x.data()
            ok = bool(gate(self.residual(which, b.data(), xa),
                           self.residual(which, b.data(), x_prev), REDUCTION))
            tally.add(1, 0 if report.converged and ok else 1)
            if report.converged and not ok:
                tally.violations.append(f"step {k} reported convergence the residual does not show")
            if states is not None:
                states.append(xa.copy())
            if compare is not None:
                gap = float(np.linalg.norm(xa - compare[k]) / np.linalg.norm(compare[k]))
                worst_gap = max(worst_gap, gap)
                if gap > AGREEMENT:
                    tally.violate(f"step {k}: reference and parallel(2) differ by {gap:.3e}")
        return times, iterations, worst_gap


def _update(solver, values, tracer):
    if tracer:
        with tracer.span("facade.update"):
            solver.update_matrix_values(values)
    else:
        solver.update_matrix_values(values)


def measure(seed: int, seconds: float, size: str):
    problem = Problem(seed, size)
    tally = Tally()
    solver, elapsed = problem.setup(tally)
    setup = [elapsed]
    solvers = {"ref": solver, "par": problem.setup(tally, "par")[0]}
    # warm-up: the first reference period runs markedly slower than later ones
    problem.run(Tally(), solvers["ref"], problem.period)

    # Rounds of a few set-ups and one reference period.  Step k does the
    # same work in every round, so its best time over the rounds is its time
    # with the host at full speed.
    rows = []
    iterations = []
    states: list = []
    start = now()
    while len(rows) < 2 or now() - start < seconds:
        setup += [problem.setup(tally)[1] for _ in range(SETUPS_PER_ROUND)]
        record = states if not states else None  # the first reference period
        t, its, _ = problem.run(tally, solvers["ref"], problem.period, states=record)
        rows.append(t)
        iterations += its
    # parallel(2) is an order of magnitude slower at this size: a few steps,
    # for the backend agreement check and the printed figure only
    par, _, worst_gap = problem.run(tally, solvers["par"], PAR_STEPS, compare=states)

    ref_ms = np.concatenate(rows) * 1e3
    p, tail_ms = tail(ref_ms)
    metrics = {
        "setup_s": min(setup),
        "ref_ms_best": median(np.min(np.asarray(rows), axis=0)) * 1e3,
    }
    beyond = int(np.sum(ref_ms > tail_ms)) if p else 0
    named = [
        ("setup_s", metrics["setup_s"], "s", f"best of {len(setup)} set-ups, median {median(setup):.4g}"),
        ("steps_per_s", len(ref_ms) / (ref_ms.sum() / 1e3), "1/s", f"{len(ref_ms)} reference steps"),
        ("step_ms_p50", median(ref_ms), "ms",
         f"median of {len(ref_ms)} steps; median over steps of their best of "
         f"{len(rows)} periods {metrics['ref_ms_best']:.4g}"),
        ("step_ms_tail", tail_ms, "ms",
         f"p{p:g} of {len(ref_ms)} steps, {beyond} beyond" if p else "too few steps"),
    ]
    notes = [
        f"N={problem.n} nnz={len(problem.rows)}; GMRES({RESTART})+Jacobi to {REDUCTION:g}; "
        f"iterations per step {min(iterations)}..{max(iterations)} (mean {np.mean(iterations):.1f})",
        f"parallel(2) step median {median(par) * 1e3:.2f} ms over {len(par)} steps; "
        f"worst ||x_ref - x_par|| / ||x_ref|| = {worst_gap:.2e} (limit {AGREEMENT:g})",
    ]
    return metrics, named, notes, tally


def trace(seed: int, seconds: float, size: str, tracer: Tracer):
    problem = Problem(seed, size)
    tally = Tally()
    solver = problem.setup(tally)[0]
    problem.run(Tally(), solver, problem.quarter)  # warm-up
    passes = []
    start = now()
    while not passes or now() - start < seconds:
        passes.append(_trace_pass(problem, solver, tracer, tally))
    return passes, tally


def _trace_pass(problem: Problem, solver, tracer: Tracer, tally: Tally):
    """A fixed program: traced set-up, an untraced and a traced period, a
    quarter period on a span-recording Csr, and the kernel probes."""
    metrics, counts = {}, {}
    mark = len(tracer.spans)
    with tracer.span("apps.assemble"):
        matrix = problem.assemble()
    with tracer.span("facade.create_solver"):
        checked_create_solver(tally, "ref", matrix, OPTIONS, restart=RESTART)
    csr, mirror = traced_setup(tracer, matrix, FACTORY)
    for part in (
        setup_metrics(tracer, mark, ("apps.assemble", "facade.create_solver",
                                     "container.matrixdata", "linop.csr_from_data",
                                     "solver.generate")),
        _facade_pass(problem, solver, tracer, tally),
        _mirror_pass(problem, csr, mirror, tracer),
        kernel_probes(tracer, csr_arrays(csr), np.random.default_rng(problem.n)),
        executor_probes(tracer),
    ):
        metrics.update(part[0])
        counts.update(part[1])
    return metrics, counts


def _facade_pass(problem, solver, tracer, tally):
    untraced = problem.run(tally, solver, problem.period)[0]
    mark = len(tracer.spans)
    traced, iterations, _ = problem.run(tally, solver, problem.period, tracer=tracer)
    iters = tracer.durations("solver.iteration", mark, parent="facade.solve")
    updates = tracer.durations("facade.update", mark)
    metrics = {
        "solver.iterations": sum(iterations),
        "solver.iter_us": median(iters) * 1e6,
        "facade.update_ms": median(updates) * 1e3,
    }
    counts = {"solver.iterations": 1, "solver.iter_us": len(iters),
              "facade.update_ms": len(updates)}
    overhead = overhead_metrics(untraced, traced)
    return {**metrics, **overhead[0]}, {**counts, **overhead[1]}


def _mirror_pass(problem, csr, mirror, tracer):
    """A quarter period through Csr.update_values / Solver.refresh / solve."""
    mark = len(tracer.spans)
    csr.update_values(problem.sorted_vals[0])
    mirror.refresh()
    x = dense_column("ref", np.zeros(problem.n))
    b = dense_column("ref", np.zeros(problem.n))
    for k in range(problem.quarter):
        b.view2d()[:, 0] = x.view2d()[:, 0] + problem.dts[0] * problem.source[k]
        with tracer.span("solver.solve"):
            mirror.solve(b, x, callback=tracer.iteration_hook())
            tracer.close_iterations()
    return solver_metrics(tracer, mark)
