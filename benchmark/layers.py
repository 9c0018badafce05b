"""Benchmark-side views into linopkit's layers, built from its public API.

The facade builds its Csr and Solver internally, so the traced runs repeat
its set-up one public call at a time (``MatrixData`` -> ``Csr.from_data`` ->
``SolverFactory.generate``) on :class:`TracedCsr`, a subclass whose
applications record ``linop.spmv`` spans.  Nothing in the library itself is
instrumented.
"""

from __future__ import annotations

from linopkit import (
    AppVector,
    Csr,
    Dense,
    MatrixData,
    copy_stats,
    create_solver,
    executor_from_name,
)

from .common import Tally, Tracer, median, now

KINDS = ("ref", "par")


def executor(kind: str):
    return executor_from_name("reference") if kind == "ref" else executor_from_name("parallel", 2)


class TracedCsr(Csr):
    """A Csr whose applications record ``linop.spmv`` spans on ``tracer``."""

    tracer: Tracer

    def apply(self, b, x):
        with self.tracer.span("linop.spmv"):
            super().apply(b, x)

    def advanced_apply(self, alpha, b, beta, x):
        with self.tracer.span("linop.spmv"):
            super().advanced_apply(alpha, b, beta, x)


def checked_create_solver(tally: Tally, kind: str, matrix, options, **kwargs):
    """``create_solver`` plus the C9 check: exactly one matrix conversion."""
    before = copy_stats().matrix_conversions
    solver = create_solver(executor(kind), matrix, options, **kwargs)
    watch_conversions(tally, before, "create_solver")
    return solver


def watch_conversions(tally: Tally, before: int, what: str) -> None:
    conversions = copy_stats().matrix_conversions - before
    tally.conversions += conversions
    tally.setups_watched += 1
    if conversions != 1:
        tally.violate(f"{what} made {conversions} matrix conversions, expected 1", 0)


def watch_copies(tally: Tally, before: int, what: str) -> None:
    copies = copy_stats().element_copies - before
    tally.element_copies += copies
    tally.solves_watched += 1
    if copies:
        tally.violate(f"{what} copied {copies} vector elements", 0)


def facade_solve(tally: Tally, solver, b: AppVector, x: AppVector, tracer: Tracer | None = None):
    """One timed facade solve; any copied vector element is a violation.

    With a tracer, the solve is a ``facade.solve`` span and each iteration,
    seen through the facade's ``iteration_callback``, a child span.
    """
    solver.iteration_callback = tracer.iteration_hook() if tracer else None
    before = copy_stats().element_copies
    if tracer:
        tracer.begin("facade.solve")
    t0 = now()
    report = solver.solve(b, x)
    elapsed = now() - t0
    if tracer:
        tracer.close_iterations()
        tracer.end()
    watch_copies(tally, before, "a facade solve")
    return elapsed, report


def traced_setup(tracer: Tracer, matrix, factory, kind: str = "ref"):
    """The facade's set-up, one public call per span, on a TracedCsr."""
    n = matrix.num_rows
    with tracer.span("container.matrixdata"):
        data = MatrixData((n, matrix.num_cols), matrix)
    with tracer.span("linop.csr_from_data"):
        csr = TracedCsr.from_data(executor(kind), data)
    csr.tracer = tracer
    with tracer.span("solver.generate"):
        solver = factory.generate(csr)
    return csr, solver


def dense_column(kind: str, values) -> Dense:
    d = Dense.create(executor(kind), (len(values), 1))
    d.view2d()[:, 0] = values
    return d


def csr_arrays(csr: Csr):
    return (
        csr.get_row_ptrs().numpy(),
        csr.get_col_idxs().numpy(),
        csr.get_values(const=True).numpy(),
    )


def solver_metrics(tracer: Tracer, mark: int) -> tuple[dict, dict]:
    """SpMV and per-iteration figures from the ``solver.solve`` spans since ``mark``.

    Iteration spans run from one solver callback to the next; the part of
    them not covered by SpMV spans is the solver's own time.
    """
    solves = tracer.durations("solver.solve", mark)
    spmv = tracer.durations("linop.spmv", mark)
    iters = tracer.durations("solver.iteration", mark, parent="solver.solve")
    spmv_in_iters = tracer.child_time("solver.iteration", "linop.spmv", mark)
    metrics = {
        "linop.spmv_calls": len(spmv) / len(solves),
        "linop.spmv_us": median(spmv) * 1e6,
        "linop.spmv_share": sum(spmv) / sum(solves),
        "solver.self_us_per_iter": (sum(iters) - spmv_in_iters) / len(iters) * 1e6,
    }
    counts = {
        "linop.spmv_calls": len(solves),
        "linop.spmv_us": len(spmv),
        "linop.spmv_share": len(solves),
        "solver.self_us_per_iter": len(iters),
    }
    return metrics, counts


def setup_metrics(tracer: Tracer, mark: int, names) -> tuple[dict, dict]:
    """Seconds of each named set-up span since ``mark`` (one span each)."""
    metrics = {f"{name}_s": sum(tracer.durations(name, mark)) for name in names}
    return metrics, {key: 1 for key in metrics}


def overhead_metrics(untraced, traced) -> tuple[dict, dict]:
    """Traced minus untraced time of the same end-to-end unit."""
    base = median(untraced)
    diff = median(traced) - base
    metrics = {"trace.overhead_ms": diff * 1e3, "trace.overhead_share": diff / base}
    return metrics, {key: len(traced) + len(untraced) for key in metrics}
