"""Differential properties: a system gets the same answer wherever it is solved.

Hypothesis draws small systems (n = 1-40: SPD, nonsymmetric diagonally
dominant or the identity, some right-hand sides zero) and checks two
relations bit for bit, on the reference and ``parallel(2)`` executors and on
both SpMV bodies:

1. a column solved alone and the same column among k others get the same x,
   and the multi-column report is the aggregate of the lone reports
   (iteration maximum, the first unconverged column's stop reason, norms
   combined in the Frobenius sense), for cg, bicgstab, gmres (restart 4) and
   gmres_lu, with and without Jacobi;
2. a system of a cg or bicgstab batch gets the x, iteration count, stop reason
   and final residual norm of its single solve over ``extract_system``.

The profile is derandomized with a fixed ``max_examples``, so every run draws
the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linopkit import kernels
from linopkit.batched import BatchCsr, BatchDense, batch_solve
from linopkit.container import MatrixData
from linopkit.errors import BreakdownError
from linopkit.executor import executor_from_name
from linopkit.linop import Csr
from linopkit.solver import (
    STOP_BREAKDOWN,
    STOP_RESIDUAL,
    Iteration,
    ResidualNorm,
    SolverFactory,
)

from helpers import COMPILED_SPMV, dense_from_numpy

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROPERTY = settings(max_examples=8, deadline=None, derandomize=True, database=None)
KINDS = ("spd", "dd", "identity")
RESTART = 4


@pytest.fixture(scope="module", params=["reference", "parallel"])
def exec_(request):
    return executor_from_name(request.param, 2 if request.param == "parallel" else None)


@pytest.fixture(scope="module", params=["compiled", "numpy"])
def body(request):
    """Select an SpMV body for the module's tests; compiled is skipped without scipy."""
    if request.param == "compiled" and COMPILED_SPMV is None:
        pytest.skip("scipy's sparsetools is not available")
    kernels._SPARSETOOLS = COMPILED_SPMV if request.param == "compiled" else None
    yield request.param
    kernels._SPARSETOOLS = COMPILED_SPMV


@st.composite
def systems(draw, min_count, max_count):
    """``(n, rows, cols, values, b, x0, criteria)``: ``values`` holds
    ``min_count`` to ``max_count`` matrices of one kind on one pattern (row-major positions
    ``rows``, ``cols``), and ``b`` and ``x0`` one vector each."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(KINDS))
    count = draw(st.integers(min_count, max_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "identity":
        mask = np.eye(n, dtype=bool)
    else:
        mask = rng.random((n, n)) < draw(st.sampled_from([0.1, 0.4, 1.0]))
        mask |= mask.T | np.eye(n, dtype=bool)
    rows, cols = np.nonzero(mask)
    values = []
    for _ in range(count):
        m = np.eye(n) if kind == "identity" else rng.normal(size=(n, n)) * mask
        if kind == "spd":
            m = 0.5 * (m + m.T)
        if kind != "identity":  # strictly diagonally dominant, the diagonal positive
            np.fill_diagonal(m, 0.0)
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + rng.uniform(0.1, 2.0, n))
        values.append(m[rows, cols])
    b = rng.normal(size=(count, n)) * rng.uniform(1e-3, 1e3, (count, 1))
    b[rng.random(count) < 0.25] = 0.0
    x0 = np.zeros((count, n)) if draw(st.booleans()) else rng.normal(size=(count, n))
    criteria = (Iteration(draw(st.integers(0, 60))),
                ResidualNorm(draw(st.sampled_from([1e-14, 1e-10, 1e-4]))))
    return n, rows, cols, np.array(values), b, x0, criteria


def matrix_data(n, rows, cols, values):
    data = MatrixData((n, n))
    data.add_entries(rows, cols, values)
    return data


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def solve(solver, b, x0):
    """x and (iterations, stop reason, final norm) of one solve from ``x0``;
    a breakdown reports its stop reason, as a batch does."""
    exec_ = solver.executor
    x = dense_from_numpy(exec_, x0)
    try:
        rep = solver.solve(dense_from_numpy(exec_, b), x)
        return x.view2d().copy(), (rep.iterations, rep.stop_reason, rep.final_residual_norm)
    except BreakdownError as err:
        return x.view2d().copy(), (err.iterations, STOP_BREAKDOWN, err.residual_norm)


@pytest.mark.parametrize("preconditioner", [None, "jacobi"])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres", "gmres_lu"])
@PROPERTY
@given(case=systems(2, 4))
def test_a_column_gets_its_lone_bits_among_others(exec_, body, algorithm, preconditioner, case):
    n, rows, cols, values, b, x0, criteria = case
    a = Csr.from_data(exec_, matrix_data(n, rows, cols, values[0]))
    solver = SolverFactory(algorithm, criteria, preconditioner, RESTART).generate(a)
    alone = [solve(solver, b[j], x0[j]) for j in range(len(b))]
    x, (iterations, reason, final) = solve(solver, b.T, x0.T)
    for j, (xj, _) in enumerate(alone):
        assert np.array_equal(bits(x[:, j]), bits(xj[:, 0])), j
    reports = [rep for _, rep in alone]
    assert iterations == max(it for it, _, _ in reports)
    assert final == math.hypot(*(norm for _, _, norm in reports))
    unconverged = [r for _, r, _ in reports if r != STOP_RESIDUAL]
    if STOP_BREAKDOWN not in unconverged:  # a breakdown raises, without the others' reasons
        assert reason == (unconverged or [reports[0][1]])[0]


@pytest.mark.parametrize("preconditioner", [None, "jacobi"])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
@PROPERTY
@given(case=systems(1, 6))
def test_a_batched_system_gets_its_single_solve(exec_, body, algorithm, preconditioner, case):
    n, rows, cols, values, b, x0, criteria = case
    count = len(values)
    a = BatchCsr.from_template(exec_, count, matrix_data(n, rows, cols, values[0]), values)
    x = BatchDense.from_values(exec_, x0[:, :, None])
    rep = batch_solve(algorithm, a, BatchDense.from_values(exec_, b[:, :, None]), x,
                      criteria, preconditioner)
    factory = SolverFactory(algorithm, criteria, preconditioner)
    for k in range(count):
        xk, (iterations, reason, final) = solve(factory.generate(a.extract_system(k)), b[k], x0[k])
        assert np.array_equal(bits(x.values[k, :, 0]), bits(xk[:, 0])), k
        assert (rep.iterations[k], rep.stop_reasons[k]) == (iterations, reason), k
        assert rep.final_residual_norms[k] == final, k
