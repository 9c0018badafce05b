"""Differential properties: a system gets the same answer wherever it is solved.

Hypothesis draws small systems (n = 1-40: SPD, nonsymmetric diagonally
dominant, near-singular SPD or the identity, some with rows that store no
entry; some right-hand sides zero, some holding NaN, inf or an entry whose
square overflows) and checks three relations bit for bit, on the reference
and ``parallel(2)`` executors and on both SpMV bodies:

1. a column solved alone and the same column among k others get the same x
   (from ``BreakdownError.best`` when a column breaks down), and the
   multi-column report is the aggregate of the lone reports (iteration
   maximum, the first unconverged column's stop reason, norms combined in the
   Frobenius sense, a breakdown message one of the lone ones), for cg,
   bicgstab, gmres (restart 4), gmres_lu and lu, with and without Jacobi;
2. a system of a cg or bicgstab batch gets the x, iteration count, stop reason
   and final residual norm of its single solve over ``extract_system``, and
   stops as ``singular_preconditioner`` where that solver's Jacobi set-up
   raises;
3. a matrix over the caller's int64 arrays (the public constructor, so the
   numpy body) and the same matrix from ``Csr.from_arrays`` (int32 indices,
   so the compiled body when scipy is installed) give every column the same
   x, iteration count, stop reason and final residual norm.

A set-up that refuses the matrix (Jacobi or LU on a row with no stored
diagonal, LU on a pivot too small) leaves relations 1 and 3 nothing to compare.

The profile is derandomized with a fixed ``max_examples``, so every run draws
the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linopkit import kernels
from linopkit.batched import BatchCsr, BatchDense, batch_solve
from linopkit.container import MatrixData, array_view
from linopkit.errors import BreakdownError, SingularMatrixError, SingularPreconditionerError
from linopkit.executor import executor_from_name
from linopkit.linop import Csr
from linopkit.solver import (
    STOP_BREAKDOWN,
    STOP_DIRECT,
    STOP_RESIDUAL,
    STOP_SINGULAR_PRECONDITIONER,
    Iteration,
    ResidualNorm,
    SolverFactory,
)

from helpers import COMPILED_SPMV, dense_from_numpy

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROPERTY = settings(max_examples=8, deadline=None, derandomize=True, database=None)
KINDS = ("spd", "dd", "near_singular", "identity")
#: What poisons a column of b: NaN, inf, or an entry whose square overflows ||b||.
POISONS = (np.nan, np.inf, 1e300)
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
    mask[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.2]))] = False  # rows storing nothing
    rows, cols = np.nonzero(mask)
    values = []
    for _ in range(count):
        m = np.eye(n) if kind == "identity" else rng.normal(size=(n, n)) * mask
        if kind in ("spd", "near_singular"):
            m = 0.5 * (m + m.T)
        if kind != "identity":  # strictly diagonally dominant, the diagonal positive
            np.fill_diagonal(m, 0.0)
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + rng.uniform(0.1, 2.0, n))
        if kind == "near_singular":  # the least eigenvalue moved to 1e-13 - 1e-7 of the largest
            eigs = np.linalg.eigvalsh(m)
            m -= (eigs[0] - 10.0 ** rng.uniform(-13, -7) * eigs[-1]) * np.eye(n)
        values.append(m[rows, cols])
    b = rng.normal(size=(count, n)) * rng.uniform(1e-3, 1e3, (count, 1))
    b[rng.random(count) < 0.25] = 0.0
    poisoned = rng.random(count) < draw(st.sampled_from([0.0, 0.0, 0.5]))
    b[poisoned, rng.integers(n)] = draw(st.sampled_from(POISONS))
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


def same(p, q):
    """Equal floats, NaN equal to NaN."""
    return p == q or (math.isnan(p) and math.isnan(q))


def set_up(factory, a):
    """``factory.generate(a)``, or None where the set-up refuses ``a``."""
    try:
        return factory.generate(a)
    except (SingularMatrixError, SingularPreconditionerError):
        return None


def solve(solver, b, x0):
    """x, (iterations, stop reason, final norm) and the breakdown message (or None)
    of one solve from ``x0``; a breakdown reports its stop reason, as a batch does,
    and its x is the error's ``best``."""
    exec_ = solver.executor
    x = dense_from_numpy(exec_, x0)
    try:
        rep = solver.solve(dense_from_numpy(exec_, b), x)
        return x.view2d().copy(), (rep.iterations, rep.stop_reason, rep.final_residual_norm), None
    except BreakdownError as err:
        return (err.best.view2d().copy(), (err.iterations, STOP_BREAKDOWN, err.residual_norm),
                str(err))


@pytest.mark.parametrize("preconditioner", [None, "jacobi"])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres", "gmres_lu", "lu"])
@PROPERTY
@given(case=systems(2, 4))
def test_a_column_gets_its_lone_bits_among_others(exec_, body, algorithm, preconditioner, case):
    n, rows, cols, values, b, x0, criteria = case
    a = Csr.from_data(exec_, matrix_data(n, rows, cols, values[0]))
    solver = set_up(SolverFactory(algorithm, criteria, preconditioner, RESTART), a)
    if solver is None:
        return
    alone = [solve(solver, b[j], x0[j]) for j in range(len(b))]
    x, (iterations, reason, final), message = solve(solver, b.T, x0.T)
    for j, (xj, _, _) in enumerate(alone):
        assert np.array_equal(bits(x[:, j]), bits(xj[:, 0])), j
    reports = [rep for _, rep, _ in alone]
    assert iterations == max(it for it, _, _ in reports)
    assert same(final, math.hypot(*(norm for _, _, norm in reports)))
    messages = {m for _, _, m in alone if m}
    assert message in messages if messages else message is None
    unconverged = [r for _, r, _ in reports if r not in (STOP_RESIDUAL, STOP_DIRECT)]
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
        single = set_up(factory, a.extract_system(k))
        if single is None:  # a Jacobi diagonal the batch finds singular too
            assert (rep.iterations[k], rep.stop_reasons[k]) == (0, STOP_SINGULAR_PRECONDITIONER), k
            assert np.array_equal(bits(x.values[k, :, 0]), bits(x0[k])), k
            continue
        xk, (iterations, reason, final), _ = solve(single, b[k], x0[k])
        assert np.array_equal(bits(x.values[k, :, 0]), bits(xk[:, 0])), k
        assert (rep.iterations[k], rep.stop_reasons[k]) == (iterations, reason), k
        assert same(rep.final_residual_norms[k], final), k


@pytest.mark.parametrize("preconditioner", [None, "jacobi"])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres", "gmres_lu"])
@PROPERTY
@given(case=systems(1, 3))
def test_a_matrix_gets_the_same_bits_at_either_index_width(exec_, body, algorithm,
                                                            preconditioner, case):
    n, rows, cols, values, b, x0, criteria = case  # np.nonzero's order is CSR normal form
    row_ptrs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptrs[1:])
    arrays = (row_ptrs, cols.astype(np.int64), values[0].copy())
    callers = Csr(exec_, (n, n), *(array_view(exec_, len(a), a) for a in arrays))
    owned = Csr.from_arrays(exec_, (n, n), *arrays)
    uncopied = callers._pattern.col_idxs
    assert uncopied.dtype == np.int64
    assert np.shares_memory(uncopied, arrays[1]) or not uncopied.size  # nothing to share
    assert not callers._pattern.frozen()
    assert owned._pattern.col_idxs.dtype == np.int32 and owned._pattern.frozen()
    wide, narrow = (set_up(SolverFactory(algorithm, criteria, preconditioner, RESTART), a)
                    for a in (callers, owned))
    if wide is None:
        assert narrow is None
        return
    for j in range(len(b)):
        (x64, rep64, msg64), (x32, rep32, msg32) = (solve(s, b[j], x0[j]) for s in (wide, narrow))
        assert np.array_equal(bits(x64), bits(x32)) and msg64 == msg32, j
        assert rep64[:2] == rep32[:2] and same(rep64[2], rep32[2]), j
