"""Executor creation, kernel dispatch, and backend equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linopkit.container import Dim, array_view
from linopkit.errors import (
    ConfigurationError,
    InvalidArgumentError,
    UnsupportedBackendError,
)
from linopkit.executor import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorKind,
    create_executor,
    dispatch,
    executor_from_name,
    register_kernel,
    split_ranges,
)
from linopkit import kernels
from linopkit.facade import AppVector
from linopkit.kernels import REDUCTION_TILE
from linopkit.linop import Dense

ALL_KERNELS = (
    "fill", "copy", "scale", "axpy", "aypx", "waxpby", "diag_scale",
    "dot", "norm2", "spmv", "spmv_advanced",
    "dense_apply", "dense_apply_advanced", "run_partitioned",
)


class TestCreation:
    def test_reference_is_a_singleton(self, par):
        a = create_executor(ExecutorKind.REFERENCE)
        b = create_executor(ExecutorKind.REFERENCE)
        assert a is b
        assert a.kind is ExecutorKind.REFERENCE

    def test_reference_runs_serially_regardless_of_worker_count(self):
        assert create_executor(ExecutorKind.REFERENCE, 8).worker_count == 1

    def test_parallel_worker_count(self):
        assert create_executor(ExecutorKind.PARALLEL, 3).worker_count == 3
        assert create_executor(ExecutorKind.PARALLEL).worker_count >= 1

    @pytest.mark.parametrize("kind", [ExecutorKind.REFERENCE, ExecutorKind.PARALLEL])
    @pytest.mark.parametrize("count", [0, -1])
    def test_bad_worker_count_rejected(self, kind, count):
        with pytest.raises(InvalidArgumentError, match="worker_count"):
            create_executor(kind, count)

    def test_executor_is_immutable(self, ref):
        with pytest.raises(AttributeError):
            ref.worker_count = 2

    def test_from_name(self):
        assert executor_from_name("reference").kind is ExecutorKind.REFERENCE
        assert executor_from_name("parallel", 2) == Executor(ExecutorKind.PARALLEL, 2)

    @pytest.mark.parametrize("name", ["simd", "Reference", "PARALLEL", ""])
    def test_from_name_rejects_unknown_spellings(self, name):
        with pytest.raises(ConfigurationError) as err:
            executor_from_name(name)
        assert "parallel, reference" in str(err.value)

    def test_name_table_covers_both_kinds(self):
        assert set(EXECUTOR_NAMES.values()) == set(ExecutorKind)


class TestDispatch:
    def test_all_kernels_registered_for_both_kinds(self, ref, par):
        for name in ALL_KERNELS:
            for exec_ in (ref, par):
                assert callable(dispatch(exec_, name)), (name, exec_)

    def test_unknown_kernel_raises_without_fallback(self, ref, par):
        for exec_ in (ref, par):
            with pytest.raises(UnsupportedBackendError, match="no_such_kernel"):
                dispatch(exec_, "no_such_kernel")

    def test_dispatched_callable_is_bound_to_the_executor(self, ref):
        out = np.zeros((4, 1))
        dispatch(ref, "fill")(out, 2.5)
        assert (out == 2.5).all()

    def test_bound_callable_is_cached_per_executor_and_name(self, ref):
        par = executor_from_name("parallel", 3)
        assert dispatch(par, "axpy") is dispatch(par, "axpy")
        assert dispatch(par, "axpy") is not dispatch(par, "aypx")
        assert dispatch(ref, "axpy") is not dispatch(par, "axpy")
        twin = Executor(ExecutorKind.PARALLEL, 3)
        assert twin == par and hash(twin) == hash(par)
        assert dispatch(twin, "axpy").args[0] is twin
        assert repr(twin) == "Executor(kind=<ExecutorKind.PARALLEL: 'parallel'>, worker_count=3)"

    def test_a_kernel_is_registered_once_per_kind(self, ref, par):
        # one registration per name serves every kind
        with pytest.raises(InvalidArgumentError, match="already registered"):
            register_kernel("axpy")(lambda exec_, y, alpha, x: None)
        assert dispatch(ref, "axpy").func is dispatch(par, "axpy").func
        out = np.zeros((2, 1))
        dispatch(create_executor(ExecutorKind.REFERENCE), "axpy")(out, 2.0, np.ones((2, 1)))
        assert (out == 2.0).all()


class TestSplitRanges:
    @given(
        n=st.integers(min_value=0, max_value=5000),
        parts=st.integers(min_value=1, max_value=16),
    )
    def test_partition_properties(self, n, parts):
        ranges = split_ranges(n, parts)
        if n == 0:
            assert ranges == []
            return
        # contiguous cover of [0, n)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (_, hi), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi == lo2
        assert len(ranges) == min(parts, n)  # one worker, one range
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1

    def test_deterministic(self):
        assert split_ranges(1000, 7) == split_ranges(1000, 7)


def _rand(rng, shape):
    return rng.normal(size=shape)


PARALLEL_WORKERS = (1, 2, 3, 4)


class TestBackendEquivalence:
    """Reference and parallel kernels must agree bitwise, and parallel must
    not depend on the worker count: every kernel runs the same body on both
    kinds.
    """

    N = 1801

    def _cases(self, rng):
        n = self.N
        x = _rand(rng, (n, 2))
        y = _rand(rng, (n, 2))
        d = _rand(rng, (n,))
        return x, y, d

    def _elementwise_calls(self, rng):
        x, y, d = self._cases(rng)
        return y, {
            "fill": lambda e, out: dispatch(e, "fill")(out, 3.25),
            "copy": lambda e, out: dispatch(e, "copy")(out, x),
            "scale": lambda e, out: dispatch(e, "scale")(out, 1.7),
            "axpy": lambda e, out: dispatch(e, "axpy")(out, -0.3, x),
            "aypx": lambda e, out: dispatch(e, "aypx")(out, 2.1, x),
            "waxpby": lambda e, out: dispatch(e, "waxpby")(out, 1.2, x, -0.7, y),
            "diag_scale": lambda e, out: dispatch(e, "diag_scale")(out, d, x),
        }

    def test_elementwise_bitwise_ref_vs_par(self, ref, rng):
        y, cases = self._elementwise_calls(rng)
        for name, run in cases.items():
            a = y.copy()
            run(ref, a)
            for wc in PARALLEL_WORKERS:
                b = y.copy()
                run(executor_from_name("parallel", wc), b)
                assert np.array_equal(a, b), (name, wc)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * inf, inf - inf
    @pytest.mark.parametrize("alias", ["none", "x", "y"])
    def test_waxpby_bitwise_equal_to_the_two_temporary_formula(self, ref, rng, alias):
        x, y, _ = self._cases(rng)
        for v in (x, y):
            v[::5, 0] = -0.0
            v[1::7, 1] = np.inf
            v[2::11, 0] = np.nan
        y[1::14, 1] = -np.inf
        y[2::22, 0] = -np.nan  # both NaN: the operand order picks the sign
        executors = [ref] + [executor_from_name("parallel", wc) for wc in PARALLEL_WORKERS]
        for alpha, beta in ((1.2, -0.7), (0.0, -1.0), (-0.0, 0.5), (-1.0, -0.0)):
            expected = alpha * x + beta * y  # the formula the kernel replaced
            for exec_ in executors:
                xs, ys = x.copy(), y.copy()
                w = {"none": np.full_like(x, 7.0), "x": xs, "y": ys}[alias]
                dispatch(exec_, "waxpby")(w, alpha, xs, beta, ys)
                assert _same_bits(w, expected), (alpha, beta, exec_)

    def test_pool_only_for_run_partitioned(self, rng, monkeypatch):
        pool_calls = []
        real_pool = kernels.worker_pool
        monkeypatch.setattr(
            kernels, "worker_pool", lambda e: pool_calls.append(1) or real_pool(e)
        )
        par = executor_from_name("parallel", 2)
        n = self.N
        y, cases = self._elementwise_calls(rng)
        a = _rand(rng, (n, n // 100))
        rp = np.arange(n + 1, dtype=np.int64)
        ids = np.arange(n, dtype=np.int64)
        cases.update({
            "dot": lambda e, out: dispatch(e, "dot")(out, out),
            "norm2": lambda e, out: dispatch(e, "norm2")(out),
            "spmv": lambda e, out: dispatch(e, "spmv")(rp, ids, ids, y[:, 0].copy(), y, out),
            "spmv_advanced": lambda e, out: dispatch(e, "spmv_advanced")(
                rp, ids, ids, y[:, 0].copy(), 2.0, y, 0.5, out
            ),
            "dense_apply": lambda e, out: dispatch(e, "dense_apply")(a.T, out, np.zeros((n // 100, 2))),
            "dense_apply_advanced": lambda e, out: dispatch(e, "dense_apply_advanced")(
                a.T, 2.0, out, 0.5, np.zeros((n // 100, 2))
            ),
        })
        assert set(cases) == set(ALL_KERNELS) - {"run_partitioned"}
        for name, run in cases.items():
            run(par, y.copy())
            assert not pool_calls, name
        dispatch(par, "run_partitioned")(2, lambda lo, hi: None)
        assert pool_calls

    def test_reduction_grid_is_fixed_not_worker_derived(self, rng):
        # spans several tiles so the tiled path actually runs
        n = 3 * REDUCTION_TILE + 123
        a = _rand(rng, (n, 2))
        b = _rand(rng, (n, 2))
        results = [
            dispatch(executor_from_name("parallel", wc), "dot")(a, b)
            for wc in (1, 2, 4, 8)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    def test_reductions_bitwise_across_kinds_and_worker_counts(self, ref, rng):
        n = 3 * REDUCTION_TILE + 123
        a = _rand(rng, (n, 2))
        b = _rand(rng, (n, 2))
        dr = dispatch(ref, "dot")(a, b)
        nr = dispatch(ref, "norm2")(a)
        for wc in (1, 2, 4):
            par = executor_from_name("parallel", wc)
            assert np.array_equal(dr, dispatch(par, "dot")(a, b)), wc
            assert np.array_equal(nr, dispatch(par, "norm2")(a)), wc

    @pytest.mark.parametrize("n", [0, 1, 7, REDUCTION_TILE, REDUCTION_TILE + 1, 2 * REDUCTION_TILE + 5])
    def test_dot_bitwise_equal_to_the_tiled_combine(self, ref, rng, n):
        a = _rand(rng, (n, 3))
        b = _rand(rng, (n, 3))
        if n:
            a[:, 2] = -0.0  # every product -0.0: the combine from 0.0 yields +0.0
        expected = [0.0] * 3
        for lo in range(0, n, REDUCTION_TILE):  # partials summed in tile order
            hi = min(lo + REDUCTION_TILE, n)
            expected = [s + np.dot(a[lo:hi, j], b[lo:hi, j]) for j, s in enumerate(expected)]
        expected = np.array(expected)
        for exec_ in (ref, executor_from_name("parallel", 2)):
            got = dispatch(exec_, "dot")(a, b)
            assert got.dtype == np.float64 and got.shape == (3,)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), exec_

    def test_dense_apply_close_across_kinds(self, ref, rng):
        a = _rand(rng, (40, 30))
        b = _rand(rng, (30, 3))
        out0 = _rand(rng, (40, 3))
        calls = (
            (lambda e, out: dispatch(e, "dense_apply")(a, b, out), a @ b),
            (lambda e, out: dispatch(e, "dense_apply_advanced")(a, -0.75, b, 0.0, out),
             -0.75 * (a @ b)),
            (lambda e, out: dispatch(e, "dense_apply_advanced")(a, 2.5, b, -1.25, out),
             2.5 * (a @ b) - 1.25 * out0),
        )
        for i, (run, formula) in enumerate(calls):
            expected = out0.copy()
            run(ref, expected)
            assert _same_bits(expected, formula), i
            for wc in PARALLEL_WORKERS:
                out = out0.copy()
                run(executor_from_name("parallel", wc), out)
                assert _same_bits(out, expected), (i, wc)

    def test_elementwise_bitwise_across_worker_counts(self, rng):
        x, y, _ = self._cases(rng)
        outs = []
        for wc in PARALLEL_WORKERS:
            out = y.copy()
            dispatch(executor_from_name("parallel", wc), "axpy")(out, 0.37, x)
            outs.append(out)
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)


def _bincount_spmv(row_ptrs, row_ids, col_idxs, values, b):
    """The SpMV formula the kernels must reproduce bit for bit."""
    n = len(row_ptrs) - 1
    return np.stack(
        [np.bincount(row_ids, weights=values * b[col_idxs, j], minlength=n)
         for j in range(b.shape[1])],
        axis=1,
    )


def _same_bits(x, y):
    x = np.ascontiguousarray(x)
    y = np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestSpmvKernel:
    """``spmv`` and ``spmv_advanced`` equal the bincount formula bit for bit on
    both kinds and every worker count, including empty rows next to where a
    row split would fall.
    """

    ROWS = 1357
    COLS = 1100
    EXECUTORS = (
        ("reference", None), ("parallel", 1), ("parallel", 2), ("parallel", 3),
    )

    def _matrix(self, rng):
        lengths = rng.integers(0, 7, size=self.ROWS)
        lengths[::7] = 0
        for wc in (2, 3):  # empty rows on either side of each chunk boundary
            for lo, _ in split_ranges(self.ROWS, wc)[1:]:
                lengths[lo - 1 : lo + 1] = 0
        lengths[0] = lengths[-1] = 0
        lengths[600] = 900  # one long row
        row_ptrs = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        row_ids = np.repeat(np.arange(self.ROWS, dtype=np.int64), lengths)
        col_idxs = np.concatenate(
            [np.sort(rng.choice(self.COLS, size=k, replace=False)) for k in lengths]
        ).astype(np.int64)
        values = rng.normal(size=row_ptrs[-1])
        return row_ptrs, row_ids, col_idxs, values

    def _b(self, rng, k, layout):
        b = rng.normal(size=(self.COLS, k))
        b[rng.choice(self.COLS, size=40, replace=False), 0] = -0.0
        b[rng.choice(self.COLS, size=3, replace=False), k - 1] = np.inf
        b[rng.choice(self.COLS, size=3, replace=False), 0] = np.nan
        if layout == "contiguous":
            return b
        vec = AppVector.from_values(b, stride=k + 2)
        ref = executor_from_name("reference")
        arr = array_view(ref, vec.total_size(), vec.data(), const=True)
        view = Dense.create_const(ref, Dim(self.COLS, k), arr, stride=vec.stride).view2d()
        assert not view.flags.writeable and not view.flags.c_contiguous
        return view

    @pytest.mark.parametrize("k, layout", [(1, "contiguous"), (3, "contiguous"), (3, "padded_const")])
    def test_bitwise_equal_to_bincount_formula(self, rng, k, layout):
        row_ptrs, row_ids, col_idxs, values = self._matrix(rng)
        b = self._b(rng, k, layout)
        s = _bincount_spmv(row_ptrs, row_ids, col_idxs, values, b)
        assert np.isnan(s).any() and np.isinf(s).any() and (s == 0.0).any()
        out0 = rng.normal(size=(self.ROWS, k))
        readonly_cols = col_idxs.copy()
        readonly_cols.flags.writeable = False  # as Csr.get_col_idxs() hands out
        for (name, workers), cols in itertools.product(self.EXECUTORS, (col_idxs, readonly_cols)):
            args = (row_ptrs, row_ids, cols, values)
            exec_ = executor_from_name(name, workers)
            out = np.full((self.ROWS, k), np.nan)
            dispatch(exec_, "spmv")(*args, b, out)
            assert _same_bits(out, s), (name, workers, cols.flags.writeable)
            for alpha, beta in ((1.0, 0.0), (-0.75, 0.0), (2.5, -1.25)):
                if beta == 0.0:
                    out = np.full((self.ROWS, k), np.nan)
                    expected = alpha * s
                else:
                    out = out0.copy()
                    expected = alpha * s + beta * out0
                dispatch(exec_, "spmv_advanced")(*args, alpha, b, beta, out)
                assert _same_bits(out, expected), (name, workers, cols.flags.writeable, alpha, beta)


class TestRunPartitioned:
    def test_reference_runs_one_slice(self, ref):
        calls = []
        dispatch(ref, "run_partitioned")(10, lambda lo, hi: calls.append((lo, hi)))
        assert calls == [(0, 10)]

    def test_parallel_slices_are_disjoint_and_cover(self, par):
        import threading

        seen = []
        lock = threading.Lock()

        def body(lo, hi):
            with lock:
                seen.append((lo, hi))

        dispatch(par, "run_partitioned")(103, body)
        covered = sorted(seen)
        assert covered[0][0] == 0 and covered[-1][1] == 103
        for (_, hi), (lo2, _) in zip(covered, covered[1:]):
            assert hi == lo2

    def test_zero_count_is_a_no_op(self, ref, par):
        for exec_ in (ref, par):
            dispatch(exec_, "run_partitioned")(0, lambda lo, hi: pytest.fail("called"))
