"""Executor creation, kernel dispatch, and backend equivalence."""

import importlib.machinery
import importlib.util
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
from linopkit.linop import Csr, Dense

from helpers import (
    COMPILED_SPMV,
    csr_from_numpy,
    dense_from_numpy,
    random_spd_dense,
    use_spmv_body,
)

ALL_KERNELS = (
    "fill", "copy", "axpy", "aypx", "waxpby", "diag_scale",
    "dot", "norm2", "spmv", "dense_apply", "run_partitioned",
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
            "dense_apply": lambda e, out: dispatch(e, "dense_apply")(a.T, out, np.zeros((n // 100, 2))),
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

        def advanced(alpha, beta):
            def run(e, out):  # Dense.advanced_apply straight into ``out``
                x = Dense.from_array(e, out.shape, array_view(e, out.size, out.reshape(-1)))
                dense_from_numpy(e, a).advanced_apply(alpha, dense_from_numpy(e, b), beta, x)
            return run

        calls = (
            (lambda e, out: dispatch(e, "dense_apply")(a, b, out), a @ b),
            (advanced(-0.75, 0.0), -0.75 * (a @ b)),
            (advanced(2.5, -1.25), 2.5 * (a @ b) - 1.25 * out0),
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
    """``spmv`` and ``Csr.advanced_apply`` equal the bincount formula bit
    for bit on both SpMV bodies, both kinds and every worker count, including
    empty rows next to where a row split would fall.

    The compiled body runs only in a Csr's applies, on a pattern that Csr
    checked and froze itself; a Csr over raw index arrays, writable, read-only
    or another Csr's, and the raw ``spmv`` kernel take the numpy body under
    either choice.
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
        """``b`` as a Dense, compact or read-only with padded rows."""
        b = rng.normal(size=(self.COLS, k))
        b[rng.choice(self.COLS, size=40, replace=False), 0] = -0.0
        b[rng.choice(self.COLS, size=3, replace=False), k - 1] = np.inf
        b[rng.choice(self.COLS, size=3, replace=False), 0] = np.nan
        ref = executor_from_name("reference")
        if layout == "contiguous":
            return dense_from_numpy(ref, b)
        vec = AppVector.from_values(b, stride=k + 2)
        arr = array_view(ref, vec.total_size(), vec.data(), const=True)
        dense = Dense.create_const(ref, Dim(self.COLS, k), arr, stride=vec.stride)
        assert not dense.view2d().flags.writeable and not dense.view2d().flags.c_contiguous
        return dense

    def _out(self, k, strided, init):
        """An output Dense holding ``init``, compact or with NaN-padded rows."""
        out = Dense.create(executor_from_name("reference"), (self.ROWS, k),
                           stride=k + 2 if strided else k)
        out.values.numpy()[...] = np.nan
        out.view2d()[...] = init
        assert out.view2d().flags.c_contiguous != strided
        return out

    @pytest.mark.parametrize("k, layout", [(1, "contiguous"), (3, "contiguous"), (3, "padded_const")])
    def test_bitwise_equal_to_bincount_formula(self, rng, monkeypatch, k, layout):
        row_ptrs, row_ids, col_idxs, values = self._matrix(rng)
        bd = self._b(rng, k, layout)
        b = bd.view2d()
        s = _bincount_spmv(row_ptrs, row_ids, col_idxs, values, b)
        assert np.isnan(s).any() and np.isinf(s).any() and (s == 0.0).any()
        out0 = rng.normal(size=(self.ROWS, k))
        nan_rows = np.flatnonzero(np.isnan(s[:, 0]))
        out0[nan_rows, 0] = np.where(nan_rows % 2, np.nan, -np.nan)  # so operand order shows
        readonly_cols = col_idxs.copy()
        readonly_cols.flags.writeable = False  # read-only, but no Csr checked it
        checked = Csr.from_arrays(
            executor_from_name("reference"), (self.ROWS, self.COLS), row_ptrs, col_idxs, values
        )
        patterns = {
            "writable": (row_ptrs, col_idxs),
            "readonly": (row_ptrs, readonly_cols),
            "checked": (checked.get_row_ptrs().numpy(), checked.get_col_idxs().numpy()),
        }
        for body in ("compiled", "numpy") if COMPILED_SPMV is not None else ("numpy",):
            spy = use_spmv_body(monkeypatch, body)
            checked_calls = 0
            for (name, workers), (pattern, (rp, cols)), strided in itertools.product(
                self.EXECUTORS, patterns.items(), (False, True)
            ):
                where = (body, name, workers, pattern, strided)
                exec_ = executor_from_name(name, workers)
                out = self._out(k, strided, np.nan)
                dispatch(exec_, "spmv")(rp, row_ids, cols, values, b, out.view2d())
                assert _same_bits(out.view2d(), s), where
                # a Csr over these very arrays has an unchecked pattern; only a
                # Csr that checked its own copies runs compiled, once per column
                matrices = [Csr(exec_, (self.ROWS, self.COLS),
                                *(array_view(exec_, len(v), v) for v in (rp, cols, values)))]
                if pattern == "checked":
                    matrices.append(Csr.from_arrays(exec_, (self.ROWS, self.COLS), row_ptrs,
                                                    col_idxs, values))
                for matrix, (alpha, beta) in itertools.product(
                    matrices, ((1.0, 0.0), (-0.75, 0.0), (2.5, -1.25))
                ):
                    if beta == 0.0:
                        out = self._out(k, strided, np.nan)
                        expected = alpha * s
                    else:
                        out = self._out(k, strided, out0)
                        expected = alpha * s + beta * out0
                    matrix.advanced_apply(alpha, bd, beta, out)
                    assert _same_bits(out.view2d(), expected), (*where, alpha, beta)
                    assert np.isnan(out.values.numpy().reshape(self.ROWS, -1)[:, k:]).all()
                checked_calls += 3 * k if pattern == "checked" else 0
            if spy is not None:
                assert spy.calls == checked_calls

    def test_out_may_overlap_b(self, rng, spmv_body):
        """``out`` sharing ``b``'s storage gets ``A`` times the old ``b``; the
        raw kernel runs the numpy body under either choice."""
        dense = random_spd_dense(rng, 40)
        m = csr_from_numpy(executor_from_name("reference"), dense)
        args = (m.get_row_ptrs().numpy(), m._pattern.row_ids(), m.get_col_idxs().numpy(),
                m.get_values(const=True).numpy())
        b0 = rng.normal(size=(40, 2))
        for exec_ in (executor_from_name("reference"), executor_from_name("parallel", 2)):
            v = b0.copy()
            dispatch(exec_, "spmv")(*args, v, v)
            assert _same_bits(v, _bincount_spmv(*args, b0))
        if spmv_body is not None:
            assert spmv_body.calls == 0


class _RowLoop:
    """``csr_matvec`` in Python, adding ``value * x[col]`` onto ``y`` in row order.

    With ``fused`` each step rounds once, as a fused multiply-add does.
    """

    def __init__(self, fused):
        self.fused = fused

    def _madd(self, a, x, y):
        if self.fused and all(map(math.isfinite, (a, x, y))):
            return float(Fraction(a) * Fraction(x) + Fraction(y))
        return y + a * x

    def csr_matvec(self, n_row, n_col, row_ptrs, col_idxs, values, x, y):
        for i in range(n_row):
            for jj in range(row_ptrs[i], row_ptrs[i + 1]):
                y[i] = self._madd(values[jj], x[col_idxs[jj]], y[i])


class TestCompiledSpmvSelection:
    """The compiled body is used only when it loads and reproduces the numpy bits."""

    def test_check_accepts_a_loop_that_rounds_every_product(self):
        assert kernels._agrees_with_numpy(_RowLoop(fused=False))

    def test_check_rejects_a_fused_multiply_add(self, monkeypatch):
        fused = _RowLoop(fused=True)
        assert not kernels._agrees_with_numpy(fused)
        monkeypatch.setattr(kernels, "_load_sparsetools", lambda: fused)
        assert kernels._verified_sparsetools() is None

    def test_check_rejects_a_body_that_fails(self, monkeypatch):
        class Broken:
            def csr_matvec(self, *args):
                raise TypeError("wrong signature")

        assert not kernels._agrees_with_numpy(Broken())
        monkeypatch.setattr(kernels, "_load_sparsetools", lambda: None)
        assert kernels._verified_sparsetools() is None

    @pytest.mark.parametrize("failure", ["no scipy", "no file", "find_spec raises"])
    def test_load_failures_select_the_numpy_body(self, monkeypatch, failure):
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
        if failure == "no scipy":
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        elif failure == "no file":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        else:
            def boom(name):
                raise ValueError("scipy.__spec__ is None")

            monkeypatch.setattr(importlib.util, "find_spec", boom)
        assert kernels._load_sparsetools() is None
        assert "scipy.sparse._sparsetools" not in sys.modules

    @pytest.mark.skipif(COMPILED_SPMV is None, reason="scipy's sparsetools is not available")
    def test_import_loads_the_extension_alone(self):
        code = (
            "import sys, numpy as np; from linopkit import kernels; "
            "assert kernels._SPARSETOOLS is not None; "
            "assert [m for m in sys.modules if m.split('.')[0] == 'scipy'] == []; "
            "import scipy.sparse as sp; "
            "assert list(sp.csr_matrix(np.eye(2)) @ np.ones(2)) == [1.0, 1.0]"
        )
        src = str(Path(kernels.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr


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
