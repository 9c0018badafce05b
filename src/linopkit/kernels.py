"""CPU kernels for both executor kinds.

Vectors arrive as 2-D numpy views of shape ``(n, k)`` (k right-hand sides,
row-major).  Sparse matrices arrive as raw CSR arrays.  All kernels take the
executor as their first argument; use :func:`linopkit.executor.dispatch` to
obtain a bound callable.

Determinism rules, which the tests check bitwise:

* element-wise kernels write disjoint row slices, so any chunking produces
  the same bits as a single serial pass;
* reductions are tiled on a fixed grid of ``REDUCTION_TILE`` rows (never a
  function of the worker count or the kind) and the per-tile partial sums are
  combined in tile order on the calling thread;
* SpMV accumulates each row's products left to right (``np.bincount`` adds
  its weights sequentially), so splitting the row range does not change any
  per-row sum.

SpMV, ``dot`` and ``norm2`` have one body registered for both kinds; a
reference executor has one worker, so it runs that body serially.  Together
these make element-wise, SpMV and reduction results bitwise identical across
kinds and worker counts.  Only the dense products may differ in the last bits.

The tile width also keeps every ``np.dot`` call at or below 8,192 elements,
under the 10,000 above which OpenBLAS splits ``ddot`` across its own
threads.  An untiled dot on a long vector pays that thread wake-up, which
was seen to stall single calls for milliseconds.
"""

from __future__ import annotations

import numpy as np

from .executor import Executor, ExecutorKind, register_kernel, split_ranges, worker_pool

#: Row counts below this run as a single chunk even on parallel executors.
ELEMENTWISE_MIN_PARALLEL = 1024

#: Fixed reduction tile width. Must not depend on the worker count, and must
#: stay below the length at which OpenBLAS threads ``ddot`` (see above).
REDUCTION_TILE = 8192

_REF = ExecutorKind.REFERENCE
_PAR = ExecutorKind.PARALLEL


def _foreach_rows(exec_: Executor, n: int, body) -> None:
    """Run ``body(lo, hi)`` over a partition of ``range(n)``.

    ``body`` must only write rows in ``[lo, hi)``; under that contract the
    chunk geometry cannot influence the result.
    """
    if n <= 0:
        return
    if exec_.worker_count == 1 or n < ELEMENTWISE_MIN_PARALLEL:
        body(0, n)
        return
    ranges = split_ranges(n, exec_.worker_count)
    if len(ranges) == 1:
        body(0, n)
        return
    pool = worker_pool(exec_)
    list(pool.map(lambda r: body(r[0], r[1]), ranges))


# --- element-wise ----------------------------------------------------------


@register_kernel("fill", _REF)
def _fill_ref(exec_, dst, value):
    dst[...] = value


@register_kernel("fill", _PAR)
def _fill_par(exec_, dst, value):
    _foreach_rows(exec_, dst.shape[0], lambda lo, hi: dst[lo:hi].__setitem__(..., value))


@register_kernel("copy", _REF)
def _copy_ref(exec_, dst, src):
    dst[...] = src


@register_kernel("copy", _PAR)
def _copy_par(exec_, dst, src):
    def body(lo, hi):
        dst[lo:hi] = src[lo:hi]

    _foreach_rows(exec_, dst.shape[0], body)


@register_kernel("scale", _REF)
def _scale_ref(exec_, x, alpha):
    x *= alpha


@register_kernel("scale", _PAR)
def _scale_par(exec_, x, alpha):
    def body(lo, hi):
        x[lo:hi] *= alpha

    _foreach_rows(exec_, x.shape[0], body)


@register_kernel("axpy", _REF)
def _axpy_ref(exec_, y, alpha, x):
    y += alpha * x


@register_kernel("axpy", _PAR)
def _axpy_par(exec_, y, alpha, x):
    def body(lo, hi):
        y[lo:hi] += alpha * x[lo:hi]

    _foreach_rows(exec_, y.shape[0], body)


@register_kernel("aypx", _REF)
def _aypx_ref(exec_, y, beta, x):
    y *= beta
    y += x


@register_kernel("aypx", _PAR)
def _aypx_par(exec_, y, beta, x):
    def body(lo, hi):
        y[lo:hi] *= beta
        y[lo:hi] += x[lo:hi]

    _foreach_rows(exec_, y.shape[0], body)


@register_kernel("waxpby", _REF)
def _waxpby_ref(exec_, w, alpha, x, beta, y):
    w[...] = alpha * x + beta * y


@register_kernel("waxpby", _PAR)
def _waxpby_par(exec_, w, alpha, x, beta, y):
    def body(lo, hi):
        w[lo:hi] = alpha * x[lo:hi] + beta * y[lo:hi]

    _foreach_rows(exec_, w.shape[0], body)


@register_kernel("diag_scale", _REF)
def _diag_scale_ref(exec_, z, d, r):
    np.multiply(d[:, None], r, out=z)


@register_kernel("diag_scale", _PAR)
def _diag_scale_par(exec_, z, d, r):
    def body(lo, hi):
        np.multiply(d[lo:hi, None], r[lo:hi], out=z[lo:hi])

    _foreach_rows(exec_, z.shape[0], body)


# --- reductions ------------------------------------------------------------


def _tile_dot(a, b, lo, hi):
    return [np.dot(a[lo:hi, j], b[lo:hi, j]) for j in range(a.shape[1])]


@register_kernel("dot", _REF)
@register_kernel("dot", _PAR)
def _dot(exec_, a, b):
    """Columnwise dot, tiled on the fixed grid and combined in tile order."""
    n = a.shape[0]
    if n <= REDUCTION_TILE:  # one tile: the same 0.0 + partial as the combine below
        return np.array([0.0 + np.dot(a[:, j], b[:, j]) for j in range(a.shape[1])])
    bounds = [(lo, min(lo + REDUCTION_TILE, n)) for lo in range(0, n, REDUCTION_TILE)]
    if exec_.worker_count == 1:
        partials = [_tile_dot(a, b, lo, hi) for lo, hi in bounds]
    else:
        partials = worker_pool(exec_).map(lambda r: _tile_dot(a, b, r[0], r[1]), bounds)
    sums = [0.0] * a.shape[1]
    for p in partials:  # in-order combine, independent of which thread ran what
        sums = [s + x for s, x in zip(sums, p)]
    return np.array(sums)


@register_kernel("norm2", _REF)
@register_kernel("norm2", _PAR)
def _norm2(exec_, a):
    return np.sqrt(_dot(exec_, a, a))


# --- sparse matrix-vector products -----------------------------------------
#
# row_ids holds the row index of every stored entry (the expanded form of
# row_ptrs); callers cache it once per matrix.


def _spmv_rows(exec_, row_ptrs, row_ids, col_idxs, values, b, out, alpha, beta):
    """``out = A b`` when ``alpha`` is None, else ``out = alpha A b + beta out``.

    Each row sum is ``np.bincount`` over the products ``b[col] * value`` of
    that row, added left to right.  ``take`` on one column gathers about three
    times faster than 2-D fancy indexing, and multiplying in place saves a
    temporary; neither changes a bit of the result.  ``take`` copies a
    read-only index array before gathering, so a read-only ``col_idxs`` (such
    as ``Csr.get_col_idxs()``) is gathered by 1-D fancy indexing instead,
    which reads it in place.
    """

    def body(lo, hi):
        p0, p1 = int(row_ptrs[lo]), int(row_ptrs[hi])
        ids = row_ids[p0:p1] - lo if lo else row_ids[p0:p1]
        cols = col_idxs[p0:p1]
        vals = values[p0:p1]
        for j in range(b.shape[1]):
            prod = b[:, j].take(cols) if cols.flags.writeable else b[:, j][cols]
            prod *= vals
            s = np.bincount(ids, weights=prod, minlength=hi - lo)
            if alpha is None:
                out[lo:hi, j] = s
            elif beta == 0.0:
                out[lo:hi, j] = alpha * s
            else:
                out[lo:hi, j] = alpha * s + beta * out[lo:hi, j]

    _foreach_rows(exec_, len(row_ptrs) - 1, body)


@register_kernel("spmv", _REF)
@register_kernel("spmv", _PAR)
def _spmv(exec_, row_ptrs, row_ids, col_idxs, values, b, out):
    _spmv_rows(exec_, row_ptrs, row_ids, col_idxs, values, b, out, None, 0.0)


@register_kernel("spmv_advanced", _REF)
@register_kernel("spmv_advanced", _PAR)
def _spmv_advanced(exec_, row_ptrs, row_ids, col_idxs, values, alpha, b, beta, out):
    _spmv_rows(exec_, row_ptrs, row_ids, col_idxs, values, b, out, alpha, beta)


# --- dense matrix application ----------------------------------------------
#
# The parallel versions compute one row at a time so the per-row dot products
# are identical no matter where the chunk boundaries fall.


@register_kernel("dense_apply", _REF)
def _dense_apply_ref(exec_, a, b, out):
    out[...] = a @ b


@register_kernel("dense_apply", _PAR)
def _dense_apply_par(exec_, a, b, out):
    def body(lo, hi):
        for i in range(lo, hi):
            out[i, :] = a[i, :] @ b

    _foreach_rows(exec_, a.shape[0], body)


@register_kernel("dense_apply_advanced", _REF)
def _dense_apply_advanced_ref(exec_, a, alpha, b, beta, out):
    t = a @ b
    if beta == 0.0:
        out[...] = alpha * t
    else:
        out[...] = alpha * t + beta * out


@register_kernel("dense_apply_advanced", _PAR)
def _dense_apply_advanced_par(exec_, a, alpha, b, beta, out):
    def body(lo, hi):
        for i in range(lo, hi):
            t = a[i, :] @ b
            if beta == 0.0:
                out[i, :] = alpha * t
            else:
                out[i, :] = alpha * t + beta * out[i, :]

    _foreach_rows(exec_, a.shape[0], body)


# --- generic partitioned execution ------------------------------------------


@register_kernel("run_partitioned", _REF)
def _run_partitioned_ref(exec_, count, body, min_chunk=1):
    if count > 0:
        body(0, count)


@register_kernel("run_partitioned", _PAR)
def _run_partitioned_par(exec_, count, body, min_chunk=1):
    """Run ``body(lo, hi)`` over disjoint slices of ``range(count)``.

    Callers must make ``body`` write only into slot ranges derived from its
    slice; results are then independent of the partitioning.
    """
    if count <= 0:
        return
    ranges = split_ranges(count, exec_.worker_count, min_chunk)
    if len(ranges) == 1:
        body(0, count)
        return
    pool = worker_pool(exec_)
    list(pool.map(lambda r: body(r[0], r[1]), ranges))
