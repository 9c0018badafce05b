"""CPU kernels, one body per kernel for both executor kinds.

Vectors arrive as 2-D numpy views of shape ``(n, k)`` (k right-hand sides,
row-major).  Sparse matrices arrive as raw CSR arrays.  All kernels take the
executor as their first argument; use :func:`linopkit.executor.dispatch` to
obtain a bound callable.

Each kernel is written once and registered for every kind, so the executor
changes where a body runs, never what it computes.  Only ``run_partitioned``
hands work to the worker pool; every other kernel runs on the calling thread
on both kinds.  Threads were measured not to pay for them: SpMV and the
reductions hold the GIL for most of their time, and the element-wise kernels
found no vector length at which the pool won reliably on two workers.

Determinism rules, which the tests check bitwise:

* reductions are tiled on a fixed grid of ``REDUCTION_TILE`` rows and the
  per-tile partial sums are combined in tile order;
* SpMV accumulates each row's products left to right (``np.bincount`` adds
  its weights sequentially).

Together these make every kernel's result bitwise identical across kinds and
worker counts.

The tile width also keeps every ``np.dot`` call at or below 8,192 elements,
under the 10,000 above which OpenBLAS splits ``ddot`` across its own
threads.  An untiled dot on a long vector pays that thread wake-up, which
was seen to stall single calls for milliseconds.
"""

from __future__ import annotations

import numpy as np

from .executor import register_kernel, split_ranges, worker_pool

#: Fixed reduction tile width. Must not depend on the worker count, and must
#: stay below the length at which OpenBLAS threads ``ddot`` (see above).
REDUCTION_TILE = 8192


# --- generic partitioned execution ------------------------------------------


@register_kernel("run_partitioned")
def _run_partitioned(exec_, count, body):
    """Run ``body(lo, hi)`` over disjoint slices of ``range(count)``.

    Callers must make ``body`` write only into slot ranges derived from its
    slice; results are then independent of the partitioning.  One worker
    gets one slice, run on the calling thread.
    """
    ranges = split_ranges(count, exec_.worker_count)
    if len(ranges) > 1:
        list(worker_pool(exec_).map(lambda r: body(*r), ranges))
    elif ranges:
        body(*ranges[0])


# --- element-wise ----------------------------------------------------------


@register_kernel("fill")
def _fill(exec_, dst, value):
    dst[...] = value


@register_kernel("copy")
def _copy(exec_, dst, src):
    dst[...] = src


@register_kernel("scale")
def _scale(exec_, x, alpha):
    x *= alpha


@register_kernel("axpy")
def _axpy(exec_, y, alpha, x):
    y += alpha * x


@register_kernel("aypx")
def _aypx(exec_, y, beta, x):
    y *= beta
    y += x


@register_kernel("waxpby")
def _waxpby(exec_, w, alpha, x, beta, y):
    """``w = alpha x + beta y`` with one temporary; ``w`` may be ``x`` or ``y``.

    ``beta y`` is taken before ``w`` is written, and the sum keeps the
    operand order of ``alpha * x + beta * y``, so the bits are that
    formula's.
    """
    t = beta * y
    np.multiply(alpha, x, out=w)
    w += t


@register_kernel("diag_scale")
def _diag_scale(exec_, z, d, r):
    np.multiply(d[:, None], r, out=z)


# --- reductions ------------------------------------------------------------


@register_kernel("dot")
def _dot(exec_, a, b):
    """Columnwise dot, tiled on the fixed grid and combined in tile order."""
    n, k = a.shape
    sums = [0.0] * k  # 0.0 + partial, so an all -0.0 column gives +0.0
    for lo in range(0, n, REDUCTION_TILE):
        hi = min(lo + REDUCTION_TILE, n)
        sums = [s + np.dot(a[lo:hi, j], b[lo:hi, j]) for j, s in enumerate(sums)]
    return np.array(sums)


@register_kernel("norm2")
def _norm2(exec_, a):
    return np.sqrt(_dot(exec_, a, a))


# --- sparse matrix-vector products -----------------------------------------
#
# row_ids holds the row index of every stored entry (the expanded form of
# row_ptrs); callers cache it once per matrix.


def _spmv_rows(row_ptrs, row_ids, col_idxs, values, b, out, alpha, beta):
    """``out = A b`` when ``alpha`` is None, else ``out = alpha A b + beta out``.

    Each row sum is ``np.bincount`` over the products ``b[col] * value`` of
    that row, added left to right.  ``take`` on one column gathers about three
    times faster than 2-D fancy indexing, and multiplying in place saves a
    temporary; neither changes a bit of the result.  ``take`` copies a
    read-only index array before gathering, so a read-only ``col_idxs`` (such
    as ``Csr.get_col_idxs()``) is gathered by 1-D fancy indexing instead,
    which reads it in place.
    """
    n = len(row_ptrs) - 1
    for j in range(b.shape[1]):
        prod = b[:, j].take(col_idxs) if col_idxs.flags.writeable else b[:, j][col_idxs]
        prod *= values
        s = np.bincount(row_ids, weights=prod, minlength=n)
        if alpha is None:
            out[:, j] = s
        elif beta == 0.0:
            out[:, j] = alpha * s
        else:
            out[:, j] = alpha * s + beta * out[:, j]


@register_kernel("spmv")
def _spmv(exec_, row_ptrs, row_ids, col_idxs, values, b, out):
    _spmv_rows(row_ptrs, row_ids, col_idxs, values, b, out, None, 0.0)


@register_kernel("spmv_advanced")
def _spmv_advanced(exec_, row_ptrs, row_ids, col_idxs, values, alpha, b, beta, out):
    _spmv_rows(row_ptrs, row_ids, col_idxs, values, b, out, alpha, beta)


# --- dense matrix application ----------------------------------------------


@register_kernel("dense_apply")
def _dense_apply(exec_, a, b, out):
    out[...] = a @ b


@register_kernel("dense_apply_advanced")
def _dense_apply_advanced(exec_, a, alpha, b, beta, out):
    t = a @ b
    if beta == 0.0:
        out[...] = alpha * t
    else:
        out[...] = alpha * t + beta * out
