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
* SpMV accumulates each row's products left to right from +0.0
  (``np.bincount`` adds its weights sequentially).

Together these make every kernel's result bitwise identical across kinds and
worker counts.

SpMV has two bodies with the same bits.  The numpy body above is the
definition and runs everywhere.  When scipy is installed, the compiled row
loop of its sparsetools extension (``csr_matvec``, ``csr_matvecs``) takes
over, about four times faster on the 40,000-row heat matrix.  It is optional
and guarded three ways:

* the extension module is loaded on its own, not through ``scipy.sparse``;
* at import it must reproduce the numpy body's bits on a probe that
  includes a row a fused multiply-add would round differently, -0.0, inf
  and NaN, or it is not used;
* it does not bounds-check, so it runs only on index arrays that a ``Csr``
  or ``BatchCsr`` validated and made read-only.  Every other call, raw
  arrays included, takes the numpy body and its checks.

Batched solves multiply through :func:`block_spmv` alone, which makes the
same choice: the held systems of a group, laid down the diagonal of one CSR
matrix (:func:`block_pattern`, built once per solve), are one ``csr_matvec``
call or one pass of the numpy body, bit for bit the per-system numpy body.

Like the numpy body it holds the GIL, so it gains nothing from threads.

``aypx``, ``waxpby`` and ``diag_scale`` have no caller in the library; they
stay registered for the benchmark's kernel probes, which dispatch them by
name.  The advanced apply ``x = alpha op(b) + beta x`` has no kernel of its
own: :meth:`~linopkit.linop.LinOp.advanced_apply` combines ``apply``'s result
with one numpy expression for every operator.

The tile width also keeps every ``np.dot`` call at or below 8,192 elements,
under the 10,000 above which OpenBLAS splits ``ddot`` across its own
threads.  An untiled dot on a long vector pays that thread wake-up, which
was seen to stall single calls for milliseconds.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import weakref

import numpy as np

from .errors import DimensionError
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
# row_ptrs); callers cache it once per matrix.  The numpy body below is the
# definition; the compiled body must match it bit for bit (see the bottom of
# this section).


def _spmv_numpy(row_ptrs, row_ids, col_idxs, values, b, out):
    """``out = A b``.

    Each row sum is ``np.bincount`` over the products ``b[col] * value`` of
    that row, added left to right.  ``take`` on one column gathers about three
    times faster than 2-D fancy indexing, and multiplying in place saves a
    temporary; neither changes a bit of the result.  ``take`` copies a
    read-only index array before gathering, so a read-only ``col_idxs`` (such
    as ``Csr.get_col_idxs()``) is gathered by 1-D fancy indexing instead,
    which reads it in place.  Every index is bounds-checked, but both accept
    indices in ``[-len(b), 0)`` too, so callers rule out negative columns
    (:func:`_spmv` searches for them; a :class:`BlockPattern` has none).
    """
    n = len(row_ptrs) - 1
    for j in range(b.shape[1]):
        prod = b[:, j].take(col_idxs) if col_idxs.flags.writeable else b[:, j][col_idxs]
        prod *= values
        out[:, j] = np.bincount(row_ids, weights=prod, minlength=n)


def _spmv_compiled(tools, row_ptrs, col_idxs, values, b, out):
    """The same result as :func:`_spmv_numpy`, from sparsetools' row loop.

    ``csr_matvec`` and ``csr_matvecs`` add ``value * b[col]`` onto ``y`` row
    by row, left to right, so starting from ``y = +0.0`` gives the bincount
    sums.  The products are accumulated straight into a C-contiguous ``out``
    that does not overlap ``b``; any other ``out`` goes through ``y``.
    """
    n, k = out.shape
    if out.flags.c_contiguous and not np.may_share_memory(out, b):
        y = out
        y[...] = 0.0
    else:
        y = np.zeros((n, k))
    if k == 1:
        tools.csr_matvec(n, b.shape[0], row_ptrs, col_idxs, values, b, y)
    else:
        tools.csr_matvecs(n, b.shape[0], k, row_ptrs, col_idxs, values, b, y)
    if y is not out:
        out[...] = y


@register_kernel("spmv")
def _spmv(exec_, row_ptrs, row_ids, col_idxs, values, b, out):
    nnz = col_idxs.shape[0]
    if row_ptrs[-1] != nnz or row_ids.shape[0] != nnz or values.shape[0] != nnz:
        raise DimensionError(
            f"row_ptrs[-1] = {row_ptrs[-1]}, but there are {row_ids.shape[0]} row ids, "
            f"{nnz} column indices and {values.shape[0]} values"
        )
    tools = _SPARSETOOLS
    if tools is not None and _compiled_may_run(row_ptrs, col_idxs, values, b, out):
        _spmv_compiled(tools, row_ptrs, col_idxs, values, b, out)
    else:
        if _checked_bound(col_idxs) is None and nnz and col_idxs.min() < 0:
            raise IndexError(f"column index {col_idxs.min()} is negative")
        _spmv_numpy(row_ptrs, row_ids, col_idxs, values, b, out)


# --- checked patterns --------------------------------------------------------
#
# The compiled loop reads b[col_idxs[jj]] and values[jj] for jj in
# [row_ptrs[i], row_ptrs[i+1]) without a bounds check, and a per-call check
# would cost half of what it saves.  So it runs only on index arrays that a
# Csr or BatchCsr validated, froze and recorded here, while they stay frozen;
# the few O(1) checks left per call tie them to the other operands.

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
#: column bound recorded for a row_ptrs array (col_idxs record cols >= 0)
_ROW_PTRS = -1
#: id(owner) -> (weak reference to owner, _ROW_PTRS or the column bound)
_CHECKED: dict[int, tuple] = {}


def freeze_checked_pattern(row_ptrs: np.ndarray, col_idxs: np.ndarray, cols: int) -> None:
    """Make a validated CSR pattern read-only and eligible for compiled SpMV.

    The caller vouches that ``row_ptrs`` starts at 0 and never decreases,
    that ``col_idxs`` has ``row_ptrs[-1]`` entries in ``[0, cols)``, and that
    both are int64 arrays it owns, of which no writable view was handed out.
    """
    for arr, bound in ((row_ptrs, _ROW_PTRS), (col_idxs, int(cols))):
        arr.flags.writeable = False
        key = id(arr)

        def forget(ref, key=key):
            if _CHECKED.get(key, (None,))[0] is ref:
                del _CHECKED[key]

        _CHECKED[key] = (weakref.ref(arr, forget), bound)


def _checked_bound(a):
    """The bound recorded for ``a``'s still frozen owner, or None.

    ``a`` must be an aligned int64 vector, so each of its entries is one of
    the owner's: a view that reinterprets the owner's bytes could hold any
    index.
    """
    if a.dtype is not _I64 or a.ndim != 1:
        return None
    flags = a.flags
    if flags.writeable or not flags.aligned:
        return None
    owner = a if a.base is None else a.base
    entry = _CHECKED.get(id(owner))
    if entry is None or entry[0]() is not owner or owner.flags.writeable:
        return None
    return entry[1]


def _compiled_may_run(row_ptrs, col_idxs, values, b, out) -> bool:
    """True when every index the compiled loop reads is known to be in range.

    The caller has checked that ``row_ptrs[-1]`` equals the length of
    ``col_idxs`` and ``values``; slices of a checked ``row_ptrs`` still never
    decrease from >= 0, so that last entry bounds them all.  Anything else
    keeps the numpy body, which checks every index and raises as before.
    """
    cols = _checked_bound(col_idxs)
    if cols is None or cols == _ROW_PTRS or _checked_bound(row_ptrs) != _ROW_PTRS:
        return False
    return (
        values.dtype is _F64
        and b.dtype is _F64
        and out.dtype is _F64
        and values.ndim == 1
        and b.ndim == 2
        and out.ndim == 2
        and out.shape[0] == row_ptrs.shape[0] - 1
        and b.shape[1] == out.shape[1]
        and b.shape[0] >= cols
    )


# --- block-diagonal SpMV for batched solves ------------------------------------
#
# k systems that share one pattern are one CSR matrix with k copies of that
# pattern down its diagonal: block row l * rows + i holds row i's entries in
# the same order, columns offset by l * cols.  One csr_matvec call, or one
# pass of the numpy body, then multiplies all k lanes, and every row sum is
# the solo row's, bit for bit.


class BlockPattern:
    """``lanes`` copies of a CSR pattern down the diagonal of one matrix.

    Built only by :func:`block_pattern`.  Its index arrays are its own,
    read-only and never handed out, and every index in them is in range for
    ``lanes * cols`` columns.  Any prefix of the lanes is itself a block
    pattern, which serves smaller and compacted lane sets.  ``checked`` is
    True when it was expanded from a pattern a ``Csr`` or ``BatchCsr``
    checked and froze, which admits the compiled body.
    """

    __slots__ = ("lanes", "rows", "cols", "nnz", "checked", "_row_ptrs", "_col_idxs", "_row_ids")


def block_pattern(row_ptrs: np.ndarray, col_idxs: np.ndarray, cols: int, lanes: int) -> BlockPattern:
    """The block-diagonal expansion of a ``cols``-column pattern for up to ``lanes`` lanes.

    Lanes are offset by the caller's column count ``cols``, never by the
    largest stored index, which an empty last column makes smaller.  A
    pattern that was not checked and frozen for ``cols`` columns has its
    column indices checked here.
    """
    nnz, rows = col_idxs.shape[0], row_ptrs.shape[0] - 1
    checked = _checked_bound(col_idxs) == cols and _checked_bound(row_ptrs) == _ROW_PTRS
    if row_ptrs[-1] != nnz or (not checked and nnz
                               and not 0 <= col_idxs.min() <= col_idxs.max() < cols):
        raise DimensionError(f"not a pattern of {nnz} entries in {cols} columns")
    lane = np.arange(lanes, dtype=np.int64)[:, None]
    block_ptrs = np.empty(lanes * rows + 1, dtype=np.int64)
    np.add(row_ptrs[:-1], lane * nnz, out=block_ptrs[:-1].reshape(lanes, rows))
    block_ptrs[-1] = lanes * nnz
    block_cols = np.empty(lanes * nnz, dtype=np.int64)
    np.add(col_idxs, lane * cols, out=block_cols.reshape(lanes, nnz))
    block_ptrs.flags.writeable = block_cols.flags.writeable = False
    block = BlockPattern()
    block.lanes, block.rows, block.cols, block.nnz, block.checked = lanes, rows, cols, nnz, checked
    block._row_ptrs, block._col_idxs, block._row_ids = block_ptrs, block_cols, None
    return block


def _block_may_run(block: BlockPattern, vals, xb, out) -> bool:
    """True when the compiled loop may run operands of fitting shapes on ``block``:
    its own arrays bound every index the loop reads, so only the operands'
    dtype and layout are checked, in O(1)."""
    return (block.checked
            and vals.dtype is xb.dtype is out.dtype is _F64
            and vals.flags.c_contiguous and xb.flags.c_contiguous and out.flags.c_contiguous)


def block_spmv(block: BlockPattern, vals: np.ndarray, xb: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[l] = A_l xb[l]`` for every lane ``l`` of ``xb``; returns ``out``.

    ``vals`` holds lane ``l``'s values in the pattern's order as row ``l``;
    ``out`` must not overlap ``xb``, and there may be at most ``block.lanes``
    lanes.  The compiled loop runs when :func:`_block_may_run` allows it, the
    numpy body otherwise; both give the numpy body's bits.
    """
    k, rows, nnz = xb.shape[0], block.rows, block.nnz
    if (k > block.lanes or vals.shape != (k, nnz) or xb.shape != (k, block.cols)
            or out.shape != (k, rows)):
        raise DimensionError(f"values {vals.shape}, x {xb.shape} and out {out.shape} do not "
                             f"fit up to {block.lanes} {rows} x {block.cols} systems of "
                             f"{nnz} entries")
    tools = _SPARSETOOLS
    if tools is not None and _block_may_run(block, vals, xb, out):
        out.fill(0.0)
        # C-contiguous 2-D blocks are the flat lane-major vectors the loop reads.
        tools.csr_matvec(k * rows, k * block.cols, block._row_ptrs[: k * rows + 1],
                         block._col_idxs[: k * nnz], vals, xb, out)
        return out
    if block._row_ids is None:  # workers that race here build equal arrays
        block._row_ids = np.repeat(np.arange(block.lanes * rows), np.diff(block._row_ptrs))
    y = out.reshape(-1, 1)  # a view of out when it is C-contiguous
    _spmv_numpy(block._row_ptrs[: k * rows + 1], block._row_ids[: k * nnz],
                block._col_idxs[: k * nnz], vals.reshape(-1), xb.reshape(-1, 1), y)
    if not np.may_share_memory(y, out):
        out[...] = y.reshape(k, rows)
    return out


# --- the compiled body and its load-time check -------------------------------


def _load_sparsetools():
    """scipy's ``_sparsetools`` extension module on its own, or None.

    Importing it as ``scipy.sparse._sparsetools`` would run all of
    ``scipy.sparse`` first (about 15 MB resident); the extension needs only
    numpy.  It is loaded from its file next to scipy's ``__init__`` and kept
    out of ``sys.modules``, so a later ``import scipy.sparse`` loads it as
    usual.  Any failure (no scipy, no file, a load error) returns None.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    try:
        spec = importlib.util.find_spec("scipy")
        if spec is None or spec.origin is None:
            return None
        folder = os.path.join(os.path.dirname(spec.origin), "sparse")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_sparsetools" + suffix)
            if os.path.isfile(path):
                break
        else:
            return None
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        module.csr_matvec, module.csr_matvecs  # noqa: B018  (both must exist)
    except (ImportError, OSError, ValueError, AttributeError):
        return None  # a broken or blocked scipy, or an incompatible build
    finally:
        sys.modules.pop(name, None)  # creating an extension module registers it
    return module


def _agrees_with_numpy(tools) -> bool:
    """True when ``tools`` gives the numpy body's bits on a probe.

    Row 0 is ``-(1 + 2e) * 1 + (1 + e) * (1 + e)`` with ``e = 2**-30``: the
    exact product ``1 + 2e + e**2`` rounds to ``1 + 2e``, so the sum is 0.0
    when each product is rounded and ``e**2`` under a fused multiply-add.
    Further rows sum -0.0 products, meet inf and NaN, or are empty.  Both
    columns of ``b`` start with that row, so the multi-vector loop meets it
    too.
    """
    e = 2.0**-30
    row_ptrs = np.array([0, 2, 4, 6, 8, 8], dtype=np.int64)
    col_idxs = np.array([0, 1, 2, 3, 1, 4, 4, 5], dtype=np.int64)
    values = np.array([-(1 + 2 * e), 1 + e, 1.0, -1.0, 1.0, 2.0, -1.0, 1.0])
    b = np.array([[1.0, 1.0], [1 + e, 1 + e], [-0.0, 3.0], [0.0, -0.0], [np.inf, -2.0], [np.nan, 0.5]])
    row_ids = np.repeat(np.arange(5, dtype=np.int64), np.diff(row_ptrs))
    try:
        for bk in (b[:, :1].copy(), b):
            want = np.empty((5, bk.shape[1]))
            _spmv_numpy(row_ptrs, row_ids, col_idxs, values, bk, want)
            got = np.full_like(want, -0.0)
            _spmv_compiled(tools, row_ptrs, col_idxs, values, bk, got)
            if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
                return False
    except (TypeError, ValueError):  # a body that cannot run the probe is not used either
        return False
    return True


def _verified_sparsetools():
    tools = _load_sparsetools()
    return tools if tools is not None and _agrees_with_numpy(tools) else None


#: The compiled SpMV body (scipy's sparsetools) when it loaded and matched
#: the numpy body's bits at import; None selects the numpy body everywhere.
_SPARSETOOLS = _verified_sparsetools()


# --- dense matrix application ----------------------------------------------


@register_kernel("dense_apply")
def _dense_apply(exec_, a, b, out):
    out[...] = a @ b
