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

Every SpMV of the library goes through one function, :func:`block_spmv`,
once per apply: ``Csr.apply`` for all its columns, a ``Solver`` for all its
lanes, and a batched solve for each group of systems, whose held systems are
one block-diagonal CSR matrix (:func:`block_pattern`, built once per solve).
It has two bodies with the same bits.  The numpy body (``np.bincount`` over
the gathered products) is the definition and runs everywhere.  When scipy is
installed, the compiled row loop of its sparsetools extension
(``csr_matvec``) takes over, about four times faster on the 40,000-row heat
matrix.  It is optional and guarded three ways:

* the extension module is loaded on its own, not through ``scipy.sparse``;
* at import it must reproduce the numpy body's bits on a probe that
  includes a row a fused multiply-add would round differently, -0.0, inf
  and NaN, or it is not used;
* it does not bounds-check, so it runs only on a :class:`BlockPattern` that
  a ``Csr`` or ``BatchCsr`` checked and froze, or one expanded from it,
  while its index arrays stay read-only.  A matrix over borrowed arrays
  takes the numpy body, which checks its indices on every call, and so does
  a raw ``spmv`` kernel call, which the library does not make.

Like the numpy body it holds the GIL, so it gains nothing from threads.

Solves run by these determinism rules, which the tests check bitwise:

* SpMV adds each row's products left to right from +0.0, on either body;
* every reduction over a vector's length, in a solve or a kernel, is
  :func:`rowdot`, whose sums depend on no other lane and no BLAS thread count;
* no lane's arithmetic reads another lane, so a column of a multi-column
  solve, or a system of a batch, gets the bits of its own solve;
* ``run_partitioned`` hands each worker a slice of slots that it alone
  writes, so the worker count cannot change a result.

Together these make a solve's result bitwise identical across kinds and
worker counts.

``aypx``, ``waxpby``, ``diag_scale``, ``dot`` and ``norm2`` have
no caller in the library; they stay registered for the benchmark's kernel
probes, which dispatch them by name.  The advanced apply
``x = alpha op(b) + beta x`` has no kernel of its own:
:meth:`~linopkit.linop.LinOp.advanced_apply` combines ``apply``'s result
with one numpy expression for every operator.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import DimensionError, InvalidArgumentError
from .executor import register_kernel, split_ranges, worker_pool

#: The fixed tile of every reduction (:func:`rowdot`).  It depends on no
#: worker or lane count, and it keeps each ``np.vecdot`` call under the 10,000
#: elements above which OpenBLAS splits ``ddot`` across its own threads.
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


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products over the last axis, leading axes broadcast.  ``np.vecdot``
    runs on ``REDUCTION_TILE``-entry tiles and the partials are added in tile
    order, so a row's sum depends neither on the other rows nor on the BLAS
    thread count."""
    total = np.vecdot(a[..., :REDUCTION_TILE], b[..., :REDUCTION_TILE])
    for lo in range(REDUCTION_TILE, a.shape[-1], REDUCTION_TILE):
        total += np.vecdot(a[..., lo:lo + REDUCTION_TILE], b[..., lo:lo + REDUCTION_TILE])
    return total


@register_kernel("dot")
def _dot(exec_, a, b):
    """Columnwise dot by :func:`rowdot`, from +0.0, so an all -0.0 column gives +0.0."""
    return rowdot(a.T, b.T) + 0.0


@register_kernel("norm2")
def _norm2(exec_, a):
    return np.sqrt(_dot(exec_, a, a))


# --- sparse matrix-vector products -----------------------------------------
#
# row_ids holds the row index of every stored entry (the expanded form of
# row_ptrs).  The numpy body below is the definition; the compiled body must
# match it bit for bit (see the bottom of this section).


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
    (:func:`_check_indices`).
    """
    n = len(row_ptrs) - 1
    for j in range(b.shape[1]):
        prod = b[:, j].take(col_idxs) if col_idxs.flags.writeable else b[:, j][col_idxs]
        prod *= values
        out[:, j] = np.bincount(row_ids, weights=prod, minlength=n)


def _check_indices(row_ptrs, col_idxs):
    """What the numpy body needs of index arrays that nobody checked, or that
    may have been written since: ``row_ptrs[-1]`` counts the entries, and no
    column is negative (the gathers bounds-check the rest)."""
    nnz = col_idxs.shape[0]
    if row_ptrs[-1] != nnz:
        raise DimensionError(f"row_ptrs[-1] = {row_ptrs[-1]}, but there are {nnz} column indices")
    if nnz and col_idxs.min() < 0:
        raise IndexError(f"column index {col_idxs.min()} is negative")


@register_kernel("spmv")
def _spmv(exec_, row_ptrs, row_ids, col_idxs, values, b, out):
    """``out = A b`` on raw CSR arrays, by the numpy body and its checks.

    The library multiplies through :func:`block_spmv`; this kernel serves
    callers that hold raw arrays, such as the benchmark's probes."""
    _check_indices(row_ptrs, col_idxs)
    nnz = col_idxs.shape[0]
    if row_ids.shape[0] != nnz or values.shape[0] != nnz:
        raise DimensionError(f"row_ptrs[-1] = {row_ptrs[-1]}, but there are {row_ids.shape[0]} "
                             f"row ids and {values.shape[0]} values")
    _spmv_numpy(row_ptrs, row_ids, col_idxs, values, b, out)


# --- CSR patterns and the one SpMV entry point ---------------------------------
#
# k systems that share one pattern are one CSR matrix with k copies of that
# pattern down its diagonal: block row l * rows + i holds row i's entries in
# the same order, columns offset by l * cols.  One csr_matvec call, or one
# pass of the numpy body, then multiplies all k lanes, and every row sum is
# the solo row's, bit for bit.  A plain CSR pattern is the one-lane case.
#
# The compiled loop reads b[col_idxs[jj]] and values[jj] for jj in
# [row_ptrs[i], row_ptrs[i+1]) without a bounds check, so it runs only on a
# pattern that was checked, while its index arrays stay read-only.

_F64 = np.dtype(np.float64)


class BlockPattern:
    """``lanes`` copies of a ``rows`` x ``cols`` CSR pattern down the diagonal of one matrix.

    A one-lane pattern is a plain CSR pattern; every ``Csr`` and ``BatchCsr``
    holds one.  ``checked`` is True for a pattern
    :func:`freeze_checked_pattern` returned and for the expansions
    :func:`block_pattern` builds from one, whose arrays are their own and
    never handed out; only those admit the compiled body.  Other patterns
    have one lane, whose x the numpy body's gathers bound.  Any prefix of the
    lanes is itself a block pattern, which serves smaller and compacted lane
    sets.
    """

    __slots__ = ("row_ptrs", "col_idxs", "cols", "lanes", "rows", "nnz", "checked", "_row_ids")

    def __init__(self, row_ptrs: np.ndarray, col_idxs: np.ndarray, cols: int, lanes: int = 1,
                 checked: bool = False):
        self.row_ptrs, self.col_idxs, self.cols, self.lanes = row_ptrs, col_idxs, cols, lanes
        self.rows = (row_ptrs.shape[0] - 1) // lanes
        self.nnz = col_idxs.shape[0] // lanes
        self.checked = checked
        self._row_ids = None

    def frozen(self) -> bool:
        """True while the compiled loop may read this pattern: it was checked,
        and its index arrays are still read-only (an owner can be made
        writable again, and then changed)."""
        return self.checked and not (self.row_ptrs.flags.writeable or self.col_idxs.flags.writeable)

    def row_ids(self) -> np.ndarray:
        """The block row of every stored entry.  It is kept, from first use,
        only while the pattern is :meth:`frozen` (workers that race here
        build equal arrays); arrays that may still change are expanded on
        every call, so a moved row boundary shows at once."""
        if self._row_ids is None or not self.frozen():
            ids = np.repeat(np.arange(self.lanes * self.rows, dtype=np.int64),
                            np.diff(self.row_ptrs))
            if not self.frozen():
                return ids
            self._row_ids = ids
        return self._row_ids


def freeze_checked_pattern(row_ptrs: np.ndarray, col_idxs: np.ndarray, cols: int) -> BlockPattern:
    """Make a validated CSR pattern read-only and return it as a checked one-lane pattern.

    The caller vouches that ``row_ptrs`` starts at 0 and never decreases,
    that ``col_idxs`` has ``row_ptrs[-1]`` entries in ``[0, cols)``, and that
    both are int64 arrays it owns, of which no writable view was handed out.
    """
    row_ptrs.flags.writeable = col_idxs.flags.writeable = False
    return BlockPattern(row_ptrs, col_idxs, int(cols), checked=True)


def block_pattern(pattern: BlockPattern, lanes: int) -> BlockPattern:
    """The block-diagonal expansion of a checked one-lane ``pattern`` for up to ``lanes`` lanes.

    Lanes are offset by the pattern's column count, never by the largest
    stored index, which an empty last column makes smaller.
    """
    if pattern.lanes != 1 or not pattern.frozen():
        raise InvalidArgumentError("only a checked, read-only one-lane pattern expands to a block")
    rows, cols, nnz = pattern.rows, pattern.cols, pattern.nnz
    lane = np.arange(lanes, dtype=np.int64)[:, None]
    block_ptrs = np.empty(lanes * rows + 1, dtype=np.int64)
    np.add(pattern.row_ptrs[:-1], lane * nnz, out=block_ptrs[:-1].reshape(lanes, rows))
    block_ptrs[-1] = lanes * nnz
    block_cols = np.empty(lanes * nnz, dtype=np.int64)
    np.add(pattern.col_idxs, lane * cols, out=block_cols.reshape(lanes, nnz))
    block_ptrs.flags.writeable = block_cols.flags.writeable = False
    return BlockPattern(block_ptrs, block_cols, cols, lanes, checked=True)


def block_spmv(block: BlockPattern, vals: np.ndarray, xb: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[l] = A_l xb[l]`` for every lane ``l`` of ``xb``; returns ``out``.

    The library's one SpMV entry point: ``Csr.apply``, a Solver's lanes and
    a batched group each multiply with one call.  ``vals`` holds lane ``l``'s
    values in the pattern's order as row ``l``, with at most ``block.lanes``
    lanes; on a one-lane pattern it may instead be one row that any number
    of lanes share.  ``out`` must not overlap ``xb``.  The guards run once
    per call.  The compiled loop runs when the pattern is
    :meth:`~BlockPattern.frozen` and every operand is float64, on contiguous
    copies of strided operands, once per lane for shared values.  Otherwise
    the numpy body runs, after :func:`_check_indices` on a pattern that is
    not frozen.  Both give the numpy body's bits.
    """
    k, rows, nnz = xb.shape[0], block.rows, block.nnz
    shared = block.lanes == 1 and vals.shape[:1] == (1,)
    if ((k > block.lanes and not shared) or vals.shape != ((1 if shared else k), nnz)
            or xb.shape != (k, block.cols) or out.shape != (k, rows)):
        raise DimensionError(f"values {vals.shape}, x {xb.shape} and out {out.shape} do not "
                             f"fit up to {block.lanes} {rows} x {block.cols} systems of "
                             f"{nnz} entries")
    tools, frozen = _SPARSETOOLS, block.frozen()
    if tools is not None and frozen and vals.dtype is xb.dtype is out.dtype is _F64:
        y = out if out.flags.c_contiguous else np.empty(out.shape)
        y.fill(0.0)
        v, xc = np.ascontiguousarray(vals), np.ascontiguousarray(xb)
        if shared:
            for lane in range(k):
                tools.csr_matvec(rows, block.cols, block.row_ptrs, block.col_idxs, v, xc[lane],
                                 y[lane])
        else:  # C-contiguous 2-D blocks are the flat lane-major vectors the loop reads
            tools.csr_matvec(k * rows, k * block.cols, block.row_ptrs[: k * rows + 1],
                             block.col_idxs[: k * nnz], v, xc, y)
        if y is not out:
            out[...] = y
        return out
    if not frozen:
        _check_indices(block.row_ptrs, block.col_idxs)
    if shared:  # the numpy body multiplies the lanes as columns
        _spmv_numpy(block.row_ptrs, block.row_ids(), block.col_idxs, vals[0], xb.T, out.T)
        return out
    y = out.reshape(-1, 1)  # a view of out unless its layout forbids one
    _spmv_numpy(block.row_ptrs[: k * rows + 1], block.row_ids()[: k * nnz],
                block.col_idxs[: k * nnz], vals.reshape(-1), xb.reshape(-1, 1), y)
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
        module.csr_matvec  # noqa: B018  (it must exist)
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
    Further rows sum -0.0 products, meet inf and NaN, or are empty.  The loop
    runs once per column of ``b`` into a ``y`` of +0.0, as :func:`block_spmv`
    runs it on each lane of shared values, and both columns start with that
    row.
    """
    e = 2.0**-30
    row_ptrs = np.array([0, 2, 4, 6, 8, 8], dtype=np.int64)
    col_idxs = np.array([0, 1, 2, 3, 1, 4, 4, 5], dtype=np.int64)
    values = np.array([-(1 + 2 * e), 1 + e, 1.0, -1.0, 1.0, 2.0, -1.0, 1.0])
    b = np.array([[1.0, 1 + e, -0.0, 0.0, np.inf, np.nan], [1.0, 1 + e, 3.0, -0.0, -2.0, 0.5]])
    row_ids = np.repeat(np.arange(5, dtype=np.int64), np.diff(row_ptrs))
    try:
        for column in b:
            want = np.empty((5, 1))
            _spmv_numpy(row_ptrs, row_ids, col_idxs, values, column[:, None], want)
            got = np.zeros(5)
            tools.csr_matvec(5, 6, row_ptrs, col_idxs, values, column, got)
            if not np.array_equal(got.view(np.uint64), want[:, 0].view(np.uint64)):
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
