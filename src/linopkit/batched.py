"""Batched solves: many small independent systems, one shared sparsity pattern.

A :class:`BatchCsr` stores one copy of the CSR structure and a (num_systems,
nnz) value block; a :class:`BatchDense` stacks the per-system vectors.  The
batched CG and BiCGStab below run the systems in lockstep, each performing
exactly the update sequence the single-system solver would.  A system leaves
the lockstep when its own criteria stop it, or when it breaks down, which
marks it failed without disturbing its siblings.  Its solution and report are
written back once, and the state arrays are compacted to the systems still
iterating, so a finished system costs nothing further.  Each lane's
arithmetic and summation order do not depend on which other lanes are live.

On parallel executors the batch is split into contiguous system ranges
through the ``run_partitioned`` kernel, and each range is solved in
contiguous groups of at most ``GROUP_ENTRIES`` stored entries' worth of
systems.  Block bodies touch only their own slice of every array and use
plain numpy internally (never the dispatched kernels, which keeps the worker
pool free of nested submissions), so neither the partitioning nor the
grouping can change any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import Array, Dim, MatrixData, Ownership
from .errors import InvalidArgumentError
from .executor import Executor, dispatch
from .linop import Csr
from .solver import (
    DEFAULT_TOL_BREAKDOWN,
    Iteration,
    ResidualNorm,
    STOP_ITERATION,
    STOP_RESIDUAL,
)

STOP_BREAKDOWN = "breakdown"
STOP_SINGULAR_PRECONDITIONER = "singular_preconditioner"

BATCH_ALGORITHMS = ("cg", "bicgstab")

#: Systems are solved in groups of at most this many stored pattern entries,
#: so every state array and SpMV temporary of a group stays near a megabyte
#: however large the batch: the working set stays cache-sized and the memory
#: a solve needs does not grow with the batch.
GROUP_ENTRIES = 1 << 17


class BatchCsr:
    """A batch of CSR matrices sharing row_ptrs and col_idxs."""

    def __init__(self, executor: Executor, num_systems: int, size, row_ptrs, col_idxs, values):
        if num_systems < 0:
            raise InvalidArgumentError(f"num_systems must be >= 0, got {num_systems}")
        self._executor = executor
        self._num_systems = int(num_systems)
        self._size = Dim(int(size[0]), int(size[1]))
        self._row_ptrs = np.asarray(row_ptrs, dtype=np.int64)
        self._col_idxs = np.asarray(col_idxs, dtype=np.int64)
        self._values = np.asarray(values, dtype=np.float64)
        nnz = self._col_idxs.shape[0]
        if self._values.shape != (self._num_systems, nnz):
            raise InvalidArgumentError(
                f"values must have shape ({self._num_systems}, {nnz}), got {self._values.shape}"
            )
        self._row_ids = np.repeat(
            np.arange(self._size.rows, dtype=np.int64), np.diff(self._row_ptrs)
        )

    @classmethod
    def from_template(cls, executor: Executor, num_systems: int, template: MatrixData, per_system_values) -> "BatchCsr":
        """Build from a structure template plus per-system values.

        The template is converted once (sorted, duplicates summed); the value
        block must follow the converted ordering and hold num_systems * nnz
        entries, either flat or as a (num_systems, nnz) array.
        """
        structure = Csr.from_data(executor, template)
        nnz = structure.num_stored_elements
        vals = np.asarray(per_system_values, dtype=np.float64)
        if vals.size != num_systems * nnz:
            raise InvalidArgumentError(
                f"expected {num_systems} x {nnz} values, got {vals.size}"
            )
        return cls(
            executor,
            num_systems,
            structure.size,
            structure.get_row_ptrs().numpy(),
            structure.get_col_idxs().numpy(),
            vals.reshape(num_systems, nnz).copy(),
        )

    @property
    def executor(self) -> Executor:
        return self._executor

    @property
    def num_systems(self) -> int:
        return self._num_systems

    @property
    def size(self) -> Dim:
        return self._size

    @property
    def num_stored_elements(self) -> int:
        return self._col_idxs.shape[0]

    @property
    def row_ptrs(self) -> np.ndarray:
        return self._row_ptrs

    @property
    def col_idxs(self) -> np.ndarray:
        return self._col_idxs

    @property
    def values(self) -> np.ndarray:
        return self._values

    def extract_system(self, k: int) -> Csr:
        """System ``k`` as a Csr sharing this batch's storage (no copy)."""
        if not 0 <= k < self._num_systems:
            raise InvalidArgumentError(f"system {k} out of range for {self._num_systems}")
        return Csr(
            self._executor,
            self._size,
            Array(self._executor, self._row_ptrs, Ownership.BORROWED),
            Array(self._executor, self._col_idxs, Ownership.BORROWED),
            Array(self._executor, self._values[k], Ownership.BORROWED),
            validate=False,
        )


class BatchDense:
    """A batch of dense blocks, stored as one (num_systems, rows, cols) array."""

    def __init__(self, executor: Executor, num_systems: int, size, values: np.ndarray):
        self._executor = executor
        self._num_systems = int(num_systems)
        self._size = Dim(int(size[0]), int(size[1]))
        expected = (self._num_systems, self._size.rows, self._size.cols)
        if values.shape != expected:
            raise InvalidArgumentError(f"values must have shape {expected}, got {values.shape}")
        self._values = values

    @classmethod
    def zeros(cls, executor: Executor, num_systems: int, size) -> "BatchDense":
        size = Dim(int(size[0]), int(size[1]))
        return cls(executor, num_systems, size, np.zeros((num_systems, size.rows, size.cols)))

    @classmethod
    def from_values(cls, executor: Executor, values) -> "BatchDense":
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 3:
            raise InvalidArgumentError(f"expected a 3-D value array, got ndim={arr.ndim}")
        return cls(executor, arr.shape[0], Dim(arr.shape[1], arr.shape[2]), arr)

    @property
    def executor(self) -> Executor:
        return self._executor

    @property
    def num_systems(self) -> int:
        return self._num_systems

    @property
    def size(self) -> Dim:
        return self._size

    @property
    def values(self) -> np.ndarray:
        return self._values

    def system_view(self, k: int) -> np.ndarray:
        return self._values[k]


@dataclass
class BatchSolveReport:
    """Per-system outcome of a batched solve.

    ``stop_reasons[k]`` is ``"residual_norm"``, ``"iteration"``,
    ``"breakdown"`` or ``"singular_preconditioner"``; the last two mark the
    system failed while the rest of the batch ran to completion.
    """

    iterations: np.ndarray
    final_residual_norms: np.ndarray
    converged: np.ndarray
    stop_reasons: list

    @property
    def num_systems(self) -> int:
        return self.iterations.shape[0]


def batch_solve(algorithm, a, b, x, criteria, preconditioner=None) -> BatchSolveReport:
    """Solve A_k x_k = b_k for every system in the batch.

    Parameters
    ----------
    algorithm : str
        ``"cg"`` or ``"bicgstab"``.
    a : BatchCsr
    b, x : BatchDense
        One right-hand side per system (cols == 1); ``x`` supplies the
        initial guesses and receives the solutions.
    criteria : sequence of StoppingCriterion
        Evaluated per system against that system's own residual history.
    preconditioner : str or None
        ``"jacobi"`` or None.

    Returns
    -------
    BatchSolveReport
    """
    if algorithm not in BATCH_ALGORITHMS:
        raise InvalidArgumentError(
            f"unknown batched algorithm '{algorithm}'; valid: {', '.join(BATCH_ALGORITHMS)}"
        )
    if not isinstance(a, BatchCsr):
        raise InvalidArgumentError("batch_solve expects a BatchCsr system block")
    if a.size.rows != a.size.cols:
        raise InvalidArgumentError(f"system matrices must be square, got {a.size}")
    for vec, name in ((b, "b"), (x, "x")):
        if not isinstance(vec, BatchDense):
            raise InvalidArgumentError(f"{name} must be a BatchDense")
        if vec.num_systems != a.num_systems:
            raise InvalidArgumentError(
                f"{name} holds {vec.num_systems} systems, matrix batch holds {a.num_systems}"
            )
        if vec.size.cols != 1:
            raise InvalidArgumentError("batched solves support one right-hand side per system")
        if vec.size.rows != a.size.rows:
            raise InvalidArgumentError(
                f"{name} has {vec.size.rows} rows, systems have {a.size.rows}"
            )
    criteria = tuple(criteria)
    if not criteria:
        raise InvalidArgumentError("at least one stopping criterion is required")
    for crit in criteria:
        if not isinstance(crit, (Iteration, ResidualNorm)):
            raise InvalidArgumentError(f"unknown stopping criterion {crit!r}")
    if preconditioner not in (None, "none", "jacobi"):
        raise InvalidArgumentError(f"unknown preconditioner '{preconditioner}'; valid: jacobi")

    num = a.num_systems
    n = a.size.rows
    iters = np.zeros(num, dtype=np.int64)
    finals = np.zeros(num)
    conv = np.zeros(num, dtype=bool)
    reasons = np.empty(num, dtype=object)

    use_jacobi = preconditioner == "jacobi"
    diag_pos = _structural_diagonal(a) if use_jacobi else None

    bvals = b.values[:, :, 0]
    xvals = x.values[:, :, 0]
    block = _cg_block if algorithm == "cg" else _bicgstab_block

    group = max(1, GROUP_ENTRIES // max(1, a.num_stored_elements))

    def body(lo, hi):
        for start in range(lo, hi, group):
            g = slice(start, min(start + group, hi))
            block(a._row_ids, a.col_idxs, n, a.values[g], bvals[g], xvals[g], criteria,
                  diag_pos, DEFAULT_TOL_BREAKDOWN, iters[g], finals[g], conv[g], reasons[g])

    dispatch(a.executor, "run_partitioned")(num, body)
    return BatchSolveReport(iters, finals, conv, list(reasons))


# --- block internals ----------------------------------------------------------


def _structural_diagonal(a: BatchCsr) -> np.ndarray:
    """Index of each row's diagonal entry in the shared pattern, or -1."""
    on_diag = a.col_idxs == a._row_ids
    pos = np.full(a.size.rows, -1, dtype=np.int64)
    pos[a._row_ids[on_diag]] = np.flatnonzero(on_diag)
    return pos


def _flat_rows(row_ids, n, m) -> np.ndarray:
    """Output slot of every stored entry of ``m`` stacked systems, lane-major.

    The first ``k * nnz`` entries are the index for the first ``k`` lanes.
    """
    return (np.arange(m)[:, None] * n + row_ids[None, :]).ravel()


def _spmv_block(vals, flat, col_idxs, n, xb) -> np.ndarray:
    """Per-system SpMV; row sums accumulate left to right like the solo kernel.

    ``flat`` is :func:`_flat_rows` for at least ``xb.shape[0]`` lanes.
    """
    m = xb.shape[0]
    prod = np.take(xb, col_idxs, axis=1)
    prod *= vals
    return np.bincount(flat[: prod.size], weights=prod.ravel(), minlength=m * n).reshape(m, n)


def _rowdot(u, v) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _rownorm(u) -> np.ndarray:
    return np.sqrt(_rowdot(u, u))


def _criteria_masks(criteria, k, r0, rk):
    """Lanes meeting a residual criterion, and whether the iteration cap is hit."""
    res = np.zeros(r0.shape, dtype=bool)
    iteration_hit = False
    for crit in criteria:
        if isinstance(crit, ResidualNorm):
            res |= (r0 == 0.0) | (rk <= crit.reduction_factor * r0)
        else:
            iteration_hit = iteration_hit or (k >= crit.max_iters)
    return res, iteration_hit


class _Lanes:
    """The systems of one block that are still iterating.

    Every array attribute holds one row per live lane, in block order, and
    ``ids`` maps each row to its block slot.  Until the first lane stops, ``x``
    and ``vals`` are views of the caller's storage; :meth:`stop` writes the
    results of stopping lanes back once and drops those lanes from every array
    attribute, so the recurrences never compute on a finished system.
    """

    def __init__(self, xv, vals, iters, finals, conv, reasons):
        self._out = (xv, iters, finals, conv, reasons)  # a tuple: never compacted
        self.ids = np.arange(xv.shape[0])
        self.x = xv
        self.vals = vals

    @property
    def count(self) -> int:
        return self.ids.shape[0]

    def stop(self, mask, k, converged, reason, *temps):
        """Record lanes in ``mask`` as stopped after ``k`` iterations.

        Returns ``temps`` (loop temporaries with one row per lane) compacted
        the same way.
        """
        if not mask.any():
            return temps
        xv, iters, finals, conv, reasons = self._out
        gone = self.ids[mask]
        xv[gone] = self.x[mask]
        finals[gone] = self.rk[mask]
        iters[gone] = k
        conv[gone] = converged
        reasons[gone] = reason
        keep = np.flatnonzero(~mask)
        # One array at a time, so each full-size original is freed before
        # the next copy is made.
        for name in [n for n, v in vars(self).items() if isinstance(v, np.ndarray)]:
            setattr(self, name, getattr(self, name).take(keep, axis=0))
        return tuple(t.take(keep, axis=0) for t in temps)

    def stop_by_criteria(self, criteria, k):
        res, iteration_hit = _criteria_masks(criteria, k, self.r0, self.rk)
        self.stop(res, k, True, STOP_RESIDUAL)
        if iteration_hit:
            self.stop(np.ones(self.count, dtype=bool), k, False, STOP_ITERATION)


def _start(row_ids, col_idxs, n, vals, bv, xv, criteria, diag_pos, out):
    """Initial residual, Jacobi set-up and the checks before the first iteration.

    Returns the live lanes (with ``r``, ``r0``, ``rk``, ``b_norm_sq`` and
    ``invd``) and the block's flat SpMV index.
    """
    flat = _flat_rows(row_ids, n, bv.shape[0])
    lanes = _Lanes(xv, vals, *out)
    lanes.r = bv - _spmv_block(vals, flat, col_idxs, n, xv)
    lanes.r0 = _rownorm(lanes.r)
    lanes.rk = lanes.r0.copy()
    lanes.b_norm_sq = _rowdot(bv, bv)
    lanes.invd = None
    if diag_pos is not None:
        if (diag_pos < 0).any():
            dvals = np.zeros(bv.shape)
        else:
            dvals = vals[:, diag_pos]
        lanes.invd = np.zeros(bv.shape)
        np.divide(1.0, dvals, out=lanes.invd, where=dvals != 0.0)
        # Such lanes keep their initial residual as the final one.
        lanes.stop((dvals == 0.0).any(axis=1), 0, False, STOP_SINGULAR_PRECONDITIONER)
    lanes.stop_by_criteria(criteria, 0)
    return lanes, flat


def _cg_block(row_ids, col_idxs, n, vals, bv, xv, criteria, diag_pos,
              tol_breakdown, *out):
    lanes, flat = _start(row_ids, col_idxs, n, vals, bv, xv, criteria, diag_pos, out)
    z = lanes.r * lanes.invd if lanes.invd is not None else lanes.r
    lanes.p = z.copy()
    lanes.rho = _rowdot(lanes.r, z)
    k = 0
    while lanes.count:
        k += 1
        lanes.stop(np.abs(lanes.rho) < tol_breakdown * lanes.b_norm_sq,
                   k - 1, False, STOP_BREAKDOWN)
        if not lanes.count:
            break
        q = _spmv_block(lanes.vals, flat, col_idxs, n, lanes.p)
        pq = _rowdot(lanes.p, q)
        q, pq = lanes.stop((pq == 0.0) | ~np.isfinite(pq), k - 1, False, STOP_BREAKDOWN, q, pq)
        if not lanes.count:
            break
        alpha = lanes.rho / pq
        lanes.x += alpha[:, None] * lanes.p
        lanes.r -= alpha[:, None] * q
        del q  # no full-size temporary may outlive a compaction
        lanes.rk = _rownorm(lanes.r)
        lanes.stop_by_criteria(criteria, k)
        if not lanes.count:
            break
        z = lanes.r * lanes.invd if lanes.invd is not None else lanes.r
        rho_new = _rowdot(lanes.r, z)
        # rho is 0 only where b is 0, which the breakdown test cannot catch.
        beta = np.zeros(lanes.count)
        np.divide(rho_new, lanes.rho, out=beta, where=lanes.rho != 0.0)
        lanes.p = z + beta[:, None] * lanes.p
        lanes.rho = rho_new


def _bicgstab_block(row_ids, col_idxs, n, vals, bv, xv, criteria, diag_pos,
                    tol_breakdown, *out):
    lanes, flat = _start(row_ids, col_idxs, n, vals, bv, xv, criteria, diag_pos, out)
    lanes.rhat = lanes.r.copy()
    lanes.rho = np.ones(lanes.count)
    lanes.alpha = np.ones(lanes.count)
    lanes.omega = np.ones(lanes.count)
    k = 0
    while lanes.count:
        k += 1
        rho = _rowdot(lanes.rhat, lanes.r)
        bd = (np.abs(rho) < tol_breakdown * lanes.b_norm_sq) | (lanes.omega == 0.0)
        (rho,) = lanes.stop(bd, k - 1, False, STOP_BREAKDOWN, rho)
        if not lanes.count:
            break
        if k == 1:
            lanes.p = lanes.r.copy()
        else:
            # (rho / rho_prev) * (alpha / omega), factored exactly like the
            # single-system recurrence so the rounding matches; rho_prev is 0
            # only where b is 0, which the breakdown test cannot catch.
            beta = np.zeros(lanes.count)
            np.divide(rho, lanes.rho, out=beta, where=lanes.rho != 0.0)
            beta *= lanes.alpha / lanes.omega
            lanes.p = lanes.r + beta[:, None] * (lanes.p - lanes.omega[:, None] * lanes.v)
        lanes.rho = rho
        phat = lanes.p * lanes.invd if lanes.invd is not None else lanes.p
        lanes.v = _spmv_block(lanes.vals, flat, col_idxs, n, phat)
        rhat_v = _rowdot(lanes.rhat, lanes.v)
        bad = (rhat_v == 0.0) | ~np.isfinite(rhat_v)
        phat, rhat_v = lanes.stop(bad, k - 1, False, STOP_BREAKDOWN, phat, rhat_v)
        if not lanes.count:
            break
        lanes.alpha = lanes.rho / rhat_v
        s = lanes.r - lanes.alpha[:, None] * lanes.v
        s_norm = _rownorm(s)
        half, _ = _criteria_masks(criteria, k, lanes.r0, s_norm)
        if half.any():
            lanes.x[half] += lanes.alpha[half, None] * phat[half]
            lanes.rk[half] = s_norm[half]
            phat, s = lanes.stop(half, k, True, STOP_RESIDUAL, phat, s)
        if not lanes.count:
            break
        shat = s * lanes.invd if lanes.invd is not None else s
        t = _spmv_block(lanes.vals, flat, col_idxs, n, shat)
        tt = _rowdot(t, t)
        bad = (tt == 0.0) | ~np.isfinite(tt)
        phat, s, shat, t, tt = lanes.stop(bad, k - 1, False, STOP_BREAKDOWN, phat, s, shat, t, tt)
        if not lanes.count:
            break
        lanes.omega = _rowdot(t, s) / tt
        lanes.x += lanes.alpha[:, None] * phat + lanes.omega[:, None] * shat
        lanes.r = s - lanes.omega[:, None] * t
        del phat, s, shat, t  # no full-size temporary may outlive a compaction
        lanes.rk = _rownorm(lanes.r)
        lanes.stop_by_criteria(criteria, k)
