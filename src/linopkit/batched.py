"""Batched solves: many small independent systems, one shared sparsity pattern.

A :class:`BatchCsr` stores one copy of the CSR structure and a (num_systems,
nnz) value block; a :class:`BatchDense` stacks the per-system vectors.
:func:`batch_solve` runs the systems in lockstep through the same CG, BiCGStab
and GMRES recurrences a :class:`~linopkit.solver.Solver` runs, with one lane
per system, set up by the same function (which builds every group's Jacobi
inverse diagonals too), so each system gets exactly the bits of its single
solve (see the solver's algorithm internals).  A system leaves the lockstep
when its own criteria stop it, or when it breaks down, which marks it failed
without disturbing its siblings.  Its result is written out at its stop; its
row stays in the state, its later arithmetic discarded, until the systems
still iterating fall to half the rows held, and only then is the state
compacted to them.

On parallel executors the batch is split into contiguous system ranges
through the ``run_partitioned`` kernel: the calling thread solves the first
and the pool's ``worker_count - 1`` threads the rest.  Each range is solved
in contiguous groups of as many systems as ``GROUP_WORDS`` holds lanes of
the algorithm's block (:func:`~linopkit.solver._lane_words`; GMRES runs at
``DEFAULT_RESTART``, with no ``restart`` argument until a caller needs
another).  Groups touch only their own slice of every array and never call
the dispatched kernels, which keeps the worker pool free of nested
submissions, so neither the partitioning nor the grouping can change any
result.

A group's held systems form one block-diagonal CSR matrix, whose pattern
:func:`~linopkit.kernels.block_pattern` expands once per solve from the
batch's checked pattern, and every SpMV of the solve is one
:func:`~linopkit.kernels.block_spmv` call on it, the function every SpMV of
the library goes through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import Array, Dim, MatrixData, Ownership
from .errors import InvalidArgumentError
from .executor import Executor, dispatch
from .kernels import block_pattern, block_spmv
from .linop import Csr, checked_pattern
from .solver import (
    STOP_RESIDUAL,
    _UNFACTORED,
    _checked_options,
    _diagonal_positions,
    _lane_setup,
    _lane_words,
)

#: Systems are solved in groups of at most this many float64 words of lane state (5 MiB),
#: whatever the algorithm, so the memory a solve needs does not grow with the batch.
GROUP_WORDS = 5 << 17


class BatchCsr:
    """A batch of CSR matrices sharing row_ptrs and col_idxs: one pattern plus a value block.

    The constructor copies the shared pattern, checks it by Csr's rules and
    freezes it as a checked one-lane ``BlockPattern``, as ``Csr.from_arrays``
    does; :meth:`from_template` keeps the one its conversion built.  Batched
    solves expand that pattern, and the matrices :meth:`extract_system`
    hands out share it, so both may take SpMV's compiled body.
    """

    def __init__(self, executor: Executor, num_systems: int, size, row_ptrs, col_idxs, values):
        size = Dim(int(size[0]), int(size[1]))
        self._init(executor, num_systems, size, checked_pattern(size, row_ptrs, col_idxs), values)

    def _init(self, executor, num_systems, size, pattern, values):
        """Set up over ``pattern``, a checked one-lane pattern the batch keeps."""
        if num_systems < 0:
            raise InvalidArgumentError(f"num_systems must be >= 0, got {num_systems}")
        self._executor = executor
        self._num_systems = int(num_systems)
        self._size = size
        self._pattern = pattern
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        if self._values.shape != (self._num_systems, pattern.nnz):
            raise InvalidArgumentError(f"values must have shape ({self._num_systems}, "
                                       f"{pattern.nnz}), got {self._values.shape}")

    @classmethod
    def from_template(cls, executor: Executor, num_systems: int, template: MatrixData, per_system_values) -> "BatchCsr":
        """Build from a structure template plus per-system values.

        The template is converted once (sorted, duplicates summed); the value
        block must follow the converted ordering and hold num_systems * nnz
        entries, either flat or as a (num_systems, nnz) array.  The batch
        keeps the pattern the conversion built and checked, uncopied, and
        keeps a C-contiguous float64 value block uncopied too, so later
        writes to that block show in later solves; pass a copy to decouple.
        Any other value input is copied into a contiguous float64 block.
        """
        structure = Csr.from_data(executor, template)
        nnz = structure.num_stored_elements
        vals = np.asarray(per_system_values, dtype=np.float64)
        if vals.size != num_systems * nnz:
            raise InvalidArgumentError(
                f"expected {num_systems} x {nnz} values, got {vals.size}"
            )
        batch = cls.__new__(cls)
        batch._init(
            executor,
            num_systems,
            structure.size,
            structure._pattern,
            vals.reshape(num_systems, nnz),
        )
        return batch

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
        return self._pattern.nnz

    @property
    def row_ptrs(self) -> np.ndarray:
        return self._pattern.row_ptrs

    @property
    def col_idxs(self) -> np.ndarray:
        return self._pattern.col_idxs

    @property
    def values(self) -> np.ndarray:
        return self._values

    def extract_system(self, k: int) -> Csr:
        """System ``k`` as a Csr sharing this batch's storage and checked
        pattern (no copy)."""
        if not 0 <= k < self._num_systems:
            raise InvalidArgumentError(f"system {k} out of range for {self._num_systems}")
        return Csr._over(self._executor, self._size, self._pattern,
                         Array(self._executor, self._values[k], Ownership.BORROWED))


class BatchDense:
    """A batch of dense blocks, stored as one (num_systems, rows, cols) array."""

    def __init__(self, executor: Executor, num_systems: int, size, values: np.ndarray):
        self._executor = executor
        self._num_systems = int(num_systems)
        self._size = Dim(int(size[0]), int(size[1]))
        expected = (self._num_systems, self._size.rows, self._size.cols)
        if values.shape != expected:
            raise InvalidArgumentError(f"values must have shape {expected}, got {values.shape}")
        if values.dtype != np.float64:
            raise InvalidArgumentError(f"values must be float64, got {values.dtype}")
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


@dataclass
class BatchSolveReport:
    """Per-system outcome of a batched solve.

    ``stop_reasons[k]`` is ``"residual_norm"``, ``"iteration"``,
    ``"breakdown"`` or ``"singular_preconditioner"``; the last two mark the
    system failed while the rest of the batch ran to completion (a BiCGStab rho
    collapse while r is not small restarts the shadow residual: no breakdown).
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
        ``"cg"``, ``"bicgstab"`` or ``"gmres"``; not ``"lu"`` or ``"gmres_lu"``,
        which factor one matrix.
    a : BatchCsr
    b, x : BatchDense
        One right-hand side per system (cols == 1); ``x`` supplies the
        initial guesses and receives the solutions.
    criteria : sequence of StoppingCriterion
        Evaluated per system against that system's own residual history.
    preconditioner : str or None
        ``"jacobi"``, or ``"none"`` or None for none.

    Returns
    -------
    BatchSolveReport
    """
    criteria = _checked_options(_UNFACTORED, algorithm, criteria, preconditioner)
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

    num = a.num_systems
    iters = np.zeros(num, dtype=np.int64)
    finals = np.zeros(num)
    reasons = np.empty(num, dtype=object)

    diag_pos = _diagonal_positions(a.row_ptrs, a.col_idxs) if preconditioner == "jacobi" else None
    bvals = b.values[:, :, 0]
    xvals = x.values[:, :, 0]

    lane = _lane_words(algorithm, a.size.rows, a.num_stored_elements)
    group = max(1, GROUP_WORDS // max(1, lane))
    pattern = block_pattern(a._pattern, max(1, min(group, num)))

    def spmv(vals, src, dst, live):  # dead rows too: one call for the whole group
        block_spmv(pattern, vals, src, dst)

    def body(lo, hi):
        for start in range(lo, hi, group):
            g = slice(start, min(start + group, hi))
            vals = a.values[g]
            block, invd, singular = _lane_setup(algorithm, diag_pos, vals)
            block(spmv, vals, bvals[g], xvals[g], criteria, invd, singular,
                  (iters[g], finals[g], reasons[g]))

    dispatch(a.executor, "run_partitioned")(num, body)
    return BatchSolveReport(iters, finals, reasons == STOP_RESIDUAL, list(reasons))

