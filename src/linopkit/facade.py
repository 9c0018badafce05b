"""Application-side solver boundary.

The application owns its vectors and matrices and talks to a solver through
the small interfaces here: :class:`AppVector`, :class:`AppMatrix`,
:class:`AbstractSolver` and the five-field :class:`SolverOptions`.  Nothing
in those interfaces names a backend type, so swapping the linear algebra
library underneath means swapping the one implementation class.

The implementation converts the application matrix exactly once (an explicit,
counted copy) when the solver is built.  Vectors are never copied: each solve
wraps the application's buffers in views, a read-only one over b and a
mutable one over x, so the solution lands directly in application storage.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .container import Dim, MatrixData, array_view
from .errors import ConfigurationError, InvalidArgumentError
from .executor import Executor
from .linop import Csr, Dense
from .solver import (
    DEFAULT_RESTART,
    Iteration,
    ResidualNorm,
    SolveReport,
    SolverFactory,
)

VALID_ALGORITHMS = ("cg", "bicgstab", "gmres", "lu")
VALID_PRECONDITIONERS = ("none", "jacobi")

class AppVector:
    """A vector as an application would own it: one flat float64 buffer.

    Rows may be padded (``stride >= num_cols``); element (i, j) lives at flat
    offset ``i * stride + j``.
    """

    def __init__(self, num_rows, num_cols=1, stride=None, data=None):
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.stride = self.num_cols if stride is None else int(stride)
        if self.num_rows < 0 or self.num_cols < 1 or self.stride < self.num_cols:
            raise InvalidArgumentError(
                f"bad vector geometry: rows={num_rows} cols={num_cols} stride={stride}"
            )
        total = self.num_rows * self.stride
        if data is None:
            self._data = np.zeros(total)
        else:
            if (
                not isinstance(data, np.ndarray)
                or data.ndim != 1
                or data.shape[0] != total
                or data.dtype != np.float64
            ):
                raise InvalidArgumentError(f"data must be a flat float64 array of {total} elements")
            self._data = data

    @classmethod
    def from_values(cls, values, stride=None) -> "AppVector":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        rows, cols = arr.shape
        out = cls(rows, cols, stride)
        out._view2d()[...] = arr
        return out

    def total_size(self) -> int:
        return self.num_rows * self.stride

    def data(self) -> np.ndarray:
        """The raw flat buffer; what gets handed to views."""
        return self._data

    def _view2d(self) -> np.ndarray:
        return self._data.reshape(self.num_rows, self.stride)[:, : self.num_cols]

    def get(self, i, j=0) -> float:
        return float(self._data[i * self.stride + j])

    def set(self, i, value, j=0) -> None:
        self._data[i * self.stride + j] = float(value)

    def to_array(self) -> np.ndarray:
        """Copy of the logical (rows, cols) block, squeezed for single columns."""
        block = np.array(self._view2d())
        return block[:, 0] if self.num_cols == 1 else block


class AppMatrix:
    """A sparse matrix as an application would assemble it: a triplet bag.

    A thin wrapper over one :class:`MatrixData`, whose three arrays hold the
    entries in insertion order.  Add them one at a time with
    :meth:`add_entry` or a whole batch of index and value arrays at once with
    :meth:`add_entries`; both check bounds, and a rejected call stores
    nothing.
    """

    def __init__(self, num_rows, num_cols):
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self._data = MatrixData(Dim(self.num_rows, self.num_cols))

    def add_entry(self, row, col, value) -> None:
        self._data.add(row, col, value)

    def add_entries(self, rows, cols, values) -> None:
        """Append ``(rows[k], cols[k], values[k])`` for every k, in order."""
        self._data.add_entries(rows, cols, values)

    def __iter__(self):
        """Yields every stored (row, col, value) exactly once."""
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


def _dense_view(exec_: Executor, vec: AppVector, const: bool = False) -> Dense:
    arr = array_view(exec_, vec.total_size(), vec.data(), const=const)
    size = Dim(vec.num_rows, vec.num_cols)
    if const:
        return Dense.create_const(exec_, size, arr, stride=vec.stride)
    return Dense.from_array(exec_, size, arr, stride=vec.stride)


@dataclass(frozen=True)
class SolverOptions:
    """The complete, fixed option set an application configures a solver with.

    ``wrap_in_gmres`` only matters for ``algorithm="lu"``: it selects GMRES
    right-preconditioned by the LU factorization instead of a plain direct
    solve, which turns an outdated factorization into a preconditioner rather
    than a wrong answer.
    """

    algorithm: str
    max_iters: int = 1000
    reduction_factor: float = 1e-10
    wrap_in_gmres: bool = False
    preconditioner: str = "none"


class AbstractSolver(ABC):
    """What the application sees: solve and update, nothing backend-shaped."""

    @abstractmethod
    def solve(self, b: AppVector, x: AppVector) -> SolveReport:
        """Solve into x (initial guess in, solution out)."""

    @abstractmethod
    def update_matrix_values(self, values) -> None:
        """Replace the system matrix values; the sparsity pattern stays."""


class BackendSolver(AbstractSolver):
    """AbstractSolver implementation backed by this library.

    Set ``iteration_callback`` to a callable taking (iteration,
    residual_norm) to observe the residual history of subsequent solves.
    """

    def __init__(self, executor: Executor, matrix: AppMatrix, options: SolverOptions,
                 restart: int | None = None):
        _validate_options(options)
        self._executor = executor
        self._matrix = Csr.from_data(executor, matrix._data)  # the one conversion copy
        algorithm = options.algorithm
        if algorithm == "lu" and options.wrap_in_gmres:
            algorithm = "gmres_lu"
        factory = SolverFactory(
            algorithm=algorithm,
            criteria=(Iteration(options.max_iters), ResidualNorm(options.reduction_factor)),
            preconditioner=None if options.preconditioner == "none" else options.preconditioner,
            restart=DEFAULT_RESTART if restart is None else restart,
        )
        self._solver = factory.generate(self._matrix)
        self.iteration_callback = None

    def solve(self, b: AppVector, x: AppVector) -> SolveReport:
        gb = _dense_view(self._executor, b, const=True)
        gx = _dense_view(self._executor, x)
        return self._solver.solve(gb, gx, callback=self.iteration_callback)

    def update_matrix_values(self, values) -> None:
        """values follow the converted pattern: row-major, columns sorted."""
        self._matrix.update_values(values)
        self._solver.refresh()


def _validate_options(options: SolverOptions) -> None:
    if options.algorithm not in VALID_ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm '{options.algorithm}'; valid: {', '.join(VALID_ALGORITHMS)}"
        )
    if options.preconditioner not in VALID_PRECONDITIONERS:
        raise ConfigurationError(
            f"unknown preconditioner '{options.preconditioner}'; "
            f"valid: {', '.join(VALID_PRECONDITIONERS)}"
        )
    if options.max_iters < 0:
        raise ConfigurationError(f"max_iters must be >= 0, got {options.max_iters}")
    if not options.reduction_factor > 0:
        raise ConfigurationError(
            f"reduction_factor must be > 0, got {options.reduction_factor}"
        )


def create_solver(executor: Executor, matrix: AppMatrix, options: SolverOptions,
                  restart: int | None = None) -> AbstractSolver:
    """Build the library-backed solver for an application matrix.

    ``restart`` (GMRES only) rides outside SolverOptions on purpose: the
    option set is part of the application-facing interface and stays fixed.
    """
    return BackendSolver(executor, matrix, options, restart)

