"""Sparse linear algebra with runtime-selectable execution backends.

The pieces, bottom up: executors name a backend and dispatch kernels;
containers hold typed storage with explicit ownership; linear operators give
matrices, preconditioners, and solvers one composable interface; batched
solvers run many small systems in lockstep; the facade module is the
loose-coupling boundary an application integrates against.
"""

from . import kernels as _kernels  # noqa: F401  (registers the kernels)
from .batched import BatchCsr, BatchDense, BatchSolveReport, batch_solve
from .container import (
    Array,
    CopyStats,
    Dim,
    MatrixData,
    Ownership,
    array_create,
    array_view,
    copy_stats,
    memory_copy,
    reset_copy_stats,
)
from .errors import (
    BreakdownError,
    ConfigurationError,
    DimensionError,
    InvalidArgumentError,
    LibraryError,
    ParseError,
    SingularMatrixError,
    SingularPreconditionerError,
    UnsupportedBackendError,
    UnsupportedFormatError,
)
from .executor import (
    Executor,
    create_executor,
    dispatch,
    executor_from_name,
)
from .facade import (
    AbstractSolver,
    AppMatrix,
    AppVector,
    BackendSolver,
    SolverOptions,
    create_solver,
)
from .linop import Csr, Dense, LinOp
from .solver import (
    Iteration,
    ResidualNorm,
    SolveReport,
    Solver,
    SolverFactory,
    lu_factorize,
    lu_solve_dense,
)

__all__ = [
    "Array",
    "AbstractSolver",
    "AppMatrix",
    "AppVector",
    "BackendSolver",
    "BatchCsr",
    "BatchDense",
    "BatchSolveReport",
    "BreakdownError",
    "ConfigurationError",
    "CopyStats",
    "Csr",
    "Dense",
    "Dim",
    "DimensionError",
    "Executor",
    "InvalidArgumentError",
    "Iteration",
    "LibraryError",
    "LinOp",
    "MatrixData",
    "Ownership",
    "ParseError",
    "ResidualNorm",
    "SingularMatrixError",
    "SingularPreconditionerError",
    "SolveReport",
    "Solver",
    "SolverFactory",
    "SolverOptions",
    "UnsupportedBackendError",
    "UnsupportedFormatError",
    "array_create",
    "array_view",
    "batch_solve",
    "copy_stats",
    "create_executor",
    "create_solver",
    "dispatch",
    "executor_from_name",
    "lu_factorize",
    "lu_solve_dense",
    "memory_copy",
    "reset_copy_stats",
]

__version__ = "0.1.0"
