"""Exception types shared across the library."""


class LibraryError(Exception):
    """Base class for every error this library raises on purpose."""


class InvalidArgumentError(LibraryError, ValueError):
    """An argument violates an operation's contract."""


class DimensionError(InvalidArgumentError):
    """Operands have incompatible shapes.

    Messages always name both the expected and the actual extent so a failing
    call can be diagnosed from the exception text alone.
    """


class UnsupportedBackendError(LibraryError, RuntimeError):
    """No kernel is registered under the requested name."""


class ConfigurationError(LibraryError, ValueError):
    """A runtime configuration value is not recognized."""


class SingularMatrixError(LibraryError, ArithmeticError):
    """Factorization found no acceptable pivot in some column."""


class SingularPreconditionerError(LibraryError, ArithmeticError):
    """Preconditioner setup hit a missing or zero diagonal entry."""


class BreakdownError(LibraryError, ArithmeticError):
    """A Krylov recurrence lost its footing (for example rho collapsed in CG).

    The solver attaches the last iterate so callers can still inspect the best
    available approximation.
    """

    def __init__(self, message, best=None, iterations=0, residual_norm=float("nan")):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.residual_norm = residual_norm


class ParseError(LibraryError, ValueError):
    """Input text could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class UnsupportedFormatError(LibraryError, ValueError):
    """The file is well formed but uses a feature outside the supported subset."""
