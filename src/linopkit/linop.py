"""Linear operators: the abstract contract plus dense and CSR matrices.

Everything that maps vectors to vectors (matrices, preconditioners, solvers)
implements :class:`LinOp`, so algorithms written against ``apply`` compose
freely: a solver can precondition with another solver, a time stepper can
treat a solver as the inverse of its system matrix, and so on.

Vectors are column blocks stored as :class:`Dense` with ``cols`` right-hand
sides side by side.
"""

from __future__ import annotations

import abc

import numpy as np

from .container import (
    Array,
    Dim,
    MatrixData,
    Ownership,
    _count_conversion,
    _count_elements,
    array_create,
    array_view,
)
from .errors import DimensionError, InvalidArgumentError
from .executor import Executor, dispatch
from .kernels import BlockPattern, block_spmv, freeze_checked_pattern


class LinOp(abc.ABC):
    """A linear map of a fixed size bound to an executor."""

    def __init__(self, executor: Executor, size):
        size = Dim(int(size[0]), int(size[1]))
        if size.rows < 0 or size.cols < 0:
            raise InvalidArgumentError(f"operator dimensions must be >= 0, got {size}")
        self._executor = executor
        self._size = size

    @property
    def executor(self) -> Executor:
        return self._executor

    @property
    def size(self) -> Dim:
        return self._size

    def apply(self, b: "Dense", x: "Dense") -> None:
        """x := op(b).

        For matrices op(b) is the matrix-vector product; for solvers it is an
        approximate inverse application that uses the incoming ``x`` as the
        initial guess.  ``b`` and ``x`` must not alias.
        """
        self._check_vectors(b, x)
        self._apply(b, x)

    def advanced_apply(self, alpha: float, b: "Dense", beta: float, x: "Dense") -> None:
        """x := alpha * op(b) + beta * x.

        op(b) is applied into a fresh zero block (a solver's initial guess),
        then combined as that one expression; ``beta == 0`` ignores ``x``.
        """
        self._check_vectors(b, x)
        t = Dense.create(self._executor, x.size)
        self._apply(b, t)
        t, out, alpha = t.view2d(), x.view2d(), float(alpha)
        out[...] = alpha * t if beta == 0.0 else alpha * t + float(beta) * out

    def _check_vectors(self, b: "Dense", x: "Dense") -> None:
        if not isinstance(b, Dense) or not isinstance(x, Dense):
            raise InvalidArgumentError("apply expects Dense vectors")
        if b.size.rows != self._size.cols:
            raise DimensionError(
                f"operator is {self._size.rows}x{self._size.cols}: "
                f"expected b with {self._size.cols} rows, got {b.size.rows}"
            )
        if x.size.rows != self._size.rows:
            raise DimensionError(
                f"operator is {self._size.rows}x{self._size.cols}: "
                f"expected x with {self._size.rows} rows, got {x.size.rows}"
            )
        if b.size.cols != x.size.cols:
            raise DimensionError(
                f"b has {b.size.cols} columns but x has {x.size.cols}"
            )
        if np.shares_memory(b.values.numpy(), x.values.numpy()):
            raise InvalidArgumentError("b and x must not alias the same storage")

    @abc.abstractmethod
    def _apply(self, b: "Dense", x: "Dense") -> None: ...


class Dense(LinOp):
    """Row-major dense matrix (or multi-vector) with an explicit row stride.

    Element (i, j) lives at flat offset ``i * stride + j`` of the backing
    array, so a Dense can wrap application storage with padding between rows
    without copying it.
    """

    def __init__(self, executor: Executor, size, values: Array, stride: int | None = None):
        super().__init__(executor, size)
        rows, cols = self._size
        stride = cols if stride is None else int(stride)
        if stride < cols:
            raise InvalidArgumentError(f"stride {stride} is smaller than column count {cols}")
        needed = (rows - 1) * stride + cols if rows > 0 else 0
        if values.size < needed:
            raise InvalidArgumentError(
                f"storage of {values.size} elements cannot hold "
                f"{rows}x{cols} with stride {stride} (needs {needed})"
            )
        self._values = values
        self._stride = stride
        self._block = None

    @classmethod
    def create(cls, executor: Executor, size, stride: int | None = None) -> "Dense":
        """Owning, zero-initialized."""
        rows, cols = int(size[0]), int(size[1])
        stride = cols if stride is None else int(stride)
        return cls(executor, size, array_create(executor, rows * stride), stride)

    @classmethod
    def from_array(cls, executor: Executor, size, values: Array, stride: int | None = None) -> "Dense":
        """Wrap existing storage (no copy)."""
        return cls(executor, size, values, stride)

    @classmethod
    def create_const(cls, executor: Executor, size, values: Array, stride: int | None = None) -> "Dense":
        """Wrap existing storage read-only (no copy); writes raise."""
        data = values.numpy().view()
        data.flags.writeable = False
        return cls(executor, size, Array(executor, data, Ownership.BORROWED_CONST), stride)

    @property
    def values(self) -> Array:
        return self._values

    @property
    def stride(self) -> int:
        return self._stride

    def view2d(self) -> np.ndarray:
        """The logical (rows, cols) block as a strided numpy view.

        Geometry is fixed at construction, so the view is built once and
        reused; it shares storage, it is not a snapshot.
        """
        if self._block is None:
            rows, cols = self._size
            flat = self._values.numpy()
            item = flat.strides[0]
            self._block = np.lib.stride_tricks.as_strided(
                flat, shape=(rows, cols), strides=(item * self._stride, item)
            )
        return self._block

    def at(self, i: int, j: int = 0) -> float:
        return float(self.view2d()[i, j])

    def set_at(self, i: int, j: int, value: float) -> None:
        self.view2d()[i, j] = value

    def fill(self, value: float) -> None:
        dispatch(self._executor, "fill")(self.view2d(), value)

    def add_scaled(self, alpha, other: "Dense") -> None:
        """self += alpha * other."""
        self._check_same_shape(other)
        dispatch(self._executor, "axpy")(self.view2d(), alpha, other.view2d())

    def copy(self) -> "Dense":
        """Compact owning copy (stride == cols). Counted."""
        rows, cols = self._size
        out = Dense.create(self._executor, self._size)
        dispatch(self._executor, "copy")(out.view2d(), self.view2d())
        _count_elements(rows * cols)
        return out

    def _check_same_shape(self, other: "Dense") -> None:
        if not isinstance(other, Dense):
            raise InvalidArgumentError(f"expected a Dense operand, got {type(other).__name__}")
        if other.size != self._size:
            raise DimensionError(f"shape mismatch: {self._size} vs {other.size}")

    def _apply(self, b: "Dense", x: "Dense") -> None:
        dispatch(self._executor, "dense_apply")(self.view2d(), b.view2d(), x.view2d())


def check_pattern(size, rp: np.ndarray, ci: np.ndarray, nvals: int | None = None) -> None:
    """Raise unless ``rp``/``ci`` form a CSR pattern in normal form for ``size``.

    ``rp`` has rows + 1 entries, starts at 0 and never decreases; ``ci`` has
    ``rp[-1]`` entries in ``[0, cols)``, strictly increasing within each row,
    and so does a value array of ``nvals`` entries when that is given.
    """
    rows, cols = size
    if rp.shape != (rows + 1,) or rp[0] != 0:
        raise InvalidArgumentError("row_ptrs must have rows+1 entries starting at 0")
    if np.any(np.diff(rp) < 0):
        raise InvalidArgumentError("row_ptrs must be non-decreasing")
    nnz = int(rp[-1])
    if ci.shape != (nnz,) or nvals not in (None, nnz):
        raise InvalidArgumentError(
            f"col_idxs/values length must match row_ptrs[-1] == {nnz}"
        )
    if nnz:
        if ci.min() < 0 or ci.max() >= cols:
            raise InvalidArgumentError(f"column index outside [0, {cols})")
        inner = np.ones(nnz - 1, dtype=bool)
        boundaries = rp[1:-1] - 1  # last entry of each non-final row
        inner[boundaries[(boundaries >= 0) & (boundaries < nnz - 1)]] = False
        if np.any(np.diff(ci)[inner] <= 0):
            raise InvalidArgumentError("column indices must increase within each row")


def checked_pattern(size, row_ptrs, col_idxs, nvals: int | None = None) -> BlockPattern:
    """int64 copies of ``row_ptrs``/``col_idxs``, checked by :func:`check_pattern`
    and frozen as a checked one-lane pattern."""
    rp = np.array(row_ptrs, dtype=np.int64)
    ci = np.array(col_idxs, dtype=np.int64)
    check_pattern(size, rp, ci, nvals)
    return freeze_checked_pattern(rp, ci, size[1])


class Csr(LinOp):
    """Compressed-sparse-row matrix: a one-lane ``kernels.BlockPattern`` plus its values.

    Within each row the stored column indices are strictly increasing and
    duplicate-free; :meth:`from_data` establishes that normal form by sorting
    and summing duplicates.  Indices are int64, values float64.

    Every apply is one ``kernels.block_spmv`` call on the pattern, all
    columns at once.  :meth:`from_data` and :meth:`from_arrays` build index
    arrays of their own, check them and make them read-only, and their
    pattern admits SpMV's compiled body (see ``kernels.py``); so does the
    pattern ``BatchCsr.extract_system`` shares with its batch.  The public
    constructor checks the caller's index arrays once and keeps them
    uncopied; as the caller may still write them, their pattern is not
    marked checked, and takes the numpy body, which checks its indices on
    every call.
    """

    def __init__(self, executor: Executor, size, row_ptrs: Array, col_idxs: Array, values: Array):
        super().__init__(executor, size)
        rp, ci = row_ptrs.numpy(), col_idxs.numpy()
        check_pattern(self._size, rp, ci, values.size)
        self._pattern = BlockPattern(rp, ci, self._size.cols)
        self._values = values

    @classmethod
    def _over(cls, executor: Executor, size, pattern: BlockPattern, values: Array) -> "Csr":
        """A matrix over ``pattern``, a one-lane pattern that fits ``size`` and
        ``values``, both kept uncopied and unchecked."""
        csr = cls.__new__(cls)
        LinOp.__init__(csr, executor, size)
        csr._pattern, csr._values = pattern, values
        return csr

    # -- construction --------------------------------------------------------

    @classmethod
    def from_data(cls, executor: Executor, data: MatrixData) -> "Csr":
        """Convert an assembly buffer to CSR normal form.

        Input whose row-major key ``row * cols + col`` strictly increases is
        already in normal form and is not sorted: its columns are copied and
        ``+ 0.0`` turns -0.0 into +0.0 as a sum would.  Other input is sorted
        by (row, col) with one stable sort on that key (a two-key sort only
        when the key could overflow int64), and duplicates are summed in
        insertion order; explicit entries stay even when the sum is zero.
        The buffer may hold arrays the caller can still write, so every index
        is checked again here.  Counted as one matrix conversion.
        """
        rows, cols = data.size
        r, c, v = data.arrays()
        nnz = len(v)
        if nnz:
            order = same = None  # both stay None for input already in normal form
            if rows * cols < 2**63:
                key = r * cols
                key += c
                if not (key[1:] > key[:-1]).all():
                    order = np.argsort(key, kind="stable")  # duplicates keep insertion order
                    key = key[order]
                    same = key[1:] == key[:-1]
            else:
                order = np.lexsort((c, r))
                rs, cs = r[order], c[order]
                same = (rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])
            if order is None:  # the key is spent, and its buffer takes the values
                vals = np.add(v, 0.0, out=key.view(np.float64))
            elif same.any():  # sum each run of equal keys, in insertion order
                first = np.ones(nnz, dtype=bool)
                first[1:] = ~same
                vals = np.bincount(np.cumsum(first) - 1, weights=v[order])
                order = order[first]
                r = r[order]
            else:
                vals = v[order]
                vals += 0.0
            col_idxs = c.copy() if order is None else c[order]
            # viewed as unsigned, a negative index compares above every dimension
            if r.view(np.uint64).max() >= rows or col_idxs.view(np.uint64).max() >= cols:
                raise InvalidArgumentError(f"an entry lies outside the {rows}x{cols} matrix: "
                                           "its arrays were written after they were added")
            counts = np.bincount(r, minlength=rows)
        else:
            vals = np.zeros(0)
            col_idxs = np.zeros(0, dtype=np.int64)
            counts = np.zeros(rows, dtype=np.int64)
        row_ptrs = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptrs[1:])
        _count_conversion()
        return cls._over(executor, data.size, freeze_checked_pattern(row_ptrs, col_idxs, cols),
                         Array(executor, vals, Ownership.OWNING))

    @classmethod
    def from_arrays(cls, executor: Executor, size, row_ptrs, col_idxs, values) -> "Csr":
        """Build from raw CSR arrays (copied and validated)."""
        vals = np.array(values, dtype=np.float64)
        pattern = checked_pattern(size, row_ptrs, col_idxs, vals.shape[0])
        return cls._over(executor, size, pattern, Array(executor, vals, Ownership.OWNING))

    # -- raw access -----------------------------------------------------------

    @property
    def num_stored_elements(self) -> int:
        return self._values.size

    def get_values(self, const: bool = False) -> Array:
        """Borrowed handle to the stored values (writes hit the matrix)."""
        return array_view(self._executor, self._values.size, self._values.numpy(), const=const)

    def get_row_ptrs(self) -> Array:
        rp = self._pattern.row_ptrs
        return array_view(self._executor, rp.shape[0], rp, const=True)

    def get_col_idxs(self) -> Array:
        ci = self._pattern.col_idxs
        return array_view(self._executor, ci.shape[0], ci, const=True)

    def update_values(self, new_values) -> None:
        """Replace the stored values, keeping the sparsity pattern.

        The length is checked before anything is written, so a failed update
        leaves the matrix untouched.
        """
        arr = np.asarray(new_values, dtype=np.float64).reshape(-1)
        if arr.shape[0] != self._values.size:
            raise DimensionError(
                f"expected {self._values.size} values, got {arr.shape[0]}"
            )
        self._values.numpy()[:] = arr

    def write_data(self) -> MatrixData:
        """A snapshot of the stored entries as an assembly buffer (row-major, sorted columns)."""
        out = MatrixData(self._size)
        pattern = self._pattern
        out.add_entries(pattern.row_ids(), pattern.col_idxs, self._values.numpy().copy())
        return out

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._size)
        dense[self._pattern.row_ids(), self._pattern.col_idxs] = self._values.numpy()
        return dense

    # -- application ----------------------------------------------------------

    def _apply(self, b: "Dense", x: "Dense") -> None:
        block_spmv(self._pattern, self._values.numpy()[None], b.view2d().T, x.view2d().T)

