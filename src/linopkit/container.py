"""Typed contiguous storage bound to an executor.

Arrays either own their buffer or borrow one from the caller.  Borrowed
arrays are zero-copy: writes through the view land in the original storage
and writes to the original show up through the view.  Const borrowed arrays
reject mutation at runtime (the underlying buffer is marked read-only).

Copy accounting
---------------
Two module-level counters make zero-copy claims testable:

* ``element_copies`` counts elements moved by the explicit copy entry points
  (:func:`memory_copy`, ``Array.copy``, ``Dense.copy``).  View creation and
  solver-internal arithmetic never touch it.
* ``matrix_conversions`` counts triplet-to-CSR conversions.

Read them with :func:`copy_stats` and reset with :func:`reset_copy_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError
from .executor import Executor, dispatch


class Dim(NamedTuple):
    rows: int
    cols: int


class Ownership(Enum):
    OWNING = "owning"
    BORROWED = "borrowed"
    BORROWED_CONST = "borrowed_const"


@dataclass
class CopyStats:
    element_copies: int = 0
    matrix_conversions: int = 0


_STATS = CopyStats()


def copy_stats() -> CopyStats:
    """Snapshot of the copy counters."""
    return replace(_STATS)


def reset_copy_stats() -> None:
    _STATS.element_copies = 0
    _STATS.matrix_conversions = 0


def _count_elements(n: int) -> None:
    _STATS.element_copies += int(n)


def _count_conversion() -> None:
    _STATS.matrix_conversions += 1


class Array:
    """Contiguous 1-D storage bound to an executor.

    Construct through :func:`array_create` (owning, zero-initialized) or
    :func:`array_view` (borrowed); the constructor itself is internal.
    """

    __slots__ = ("_executor", "_data", "_ownership")

    def __init__(self, executor: Executor, data: np.ndarray, ownership: Ownership):
        self._executor = executor
        self._data = data
        self._ownership = ownership

    @property
    def executor(self) -> Executor:
        return self._executor

    @property
    def size(self) -> int:
        return self._data.shape[0]

    @property
    def ownership(self) -> Ownership:
        return self._ownership

    @property
    def dtype(self):
        return self._data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying buffer as a numpy view (read-only when const)."""
        return self._data

    def fill(self, value) -> None:
        if self._ownership is Ownership.BORROWED_CONST:
            raise InvalidArgumentError("cannot write through a const view")
        dispatch(self._executor, "fill")(self._data.reshape(-1, 1), value)

    def copy(self, executor: Executor | None = None) -> "Array":
        """Owning copy, optionally on another executor. Counted."""
        return memory_copy(self, executor or self._executor)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"Array(size={self.size}, dtype={self._data.dtype}, "
            f"ownership={self._ownership.value}, kind={self._executor.kind.value})"
        )


def array_create(exec_: Executor, size: int, dtype=np.float64) -> Array:
    """Allocate an owning, zero-initialized array of ``size`` elements."""
    if size < 0:
        raise InvalidArgumentError(f"array size must be >= 0, got {size}")
    return Array(exec_, np.zeros(size, dtype=dtype), Ownership.OWNING)


def array_view(exec_: Executor, size: int, storage: np.ndarray, *, const: bool = False) -> Array:
    """Borrow the first ``size`` elements of ``storage`` without copying.

    ``storage`` must be a 1-D, C-contiguous ndarray with at least ``size``
    elements; anything else would need a conversion copy, which this function
    refuses to make silently.
    """
    if not isinstance(storage, np.ndarray):
        raise InvalidArgumentError(
            f"array_view requires an ndarray, got {type(storage).__name__}"
        )
    if storage.ndim != 1 or not storage.flags.c_contiguous:
        raise InvalidArgumentError("array_view requires 1-D contiguous storage")
    if size < 0 or size > storage.shape[0]:
        raise InvalidArgumentError(
            f"view of {size} elements does not fit in storage of {storage.shape[0]}"
        )
    view = storage[:size]
    if const:
        view = view.view()
        view.flags.writeable = False
        return Array(exec_, view, Ownership.BORROWED_CONST)
    return Array(exec_, view, Ownership.BORROWED)


def memory_copy(src: Array, dst_exec: Executor) -> Array:
    """Explicit copy of ``src`` onto ``dst_exec``. Always owning, always counted."""
    dst = array_create(dst_exec, src.size, src.dtype)
    if src.size:
        dispatch(dst_exec, "copy")(dst.numpy().reshape(-1, 1), src.numpy().reshape(-1, 1))
    _count_elements(src.size)
    return dst


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class MatrixData:
    """Assembly buffer of (row, col, value) triplets.

    Entries live in three arrays (int64 rows, int64 columns, float64 values)
    in insertion order; capacity doubles as they fill, so :meth:`add` stays
    cheap per entry and :meth:`add_entries` stores a whole batch with one
    copy per array, except that the first one into an empty buffer borrows
    1-D, C-contiguous int64/int64/float64 arrays as read-only views: a write
    to them shows in a later conversion (pass copies to decouple), the library
    never writes them, and the next append copies them.  Duplicates are
    allowed and are summed when the buffer is converted to a concrete format.
    Iterating yields ``(int, int, float)`` tuples.
    """

    def __init__(self, size, nonzeros=None):
        size = Dim(int(size[0]), int(size[1]))
        if size.rows < 0 or size.cols < 0:
            raise InvalidArgumentError(f"matrix dimensions must be >= 0, got {size}")
        self._size = size
        self._count = 0
        self._rows = np.empty(0, dtype=np.int64)
        self._cols = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)
        if nonzeros is not None:
            triplets = list(nonzeros)
            # freshly built from lists, so the buffers adopt them without a copy
            self._rows, self._cols, self._values = self._checked(
                [t[0] for t in triplets], [t[1] for t in triplets], [t[2] for t in triplets]
            )
            self._count = len(triplets)

    @property
    def size(self) -> Dim:
        """Fixed at construction: every stored entry was checked against it."""
        return self._size

    def add(self, row: int, col: int, value: float) -> None:
        row, col, value = int(row), int(col), float(value)
        self._check(row, col)
        n = self._count
        if n == self._rows.shape[0]:
            self._reserve(1)
        self._rows[n] = row
        self._cols[n] = col
        self._values[n] = value
        self._count = n + 1

    def add_entries(self, rows, cols, values) -> None:
        """Append the entries ``(rows[k], cols[k], values[k])`` in order.

        The three sequences must be 1-D and of equal length.  Everything is
        checked before anything is stored, so a rejected call adds nothing.
        """
        checked = self._checked(rows, cols, values)
        k = checked[2].shape[0]
        if not self._count and all(
            a is b and a.flags.c_contiguous for a, b in zip(checked, (rows, cols, values))
        ):  # exactly full, so the next append copies in _reserve
            self._rows, self._cols, self._values = (_read_only(a) for a in checked)
            self._count = k
        elif k:
            self._reserve(k)
            n = self._count
            self._rows[n : n + k], self._cols[n : n + k], self._values[n : n + k] = checked
            self._count = n + k

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (rows, cols, values) views of the stored entries."""
        return tuple(_read_only(a[: self._count]) for a in (self._rows, self._cols, self._values))

    def _checked(self, rows, cols, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``add_entries``' arguments as int64/int64/float64 arrays, or raise."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        k = rows.shape[0] if rows.ndim == 1 else -1
        if cols.shape != (k,) or values.shape != (k,):
            raise InvalidArgumentError(
                "rows, cols and values must be 1-D and of equal length, got shapes "
                f"{rows.shape}, {cols.shape} and {values.shape}"
            )
        # viewed as unsigned, a negative index compares above every dimension
        bad = (rows.view(np.uint64) >= self.size.rows) | (cols.view(np.uint64) >= self.size.cols)
        if bad.any():
            first = int(bad.argmax())
            self._check(int(rows[first]), int(cols[first]))  # raises for this entry
        return rows, cols, values

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.size.rows and 0 <= col < self.size.cols):
            raise InvalidArgumentError(
                f"entry ({row}, {col}) outside {self.size.rows}x{self.size.cols} matrix"
            )

    def _reserve(self, extra: int) -> None:
        n = self._count
        if n + extra > self._rows.shape[0]:
            capacity = max(n + extra, 2 * n)
            old = (self._rows, self._cols, self._values)
            grown = [np.empty(capacity, dtype=a.dtype) for a in old]
            for g, a in zip(grown, old):
                g[:n] = a[:n]
            self._rows, self._cols, self._values = grown

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        rows, cols, values = self.arrays()
        return zip(rows.tolist(), cols.tolist(), values.tolist())
