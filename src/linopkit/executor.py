"""Execution backends and the kernel dispatch registry.

An :class:`Executor` is a small immutable handle that names a compute backend.
Performance-relevant routines ("kernels") are registered once by name;
callers look them up through :func:`dispatch`, which binds the kernel to the
executor, so the backend is a runtime property of the data rather than an
import-time property of the code.  No module outside this one and the
kernel definitions ever branches on the kind.

Two kinds exist.  ``reference`` runs every kernel serially and serves as
ground truth; ``parallel`` owns a shared thread pool of ``worker_count``
threads.  Every kernel has one body that both kinds run, and only
``run_partitioned`` hands work to the pool (see ``kernels.py``), so results
are bitwise identical across kinds and worker counts.  The library's own
SpMVs are not dispatched: they call ``kernels.block_spmv``, which runs the
same on both kinds.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

from .errors import ConfigurationError, InvalidArgumentError, UnsupportedBackendError


class ExecutorKind(Enum):
    REFERENCE = "reference"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class Executor:
    """Backend handle. Equal executors are interchangeable everywhere."""

    kind: ExecutorKind
    worker_count: int = 1
    #: kernels already bound to this executor by :func:`dispatch`, by name
    _bound: dict = field(default_factory=dict, init=False, repr=False, compare=False)


_REFERENCE = Executor(ExecutorKind.REFERENCE, 1)

#: Accepted spellings for configuration strings, case sensitive.
EXECUTOR_NAMES = {
    "reference": ExecutorKind.REFERENCE,
    "parallel": ExecutorKind.PARALLEL,
}


def create_executor(kind: ExecutorKind, worker_count: int | None = None) -> Executor:
    """Build an executor of the given kind.

    ``worker_count`` must be >= 1 when given.  Reference executors ignore the
    value (they always run serially); parallel executors default to the host
    CPU count.
    """
    if worker_count is not None and worker_count < 1:
        raise InvalidArgumentError(f"worker_count must be >= 1, got {worker_count}")
    if kind is ExecutorKind.REFERENCE:
        return _REFERENCE
    if kind is ExecutorKind.PARALLEL:
        if worker_count is None:
            worker_count = os.cpu_count() or 1
        return Executor(ExecutorKind.PARALLEL, worker_count)
    raise InvalidArgumentError(f"unknown executor kind: {kind!r}")


def executor_from_name(name: str, worker_count: int | None = None) -> Executor:
    """Map a configuration string to an executor, or raise ConfigurationError."""
    try:
        kind = EXECUTOR_NAMES[name]
    except KeyError:
        valid = ", ".join(sorted(EXECUTOR_NAMES))
        raise ConfigurationError(f"unknown backend '{name}'; valid backends: {valid}") from None
    return create_executor(kind, worker_count)


# --- kernel registry -------------------------------------------------------

_KERNELS: dict[str, Callable] = {}


def register_kernel(name: str):
    """Class a function as the ``name`` kernel for executors of every kind.

    Each name is registered once; a second registration raises, so the
    callables :func:`dispatch` has cached never go stale.
    """

    def deco(fn):
        if name in _KERNELS:
            raise InvalidArgumentError(f"kernel '{name}' is already registered")
        _KERNELS[name] = fn
        return fn

    return deco


def dispatch(exec_: Executor, name: str) -> Callable:
    """Return the kernel ``name`` bound to ``exec_``.

    The bound callable is built on the first call and cached on the
    executor, so later calls cost one dict lookup.  Unknown names raise.
    """
    bound = exec_._bound.get(name)
    if bound is None:
        fn = _KERNELS.get(name)
        if fn is None:
            raise UnsupportedBackendError(f"kernel '{name}' is not registered")
        bound = exec_._bound[name] = partial(fn, exec_)
    return bound


# --- worker pools ----------------------------------------------------------
#
# Pools are shared per worker_count because executors carry no other state;
# kernels must derive chunk geometry from their inputs alone, never from the
# pool, so sharing cannot affect results.

_POOLS: dict[int, _ThreadPool] = {}
_POOL_LOCK = threading.Lock()


def worker_pool(exec_: Executor) -> _ThreadPool:
    with _POOL_LOCK:
        pool = _POOLS.get(exec_.worker_count)
        if pool is None:
            pool = _ThreadPool(max_workers=exec_.worker_count)
            _POOLS[exec_.worker_count] = pool
        return pool


def _shutdown_pools():
    with _POOL_LOCK:
        for pool in _POOLS.values():
            pool.shutdown(wait=False)
        _POOLS.clear()


atexit.register(_shutdown_pools)


def split_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``parts`` contiguous, non-empty pieces.

    Pieces differ in length by at most one.  The result depends only on the
    arguments, which keeps chunked writes reproducible.
    """
    if n <= 0:
        return []
    count = min(parts, n)
    base, extra = divmod(n, count)
    ranges = []
    lo = 0
    for i in range(count):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges
