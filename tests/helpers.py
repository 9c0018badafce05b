"""Shared builders and independent oracles for the test suite.

The oracles here stay deliberately dumb: the matrix product is a literal
triple loop and the residual recomputation goes through plain numpy, so a bug
in the library kernels cannot hide inside its own verification.
"""

import numpy as np
import pytest

from linopkit import kernels
from linopkit.container import MatrixData
from linopkit.linop import Csr, Dense


def dense_from_numpy(exec_, arr):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    out = Dense.create(exec_, arr.shape)
    out.view2d()[...] = arr
    return out


def data_from_numpy(arr):
    arr = np.asarray(arr, dtype=np.float64)
    data = MatrixData(arr.shape)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            if arr[i, j] != 0.0:
                data.add(i, j, arr[i, j])
    return data


def csr_from_numpy(exec_, arr):
    return Csr.from_data(exec_, data_from_numpy(arr))


def matmul_oracle(a, b):
    """Triple-loop matrix product; shares no code with the kernels."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def random_sparse_dense(rng, rows, cols, density=0.3):
    """A random MatrixData plus the equivalent dense array."""
    data = MatrixData((rows, cols))
    dense = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = float(rng.normal())
                data.add(i, j, v)
                dense[i, j] += v
    return data, dense


def random_spd_dense(rng, n):
    """SPD by symmetrizing and adding n to the diagonal (well conditioned)."""
    m = rng.normal(size=(n, n))
    m = 0.5 * (m + m.T)
    m += n * np.eye(n)
    return m


def random_dd_dense(rng, n):
    """Nonsymmetric, strictly diagonally dominant, hence well conditioned."""
    m = rng.normal(size=(n, n))
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, np.abs(m).sum(axis=1) + 1.0)
    return m


def relative_residual(a_dense, x, b):
    b = np.asarray(b, dtype=np.float64)
    r = b - np.asarray(a_dense) @ np.asarray(x)
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(r) / scale) if scale else float(np.linalg.norm(r))


#: The compiled SpMV body as the library selected it at import, or None.
COMPILED_SPMV = kernels._SPARSETOOLS


class CountingSparsetools:
    """Delegates to the compiled SpMV body and counts its calls."""

    def __init__(self, tools):
        self._tools = tools
        self.calls = 0

    def csr_matvec(self, *args):
        self.calls += 1
        self._tools.csr_matvec(*args)

    def csr_matvecs(self, *args):
        self.calls += 1
        self._tools.csr_matvecs(*args)


def use_spmv_body(monkeypatch, body):
    """Select the ``"compiled"`` or ``"numpy"`` SpMV body until the test ends.

    Returns a :class:`CountingSparsetools` for the compiled body, None for the
    numpy body, and skips the test when the compiled body is unavailable.
    """
    if body == "numpy":
        monkeypatch.setattr(kernels, "_SPARSETOOLS", None)
        return None
    if COMPILED_SPMV is None:
        pytest.skip("scipy's sparsetools is not available")
    spy = CountingSparsetools(COMPILED_SPMV)
    monkeypatch.setattr(kernels, "_SPARSETOOLS", spy)
    return spy
