"""Kernel and executor probes at a workload's own vector length.

Each probe calls one dispatched kernel on workload-sized vectors, one span
per call, and reports the median.  ``machine.copy_gbs`` is a plain numpy copy
of the same working set, so a kernel's time can be read against what the
memory system gives at that size.  Bytes are computed from array sizes, not
counted by hardware.
"""

from __future__ import annotations

import numpy as np

from linopkit import dispatch, executor_from_name

from .common import Tracer, median, now

KINDS = {"ref": ("reference", None), "par": ("parallel", 2)}
VECTOR_KERNELS = ("dot", "norm2", "axpy", "aypx", "waxpby", "diag_scale", "copy")
SAMPLES = 30


def _time_calls(tracer: Tracer, name: str, call, samples: int = SAMPLES) -> list[float]:
    for _ in range(3):
        call()
    out = []
    for _ in range(samples):
        with tracer.span(name):
            t0 = now()
            call()
            out.append(now() - t0)
    return out


def _vector_calls(exec_, n, rng):
    x = rng.standard_normal((n, 1))
    y = rng.standard_normal((n, 1))
    w = np.zeros((n, 1))
    d = 1.0 + rng.random(n)
    k = {name: dispatch(exec_, name) for name in VECTOR_KERNELS}
    return {
        "dot": lambda: k["dot"](x, y),
        "norm2": lambda: k["norm2"](x),
        "axpy": lambda: k["axpy"](w, 1e-3, x),
        "aypx": lambda: k["aypx"](w, 0.5, x),
        "waxpby": lambda: k["waxpby"](w, 0.5, x, 0.25, y),
        "diag_scale": lambda: k["diag_scale"](w, d, x),
        "copy": lambda: k["copy"](w, x),
    }


def kernel_probes(tracer: Tracer, csr_arrays, rng) -> tuple[dict, dict]:
    """Median microseconds per kernel and kind, plus SpMV and copy bandwidth.

    ``csr_arrays`` is ``(row_ptrs, col_idxs, values)`` of the workload's
    matrix; its row count sets the vector length of every probe.
    """
    row_ptrs, col_idxs, values = csr_arrays
    n = len(row_ptrs) - 1
    nnz = len(values)
    row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptrs))
    metrics, counts = {}, {}
    for kind, (name, workers) in KINDS.items():
        exec_ = executor_from_name(name, workers)
        calls = _vector_calls(exec_, n, rng)
        b = rng.standard_normal((n, 1))
        out = np.zeros((n, 1))
        spmv = dispatch(exec_, "spmv")
        calls["spmv"] = lambda: spmv(row_ptrs, row_ids, col_idxs, values, b, out)
        for kernel, call in calls.items():
            key = f"kernels.{kernel}_us.{kind}"
            samples = _time_calls(tracer, f"kernels.{kernel}.{kind}", call)
            metrics[key] = median(samples) * 1e6
            counts[key] = len(samples)
    # values, col_idxs, row_ids and the gathered x per entry; y once per row
    spmv_bytes = 8 * (4 * nnz + n)
    metrics["kernels.spmv_gbs"] = spmv_bytes / metrics["kernels.spmv_us.ref"] / 1e3
    counts["kernels.spmv_gbs"] = counts["kernels.spmv_us.ref"]

    src = rng.standard_normal(n)
    dst = np.empty(n)
    samples = _time_calls(tracer, "machine.copy", lambda: np.copyto(dst, src))
    metrics["machine.copy_gbs"] = 16 * n / median(samples) / 1e9
    counts["machine.copy_gbs"] = len(samples)
    return metrics, counts


def executor_probes(tracer: Tracer) -> tuple[dict, dict]:
    """Cost of one ``dispatch`` lookup and of an empty 2-way pool round trip."""
    ref = executor_from_name("reference")
    par = executor_from_name("parallel", 2)
    lookups = 1000

    def many_dispatches():
        for _ in range(lookups):
            dispatch(ref, "axpy")

    per_call = [t / lookups for t in _time_calls(tracer, "executor.dispatch", many_dispatches)]
    run_partitioned = dispatch(par, "run_partitioned")
    roundtrip = _time_calls(
        tracer, "executor.pool_roundtrip", lambda: run_partitioned(2, lambda lo, hi: None), 200
    )
    metrics = {
        "executor.dispatch_us": median(per_call) * 1e6,
        "executor.pool_roundtrip_us": median(roundtrip) * 1e6,
    }
    counts = {
        "executor.dispatch_us": len(per_call) * lookups,
        "executor.pool_roundtrip_us": len(roundtrip),
    }
    return metrics, counts
