"""Shared pieces of the benchmark: timing statistics, the span tracer, the
independent residual check and the machine facts recorded with every result.

Nothing here imports linopkit, so this module also loads in a directory that
holds only the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

now = time.perf_counter

#: Relative allowance between a solver's recurrence residual and the residual
#: recomputed here from the benchmark's own triplets.  A solve passes the gate
#: when ||b - A x|| <= GATE_SLACK * reduction * ||b - A x0||, which is the
#: solver's own stopping promise plus 1 % for rounding.
GATE_SLACK = 1.01

#: Percentiles tried, highest first, when picking the tail percentile.
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``(None, nan)`` when there are too few
    samples for any percentile on the ladder.
    """
    n = len(values)
    for p in _TAIL_LADDER:
        if (1.0 - p / 100.0) * n >= 10:
            return p, float(np.percentile(values, p))
    return None, float("nan")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def triplet_spmv(rows, cols, vals, x, n):
    """y = A x from (row, col, value) triplets, duplicates summed.

    Plain numpy and independent of linopkit, so it can judge linopkit's
    answers.  ``x`` may be one vector or a (k, ncols) block of vectors.
    """
    if x.ndim == 1:
        return np.bincount(rows, weights=vals * x[cols], minlength=n)
    k = x.shape[0]
    flat = (np.arange(k)[:, None] * n + rows[None, :]).ravel()
    prod = vals * x[:, cols] if vals.ndim == 2 else vals[None, :] * x[:, cols]
    return np.bincount(flat, weights=prod.ravel(), minlength=k * n).reshape(k, n)


def gate(true_norm, r0_norm, reduction):
    """Whether an independently measured residual meets the solver's target."""
    return np.asarray(true_norm) <= GATE_SLACK * reduction * np.asarray(r0_norm)


class Tally:
    """Attempted and failed solves, steps or systems, plus hard violations.

    ``violations`` are outcomes that make the run incorrect: a convergence
    claim the independent residual does not show, backends that disagree, or
    a broken copy counter.  Every violation also counts as a failure.

    It also sums linopkit's copy counters around the calls that promise not
    to copy (solves) or to convert exactly once (solver and batch set-up).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.element_copies = 0
        self.solves_watched = 0
        self.conversions = 0
        self.setups_watched = 0
        self._first: dict = {}

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def add_once(self, key, failed_mask) -> None:
        """Count the items of one piece of work once, however often it repeats.

        The first solve of ``key`` counts its items and failures; a repeat of
        the same work must fail exactly the same items, or it is a violation.
        So ``attempted`` and ``failed`` depend on the seed, not on how many
        repeats fit in the run.
        """
        mask = np.asarray(failed_mask, dtype=bool)
        first = self._first.setdefault(key, mask)
        if first is mask:
            self.add(mask.size, np.count_nonzero(mask))
        elif not np.array_equal(first, mask):
            self.violate(f"{key}: a repeat failed items {np.flatnonzero(mask).tolist()}, "
                         f"the first solve {np.flatnonzero(first).tolist()}", 0)

    def violate(self, message: str, failed: int = 1) -> None:
        self.violations.append(message)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return not self.violations


class Tracer:
    """In-memory spans: name, start, end and parent index, one run id.

    Spans nest through a stack, so a span's parent is whichever span was open
    when it began.  Nothing is written until :meth:`write`.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, now(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self) -> int:
        idx = self._open.pop()
        self.spans[idx][2] = now()
        return idx

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def iteration_hook(self):
        """A solver callback that turns iterations into spans.

        Each callback after the first closes one ``solver.iteration`` span and
        opens the next; :meth:`close_iterations` ends the last, partial one.
        """

        def hook(iteration, residual_norm):
            if iteration > 0:
                self.end()
            self.begin("solver.iteration")

        return hook

    def close_iterations(self) -> None:
        if self._open and self.spans[self._open[-1]][0] == "solver.iteration":
            self.spans[self.end()][0] = "solver.iteration_tail"

    def durations(self, name: str, since: int = 0, parent: str | None = None) -> list[float]:
        """Durations of the ``name`` spans recorded since index ``since``,
        optionally only those whose parent span is called ``parent``."""
        return [
            s[2] - s[1]
            for s in self.spans[since:]
            if s[0] == name and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))
        ]

    def child_time(self, name: str, child: str, since: int = 0) -> float:
        """Total duration of ``child`` spans directly under ``name`` spans."""
        return sum(
            s[2] - s[1]
            for s in self.spans[since:]
            if s[0] == child and s[3] >= since and self.spans[s[3]][0] == name
        )

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer (the name up to the first dot), children excluded."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), cov in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - cov
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"run_id": self.run_id, "spans": records}))


def _cache_size(index: int) -> str:
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    """Facts that change what the numbers mean; recorded, never adjusted."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "l2_per_core": _cache_size(2),
        "l3_reported": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
    }


def log(*parts) -> None:
    print(*parts, flush=True)
