"""linopkit benchmark: seeded workloads, independent correctness gate, metrics.

Run from the repository root:

    python3 benchmark/run.py --workload heat --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed traced program and reports the per-layer metrics, writing its
spans to ``benchmark/out/``.  ``--workload all`` runs every workload in turn,
each in its own process.  Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("heat", "stepping", "batched")
LAYERS = ("executor", "kernels", "container", "linop", "solver", "facade", "batched", "apps")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "linopkit" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"benchmark: needs {SRC / 'linopkit'} and {SPEC}; run it from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(ROOT)]
    import linopkit

    if Path(linopkit.__file__).resolve().parent != (SRC / "linopkit").resolve():
        print(f"benchmark: imported linopkit from {linopkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from benchmark import batched, heat, stepping
    from benchmark.common import log, machine_facts, peak_rss_mb

    module = {"heat": heat, "stepping": stepping, "batched": batched}[args.workload]
    log(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}")
    log(f"# machine {json.dumps(machine_facts())}")
    if args.trace:
        metrics, tally = traced(module, args, spec)
    else:
        metrics, named, notes, tally = module.measure(args.seed, args.seconds, args.size)
        metrics["peak_rss_mb"] = peak_rss_mb()
        report_end_to_end(metrics, named, notes, tally, spec)
    for message in tally.violations:
        log(f"VIOLATION {message}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def report_end_to_end(metrics, named, notes, tally, spec) -> None:
    from benchmark.common import log

    log("## end-to-end (tracing off)")
    for name, value, unit, how in named:
        log(f"{name:24s} {value:14.6g} {unit:6s} {how}")
    frac = tally.failed / max(tally.attempted, 1)
    log(f"{'failed_frac':24s} {frac:14.6g} {'1':6s} {tally.failed} of {tally.attempted}")
    log(f"{'peak_rss_mb':24s} {metrics['peak_rss_mb']:14.6g} {'MB':6s} peak resident set")
    for note in notes:
        log(f"# {note}")
    log("## end-to-end metrics as reported")
    for m in spec["end_to_end"]:
        log(f"{m['name']:24s} {metrics[m['name']]:14.6g} {m['unit']}")


def traced(module, args, spec):
    """Run the workload's traced program; medians over its passes."""
    from benchmark.common import Tracer, log, median

    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    passes, tally = module.trace(args.seed, args.seconds, args.size, tracer)
    metrics, counts = {}, {}
    for values, samples in passes:
        for key, value in values.items():
            metrics.setdefault(key, []).append(value)
            counts[key] = counts.get(key, 0) + samples[key]
    metrics = {key: median(v) for key, v in metrics.items()}
    total = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    for layer, seconds in tracer.self_time_by_layer().items():
        if layer in LAYERS:
            metrics[f"{layer}.self_share"] = seconds / total
            counts[f"{layer}.self_share"] = len(passes)
    metrics["container.element_copies_per_solve"] = tally.element_copies / max(tally.solves_watched, 1)
    counts["container.element_copies_per_solve"] = tally.solves_watched
    metrics["container.matrix_conversions_per_solver"] = tally.conversions / max(tally.setups_watched, 1)
    counts["container.matrix_conversions_per_solver"] = tally.setups_watched

    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise SystemExit(f"benchmark: metrics missing from BENCHMARK.json: {unknown}")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    log(f"## per-layer (traced, {len(passes)} passes, {len(tracer.spans)} spans -> {path.name})")
    for name, unit in names.items():
        if name in metrics:
            log(f"{name:42s} {metrics[name]:14.6g} {unit:6s} n={counts[name]}")
        else:
            metrics[name] = 0
            log(f"{name:42s} {0:14d} {unit:6s} not exercised by this workload")
    return metrics, tally


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
