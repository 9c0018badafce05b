"""Command line entry point for the benchmark driver.

Exit status: 0 when the solve converged, 1 when it ran but did not converge,
2 on any error (bad flags, unreadable files, solver setup failures).  Errors
print a diagnostic to stderr and produce no JSON.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from ..errors import LibraryError
from ..executor import BACKENDS
from ..facade import VALID_ALGORITHMS
from ..solver import PRECONDITIONERS
from .bench import run_benchmark
from .config import RunConfig, build_run_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linopkit-bench",
        description="Run one sparse solve and print a flat JSON report.",
    )
    parser.add_argument("--backend", help="execution backend: " + " | ".join(BACKENDS))
    parser.add_argument("--matrix", help="Matrix Market file (coordinate real)")
    parser.add_argument("--solver", help="algorithm: " + " | ".join(VALID_ALGORITHMS))
    parser.add_argument("--preconditioner", help=" | ".join(PRECONDITIONERS))
    parser.add_argument("--max-iters", type=int, dest="max_iters")
    parser.add_argument("--reduction-factor", type=float, dest="reduction_factor")
    parser.add_argument("--restart", type=int, help="GMRES restart length")
    parser.add_argument("--rhs", help="ones | random(<seed>) | path to a value file")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--output", help="write the JSON report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)}  # dests are field names
    try:
        cfg = build_run_config(flags, config_path=args.config)
        report = run_benchmark(cfg)
    except (LibraryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json()
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if report.converged else 1


if __name__ == "__main__":
    sys.exit(main())
