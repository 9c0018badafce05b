#!/usr/bin/env python3
"""One batched backward Euler step for many independent 3-species cells.

Exits 1 if any cell's solve did not converge.
"""

import argparse
import sys

import numpy as np

from linopkit.apps.kinetics import run_kinetics_step


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=1000)
    parser.add_argument("--dt", type=float, default=0.002)
    parser.add_argument("--backend", default="reference")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    rep = run_kinetics_step(
        args.cells, dt=args.dt, backend=args.backend,
        worker_count=args.workers, seed=args.seed,
    )
    solve = rep.solve
    print(f"cells={rep.num_cells} dt={rep.dt} backend={args.backend}")
    print(f"converged: {int(solve.converged.sum())}/{rep.num_cells}")
    print(f"iterations: min={solve.iterations.min()} max={solve.iterations.max()}")
    # the rate matrix conserves mass, so concentrations must keep summing to 1
    mass_dev = float(np.max(np.abs(rep.solutions.sum(axis=1) - 1.0)))
    print(f"max mass-conservation deviation: {mass_dev:.3e}")
    return 0 if solve.converged.all() else 1


if __name__ == "__main__":
    sys.exit(main())
