#!/usr/bin/env python3
"""Solve the manufactured heat problem and print the discretization errors.

Runs the facade-coupled demo on a sequence of grids and shows the error
ratio between consecutive refinements (4.0 expected for a second-order
stencil), plus a reference/parallel cross-check on the finest grid.
Exits 1 if any of its solves did not converge.
"""

import argparse
import sys

import numpy as np

from linopkit.apps.heat import run_heat_demo


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument("--backend", default="reference")
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()

    errors, converged = [], []
    for n in args.grids:
        rep = run_heat_demo(n, backend=args.backend, worker_count=args.workers)
        errors.append(rep.max_error)
        converged.append(rep.converged)
        print(
            f"n={n:4d}  iterations={rep.iterations:5d}  converged={rep.converged}  "
            f"max_error={rep.max_error:.6e}"
        )
    for prev, cur, n in zip(errors, errors[1:], args.grids[1:]):
        print(f"error ratio up to n={n}: {prev / cur:.3f}")

    finest = args.grids[-1]
    ref = run_heat_demo(finest, backend="reference")
    par = run_heat_demo(finest, backend="parallel", worker_count=args.workers)
    diff = float(np.max(np.abs(ref.solution - par.solution)))
    print(f"reference vs parallel on n={finest}: max |diff| = {diff:.3e}"
          f"  converged={ref.converged and par.converged}")
    return 0 if all(converged) and ref.converged and par.converged else 1


if __name__ == "__main__":
    sys.exit(main())
