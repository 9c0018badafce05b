#!/usr/bin/env python3
"""Backward Euler on the scalar decay problem du/dt = -u.

The discrete answer has the closed form u0 / (1 + dt)^steps, so the print
shows exactly how much solver noise the time loop accumulates.  Exits 1 when
that deviation exceeds TOLERANCE.
"""

import argparse
import sys

from linopkit import executor_from_name
from linopkit.apps.euler import integrate_decay

#: The deviation the acceptance check C8 allows.
TOLERANCE = 1e-10


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--dt", type=float, default=0.1)
    args = parser.parse_args()

    exec_ = executor_from_name("reference")
    u = integrate_decay(args.steps, args.dt, exec_)
    exact = (1.0 + args.dt) ** -args.steps
    print(f"steps={args.steps} dt={args.dt}")
    print(f"computed u = {u!r}")
    print(f"discrete exact = {exact!r}")
    print(f"deviation = {abs(u - exact):.3e} (tolerance {TOLERANCE:.0e})")
    return 0 if abs(u - exact) <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
