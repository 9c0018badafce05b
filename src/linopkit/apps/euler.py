"""Implicit Euler time stepping, written against the library types directly.

This demo deliberately couples tight: it builds Csr matrices, owns Dense
vectors, and treats a solver as the inverse of its system matrix through the
operator interface.  Contrast with ``heat.py``, which reaches the same
library only through the application facade.

For du/dt = J u the backward Euler update solves

    (I - dt J) x = J u_n,      u_{n+1} = u_n + dt x,

so x approximates du/dt at the new time level.
"""

from __future__ import annotations

import numpy as np

from ..container import MatrixData
from ..executor import Executor
from ..linop import Csr, Dense
from ..solver import Iteration, ResidualNorm, SolverFactory


class ImplicitEulerStepper:
    """Advances u by backward Euler steps for a linear right-hand side J."""

    def __init__(self, exec_: Executor, jacobian: Csr, dt: float,
                 algorithm: str = "bicgstab", reduction_factor: float = 1e-13,
                 max_iters: int | None = None):
        n = jacobian.size.rows
        self._jacobian = jacobian
        self._dt = float(dt)

        # system matrix I - dt J, assembled from the Jacobian's entries
        system = MatrixData(jacobian.size)
        diagonal = np.arange(n)
        system.add_entries(diagonal, diagonal, np.ones(n))
        rows, cols, values = jacobian.write_data().arrays()
        system.add_entries(rows, cols, -self._dt * values)
        matrix = Csr.from_data(exec_, system)

        factory = SolverFactory(
            algorithm=algorithm,
            criteria=(
                Iteration(max_iters if max_iters is not None else 10 * n),
                ResidualNorm(reduction_factor),
            ),
        )
        self._inverse = factory.generate(matrix)
        self._rate = Dense.create(exec_, (n, 1))
        # kept across steps so each solve starts from the previous rate
        self._x = Dense.create(exec_, (n, 1))

    def advance(self, u: Dense) -> None:
        """One step: u += dt * (I - dt J)^{-1} J u."""
        self._jacobian.apply(u, self._rate)
        self._inverse.apply(self._rate, self._x)
        u.add_scaled(self._dt, self._x)


def integrate_decay(steps: int, dt: float, exec_: Executor, u0: float = 1.0) -> float:
    """Integrate the scalar decay problem du/dt = -u and return u(steps * dt).

    Backward Euler divides by (1 + dt) each step, so the exact discrete
    answer is u0 / (1 + dt)**steps; the returned value matches it to solver
    tolerance.
    """
    jacobian = Csr.from_data(exec_, MatrixData((1, 1), [(0, 0, -1.0)]))
    # decay gives a symmetric Jacobian, so I - dt J is SPD and CG applies
    stepper = ImplicitEulerStepper(exec_, jacobian, dt, algorithm="cg")
    u = Dense.create(exec_, (1, 1))
    u.set_at(0, 0, u0)
    for _ in range(steps):
        stepper.advance(u)
    return u.at(0, 0)
