"""Iterative and direct solvers behind the linear-operator contract.

A :class:`SolverFactory` holds algorithm choice and stopping parameters; its
:meth:`~SolverFactory.generate` binds them to a system matrix and returns a
:class:`Solver`, which is itself a :class:`~linopkit.linop.LinOp` of the same
size.  Applying a solver means approximately applying the inverse of its
matrix, so solvers can stand in wherever an operator is expected, including
as preconditioners for other solvers.

Stopping is governed by a non-empty collection of criteria combined as a
disjunction: the first one that fires ends the solve, and the report records
which one it was.  Iterative solves track the recurrence residual; the
iteration-zero residual is evaluated against the criteria before any work
happens, so a converged initial guess costs nothing.  CG and BiCGStab run all
columns in lockstep, through the recurrences batched solves run too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .container import array_view
from .errors import (
    BreakdownError,
    InvalidArgumentError,
    SingularMatrixError,
    SingularPreconditionerError,
)
from .executor import dispatch
from .linop import Csr, Dense, LinOp

DEFAULT_RESTART = 30
DEFAULT_TOL_BREAKDOWN = 1e-30
DEFAULT_TOL_PIVOT = 1e-14

STOP_ITERATION = "iteration"
STOP_RESIDUAL = "residual_norm"
STOP_DIRECT = "direct"
STOP_BREAKDOWN = "breakdown"
STOP_SINGULAR_PRECONDITIONER = "singular_preconditioner"

ALGORITHMS = ("cg", "bicgstab", "gmres", "lu", "gmres_lu")


@dataclass(frozen=True)
class Iteration:
    """Stop after ``max_iters`` iterations.

    Fires when the completed iteration count reaches the bound; a bound of 0
    therefore fires before the first iteration.
    """

    max_iters: int

    def met(self, iteration: int, r0_norm: float, rk_norm: float) -> bool:
        return iteration >= self.max_iters


@dataclass(frozen=True)
class ResidualNorm:
    """Stop once ||r_k|| <= reduction_factor * ||r_0||.

    A zero initial residual fires immediately: the guess already solves the
    system and no reduction is possible or needed.
    """

    reduction_factor: float

    def met(self, iteration: int, r0_norm: float, rk_norm: float) -> bool:
        if r0_norm == 0.0:
            return True
        return rk_norm <= self.reduction_factor * r0_norm


StoppingCriterion = Union[Iteration, ResidualNorm]


def first_met(criteria, iteration: int, r0_norm: float, rk_norm: float) -> Optional[str]:
    """The stop reason if any criterion fires, else None.

    Residual criteria take precedence when several fire at once, so hitting
    the target on the final allowed iteration still counts as convergence.
    """
    hit_iteration = False
    for crit in criteria:
        if isinstance(crit, ResidualNorm):
            if crit.met(iteration, r0_norm, rk_norm):
                return STOP_RESIDUAL
        elif crit.met(iteration, r0_norm, rk_norm):
            hit_iteration = True
    return STOP_ITERATION if hit_iteration else None


@dataclass
class SolveReport:
    """What a solve did.

    Attributes
    ----------
    iterations : int
        Completed iterations (0 for direct solves).
    initial_residual_norm, final_residual_norm : float
        Euclidean norms of b - A x at entry and at exit.
    converged : bool
        True when the solve stopped because the residual target was met, or
        for a successful direct solve.
    stop_reason : str
        One of ``"iteration"``, ``"residual_norm"``, ``"direct"``.
    """

    iterations: int
    initial_residual_norm: float
    final_residual_norm: float
    converged: bool
    stop_reason: str


def _combine(reports) -> SolveReport:
    """One report for several columns: iteration maximum, Frobenius norms,
    and the first unconverged column's stop reason."""
    if len(reports) == 1:
        return reports[0]
    return SolveReport(
        iterations=max(r.iterations for r in reports),
        initial_residual_norm=math.hypot(*(r.initial_residual_norm for r in reports)),
        final_residual_norm=math.hypot(*(r.final_residual_norm for r in reports)),
        converged=all(r.converged for r in reports),
        stop_reason=next((r.stop_reason for r in reports if not r.converged),
                         reports[0].stop_reason),
    )


# --- preconditioners ---------------------------------------------------------


class JacobiPreconditioner:
    """Point-Jacobi preconditioner: z_i = r_i / A_ii.

    Requires every diagonal entry to be stored and nonzero; anything else
    raises :class:`SingularPreconditionerError` at construction.
    """

    def __init__(self, a: Csr):
        self._executor = a.executor
        self._inverse_diagonal = 1.0 / extract_diagonal(a)

    @property
    def inverse_diagonal(self) -> np.ndarray:
        return self._inverse_diagonal

    def apply(self, r: Dense, z: Dense) -> None:
        dispatch(self._executor, "diag_scale")(
            z.view2d(), self._inverse_diagonal, r.view2d()
        )


def extract_diagonal(a: Csr) -> np.ndarray:
    """The diagonal of a square CSR matrix, as stored.

    Raises
    ------
    SingularPreconditionerError
        If some diagonal entry is absent from the sparsity pattern or zero.
    """
    pos = _diagonal_positions(a._row_ids(), a.get_col_idxs().numpy(), a.size.rows)
    if (pos < 0).any():
        missing = int(np.flatnonzero(pos < 0)[0])
        raise SingularPreconditionerError(f"row {missing} has no stored diagonal entry")
    diag = a.get_values(const=True).numpy()[pos]
    if np.any(diag == 0.0):
        zero = int(np.flatnonzero(diag == 0.0)[0])
        raise SingularPreconditionerError(f"zero diagonal entry at row {zero}")
    return diag


def _diagonal_positions(row_ids: np.ndarray, col_idxs: np.ndarray, rows: int) -> np.ndarray:
    """Where each row's diagonal entry sits in a CSR pattern in normal form, or -1."""
    on_diag = col_idxs == row_ids
    pos = np.full(rows, -1, dtype=np.int64)
    pos[row_ids[on_diag]] = np.flatnonzero(on_diag)
    return pos


class _IdentityPreconditioner:
    def __init__(self, executor):
        self._executor = executor

    def apply(self, r: Dense, z: Dense) -> None:
        dispatch(self._executor, "copy")(z.view2d(), r.view2d())


class _DirectPreconditioner:
    """Applies an LU factorization as M^{-1}, for LU-preconditioned GMRES."""

    def __init__(self, factors):
        self.factors = factors

    def apply(self, r: Dense, z: Dense) -> None:
        perm, lower, upper = self.factors
        z.view2d()[...] = lu_solve_dense(perm, lower, upper, r.view2d())


# --- dense LU ----------------------------------------------------------------


def lu_factorize(a, tol_pivot: float = DEFAULT_TOL_PIVOT):
    """Dense LU factorization with partial pivoting: A[perm] == L @ U.

    Intended for desk-scale systems; the input is densified and the
    elimination runs on the host.

    Parameters
    ----------
    a : Csr or array_like
        Square matrix to factorize.
    tol_pivot : float
        Acceptance threshold coefficient.  At step k the chosen pivot must
        exceed ``tol_pivot`` times the largest magnitude the original column
        k contained, otherwise the matrix is declared singular.

    Returns
    -------
    perm : ndarray of int
        Row permutation as an index vector.
    lower : ndarray
        Unit lower triangular, off-diagonal magnitudes at most 1.
    upper : ndarray
        Upper triangular.

    Raises
    ------
    SingularMatrixError
        When no acceptable pivot exists in some column; the message names it.
    """
    m = a.to_dense() if isinstance(a, Csr) else np.array(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError(f"lu_factorize needs a square matrix, got {m.shape}")
    n = m.shape[0]
    col_scale = np.max(np.abs(m), axis=0) if n else np.zeros(0)
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if abs(m[p, k]) <= tol_pivot * col_scale[k]:
            raise SingularMatrixError(f"no acceptable pivot in column {k}")
        if p != k:
            m[[k, p], :] = m[[p, k], :]
            perm[[k, p]] = perm[[p, k]]
        m[k + 1 :, k] /= m[k, k]
        m[k + 1 :, k + 1 :] -= np.outer(m[k + 1 :, k], m[k, k + 1 :])
    lower = np.tril(m, -1) + np.eye(n)
    upper = np.triu(m)
    return perm, lower, upper


def lu_solve_dense(perm, lower, upper, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs given lu_factorize output. rhs has shape (n, k)."""
    n = lower.shape[0]
    y = np.array(rhs[perm], dtype=np.float64)
    for i in range(n):
        y[i] -= lower[i, :i] @ y[:i]
    for i in reversed(range(n)):
        y[i] -= upper[i, i + 1 :] @ y[i + 1 :]
        y[i] /= upper[i, i]
    return y


# --- factory and solver -------------------------------------------------------


@dataclass(frozen=True)
class SolverFactory:
    """Algorithm choice plus stopping parameters, reusable across matrices.

    Parameters
    ----------
    algorithm : str
        One of ``cg``, ``bicgstab``, ``gmres``, ``lu``, ``gmres_lu``.
    criteria : sequence of StoppingCriterion
        Non-empty; combined as a disjunction.
    preconditioner : str or None
        ``"jacobi"`` or None.  Ignored by ``lu`` and ``gmres_lu``.
    restart : int
        GMRES restart length.
    tol_breakdown : float
        Scale factor for the Krylov breakdown guards.
    tol_pivot : float
        Pivot acceptance coefficient for the LU-based algorithms.
    """

    algorithm: str
    criteria: Sequence[StoppingCriterion] = ()
    preconditioner: Optional[str] = None
    restart: int = DEFAULT_RESTART
    tol_breakdown: float = DEFAULT_TOL_BREAKDOWN
    tol_pivot: float = DEFAULT_TOL_PIVOT

    def generate(self, a: Csr) -> "Solver":
        """Bind this configuration to a system matrix."""
        if self.algorithm not in ALGORITHMS:
            raise InvalidArgumentError(
                f"unknown algorithm '{self.algorithm}'; valid: {', '.join(ALGORITHMS)}"
            )
        if not isinstance(a, Csr):
            raise InvalidArgumentError("generate expects a Csr system matrix")
        if a.size.rows != a.size.cols:
            raise InvalidArgumentError(f"system matrix must be square, got {a.size}")
        criteria = _checked_options(self.criteria, self.preconditioner)
        if self.restart < 1:
            raise InvalidArgumentError(f"restart must be >= 1, got {self.restart}")
        return Solver(self, a, criteria)


def _checked_options(criteria, preconditioner) -> tuple:
    """``criteria`` as a tuple, after checking it and ``preconditioner``."""
    criteria = tuple(criteria)
    if not criteria:
        raise InvalidArgumentError("at least one stopping criterion is required")
    for crit in criteria:
        if not isinstance(crit, (Iteration, ResidualNorm)):
            raise InvalidArgumentError(f"unknown stopping criterion {crit!r}")
    if preconditioner not in (None, "none", "jacobi"):
        raise InvalidArgumentError(f"unknown preconditioner '{preconditioner}'; valid: jacobi")
    return criteria


class Solver(LinOp):
    """A solver bound to one system matrix.

    ``solve`` reads the incoming ``x`` as the initial guess and overwrites it
    with the result.  ``apply`` does the same but discards the report, which
    is what lets a Solver act as the (approximate) inverse of its matrix in
    operator position.
    """

    def __init__(self, factory: SolverFactory, a: Csr, criteria):
        super().__init__(a.executor, a.size)
        self._factory = factory
        self._a = a
        self._criteria = criteria
        self._lu = None
        self._work: dict = {}
        self._setup()

    def _setup(self) -> None:
        algorithm = self._factory.algorithm
        if algorithm in ("lu", "gmres_lu"):
            self._lu = lu_factorize(self._a, self._factory.tol_pivot)
            self._precond = _DirectPreconditioner(self._lu)
        elif self._factory.preconditioner == "jacobi":
            self._precond = JacobiPreconditioner(self._a)
        else:
            self._precond = _IdentityPreconditioner(self.executor)

    @property
    def system_matrix(self) -> Csr:
        return self._a

    @property
    def algorithm(self) -> str:
        return self._factory.algorithm

    @property
    def criteria(self):
        return self._criteria

    def refresh(self) -> None:
        """Rebuild value-derived state after the matrix values changed.

        Refactorizes LU-based solvers and re-extracts the Jacobi diagonal;
        plain unpreconditioned iterations have nothing to rebuild.
        """
        self._setup()

    def solve(self, b: Dense, x: Dense, callback: Optional[Callable] = None) -> SolveReport:
        """Solve A x = b starting from the incoming x.

        Parameters
        ----------
        b, x : Dense
            Right-hand side and iterate, one system per column.  Columns are
            solved independently, CG and BiCGStab in lockstep; the report
            aggregates them (iteration maximum, norms combined in the
            Frobenius sense).  A breakdown raises once the other columns are solved.
        callback : callable, optional
            Invoked as ``callback(iteration, residual_norm)`` after every
            residual evaluation, iteration 0 included; in lockstep the norm
            covers all columns, stopped ones at their final norm.

        Returns
        -------
        SolveReport
        """
        self._check_vectors(b, x)
        return self._solve(b, x, callback)

    def _solve(self, b: Dense, x: Dense, callback) -> SolveReport:
        if self._factory.algorithm in ("cg", "bicgstab"):
            return self._solve_lockstep(b, x, callback)
        if b.size.cols == 1:
            return self._solve_column(b, x, callback)
        return _combine([self._solve_column(b.column(j), x.column(j), callback)
                         for j in range(b.size.cols)])

    def _solve_lockstep(self, b: Dense, x: Dense, callback) -> SolveReport:
        """Columns run as lanes, x in a work array; work arrays, block apply and
        outputs persist."""
        cols, n = b.size.cols, b.size.rows
        if cols not in self._work:
            work = {}
            out = (np.zeros(cols, dtype=np.int64), np.zeros(cols), np.empty(cols, dtype=object))
            self._work[cols] = (work, _lane_apply(self._a, work), out)
        work, apply, out = self._work[cols]
        bv, xv = np.ascontiguousarray(b.view2d().T), _buffer(work, "x", (cols, n))
        xv[...] = x.view2d().T
        invd = getattr(self._precond, "inverse_diagonal", None)
        monitor = callback and (lambda k, lanes: callback(k, math.hypot(*lanes.residual_norms())))
        block = _cg_block if self._factory.algorithm == "cg" else _bicgstab_block
        r0, message = block(apply, None, bv, xv, self._criteria,
                            None if invd is None else np.broadcast_to(invd, (cols, n)),
                            None, self._factory.tol_breakdown, out, work, monitor)
        x.view2d()[...] = xv.T
        report = _combine([_report(out[0].item(j), r0.item(j), out[1].item(j), out[2][j])
                           for j in range(cols)])
        if message:
            raise BreakdownError(message, best=x, iterations=report.iterations,
                                 residual_norm=report.final_residual_norm)
        return report

    def _solve_column(self, b: Dense, x: Dense, callback) -> SolveReport:
        if self._factory.algorithm == "lu":
            return self._solve_direct(b, x)
        return _gmres(
            self._a, b, x, self._criteria, self._precond,
            self._factory.restart, callback,
        )

    def _solve_direct(self, b: Dense, x: Dense) -> SolveReport:
        r = Dense.create(self.executor, b.size)
        _copy_into(r, b)
        self._a.advanced_apply(-1.0, x, 1.0, r)
        r0 = float(r.norm2()[0])
        perm, lower, upper = self._lu
        x.view2d()[...] = lu_solve_dense(perm, lower, upper, b.view2d())
        _copy_into(r, b)
        self._a.advanced_apply(-1.0, x, 1.0, r)
        rk = float(r.norm2()[0])
        return SolveReport(0, r0, rk, True, STOP_DIRECT)

    def _apply(self, b: Dense, x: Dense) -> None:
        self._solve(b, x, None)

    def _advanced_apply(self, alpha: float, b: Dense, beta: float, x: Dense) -> None:
        y = Dense.create(self.executor, x.size)
        self._solve(b, y, None)
        dispatch(self.executor, "waxpby")(x.view2d(), alpha, y.view2d(), beta, x.view2d())


# --- algorithm internals -------------------------------------------------------
#
# CG and BiCGStab are written once, over lanes: (m, n) arrays whose row l is
# lane l's vector, for the columns of a Solver's solve or the systems of a
# batched group.  ``apply(vals, src, dst)`` writes every live lane's operator
# times ``src`` into ``dst``; ``vals`` holds the lanes' matrix values for a
# batch, None for a Solver.  Updates run in place, in the textbook formulas'
# operand order, and no lane's arithmetic depends on another's, so a batched
# system reproduces its single solve bit for bit (einsum sums a lone row of
# over 8,192 entries in chunks, so there a column alone and among others may
# differ in the last bits; its ``__array_function__`` dispatch, ~1 us a call
# on plain ndarrays, is skipped).  GMRES and Dense LU take one column at a time.


def _copy_into(dst: Dense, src: Dense) -> None:
    dispatch(dst.executor, "copy")(dst.view2d(), src.view2d())


def _norm(v: Dense) -> float:
    return float(v.norm2()[0])


def _dot(a: Dense, b: Dense) -> float:
    return float(a.dot(b)[0])


def _report(iterations, r0, rk, reason) -> SolveReport:
    return SolveReport(iterations, r0, rk, reason == STOP_RESIDUAL, reason)


def _unchecked(a: LinOp):
    """``a``'s ``(apply, advanced_apply)`` without the argument checks.

    The Krylov loops apply the system matrix only to vectors that
    ``Solver.solve`` checked or that the loop sized and owns, so repeating
    the public methods' checks (the alias test above all) buys nothing.  A
    subclass that overrides a public method, to trace it say, is still
    called through its override.
    """
    cls = type(a)
    apply = a._apply if cls.apply is LinOp.apply else a.apply
    advanced = (
        a._advanced_apply if cls.advanced_apply is LinOp.advanced_apply else a.advanced_apply
    )
    return apply, advanced


def _lane_apply(a: LinOp, work: dict):
    """A Solver's block apply: ``a``'s unchecked ``apply`` per lane, as an (n, 1)
    column.  The columns of the ``work`` arrays are wrapped once and kept."""
    op, exec_, views = _unchecked(a)[0], a.executor, {}  # id(array) -> (array, columns)

    def wrap(arr):
        n = arr.shape[1]
        entry = (arr, [Dense.from_array(exec_, (n, 1), array_view(exec_, n, row)) for row in arr])
        if any(arr is buf for buf in work.values()):
            views[id(arr)] = entry
        return entry

    def apply(vals, src, dst):
        s, d = views.get(id(src)), views.get(id(dst))
        if s is None or s[0] is not src:
            s = wrap(src)
        if d is None or d[0] is not dst:
            d = wrap(dst)
        for sc, dc in zip(s[1], d[1]):
            op(sc, dc)

    return apply


def _buffer(work, name: str, shape) -> np.ndarray:
    if work is None:  # nothing to keep: compaction can free what it replaces
        return np.empty(shape)
    return work[name] if name in work else work.setdefault(name, np.empty(shape))


_rowdot = functools.partial(np.einsum.__wrapped__, "ij,ij->i")  # see the section comment


def _targets(criteria, r0):
    """Each lane's residual target and the iteration cap (or None): ``rk <= target``
    exactly when a residual criterion is met, as rounding is monotone (fmax skips
    NaN bounds, which meet nothing; a finite factor maps r0 = 0 to +-0)."""
    target, cap = None, None
    for crit in criteria:
        if isinstance(crit, ResidualNorm):
            bound = crit.reduction_factor * r0
            if not math.isfinite(crit.reduction_factor):
                bound[r0 == 0.0] = np.inf
            target = bound if target is None else np.fmax(target, bound)
        else:
            cap = crit.max_iters if cap is None else min(cap, crit.max_iters)
    return (np.full(r0.shape, -np.inf) if target is None else target), cap


class _Lanes:
    """The lanes of a block that are still iterating, set up from ``xv``.

    Public array attributes hold one row per live lane in block order;
    ``_ids`` maps rows to block slots (None while they agree).  Work arrays
    named in ``scratch`` (the first takes A x at set-up) carry nothing across
    a :meth:`stop`, which truncates them and compacts the others with
    ``take``.  Stopped lanes leave ``x`` to ``xv`` and their report to ``out``
    = (iterations, final norms, reasons).  ``invd`` is each lane's inverse
    diagonal for Jacobi, or None; lanes in ``singular`` stop at once.
    ``monitor(k, lanes)`` sees every residual."""

    def __init__(self, apply, vals, bv, xv, criteria, invd, singular, tol_breakdown, out,
                 work, state, scratch, monitor):
        self._out, self._ids, self._scratch, self._monitor = (xv, *out), None, scratch, monitor
        self.count, self.message = xv.shape[0], None
        self.x, self.vals, self.invd = xv, vals, invd
        for name in ("r",) + state + scratch:
            setattr(self, name, _buffer(work, name, xv.shape))
        ax = getattr(self, scratch[0])
        apply(vals, xv, ax)
        np.subtract(bv, ax, out=self.r)
        self.measure()
        self._r0 = self.rk  # rk is replaced, never written in place
        self.target, self.cap = _targets(criteria, self._r0)
        self.bd_tol = tol_breakdown * _rowdot(bv, bv)
        if singular is not None:
            self.stop(singular, 0, STOP_SINGULAR_PRECONDITIONER)
        self.check(0)

    def measure(self) -> None:
        """``rr = r . r`` and ``rk = ||r||``; unpreconditioned CG's rho is rr."""
        self.rr = _rowdot(self.r, self.r)
        self.rk = np.sqrt(self.rr)

    def stop(self, mask, k, reason, *temps):
        """Stop lanes in ``mask`` after ``k`` iterations; returns ``temps`` compacted alike."""
        stopping = np.count_nonzero(mask) if self.count else 0  # cheaper than mask.any()
        if not stopping:
            return temps
        xv, iters, finals, reasons = self._out
        rows = mask if stopping < self.count else slice(None)
        gone = rows if self._ids is None else self._ids[rows]
        if self.x is not xv:
            xv[gone] = self.x[rows]
        finals[gone], iters[gone], reasons[gone] = self.rk[rows], k, reason
        self.count -= stopping
        if not self.count:
            return temps
        keep = np.flatnonzero(~mask)
        self._ids = keep if self._ids is None else self._ids[keep]
        # one array at a time, so each full-size original is freed first
        for name in [n for n, v in vars(self).items() if isinstance(v, np.ndarray)]:
            if name[0] != "_":
                value = getattr(self, name)
                setattr(self, name, value[: self.count] if name in self._scratch
                        else value.take(keep, axis=0))
        return tuple(t.take(keep, axis=0) for t in temps)

    def fail(self, mask, k, message, *temps):
        """:meth:`stop` lanes in ``mask`` as broken down, keeping the first message."""
        if not (self.count and np.count_nonzero(mask)):
            return temps
        self.message = self.message or message
        return self.stop(mask, k, STOP_BREAKDOWN, *temps)

    def check(self, k) -> None:
        """Show iteration ``k`` to the monitor, then stop lanes by the criteria."""
        if self._monitor:
            self._monitor(k, self)
        self.stop(self.rk <= self.target, k, STOP_RESIDUAL)
        if self.count and self.cap is not None and k >= self.cap:
            self.stop(np.ones(self.count, dtype=bool), k, STOP_ITERATION)

    def residual_norms(self) -> np.ndarray:
        """Each lane's residual norm: its current one if live, else its final one."""
        norms = self._out[2].copy()
        if self.count:
            norms[slice(None) if self._ids is None else self._ids] = self.rk
        return norms


def _cg_block(apply, vals, bv, xv, criteria, invd, singular, tol_breakdown, out, work,
              monitor=None):
    """Preconditioned conjugate gradients (Hestenes-Stiefel) on every lane, with
    :class:`_Lanes`' arguments.  Returns every lane's initial residual norm and
    the first breakdown's message (or None)."""
    lanes = _Lanes(apply, vals, bv, xv, criteria, invd, singular, tol_breakdown, out, work,
                   ("p",), ("q",), monitor)
    z = lanes.r if invd is None else np.multiply(lanes.r, lanes.invd, out=lanes.q)
    np.copyto(lanes.p, z)
    lanes.rho = lanes.rr if invd is None else _rowdot(lanes.r, z)
    k = 0
    while lanes.count:
        k += 1
        apply(lanes.vals, lanes.p, lanes.q)
        pq = _rowdot(lanes.p, lanes.q)
        q, pq = lanes.fail(np.abs(lanes.rho) < lanes.bd_tol, k - 1,
                           "cg: rho fell below the breakdown tolerance", lanes.q, pq)
        q, pq = lanes.fail((pq == 0.0) | ~np.isfinite(pq), k - 1,
                           "cg: search direction lost conjugacy (p . Ap degenerate)", q, pq)
        if not lanes.count:
            break
        alpha = (lanes.rho / pq)[:, None]
        lanes.r -= np.multiply(alpha, q, out=q)
        lanes.x += np.multiply(alpha, lanes.p, out=q)  # q is free now, and z is kept in it
        lanes.measure()
        lanes.check(k)
        if not lanes.count:
            break
        z = lanes.r if invd is None else np.multiply(lanes.r, lanes.invd, out=lanes.q)
        rho_new = lanes.rr if invd is None else _rowdot(lanes.r, z)
        # rho is 0 only where b is 0, which the breakdown test cannot catch.
        beta = np.zeros(lanes.count)
        np.divide(rho_new, lanes.rho, out=beta, where=lanes.rho != 0.0)
        np.add(z, np.multiply(beta[:, None], lanes.p, out=lanes.p), out=lanes.p)  # z + beta p
        lanes.rho = rho_new
    return lanes._r0, lanes.message


def _bicgstab_block(apply, vals, bv, xv, criteria, invd, singular, tol_breakdown, out, work,
                    monitor=None):
    """Preconditioned BiCGStab (van der Vorst) on every lane, like :func:`_cg_block`.
    A lane that meets its criteria on ||s|| takes the half update only, which
    saves work and avoids dividing by a vanishing t.t."""
    lanes = _Lanes(apply, vals, bv, xv, criteria, invd, singular, tol_breakdown, out, work,
                   ("rhat", "p", "v"), ("s", "t", "phat", "shat"), monitor)
    np.copyto(lanes.rhat, lanes.r)
    lanes.rho, lanes.alpha, lanes.omega = (np.ones(lanes.count) for _ in range(3))
    k = 0
    while lanes.count:
        k += 1
        rho = _rowdot(lanes.rhat, lanes.r)
        (rho,) = lanes.fail(np.abs(rho) < lanes.bd_tol, k - 1,
                            "bicgstab: rho fell below the breakdown tolerance", rho)
        (rho,) = lanes.fail(lanes.omega == 0.0, k - 1, "bicgstab: omega collapsed to zero", rho)
        if not lanes.count:
            break
        if k == 1:
            np.copyto(lanes.p, lanes.r)
        else:
            # p = r + beta (p - omega v), beta = (rho / rho_prev) (alpha / omega);
            # rho_prev is 0 only where b is 0, which the breakdown test misses.
            beta = np.zeros(lanes.count)
            np.divide(rho, lanes.rho, out=beta, where=lanes.rho != 0.0)
            beta *= lanes.alpha / lanes.omega
            lanes.p -= np.multiply(lanes.omega[:, None], lanes.v, out=lanes.phat)
            np.add(lanes.r, np.multiply(beta[:, None], lanes.p, out=lanes.p), out=lanes.p)
        lanes.rho = rho
        phat = lanes.p if invd is None else np.multiply(lanes.p, lanes.invd, out=lanes.phat)
        apply(lanes.vals, phat, lanes.v)
        rhat_v = _rowdot(lanes.rhat, lanes.v)
        phat, rhat_v = lanes.fail((rhat_v == 0.0) | ~np.isfinite(rhat_v), k - 1,
                                  "bicgstab: rhat . A p degenerate", phat, rhat_v)
        if not lanes.count:
            break
        lanes.alpha = lanes.rho / rhat_v
        s = np.subtract(lanes.r, np.multiply(lanes.alpha[:, None], lanes.v, out=lanes.s),
                        out=lanes.s)  # r - alpha v
        s_norm = np.sqrt(_rowdot(s, s))
        half = s_norm <= lanes.target
        if np.count_nonzero(half):
            lanes.x[half] += lanes.alpha[half, None] * phat[half]
            lanes.rk = np.where(half, s_norm, lanes.rk)
            if monitor and np.count_nonzero(half) == lanes.count:
                monitor(k, lanes)
            phat, s = lanes.stop(half, k, STOP_RESIDUAL, phat, s)
            if not lanes.count:
                break
        shat = s if invd is None else np.multiply(s, lanes.invd, out=lanes.shat)
        apply(lanes.vals, shat, lanes.t)
        tt = _rowdot(lanes.t, lanes.t)
        phat, s, shat, t, tt = lanes.fail((tt == 0.0) | ~np.isfinite(tt), k - 1,
                                          "bicgstab: stabilization direction vanished",
                                          phat, s, shat, lanes.t, tt)
        if not lanes.count:
            break
        # x += alpha phat + omega shat, r = s - omega t (t is free once r is; shat may be s)
        lanes.omega = _rowdot(t, s) / tt
        omega = lanes.omega[:, None]
        np.subtract(s, np.multiply(omega, t, out=t), out=lanes.r)
        update = np.multiply(lanes.alpha[:, None], phat, out=lanes.phat)
        update += np.multiply(omega, shat, out=t)
        lanes.x += update
        del phat, s, shat, t, update  # no full-size temporary may outlive a compaction
        lanes.measure()
        lanes.check(k)
    return lanes._r0, lanes.message


def _gmres(a, b, x, criteria, precond, restart, callback) -> SolveReport:
    """Restarted GMRES with right preconditioning.

    Arnoldi with modified Gram-Schmidt; Givens rotations keep a running
    residual estimate, and right preconditioning keeps that estimate equal
    to the true residual norm (up to roundoff).  One iteration means one
    Krylov vector, counted across restarts; the residual is recomputed
    exactly at every restart boundary.
    """
    exec_ = a.executor
    shape = b.size
    apply, advanced_apply = _unchecked(a)
    r = Dense.create(exec_, shape)
    w = Dense.create(exec_, shape)

    _copy_into(r, b)
    advanced_apply(-1.0, x, 1.0, r)
    r0_norm = rk_norm = _norm(r)
    if callback:
        callback(0, rk_norm)
    reason = first_met(criteria, 0, r0_norm, rk_norm)
    if reason:
        return _report(0, r0_norm, rk_norm, reason)

    total = 0
    while True:
        beta = rk_norm
        if beta == 0.0:
            return SolveReport(total, r0_norm, 0.0, True, STOP_RESIDUAL)
        v0 = Dense.create(exec_, shape)
        _copy_into(v0, r)
        v0.scale(1.0 / beta)
        basis = [v0]
        zdirs = []
        h_cols: list[list[float]] = []
        cs: list[float] = []
        sn: list[float] = []
        g = [beta]
        j = 0
        while j < restart:
            z = Dense.create(exec_, shape)
            precond.apply(basis[j], z)
            zdirs.append(z)
            apply(z, w)
            hcol = []
            for i in range(j + 1):
                hij = _dot(w, basis[i])
                w.add_scaled(-hij, basis[i])
                hcol.append(hij)
            h_next = _norm(w)
            for i in range(j):
                tmp = cs[i] * hcol[i] + sn[i] * hcol[i + 1]
                hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1]
                hcol[i] = tmp
            denom = math.hypot(hcol[j], h_next)
            if denom == 0.0:
                raise BreakdownError(
                    "gmres: zero subdiagonal with zero pivot",
                    best=x, iterations=total, residual_norm=rk_norm,
                )
            c, s_rot = hcol[j] / denom, h_next / denom
            cs.append(c)
            sn.append(s_rot)
            hcol[j] = denom
            g.append(-s_rot * g[j])
            g[j] = c * g[j]
            h_cols.append(hcol)
            rk_est = abs(g[j + 1])
            total += 1
            if callback:
                callback(total, rk_est)
            reason = first_met(criteria, total, r0_norm, rk_est)
            happy = h_next == 0.0
            if reason or happy or j == restart - 1:
                dim = j + 1
                y = [0.0] * dim
                for i in reversed(range(dim)):
                    acc = g[i]
                    for col in range(i + 1, dim):
                        acc -= h_cols[col][i] * y[col]
                    y[i] = acc / h_cols[i][i]
                for i in range(dim):
                    x.add_scaled(y[i], zdirs[i])
                if reason:
                    return _report(total, r0_norm, rk_est, reason)
                if happy:
                    # The Krylov space is invariant: the computed update is
                    # exact within it, so the solve cannot progress further.
                    return SolveReport(total, r0_norm, rk_est, True, STOP_RESIDUAL)
                break
            vnext = Dense.create(exec_, shape)
            _copy_into(vnext, w)
            vnext.scale(1.0 / h_next)
            basis.append(vnext)
            j += 1
        _copy_into(r, b)
        advanced_apply(-1.0, x, 1.0, r)
        rk_norm = _norm(r)
        reason = first_met(criteria, total, r0_norm, rk_norm)
        if reason:
            return _report(total, r0_norm, rk_norm, reason)
