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
happens, so a converged initial guess costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

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


def _residual_criteria_met(criteria, r0_norm: float, rk_norm: float) -> bool:
    return any(
        isinstance(c, ResidualNorm) and c.met(0, r0_norm, rk_norm) for c in criteria
    )


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
    n = a.size.rows
    ci = a.get_col_idxs().numpy()
    vals = a.get_values(const=True).numpy()
    row_ids = a._row_ids()
    on_diag = ci == row_ids
    diag = np.zeros(n)
    found = np.zeros(n, dtype=bool)
    diag[row_ids[on_diag]] = vals[on_diag]
    found[row_ids[on_diag]] = True
    if not found.all():
        missing = int(np.flatnonzero(~found)[0])
        raise SingularPreconditionerError(f"row {missing} has no stored diagonal entry")
    if np.any(diag == 0.0):
        zero = int(np.flatnonzero(diag == 0.0)[0])
        raise SingularPreconditionerError(f"zero diagonal entry at row {zero}")
    return diag


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
        criteria = tuple(self.criteria)
        if not criteria:
            raise InvalidArgumentError("at least one stopping criterion is required")
        for crit in criteria:
            if not isinstance(crit, (Iteration, ResidualNorm)):
                raise InvalidArgumentError(f"unknown stopping criterion {crit!r}")
        if self.restart < 1:
            raise InvalidArgumentError(f"restart must be >= 1, got {self.restart}")
        if self.preconditioner not in (None, "none", "jacobi"):
            raise InvalidArgumentError(
                f"unknown preconditioner '{self.preconditioner}'; valid: jacobi"
            )
        return Solver(self, a, criteria)


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
        self._work: list[Dense] = []
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
            solved independently; the report aggregates them (iteration
            maximum, norms combined in the Frobenius sense).
        callback : callable, optional
            Invoked as ``callback(iteration, residual_norm)`` after every
            residual evaluation, iteration 0 included.

        Returns
        -------
        SolveReport
        """
        self._check_vectors(b, x)
        return self._solve(b, x, callback)

    def _solve(self, b: Dense, x: Dense, callback) -> SolveReport:
        if b.size.cols == 1:
            return self._solve_column(b, x, callback)
        reports = [
            self._solve_column(b.column(j), x.column(j), callback)
            for j in range(b.size.cols)
        ]
        return SolveReport(
            iterations=max(r.iterations for r in reports),
            initial_residual_norm=math.hypot(*(r.initial_residual_norm for r in reports)),
            final_residual_norm=math.hypot(*(r.final_residual_norm for r in reports)),
            converged=all(r.converged for r in reports),
            stop_reason=next(
                (r.stop_reason for r in reports if not r.converged),
                reports[0].stop_reason,
            ),
        )

    def _scratch(self, count: int, shape) -> list:
        """Work vectors reused across solves.

        The system size is fixed for the solver's lifetime and the
        algorithms overwrite every work vector before reading it, so handing
        out the same ones each solve is safe and keeps repeated small solves
        free of per-call allocation.
        """
        while len(self._work) < count:
            self._work.append(Dense.create(self.executor, shape))
        return self._work[:count]

    def _solve_column(self, b: Dense, x: Dense, callback) -> SolveReport:
        algorithm = self._factory.algorithm
        if algorithm == "lu":
            return self._solve_direct(b, x)
        if algorithm == "cg":
            return _cg(
                self._a, b, x, self._criteria, self._precond,
                self._factory.tol_breakdown, callback, self._scratch(4, b.size),
            )
        if algorithm == "bicgstab":
            return _bicgstab(
                self._a, b, x, self._criteria, self._precond,
                self._factory.tol_breakdown, callback, self._scratch(8, b.size),
            )
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
# These operate on single-column vectors.  The short-recurrence methods take
# their work vectors from the owning Solver's scratch pool and overwrite each
# one before reading it; GMRES builds its Krylov basis fresh per restart cycle
# because the basis length varies.  Every vector update goes through the
# dispatched kernels so backend and determinism guarantees carry over
# unchanged.


def _copy_into(dst: Dense, src: Dense) -> None:
    dispatch(dst.executor, "copy")(dst.view2d(), src.view2d())


def _aypx(y: Dense, beta: float, x: Dense) -> None:
    dispatch(y.executor, "aypx")(y.view2d(), beta, x.view2d())


def _waxpby(w: Dense, alpha: float, x: Dense, beta: float, y: Dense) -> None:
    dispatch(w.executor, "waxpby")(w.view2d(), alpha, x.view2d(), beta, y.view2d())


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


def _cg(a, b, x, criteria, precond, tol_breakdown, callback, work) -> SolveReport:
    """Preconditioned conjugate gradients (Hestenes-Stiefel recurrence)."""
    r, z, p, q = work
    apply, advanced_apply = _unchecked(a)

    _copy_into(r, b)
    advanced_apply(-1.0, x, 1.0, r)
    r0_norm = rk_norm = _norm(r)
    b_norm_sq = _dot(b, b)
    if callback:
        callback(0, rk_norm)
    reason = first_met(criteria, 0, r0_norm, rk_norm)
    if reason:
        return _report(0, r0_norm, rk_norm, reason)

    precond.apply(r, z)
    _copy_into(p, z)
    rho = _dot(r, z)
    k = 0
    while True:
        k += 1
        if abs(rho) < tol_breakdown * b_norm_sq:
            raise BreakdownError(
                "cg: rho fell below the breakdown tolerance",
                best=x, iterations=k - 1, residual_norm=rk_norm,
            )
        apply(p, q)
        pq = _dot(p, q)
        if pq == 0.0 or not math.isfinite(pq):
            raise BreakdownError(
                "cg: search direction lost conjugacy (p . Ap degenerate)",
                best=x, iterations=k - 1, residual_norm=rk_norm,
            )
        alpha = rho / pq
        x.add_scaled(alpha, p)
        r.add_scaled(-alpha, q)
        rk_norm = _norm(r)
        if callback:
            callback(k, rk_norm)
        reason = first_met(criteria, k, r0_norm, rk_norm)
        if reason:
            return _report(k, r0_norm, rk_norm, reason)
        precond.apply(r, z)
        rho_new = _dot(r, z)
        beta = rho_new / rho
        _aypx(p, beta, z)  # p = z + beta p
        rho = rho_new


def _bicgstab(a, b, x, criteria, precond, tol_breakdown, callback, work) -> SolveReport:
    """Preconditioned BiCGStab (van der Vorst).

    The half step checks the residual criteria on ||s||; when they fire the
    iterate is advanced by the half update only, which both saves work and
    avoids dividing by a vanishing t.t.
    """
    r, rhat, p, phat, v, s, shat, t = work
    apply, advanced_apply = _unchecked(a)

    _copy_into(r, b)
    advanced_apply(-1.0, x, 1.0, r)
    _copy_into(rhat, r)
    r0_norm = rk_norm = _norm(r)
    b_norm_sq = _dot(b, b)
    if callback:
        callback(0, rk_norm)
    reason = first_met(criteria, 0, r0_norm, rk_norm)
    if reason:
        return _report(0, r0_norm, rk_norm, reason)

    rho_prev = alpha = omega = 1.0
    k = 0
    while True:
        k += 1
        rho = _dot(rhat, r)
        if abs(rho) < tol_breakdown * b_norm_sq:
            raise BreakdownError(
                "bicgstab: rho fell below the breakdown tolerance",
                best=x, iterations=k - 1, residual_norm=rk_norm,
            )
        if k == 1:
            _copy_into(p, r)
        else:
            if omega == 0.0:
                raise BreakdownError(
                    "bicgstab: omega collapsed to zero",
                    best=x, iterations=k - 1, residual_norm=rk_norm,
                )
            beta = (rho / rho_prev) * (alpha / omega)
            p.add_scaled(-omega, v)
            _aypx(p, beta, r)  # p = r + beta (p - omega v)
        precond.apply(p, phat)
        apply(phat, v)
        rhat_v = _dot(rhat, v)
        if rhat_v == 0.0 or not math.isfinite(rhat_v):
            raise BreakdownError(
                "bicgstab: rhat . A p degenerate",
                best=x, iterations=k - 1, residual_norm=rk_norm,
            )
        alpha = rho / rhat_v
        _waxpby(s, 1.0, r, -alpha, v)
        s_norm = _norm(s)
        if _residual_criteria_met(criteria, r0_norm, s_norm):
            x.add_scaled(alpha, phat)
            _copy_into(r, s)
            if callback:
                callback(k, s_norm)
            return _report(k, r0_norm, s_norm, STOP_RESIDUAL)
        precond.apply(s, shat)
        apply(shat, t)
        tt = _dot(t, t)
        if tt == 0.0 or not math.isfinite(tt):
            raise BreakdownError(
                "bicgstab: stabilization direction vanished",
                best=x, iterations=k - 1, residual_norm=s_norm,
            )
        omega = _dot(t, s) / tt
        x.add_scaled(alpha, phat)
        x.add_scaled(omega, shat)
        _waxpby(r, 1.0, s, -omega, t)
        rk_norm = _norm(r)
        if callback:
            callback(k, rk_norm)
        reason = first_met(criteria, k, r0_norm, rk_norm)
        if reason:
            return _report(k, r0_norm, rk_norm, reason)
        rho_prev = rho


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
