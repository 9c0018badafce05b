"""Iterative and direct solvers behind the linear-operator contract.

A :class:`SolverFactory` holds algorithm choice and stopping parameters; its
:meth:`~SolverFactory.generate` binds them to a system matrix and returns a
:class:`Solver`, which is itself a :class:`~linopkit.linop.LinOp` of the same
size.  Applying a solver means approximately applying the inverse of its
matrix, so solvers can stand in wherever an operator is expected, as another
solver's system operator too.  The preconditioners are Jacobi (for cg,
bicgstab and gmres) and LU (``gmres_lu``).  A solver cannot be another's
M^-1: a Krylov solve is not linear in b, so that would need flexible GMRES
(Saad 1993).

Stopping is governed by a non-empty collection of criteria combined as a
disjunction: the first one that fires ends the solve, and the report records
which one it was (the residual target when it is met on the iteration the cap
is reached).  Iterative solves track the recurrence residual; the
iteration-zero residual is evaluated against the criteria before any work
happens, so a converged initial guess costs nothing.  Every algorithm runs
all columns in lockstep, CG and BiCGStab through the recurrences batched
solves run too.
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
from .kernels import block_spmv, rowdot
from .linop import Csr, Dense, LinOp

DEFAULT_RESTART = 30
#: A lane breaks down once |rho| < this times ||b||^2 (in BiCGStab, once r.r is too).
TOL_BREAKDOWN = 1e-30
#: LU rejects a pivot of at most this times its column's largest magnitude.
TOL_PIVOT = 1e-14

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


@dataclass(frozen=True)
class ResidualNorm:
    """Stop once ||r_k|| <= reduction_factor * ||r_0||.

    A zero initial residual fires immediately: the guess already solves the
    system and no reduction is possible or needed.
    """

    reduction_factor: float


StoppingCriterion = Union[Iteration, ResidualNorm]


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
        True when the solve stopped because the residual target was met (a
        residual of exactly 0 meets any target, also with no ``ResidualNorm``),
        or for a successful direct solve.
    stop_reason : str
        One of ``"iteration"``, ``"residual_norm"``, ``"direct"``.
    """

    iterations: int
    initial_residual_norm: float
    final_residual_norm: float
    converged: bool
    stop_reason: str


# --- dense LU ----------------------------------------------------------------


def lu_factorize(a):
    """Dense LU factorization with partial pivoting: A[perm] == L @ U.

    Intended for desk-scale systems; the input is densified and the
    elimination runs on the host.  At step k the chosen pivot must exceed
    ``TOL_PIVOT`` times the largest magnitude the original column k
    contained, otherwise the matrix is declared singular.

    Parameters
    ----------
    a : Csr or array_like
        Square matrix to factorize.

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
        if abs(m[p, k]) <= TOL_PIVOT * col_scale[k]:
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
    """Solve A x = rhs given lu_factorize output. rhs has shape (n, k).

    The sweeps run on the transposed right-hand sides, one row each, so every
    column gets the bits it would get alone."""
    y = np.asarray(rhs, dtype=np.float64).T.take(perm, axis=1)
    for i in range(lower.shape[0]):
        y[:, i] -= rowdot(y[:, :i], lower[i, :i])
    for i in reversed(range(lower.shape[0])):
        y[:, i] -= rowdot(y[:, i + 1 :], upper[i, i + 1 :])
        y[:, i] /= upper[i, i]
    return y.T


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
        ``"jacobi"``, or ``"none"`` or None for none.  Ignored by ``lu`` and
        by ``gmres_lu``, which is GMRES preconditioned by the LU factors.
    restart : int
        GMRES restart length.
    """

    algorithm: str
    criteria: Sequence[StoppingCriterion] = ()
    preconditioner: Optional[str] = None
    restart: int = DEFAULT_RESTART

    def generate(self, a: Csr) -> "Solver":
        """Bind this configuration to a system matrix."""
        if not isinstance(a, Csr):
            raise InvalidArgumentError("generate expects a Csr system matrix")
        return Solver(self, a)


def _checked_options(criteria, preconditioner) -> tuple:
    """``criteria`` as a tuple, after checking it and ``preconditioner``."""
    criteria = tuple(criteria)
    if not criteria:
        raise InvalidArgumentError("at least one stopping criterion is required")
    for crit in criteria:
        if not isinstance(crit, (Iteration, ResidualNorm)):
            raise InvalidArgumentError(f"unknown stopping criterion {crit!r}")
    if preconditioner not in (None, "none", "jacobi"):
        raise InvalidArgumentError(
            f"unknown preconditioner '{preconditioner}'; valid: none, jacobi")
    return criteria


class Solver(LinOp):
    """A solver bound to one system matrix.

    ``solve`` reads the incoming ``x`` as the initial guess and overwrites it
    with the result.  ``apply`` does the same but discards the report, which
    is what lets a Solver act as the (approximate) inverse of its matrix in
    operator position.
    """

    def __init__(self, factory: SolverFactory, a: LinOp):
        if factory.algorithm not in ALGORITHMS:
            raise InvalidArgumentError(
                f"unknown algorithm '{factory.algorithm}'; valid: {', '.join(ALGORITHMS)}"
            )
        if a.size.rows != a.size.cols:
            raise InvalidArgumentError(f"system matrix must be square, got {a.size}")
        criteria = _checked_options(factory.criteria, factory.preconditioner)
        if factory.restart < 1:
            raise InvalidArgumentError(f"restart must be >= 1, got {factory.restart}")
        factorized = factory.algorithm in ("lu", "gmres_lu")  # these ignore the preconditioner
        jacobi = factory.preconditioner == "jacobi" and not factorized
        if (factorized or jacobi) and not isinstance(a, Csr):  # both read stored entries
            raise InvalidArgumentError(f"{factory.algorithm} with preconditioner "
                                       f"{factory.preconditioner} needs a Csr, got {type(a).__name__}")
        super().__init__(a.executor, a.size)
        self._factory = factory
        self._a = a
        self._criteria = criteria
        self._lanes_apply = _lane_apply(a)
        self._diag_pos = _diagonal_positions(a._pattern) if jacobi else None
        self._setup()

    def _setup(self) -> None:
        """The lane block and what the matrix values determine; a singular Jacobi
        diagonal raises, naming a missing entry before a stored zero."""
        factory, a, pos = self._factory, self._a, self._diag_pos
        lu = lu_factorize(a) if factory.algorithm in ("lu", "gmres_lu") else None
        block, invd, singular = _lane_setup(factory.algorithm, pos,
                                            None if pos is None else a._values.numpy()[None],
                                            factory.restart)
        if singular is not None and singular[0]:
            missing = np.flatnonzero(pos < 0)
            if missing.size:
                raise SingularPreconditionerError(f"row {missing[0]} has no stored diagonal entry")
            zero = np.flatnonzero(a._values.numpy().take(pos) == 0.0)[0]
            raise SingularPreconditionerError(f"zero diagonal entry at row {zero}")
        self._invd, self._lu, self._block = (None if invd is None else invd[0]), lu, block

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

        Refactorizes LU-based solvers and re-reads the Jacobi diagonal where
        the frozen pattern keeps it; plain unpreconditioned iterations have
        nothing to rebuild.  If that raises, the solver keeps its old state.
        """
        self._setup()

    def solve(self, b: Dense, x: Dense, callback: Optional[Callable] = None) -> SolveReport:
        """Solve A x = b starting from the incoming x.

        Parameters
        ----------
        b, x : Dense
            Right-hand side and iterate, one system per column, at least one.
            Columns are solved independently, in lockstep, each to the bits of
            its own solve; the report aggregates them (iteration maximum, norms
            combined in the Frobenius sense, the first unconverged column's
            stop reason).  A breakdown raises once the other columns are solved.
        callback : callable, optional
            Invoked as ``callback(iteration, residual_norm)`` after every
            residual evaluation, iteration 0 included; in lockstep the norm
            covers all columns, stopped ones at their final norm.  GMRES
            evaluates its residual estimate, and the true residual at every
            restart.

        Returns
        -------
        SolveReport
        """
        self._check_vectors(b, x)
        return self._solve(b, x, callback)

    def _solve(self, b: Dense, x: Dense, callback) -> SolveReport:
        """Columns run as lanes over the caller's x, transposed."""
        cols, n = b.size.cols, b.size.rows
        if not cols:
            raise InvalidArgumentError("a solve needs at least one column")
        out = (np.zeros(cols, dtype=np.int64), np.zeros(cols), np.empty(cols, dtype=object))
        bv = np.ascontiguousarray(b.view2d().T)
        invd = None if self._invd is None else np.broadcast_to(self._invd, (cols, n))
        monitor = callback and (lambda k, lanes: callback(k, math.hypot(*lanes.residual_norms())))
        r0, message = self._block(self._lanes_apply, None, bv, x.view2d().T, self._criteria, invd,
                                  None, out, monitor, lu=self._lu)
        iterations, finals, reasons = (a.tolist() for a in out)  # Python scalars are cheaper
        reason = next((r for r in reasons if r not in _CONVERGED), reasons[0])
        report = SolveReport(max(iterations), math.hypot(*r0.tolist()), math.hypot(*finals),
                             reason in _CONVERGED, reason)
        if message:
            raise BreakdownError(message, best=x, iterations=report.iterations,
                                 residual_norm=report.final_residual_norm)
        return report

    def _apply(self, b: Dense, x: Dense) -> None:
        self._solve(b, x, None)


# --- algorithm internals -------------------------------------------------------
#
# Every algorithm is written once, over lanes: (m, n) arrays whose row l is
# lane l's vector, for the columns of a Solver's solve or the systems of a
# batched group, whose block and Jacobi diagonals :func:`_lane_setup` builds
# for both.  ``apply(vals, src, dst, live)`` writes the operator times each
# lane of ``src`` into ``dst``, a C-contiguous lane array of the block's own;
# ``vals`` holds the lanes' matrix values for a batch, None for a Solver, and
# ``live`` marks the lanes still iterating (None while all are).  A matrix,
# single or batched, multiplies every row held in one SpMV call; any other
# operator sees the live rows only, and a dead row's ``dst`` stays zero.
# Every recurrence applies M^-1 (Jacobi, LU or none) through
# :meth:`_Lanes.precondition`.  ``xv`` is the caller's storage, lane-major (a Solver passes its x
# transposed): a block iterates on its own copy and writes each lane's x back
# when the lane stops.  Updates run in place, in the textbook formulas'
# operand order, and no lane's arithmetic depends on another's, so a batched
# system reproduces its single solve bit for bit, and so does a column of a
# multi-column solve.  Every sum over a vector's length is a ``rowdot``; einsum
# sums only over GMRES's basis index, at most restart + 1 terms (its
# ``__array_function__`` dispatch, ~1 us a call on plain ndarrays, is skipped).
# CG, BiCGStab and GMRES run through :func:`_lane_block`, with numpy
# floating-point errors ignored at every lane count: a failure comes back as a
# stop reason (from a Solver as ``BreakdownError``), never as a numpy warning.

_CONVERGED = (STOP_RESIDUAL, STOP_DIRECT)


def _diagonal_positions(pattern) -> np.ndarray:
    """Where each row's diagonal entry sits in a one-lane CSR ``pattern`` in normal form, or -1."""
    row_ids = pattern.row_ids()
    on_diag = np.flatnonzero(pattern.col_idxs == row_ids)
    pos = np.full(pattern.rows, -1, dtype=np.int64)
    pos[row_ids.take(on_diag)] = on_diag
    return pos


def _lane_setup(algorithm, diag_pos, vals, restart=DEFAULT_RESTART):
    """``(block, invd, singular)``: the block that runs ``algorithm`` and, for
    Jacobi (``diag_pos`` from :func:`_diagonal_positions`, else None), every
    lane's 1 / d from its row of ``vals``, 0 where d is 0 or not stored, and
    the lanes with such a row (a missing entry makes every lane singular)."""
    if algorithm == "lu":
        block = _lu_block
    elif algorithm in ("gmres", "gmres_lu"):
        block = functools.partial(_gmres_block, restart=restart)
    else:
        block = _cg_block if algorithm == "cg" else _bicgstab_block
    if diag_pos is None:
        return block, None, None
    if (diag_pos < 0).any():  # the lanes may store no entry at all
        return block, np.zeros((len(vals), len(diag_pos))), np.ones(len(vals), dtype=bool)
    diag = vals.take(diag_pos, axis=1)
    zero = diag == 0.0
    # Not masked, which is slower, nor in place: in place, glibc trimmed the heap
    # so that every heat set-up page-faulted its arrays afresh.
    with np.errstate(divide="ignore"):
        invd = np.divide(1.0, diag)
    singular = zero.any(axis=1)
    if singular.any():
        invd[zero] = 0.0
    return block, invd, singular


def _lane_apply(a: LinOp):
    """A Solver's block apply: ``a`` times each lane.

    A plain ``Csr`` multiplies every row held, dead ones too, with one
    ``block_spmv`` call on its own pattern, every lane sharing its values, as
    ``Csr.apply`` does its columns; C-contiguous rows let the compiled body
    run on a checked pattern without copies.  Any other operator gets each
    live lane wrapped in an (n, 1) ``Dense`` per call (a lane-major block is
    no row-major ``Dense``) and its ``_apply``, or its ``apply`` if a
    subclass overrides that (to trace it, say), into a zeroed ``dst``, as
    ``LinOp.advanced_apply`` applies into a fresh zero block: a Solver reads
    its x as the initial guess.  A dead lane's discarded arithmetic (a NaN
    from 0/0, say) never reaches the operator, and its ``dst`` row stays
    zero.  The lanes are vectors the block owns, so the public method's
    checks are skipped."""
    if type(a) is Csr:
        pattern, values = a._pattern, a._values.numpy()[None]
        return lambda vals, src, dst, live: block_spmv(pattern, values, src, dst)
    op = a._apply if type(a).apply is LinOp.apply else a.apply
    exec_, n = a.executor, a.size.rows

    def apply(vals, src, dst, live):
        dst.fill(0.0)
        for i in range(len(src)) if live is None else np.flatnonzero(live):
            op(Dense.from_array(exec_, (n, 1), array_view(exec_, n, src[i])),
               Dense.from_array(exec_, (n, 1), array_view(exec_, n, dst[i])))

    return apply


_einsum = np.einsum.__wrapped__  # see the section comment


def _targets(criteria, r0):
    """Each lane's residual target and the iteration cap (or None): ``rk <= target``
    exactly when a residual criterion is met, as rounding is monotone (fmax skips
    NaN bounds), or rk = 0: an exactly solved lane converges whatever the criteria.
    A lane whose r0 is not finite (its b, or ||b||^2, overflowed) has target 0:
    no reduction of it is measured, so it never converges."""
    target, cap = None, None
    for crit in criteria:
        if isinstance(crit, ResidualNorm):
            bound = crit.reduction_factor * r0
            if not math.isfinite(crit.reduction_factor):
                bound[r0 == 0.0] = np.inf
            target = bound if target is None else np.fmax(target, bound)
        else:
            cap = crit.max_iters if cap is None else min(cap, crit.max_iters)
    if target is None:
        return np.zeros(r0.shape), cap
    target = np.fmax(target, 0.0)
    target[np.isinf(r0)] = 0.0  # NaN r0 gives NaN bounds, which fmax already made 0
    return target, cap


class _Lanes:
    """The lanes of a block, set up from ``xv``, and which of them still iterate.

    Public array attributes hold one row per held lane in block order;
    ``_ids`` maps rows to block slots (None while they agree); ``x`` starts as
    a C-contiguous copy of ``xv``.  A lane that stops writes its x into ``xv``
    and its report into ``out`` = (iterations, final norms, reasons) at once,
    but keeps its row, marked dead in ``live`` (None while every row held is
    live), so no array changes shape within an iteration.  Its later
    arithmetic is discarded, and may overflow or divide by zero (see
    :func:`_lane_block`).  Only at the end of :meth:`check`, once the live
    lanes are down to half the rows held, are they compacted, one ``take`` per
    array (``b`` and ``vals`` too): after a check the rows held are fewer than
    twice the live ones, and all compactions together copy fewer rows than the
    block has lanes.  Work arrays named in ``scratch`` (the first takes A x in
    :meth:`residual`) carry nothing across a check, which truncates them.
    ``apply(vals, src, dst, live)`` is the block's operator and
    :meth:`precondition` its M^-1, from each lane's Jacobi inverse diagonal
    ``invd`` or the LU factors ``lu`` all lanes share (both None: no
    preconditioner); lanes in ``singular`` stop at once.  ``monitor(k,
    lanes)`` sees every residual."""

    def __init__(self, apply, vals, bv, xv, criteria, invd, lu, singular, out, state, scratch,
                 monitor):
        self._out, self._ids, self._scratch, self.monitor = (xv, *out), None, scratch, monitor
        self.apply, self.b, self.message = apply, bv, None
        self.count = self.held = xv.shape[0]
        self.live = None
        # order="C": np.array keeps a transposed view's order, and lane rows must be contiguous
        self.x, self.vals, self.invd, self.lu = np.array(xv, order="C"), vals, invd, lu
        for name in ("r",) + state + scratch:
            setattr(self, name, np.empty(xv.shape))
        self.residual()
        self._r0 = self.rk  # rk is replaced, never written in place
        self.target, self.cap = _targets(criteria, self._r0)
        self.bd_tol = TOL_BREAKDOWN * rowdot(bv, bv)
        if singular is not None:
            self.stop(singular, 0, STOP_SINGULAR_PRECONDITIONER)
        self.check(0)

    def residual(self) -> None:
        """``r = b - A x`` on every row held, then :meth:`measure`."""
        ax = getattr(self, self._scratch[0])
        self.apply(self.vals, self.x, ax, self.live)
        np.subtract(self.b, ax, out=self.r)
        self.measure()

    def measure(self) -> None:
        """``rr = r . r`` and ``rk = ||r||``; unpreconditioned CG's rho is rr."""
        self.rr = rowdot(self.r, self.r)
        self.rk = np.sqrt(self.rr)

    def precondition(self, src, dst, rows=None):
        """M^-1 ``src``: ``src`` itself with no preconditioner, else written into
        ``dst``; both hold the lanes in ``rows`` (None: every row held)."""
        if self.lu is not None:
            dst[...] = lu_solve_dense(*self.lu, src.T).T
            return dst
        if self.invd is None:
            return src
        return np.multiply(src, self.invd if rows is None else self.invd[rows], out=dst)

    def live_only(self, mask):
        """``mask`` (over the rows held) without the dead rows."""
        return mask if self.live is None else mask & self.live

    def stop(self, mask, k, reason, message=None) -> None:
        """Stop the live lanes in ``mask`` after ``k`` iterations: record their
        results and mark their rows dead.  ``message`` explains a breakdown; the
        first one is kept."""
        if self.live is not None:  # live_only, inlined for one-lane solves' sake
            mask = mask & self.live
        stopping = np.count_nonzero(mask) if self.count else 0  # cheaper than mask.any()
        if not stopping:
            return
        self.message = self.message or message
        xv, iters, finals, reasons = self._out
        rows = np.flatnonzero(mask) if stopping < self.held else slice(None)
        gone = rows if self._ids is None else self._ids[rows]
        xv[gone] = self.x[rows]
        finals[gone], iters[gone], reasons[gone] = self.rk[rows], k, reason
        self.count -= stopping
        if not self.count:
            return
        if self.live is None:
            self.live = ~mask
        else:
            self.live[mask] = False

    def check(self, k) -> None:
        """Show iteration ``k`` to the monitor, stop lanes by the criteria, and
        compact the rows held once the live lanes are down to half of them."""
        if self.monitor:
            self.monitor(k, self)
        self.stop(self.rk <= self.target, k, STOP_RESIDUAL)
        if self.count and self.cap is not None and k >= self.cap:
            self.stop(np.ones(self.held, dtype=bool), k, STOP_ITERATION)
        if not self.count or 2 * self.count > self.held:
            return
        keep = np.flatnonzero(self.live)
        self._ids = keep if self._ids is None else self._ids[keep]
        self.held, self.live = self.count, None
        # one array at a time, so each full-size original is freed first
        for name in [n for n, v in vars(self).items() if isinstance(v, np.ndarray)]:
            if name[0] != "_":
                value = getattr(self, name)
                setattr(self, name, value[: self.count] if name in self._scratch
                        else value.take(keep, axis=0))

    def residual_norms(self) -> np.ndarray:
        """Each lane's residual norm: its current one if live, else its final one."""
        norms = self._out[2].copy()
        if self.count:
            live = slice(None) if self.live is None else self.live
            norms[live if self._ids is None else self._ids[live]] = self.rk[live]
        return norms


def _lane_block(state, scratch):
    """Makes a recurrence over :class:`_Lanes` with ``state`` and ``scratch`` arrays
    a block: called with ``_Lanes``' arguments (and the recurrence's keywords), it
    returns every lane's initial residual norm and the first breakdown's message
    (or None).  It runs with floating-point errors ignored at every lane count: a
    dead row's discarded arithmetic may overflow or divide by zero, and so may a
    live lane's, whose failure comes back as a stop reason."""

    def wrap(recurrence):
        @functools.wraps(recurrence)
        def block(apply, vals, bv, xv, criteria, invd, singular, out, monitor=None, lu=None,
                  **kwargs):
            with np.errstate(all="ignore"):
                lanes = _Lanes(apply, vals, bv, xv, criteria, invd, lu, singular, out, state,
                               scratch, monitor)
                recurrence(lanes, **kwargs)
            return lanes._r0, lanes.message

        return block

    return wrap


@_lane_block(("p",), ("q",))
def _cg_block(lanes):
    """Preconditioned conjugate gradients (Hestenes-Stiefel) on every lane."""
    k = 0
    while lanes.count:
        z = lanes.precondition(lanes.r, lanes.q)
        rho = lanes.rr if z is lanes.r else rowdot(lanes.r, z)
        if k:  # p = z + beta p; rho is 0 only where b is 0, which the breakdown test misses
            beta = np.zeros(lanes.held)
            np.divide(rho, lanes.rho, out=beta, where=lanes.rho != 0.0)
            np.add(z, np.multiply(beta[:, None], lanes.p, out=lanes.p), out=lanes.p)
        else:
            np.copyto(lanes.p, z)
        lanes.rho = rho
        k += 1
        lanes.apply(lanes.vals, lanes.p, lanes.q, lanes.live)
        pq = rowdot(lanes.p, lanes.q)
        lanes.stop(np.abs(lanes.rho) < lanes.bd_tol, k - 1, STOP_BREAKDOWN,
                   "cg: rho fell below the breakdown tolerance")
        lanes.stop((pq == 0.0) | ~np.isfinite(pq), k - 1, STOP_BREAKDOWN,
                   "cg: search direction lost conjugacy (p . Ap degenerate)")
        if not lanes.count:
            break
        alpha = (lanes.rho / pq)[:, None]
        lanes.r -= np.multiply(alpha, lanes.q, out=lanes.q)
        lanes.x += np.multiply(alpha, lanes.p, out=lanes.q)  # q is free now, and z is kept in it
        lanes.measure()
        lanes.check(k)


@_lane_block(("rhat", "p", "v"), ("s", "t", "phat", "shat"))
def _bicgstab_block(lanes):
    """Preconditioned BiCGStab (van der Vorst) on every lane, like :func:`_cg_block`.
    A lane that meets its criteria on ||s|| takes the half update only, which
    saves work and avoids dividing by a vanishing t.t.  A lane whose rho = rhat.r
    collapses while r is not small restarts with rhat = p = r (Sleijpen and van
    der Vorst, 1995); only a vanished r breaks it down."""
    np.copyto(lanes.rhat, lanes.r)
    lanes.rho, lanes.alpha, lanes.omega = (np.ones(lanes.held) for _ in range(3))
    k = 0
    while lanes.count:
        k += 1
        rho = rowdot(lanes.rhat, lanes.r)
        collapsed = np.abs(rho) < lanes.bd_tol
        lanes.stop(collapsed & (lanes.rr < lanes.bd_tol), k - 1, STOP_BREAKDOWN,
                   "bicgstab: rho fell below the breakdown tolerance")
        lanes.stop(lanes.omega == 0.0, k - 1, STOP_BREAKDOWN, "bicgstab: omega collapsed to zero")
        if not lanes.count:
            break
        if k == 1:
            np.copyto(lanes.p, lanes.r)
        else:
            # p = r + beta (p - omega v), beta = (rho / rho_prev) (alpha / omega);
            # rho_prev is 0 only where b is 0, which the breakdown test misses.
            # A lane whose rho collapsed restarts: beta = 0, rhat = r, rho = r.r.
            beta = np.zeros(lanes.held)
            np.divide(rho, lanes.rho, out=beta, where=(lanes.rho != 0.0) & ~collapsed)
            beta *= lanes.alpha / lanes.omega
            lanes.p -= np.multiply(lanes.omega[:, None], lanes.v, out=lanes.phat)
            np.add(lanes.r, np.multiply(beta[:, None], lanes.p, out=lanes.p), out=lanes.p)
            restart = lanes.live_only(collapsed)
            if np.count_nonzero(restart):
                np.copyto(lanes.rhat, lanes.r, where=restart[:, None])
                rho = np.where(restart, lanes.rr, rho)
        lanes.rho = rho
        phat = lanes.precondition(lanes.p, lanes.phat)
        lanes.apply(lanes.vals, phat, lanes.v, lanes.live)
        rhat_v = rowdot(lanes.rhat, lanes.v)
        lanes.stop((rhat_v == 0.0) | ~np.isfinite(rhat_v), k - 1, STOP_BREAKDOWN,
                   "bicgstab: rhat . A p degenerate")
        if not lanes.count:
            break
        lanes.alpha = lanes.rho / rhat_v
        s = np.subtract(lanes.r, np.multiply(lanes.alpha[:, None], lanes.v, out=lanes.s),
                        out=lanes.s)  # r - alpha v
        s_norm = np.sqrt(rowdot(s, s))
        half = lanes.live_only(s_norm <= lanes.target)
        if np.count_nonzero(half):
            at = np.flatnonzero(half)
            lanes.x[at] += lanes.alpha[at, None] * phat[at]
            lanes.rk = np.where(half, s_norm, lanes.rk)
            if lanes.monitor and at.size == lanes.count:
                lanes.monitor(k, lanes)
            lanes.stop(half, k, STOP_RESIDUAL)
            if not lanes.count:
                break
        shat = lanes.precondition(s, lanes.shat)
        lanes.apply(lanes.vals, shat, lanes.t, lanes.live)
        t = lanes.t
        tt = rowdot(t, t)
        lanes.stop((tt == 0.0) | ~np.isfinite(tt), k - 1, STOP_BREAKDOWN,
                   "bicgstab: stabilization direction vanished")
        if not lanes.count:
            break
        # x += alpha phat + omega shat, r = s - omega t (t is free once r is; shat may be s)
        lanes.omega = rowdot(t, s) / tt
        omega = lanes.omega[:, None]
        np.subtract(s, np.multiply(omega, t, out=t), out=lanes.r)
        update = np.multiply(lanes.alpha[:, None], phat, out=lanes.phat)
        update += np.multiply(omega, shat, out=t)
        lanes.x += update
        del phat, s, shat, t, update  # a compaction in check frees the arrays these held
        lanes.measure()
        lanes.check(k)


@_lane_block((), ("w", "z"))
def _gmres_block(lanes, restart=DEFAULT_RESTART):
    """Restarted GMRES on every lane, like :func:`_cg_block`, right-preconditioned
    by :meth:`_Lanes.precondition`, which reads each basis vector into ``z``
    (or passes it on as it is, unpreconditioned).

    Arnoldi orthogonalizes by classical Gram-Schmidt run twice (CGS2: two
    products with the basis and two updates per step).  ``rot`` keeps the
    product of the cycle's Givens rotations, so turning a new Hessenberg
    column and the residual estimate beta |rot[j + 1, 0]| are a few lane-wide
    calls.  A lane's x takes the update M^-1 V y when it stops and at every
    restart, where its true residual replaces the estimate.  One iteration is
    one Krylov vector, counted across restarts."""
    held, n = lanes.x.shape
    lanes.basis = np.empty((held, restart + 1, n))
    lanes.rot = np.empty((held, restart + 1, restart + 1))
    lanes.hess = np.empty((held, restart, restart))
    k = 0
    while lanes.count:
        lanes.beta = lanes.rk
        np.divide(lanes.r, lanes.beta[:, None], out=lanes.basis[:, 0])
        lanes.rot.fill(0.0)
        lanes.rot[:, 0, 0] = 1.0
        lanes.hess.fill(0.0)
        for j in range(restart):
            k += 1
            basis = lanes.basis[:, : j + 1]
            lanes.apply(lanes.vals, lanes.precondition(basis[:, j], lanes.z), lanes.w, lanes.live)
            w = lanes.w
            h = rowdot(basis, w[:, None])
            w -= _einsum("ij,ijk->ik", h, basis)
            h2 = rowdot(basis, w[:, None])
            w -= _einsum("ij,ijk->ik", h2, basis)
            h += h2
            h_next = np.sqrt(rowdot(w, w))
            col = rowdot(lanes.rot[:, : j + 1, : j + 1], h[:, None])
            denom = np.hypot(col[:, j], h_next)
            lanes.rk = lanes.beta  # x is the cycle's start for every live lane
            lanes.stop((denom == 0.0) | ~np.isfinite(denom), k - 1, STOP_BREAKDOWN,
                       "gmres: Hessenberg column degenerate (zero or not finite)")
            if not lanes.count:
                break
            np.divide(w, h_next[:, None], out=lanes.basis[:, j + 1], where=h_next[:, None] != 0.0)
            c, s = col[:, j] / denom, h_next / denom
            col[:, j] = denom
            lanes.hess[:, : j + 1, j] = col
            rot = lanes.rot[:, : j + 2, : j + 2]  # rows j, j + 1 turn by (c, s)
            np.multiply(-s[:, None], rot[:, j], out=rot[:, j + 1])
            rot[:, j + 1, j + 1] = c
            rot[:, j] *= c[:, None]
            rot[:, j, j + 1] = s
            estimate = lanes.beta * np.abs(rot[:, j + 1, 0])
            lanes.happy = h_next == 0.0  # an invariant Krylov space: x is exact in it
            restarting = j == restart - 1
            ends = lanes.live_only((estimate <= lanes.target) | lanes.happy
                                   | (restarting or k == lanes.cap))
            count = np.count_nonzero(ends)
            if count:  # x += M^-1 V y, with H y = beta rot[:, 0] (H upper triangular)
                rows = ends if count < lanes.held else slice(None)
                g = lanes.beta[rows, None] * lanes.rot[rows, : j + 1, 0]
                y = np.linalg.solve(lanes.hess[rows, : j + 1, : j + 1], g[:, :, None])[:, :, 0]
                step = _einsum("ij,ijk->ik", y, lanes.basis[rows, : j + 1])
                lanes.x[rows] += lanes.precondition(step, step, rows)
            if restarting:
                lanes.residual()
            else:
                lanes.rk = estimate
            lanes.check(k)
            lanes.stop(lanes.happy, k, STOP_RESIDUAL)
            if not lanes.count:
                break


def _lu_block(apply, vals, bv, xv, criteria, invd, singular, out, monitor=None, lu=None):
    """Dense LU on every lane at once, with :func:`_cg_block`'s arguments (the
    factors in ``lu``; criteria, preconditioner and monitor play no part)."""
    r = np.empty(xv.shape)

    def residual_norms(x):
        apply(vals, x, r, None)
        np.subtract(bv, r, out=r)
        return np.sqrt(rowdot(r, r))

    r0 = residual_norms(np.array(xv, order="C"))
    x = lu_solve_dense(*lu, bv.T).T
    iterations, finals, reasons = out
    iterations.fill(0)
    finals[...] = residual_norms(x)
    xv[...] = x
    reasons.fill(STOP_DIRECT)
    return r0, None
