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
all columns in lockstep (see the algorithm internals below).
"""

from __future__ import annotations

import functools
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
from .kernels import rowdot
from .linop import Csr, Dense, LinOp

DEFAULT_RESTART = 30
#: The preconditioner names a factory accepts; None means "none" too.
PRECONDITIONERS = ("none", "jacobi")
#: A lane breaks down once |rho| < this times ||b||^2 (in BiCGStab, once r.r is too).
TOL_BREAKDOWN = 1e-30
#: LU rejects a pivot of at most this times its column's largest magnitude.
TOL_PIVOT = 1e-14

STOP_ITERATION = "iteration"
STOP_RESIDUAL = "residual_norm"
STOP_DIRECT = "direct"
STOP_BREAKDOWN = "breakdown"
STOP_SINGULAR_PRECONDITIONER = "singular_preconditioner"


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


# --- factory and solver -------------------------------------------------------


@dataclass(frozen=True)
class SolverFactory:
    """Algorithm choice plus stopping parameters, reusable across matrices.

    Parameters
    ----------
    algorithm : str
        One of ``cg``, ``bicgstab``, ``gmres``, ``lu``, ``gmres_lu``.
    criteria : sequence of StoppingCriterion
        Non-empty; combined as a disjunction.  ``lu`` checks but ignores them.
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


def _checked_options(algorithms, algorithm, criteria, preconditioner,
                     restart=DEFAULT_RESTART) -> tuple:
    """``criteria`` as a tuple, after checking every option a factory holds: ``algorithm``
    against the entry point's ``algorithms`` (``ALGORITHMS``, batches' ``_UNFACTORED`` or
    ``facade.VALID_ALGORITHMS``), ``preconditioner`` against ``PRECONDITIONERS``."""
    if algorithm not in algorithms:
        raise InvalidArgumentError(f"unknown algorithm '{algorithm}'; valid: {', '.join(algorithms)}")
    criteria = tuple(criteria)
    if not criteria:
        raise InvalidArgumentError("at least one stopping criterion is required")
    for crit in criteria:
        if not isinstance(crit, (Iteration, ResidualNorm)):
            raise InvalidArgumentError(f"unknown stopping criterion {crit!r}")
    if preconditioner not in (None, *PRECONDITIONERS):
        raise InvalidArgumentError(f"unknown preconditioner '{preconditioner}'; "
                                   f"valid: {', '.join(PRECONDITIONERS)}")
    if restart < 1:
        raise InvalidArgumentError(f"restart must be >= 1, got {restart}")
    return criteria


class Solver(LinOp):
    """A solver bound to one system matrix.

    ``solve`` reads the incoming ``x`` as the initial guess and overwrites it
    with the result.  ``apply`` does the same but discards the report, which
    is what lets a Solver act as the (approximate) inverse of its matrix in
    operator position.
    """

    def __init__(self, factory: SolverFactory, a: LinOp):
        criteria = _checked_options(ALGORITHMS, factory.algorithm, factory.criteria,
                                    factory.preconditioner, factory.restart)
        if a.size.rows != a.size.cols:
            raise InvalidArgumentError(f"system matrix must be square, got {a.size}")
        factorized = factory.algorithm in _FACTORED
        jacobi = factory.preconditioner == "jacobi" and not factorized
        if (factorized or jacobi) and not isinstance(a, Csr):  # both read stored entries
            raise InvalidArgumentError(f"{factory.algorithm} with preconditioner "
                                       f"{factory.preconditioner} needs a Csr, got {type(a).__name__}")
        super().__init__(a.executor, a.size)
        self._factory = factory
        self._a = a
        self._criteria = criteria
        self._lanes_apply = a._apply_lanes
        self._diag_pos = (_diagonal_positions(a.get_row_ptrs().numpy(), a.get_col_idxs().numpy())
                          if jacobi else None)
        self._setup()

    def _setup(self) -> None:
        """The lane block and what the matrix values determine; a singular Jacobi
        diagonal raises, naming a missing entry before a stored zero."""
        factory, a, pos = self._factory, self._a, self._diag_pos
        lu = lu_factorize(a) if factory.algorithm in _FACTORED else None
        vals = None if pos is None else a.get_values(const=True).numpy()[None]
        block, invd, singular = _lane_setup(factory.algorithm, pos, vals, factory.restart)
        if singular is not None and singular[0]:
            missing = np.flatnonzero(pos < 0)
            if missing.size:
                raise SingularPreconditionerError(f"row {missing[0]} has no stored diagonal entry")
            zero = np.flatnonzero(vals[0].take(pos) == 0.0)[0]
            raise SingularPreconditionerError(f"zero diagonal entry at row {zero}")
        self._invd, self._lu, self._block = (None if invd is None else invd[0]), lu, block

    @property
    def system_matrix(self) -> Csr:
        return self._a

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
            stop reason).  A breakdown raises once the other columns are solved;
            the operator's (an inner Solver's) stops every live column at once.
        callback : callable, optional
            Invoked as ``callback(iteration, residual_norm)`` after every
            residual evaluation, iteration 0 included; in lockstep the norm
            covers all columns, stopped ones at their final norm.  GMRES
            evaluates its residual estimate, and the true residual at every
            restart.  LU reports its iteration-0 residual only.

        Returns
        -------
        SolveReport
        """
        self._check_vectors(b, x)
        return self._solve(b, x, callback)

    def _solve(self, b: Dense, x: Dense, callback) -> SolveReport:
        """Columns run as lanes over the caller's x, transposed."""
        if not b.size.cols:
            raise InvalidArgumentError("a solve needs at least one column")
        monitor = callback and (lambda k, lanes: callback(k, math.hypot(*lanes.residual_norms())))
        r0, out, message = self._run(np.ascontiguousarray(b.view2d().T), x.view2d().T, monitor)
        iterations, finals, reasons = (a.tolist() for a in out)  # Python scalars are cheaper
        reason = next((r for r in reasons if r not in _CONVERGED), reasons[0])
        report = SolveReport(max(iterations), math.hypot(*r0.tolist()), math.hypot(*finals),
                             reason in _CONVERGED, reason)
        if message:
            raise BreakdownError(message, best=x, iterations=report.iterations,
                                 residual_norm=report.final_residual_norm)
        return report

    def _run(self, bv, xv, monitor=None):
        """``(r0, out, message)`` of one block solving ``bv`` into ``xv`` (lane-major)."""
        cols, n = bv.shape
        out = (np.zeros(cols, dtype=np.int64), np.zeros(cols), np.empty(cols, dtype=object))
        invd = None if self._invd is None else np.broadcast_to(self._invd, (cols, n))
        r0, message = self._block(self._lanes_apply, None, bv, xv, self._criteria, invd, None,
                                  out, monitor, lu=self._lu)
        return r0, out, message

    def _apply(self, b: Dense, x: Dense) -> None:
        self._solve(b, x, None)

    def _apply_lanes(self, vals, src, dst, live) -> None:
        """The live lanes as one block from zero; a breakdown raises once all have stopped."""
        dst.fill(0.0)  # the guess: every live row's, and what a dead row keeps
        rows = slice(None) if live is None else np.flatnonzero(live)  # dead rows stay out
        x = dst[rows]  # a view of dst while every lane is live, else a gathered copy
        message = self._run(src[rows], x)[2]
        if live is not None:
            dst[rows] = x
        if message:
            raise BreakdownError(message)


# --- algorithm internals -------------------------------------------------------
#
# Every algorithm is written once, over lanes: (m, n) arrays whose row l is
# lane l's vector, for the columns of a Solver's solve or the systems of a
# batched group, whose block and Jacobi diagonals :func:`_lane_setup` builds
# for both.  ``apply(vals, src, dst, live)`` writes the operator times each
# lane of ``src`` into ``dst``; ``vals`` holds a batch's matrix values (None
# for a Solver), ``live`` marks the lanes still iterating.  A batched group is
# one SpMV over every row held.  A Solver's operator applies through its
# :meth:`~linopkit.linop.LinOp._apply_lanes`: a Csr that overrides nothing is
# one SpMV, a Solver one lockstep inner solve over the live lanes from zero,
# and a class that overrides ``apply`` or ``_apply`` gets one (n, 1) column
# per live lane.  Every recurrence applies M^-1 (Jacobi, LU or none) through
# :meth:`_Lanes.precondition`.  ``xv`` is the caller's storage, lane-major (a
# Solver passes its x transposed): a block iterates on its own copy and writes
# each lane's x back when the lane stops.  Updates run in place, in the
# textbook formulas' operand order, and no lane's arithmetic depends on
# another's, so a batched system, a column of a multi-column solve and a lane
# of a nested solve each get their single solve's bits.  Every sum over a
# vector's length is a ``rowdot``; einsum sums only over GMRES's basis index,
# at most restart + 1 terms (its ``__array_function__`` dispatch, ~1 us a
# call on plain ndarrays, is skipped).  Every algorithm runs through
# :func:`_lane_block`, with numpy floating-point errors ignored: a failure
# comes back as a stop reason (from a Solver as ``BreakdownError``), never as
# a numpy warning.

_CONVERGED = (STOP_RESIDUAL, STOP_DIRECT)


def _diagonal_positions(rp, ci) -> np.ndarray:
    """Where each row's diagonal entry sits in a CSR pattern in normal form, or -1."""
    rows = rp.shape[0] - 1  # row ids at the pattern's width, for this search only: none are kept
    row_ids = np.repeat(np.arange(rows, dtype=rp.dtype), np.diff(rp))
    on_diag = np.flatnonzero(ci == row_ids)
    pos = np.full(rows, -1, dtype=np.int64)
    pos[row_ids.take(on_diag)] = on_diag
    return pos


def _lane_setup(algorithm, diag_pos, vals, restart=DEFAULT_RESTART):
    """``(block, invd, singular)``: the block that runs ``algorithm`` and, for
    Jacobi (``diag_pos`` from :func:`_diagonal_positions`, else None), every
    lane's 1 / d from its row of ``vals``, 0 where d is 0 or not stored, and
    the lanes with such a row (a missing entry makes every lane singular)."""
    block = _BLOCKS[algorithm]
    if block is _gmres_block:
        block = functools.partial(block, restart=restart)
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


def _lane_words(algorithm, n, nnz):
    """Float64 words per lane: nnz values, n per vector, GMRES's basis, rotations, Hessenberg."""
    block, m = _BLOCKS[algorithm], DEFAULT_RESTART
    gmres = (m + 1) * (n + m + 1) + m**2 if block is _gmres_block else 0
    return nnz + len(block.vectors) * n + gmres


_einsum = np.einsum.__wrapped__  # see the section comment


def _targets(criteria, r0):
    """Each lane's residual target and the iteration cap (or None): ``rk <= target``
    exactly when a residual criterion is met, as rounding is monotone (fmax skips
    NaN bounds), or rk = 0: an exactly solved lane converges whatever the criteria.
    A lane whose r0 is not finite (its b, or ||b||^2, overflowed) has target 0:
    no reduction of it is measured, so it never converges.  No criteria (None, a
    direct solve) give target -inf, which no rk meets, and no cap."""
    if criteria is None:
        return np.full(r0.shape, -np.inf), None
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

    Public array attributes hold one row per held lane in block order; ``_ids``
    maps rows to block slots (None while they agree); ``x`` starts as a
    C-contiguous copy of ``xv``.  A lane that stops writes its x into ``xv``
    and its report into ``out`` = (iterations, final norms, reasons) at once,
    but keeps its row, marked dead in ``live`` (None while every row held is
    live), so no array changes shape within an iteration; its later arithmetic
    is discarded.  Only at the end of :meth:`check`, once the live lanes are
    down to half the rows held, are they compacted, one ``take`` per array
    (``b`` and ``vals`` too), so all compactions together copy fewer rows than
    the block has lanes.  Work arrays named in ``scratch`` (the first takes
    A x in :meth:`residual`) carry nothing across a check, which truncates
    them.  ``apply(vals, src, dst, live)`` is the block's operator and
    :meth:`precondition` its M^-1 (each lane's Jacobi ``invd``, the LU factors
    ``lu`` all lanes share, or neither); ``k`` counts the iterations of the
    last check, and ``monitor(k, lanes)`` sees every residual."""

    def __init__(self, apply, vals, bv, xv, invd, lu, out, state, scratch, monitor):
        self._out, self._ids, self._scratch, self.monitor = (xv, *out), None, scratch, monitor
        self.apply, self.b, self.message = apply, bv, None
        self.count = self.held = xv.shape[0]
        self.live, self.k, self._r0 = None, 0, None
        # order="C": np.array keeps a transposed view's order, and lane rows must be contiguous
        self.x, self.vals, self.invd, self.lu = np.array(xv, order="C"), vals, invd, lu
        for name in ("r",) + state + scratch:
            setattr(self, name, np.empty(xv.shape))

    def start(self, criteria, singular) -> None:
        """The initial residual and targets; lanes in ``singular`` stop; then check 0."""
        self.residual()
        self._r0 = self.rk  # rk is replaced, never written in place
        self.target, self.cap = _targets(criteria, self._r0)
        self.bd_tol = None if criteria is None else TOL_BREAKDOWN * rowdot(self.b, self.b)  # LU tests none
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
        if self.lu is not None:  # substitution on all lanes at once, each by its own rowdots
            perm, lower, upper = self.lu
            np.take(src, perm, axis=1, out=dst)  # buffered, so src may be dst
            for i in range(len(perm)):
                dst[:, i] -= rowdot(dst[:, :i], lower[i, :i])
            for i in reversed(range(len(perm))):
                dst[:, i] -= rowdot(dst[:, i + 1 :], upper[i, i + 1 :])
                dst[:, i] /= upper[i, i]
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
        self.k = k
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


def _lane_block(state, scratch, direct=False):
    """Makes a recurrence over :class:`_Lanes` with ``state`` and ``scratch`` arrays a
    block, which returns every lane's initial residual norm and the first breakdown's
    message (or None); a ``direct`` block ignores the criteria.  A failure in a live
    lane's arithmetic becomes a stop reason, and so does a ``BreakdownError`` that the
    operator raises (a nested Solver's), for every live lane, after the last check."""

    def wrap(recurrence):
        @functools.wraps(recurrence)
        def block(apply, vals, bv, xv, criteria, invd, singular, out, monitor=None, lu=None,
                  **kwargs):
            with np.errstate(all="ignore"):
                lanes = _Lanes(apply, vals, bv, xv, invd, lu, out, state, scratch, monitor)
                try:
                    lanes.start(None if direct else criteria, singular)
                    recurrence(lanes, **kwargs)
                except BreakdownError as err:  # a nested Solver's, raised by the operator
                    if lanes._r0 is None:  # raised by the first residual: no norm is known
                        lanes._r0 = lanes.rk = np.full(lanes.held, np.nan)
                    lanes.stop(np.ones(lanes.held, dtype=bool), lanes.k, STOP_BREAKDOWN, str(err))
            return lanes._r0, lanes.message

        block.vectors = ("x", "r", "b", "invd") + state + scratch  # each n words a lane
        return block

    return wrap


@_lane_block(("p",), ("q",))
def _cg_block(lanes):
    """Preconditioned conjugate gradients (Hestenes-Stiefel) on every lane."""
    while lanes.count:
        z = lanes.precondition(lanes.r, lanes.q)
        rho = lanes.rr if z is lanes.r else rowdot(lanes.r, z)
        if lanes.k:  # p = z + beta p; rho is 0 only where b is 0, which the breakdown test misses
            beta = np.zeros(lanes.held)
            np.divide(rho, lanes.rho, out=beta, where=lanes.rho != 0.0)
            np.add(z, np.multiply(beta[:, None], lanes.p, out=lanes.p), out=lanes.p)
        else:
            np.copyto(lanes.p, z)
        lanes.rho = rho
        lanes.apply(lanes.vals, lanes.p, lanes.q, lanes.live)
        pq = rowdot(lanes.p, lanes.q)
        lanes.stop(np.abs(lanes.rho) < lanes.bd_tol, lanes.k, STOP_BREAKDOWN,
                   "cg: rho fell below the breakdown tolerance")
        lanes.stop((pq == 0.0) | ~np.isfinite(pq), lanes.k, STOP_BREAKDOWN,
                   "cg: search direction lost conjugacy (p . Ap degenerate)")
        if not lanes.count:
            break
        alpha = (lanes.rho / pq)[:, None]
        lanes.r -= np.multiply(alpha, lanes.q, out=lanes.q)
        lanes.x += np.multiply(alpha, lanes.p, out=lanes.q)  # q is free now, and z is kept in it
        lanes.measure()
        lanes.check(lanes.k + 1)


@_lane_block(("rhat", "p", "v"), ("s", "t", "phat", "shat"))
def _bicgstab_block(lanes):
    """Preconditioned BiCGStab (van der Vorst) on every lane, like :func:`_cg_block`.
    A lane that meets its criteria on ||s|| takes the half update only, which
    saves work and avoids dividing by a vanishing t.t.  A lane whose rho = rhat.r
    collapses while r is not small restarts with rhat = p = r (Sleijpen and van
    der Vorst, 1995); only a vanished r breaks it down."""
    np.copyto(lanes.rhat, lanes.r)
    lanes.rho, lanes.alpha, lanes.omega = (np.ones(lanes.held) for _ in range(3))
    while lanes.count:
        k = lanes.k + 1
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
    while lanes.count:
        lanes.beta = lanes.rk
        np.divide(lanes.r, lanes.beta[:, None], out=lanes.basis[:, 0])
        lanes.rot.fill(0.0)
        lanes.rot[:, 0, 0] = 1.0
        lanes.hess.fill(0.0)
        for j in range(restart):
            k = lanes.k + 1
            basis = lanes.basis[:, : j + 1]
            lanes.rk = lanes.beta  # x is the cycle's start for every live lane
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


@_lane_block((), ("q",), direct=True)
def _lu_block(lanes):
    """Dense LU on every lane, whatever the criteria: x = M^-1 b with the factors
    as M^-1, then one residual.  A lane whose b - A x0 is exactly 0 (not just its
    norm, which underflows) stops first, as ``residual_norm`` with x as given; one
    whose final residual norm is not finite (b held inf or NaN, or x overflowed)
    breaks down."""
    lanes.stop(~lanes.r.any(axis=1), 0, STOP_RESIDUAL)
    lanes.precondition(lanes.b, lanes.x)
    lanes.residual()
    lanes.stop(~np.isfinite(lanes.rk), 0, STOP_BREAKDOWN, "lu: solution not finite")
    lanes.stop(np.ones(lanes.held, dtype=bool), 0, STOP_DIRECT)


#: Each algorithm's recurrence; ``gmres_lu`` is GMRES with the LU factors as M^-1.
_BLOCKS = {"cg": _cg_block, "bicgstab": _bicgstab_block, "gmres": _gmres_block,
           "lu": _lu_block, "gmres_lu": _gmres_block}
ALGORITHMS = tuple(_BLOCKS)
_FACTORED = ("lu", "gmres_lu")  # they factorize the matrix and ignore the preconditioner
_UNFACTORED = tuple(a for a in _BLOCKS if a not in _FACTORED)  # what a batch of matrices runs
