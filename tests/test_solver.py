"""Stopping criteria, Krylov solvers, LU, and the solver-as-operator contract."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linopkit import solver as solver_module
from linopkit.apps.heat import assemble_poisson
from linopkit.batched import BatchCsr, BatchDense, batch_solve
from linopkit.container import MatrixData
from linopkit.errors import (
    BreakdownError,
    InvalidArgumentError,
    SingularMatrixError,
    SingularPreconditionerError,
)
from linopkit.executor import executor_from_name
from linopkit.linop import Csr, Dense, LinOp
from linopkit.solver import (
    Iteration,
    ResidualNorm,
    Solver,
    SolverFactory,
    lu_factorize,
)

from helpers import (
    COMPILED_SPMV,
    csr_from_numpy,
    data_from_numpy,
    dense_from_numpy,
    random_dd_dense,
    random_spd_dense,
    relative_residual,
    use_spmv_body,
)

# Lane blocks run with floating-point errors ignored, at every lane count; a
# RuntimeWarning raised outside them (set-up, LU, the report) fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def make_solver(exec_, dense, algorithm="cg", reduction=1e-12, max_iters=200, **kw):
    factory = SolverFactory(
        algorithm=algorithm,
        criteria=(Iteration(max_iters), ResidualNorm(reduction)),
        **kw,
    )
    return factory.generate(csr_from_numpy(exec_, dense))


def fires(criteria, iteration, r0, rk):
    """Whether ``criteria`` stop a lane at ``iteration`` with residual norms
    ``r0`` and ``rk``, by the rule ``_Lanes.check`` applies to their targets."""
    target, cap = solver_module._targets(criteria, np.array([r0]))
    return bool(rk <= target[0]) or (cap is not None and iteration >= cap)


class TestCriteria:
    def test_iteration_fires_at_the_bound(self, ref):
        crit = (Iteration(3),)
        assert not fires(crit, 2, 1.0, 1.0)
        assert fires(crit, 3, 1.0, 1.0)
        assert fires((Iteration(0),), 0, 1.0, 1.0)
        solver = SolverFactory("cg", criteria=(Iteration(0),)).generate(
            csr_from_numpy(ref, np.diag([2.0, 4.0])))
        report = solver.solve(dense_from_numpy(ref, [1.0, 1.0]), Dense.create(ref, (2, 1)))
        assert (report.iterations, report.stop_reason) == (0, "iteration")

    def test_residual_norm_includes_the_boundary(self):
        crit = (ResidualNorm(1e-6),)
        assert fires(crit, 5, 2.0, 2e-6)
        assert not fires(crit, 5, 2.0, 2.0000001e-6)

    def test_zero_initial_residual_fires_immediately(self):
        assert fires((ResidualNorm(1e-30),), 0, 0.0, 0.0)

    def test_non_finite_initial_residual_never_fires(self):
        for factor in (1e-6, 1.0, math.inf):
            assert not fires((ResidualNorm(factor),), 0, math.inf, math.inf)
            assert not fires((ResidualNorm(factor),), 0, math.nan, math.nan)
        assert fires((ResidualNorm(math.inf),), 0, 1.0, 1e300)  # a finite r0 keeps its inf target

    @given(
        factor=st.floats(1e-12, 1.0),
        r0=st.floats(1e-6, 1e6),
        ratio=st.floats(0.0, 2.0),
    )
    def test_residual_criterion_is_monotone(self, factor, r0, ratio):
        crit = (ResidualNorm(factor),)
        rk = r0 * ratio
        if fires(crit, 1, r0, rk):
            assert fires(crit, 1, r0, rk / 2.0)


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_residual_target_met_at_the_iteration_cap_counts_as_convergence(ref, rng, algorithm, cols):
    a = random_spd_dense(rng, 10)
    b = dense_from_numpy(ref, rng.normal(size=(10, cols)))
    free = make_solver(ref, a, algorithm=algorithm, reduction=1e-10, restart=4)
    needed = free.solve(b, Dense.create(ref, (10, cols))).iterations
    assert needed > 1
    capped = make_solver(ref, a, algorithm=algorithm, reduction=1e-10, max_iters=needed,
                         restart=4)
    report = capped.solve(b, Dense.create(ref, (10, cols)))
    assert report.iterations == needed
    assert report.stop_reason == "residual_norm"
    assert report.converged


@pytest.mark.parametrize("bvec", [[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_exactly_solved_lane_converges_under_an_iteration_criterion_alone(ref, algorithm, bvec):
    """rk = 0 meets every residual target, also the one no criterion sets: the
    identity is solved by the first iteration, and b = 0 by the zero guess."""
    solver = SolverFactory(algorithm, criteria=(Iteration(5),)).generate(
        csr_from_numpy(ref, np.eye(3)))
    x = Dense.create(ref, (3, 1))
    report = solver.solve(dense_from_numpy(ref, bvec), x)
    assert (report.stop_reason, report.converged) == ("residual_norm", True)
    assert (report.iterations, report.final_residual_norm) == (1 if any(bvec) else 0, 0.0)
    assert np.array_equal(x.view2d()[:, 0], bvec)


@pytest.mark.parametrize("bvec", [[1e200, 1.0], [np.inf, 1.0]])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_non_finite_initial_residual_does_not_converge(ref, algorithm, bvec):
    """||b||^2 overflows for the finite b, and r0 is inf for both: no reduction of
    it can be measured, so the lane breaks down instead of converging at x = 0."""
    solver = make_solver(ref, np.diag([2.0, 4.0]), algorithm=algorithm)
    with pytest.raises(BreakdownError) as err:
        solver.solve(dense_from_numpy(ref, bvec), Dense.create(ref, (2, 1)))
    assert err.value.iterations == 0


class TestCg:
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    B = np.array([1.0, 2.0])
    X = np.array([1.0 / 11.0, 7.0 / 11.0])  # closed form

    def test_closed_form_in_two_iterations(self, ref):
        solver = make_solver(ref, self.A, reduction=1e-10)
        b = dense_from_numpy(ref, self.B)
        x = Dense.create(ref, (2, 1))
        history = []
        report = solver.solve(b, x, callback=lambda k, r: history.append((k, r)))
        assert report.converged
        assert report.stop_reason == "residual_norm"
        assert report.iterations <= 2
        assert np.allclose(x.view2d()[:, 0], self.X, atol=1e-9, rtol=0)
        assert history[0] == (0, pytest.approx(math.sqrt(5.0)))
        assert report.initial_residual_norm == pytest.approx(math.sqrt(5.0))
        assert history[-1][1] == report.final_residual_norm

    def test_exact_initial_guess_costs_nothing(self, ref):
        solver = make_solver(ref, np.diag([2.0, 4.0]))
        b = dense_from_numpy(ref, [2.0, 4.0])
        x = dense_from_numpy(ref, [1.0, 1.0])
        report = solver.solve(b, x)
        assert report.iterations == 0
        assert report.converged and report.stop_reason == "residual_norm"
        assert report.final_residual_norm == 0.0

    def test_iteration_cap_stops_the_solve(self, ref, rng):
        a = random_spd_dense(rng, 12)
        factory = SolverFactory("cg", criteria=(Iteration(3), ResidualNorm(1e-30)))
        solver = factory.generate(csr_from_numpy(ref, a))
        b = dense_from_numpy(ref, rng.normal(size=12))
        x = Dense.create(ref, (12, 1))
        report = solver.solve(b, x)
        assert report.iterations == 3
        assert not report.converged
        assert report.stop_reason == "iteration"

    def test_jacobi_solves_diagonal_in_one_iteration(self, ref):
        solver = make_solver(ref, np.diag([1.0, 10.0, 100.0]), preconditioner="jacobi")
        b = dense_from_numpy(ref, [1.0, 20.0, 300.0])
        x = Dense.create(ref, (3, 1))
        report = solver.solve(b, x)
        assert report.iterations == 1
        assert np.allclose(x.view2d()[:, 0], [1.0, 2.0, 3.0], rtol=1e-14)

    def test_jacobi_accelerates_ill_scaled_system(self, ref, rng):
        scale = np.diag(10.0 ** np.arange(8))
        a = scale @ random_spd_dense(rng, 8) @ scale
        b = rng.normal(size=8)
        runs = {}
        for precond in (None, "jacobi"):
            solver = make_solver(ref, a, reduction=1e-10, preconditioner=precond)
            x = Dense.create(ref, (8, 1))
            runs[precond] = solver.solve(dense_from_numpy(ref, b), x)
        assert runs["jacobi"].converged
        assert runs["jacobi"].iterations <= runs[None].iterations

    def test_breakdown_reports_best_iterate(self, ref):
        # indefinite matrix: p . Ap = 0 exactly on the first step
        solver = make_solver(ref, np.array([[1.0, 0.0], [0.0, -1.0]]))
        b = dense_from_numpy(ref, [1.0, 1.0])
        x = Dense.create(ref, (2, 1))
        with pytest.raises(BreakdownError, match="conjugacy") as err:
            solver.solve(b, x)
        assert err.value.best is x
        assert err.value.iterations == 0
        assert err.value.residual_norm == pytest.approx(math.sqrt(2.0))


class TestJacobiPreconditioner:
    @staticmethod
    def _generate(m):
        return SolverFactory("cg", criteria=(Iteration(5),), preconditioner="jacobi").generate(m)

    def test_inverse_diagonal(self, ref):
        m = csr_from_numpy(ref, np.diag([2.0, 4.0]))
        assert list(self._generate(m)._invd) == [0.5, 0.25]  # what the solve applies

    def test_missing_diagonal_rejected(self, ref):
        m = Csr.from_data(ref, MatrixData((2, 2), [(0, 0, 1.0), (1, 0, 1.0)]))
        with pytest.raises(SingularPreconditionerError, match="row 1 has no stored diagonal"):
            self._generate(m)

    def test_zero_diagonal_rejected(self, ref):
        m = Csr.from_data(
            ref, MatrixData((2, 2), [(0, 0, 1.0), (1, 1, 2.0), (1, 1, -2.0)])
        )
        with pytest.raises(SingularPreconditionerError, match="zero diagonal entry at row 1"):
            self._generate(m)

    def test_inverse_diagonal_skips_off_diagonal_entries(self, ref):
        m = csr_from_numpy(ref, [[3.0, 1.0], [0.0, 5.0]])
        assert list(self._generate(m)._invd) == [1.0 / 3.0, 0.2]

    @pytest.mark.parametrize("algorithm", ["lu", "gmres_lu"])
    def test_factorizing_solvers_ignore_jacobi(self, ref, rng, algorithm):
        """LU-based solvers find no diagonal positions and solve as they do
        without the preconditioner, even where no diagonal is stored."""
        dense = random_dd_dense(rng, 8)
        b = rng.normal(size=(8, 2))
        outcomes = []
        for preconditioner in (None, "jacobi"):
            solver = make_solver(ref, dense, algorithm=algorithm, preconditioner=preconditioner)
            assert solver._diag_pos is None and solver._invd is None
            x = Dense.create(ref, (8, 2))
            report = solver.solve(dense_from_numpy(ref, b), x)
            outcomes.append((report, x.view2d().view(np.uint64).copy()))
        assert outcomes[0][0] == outcomes[1][0]
        assert np.array_equal(outcomes[0][1], outcomes[1][1])
        antidiagonal = csr_from_numpy(ref, [[0.0, 1.0], [1.0, 0.0]])
        factory = SolverFactory(algorithm, criteria=(Iteration(5),), preconditioner="jacobi")
        assert factory.generate(antidiagonal)._diag_pos is None

    def test_refresh_reads_the_positions_found_at_construction(self, ref, monkeypatch):
        m = csr_from_numpy(ref, [[2.0, 1.0], [1.0, 4.0]])
        solver = self._generate(m)
        monkeypatch.setattr(solver_module, "_diagonal_positions", None)  # no second search
        m.update_values([5.0, 1.0, 1.0, 8.0])
        solver.refresh()
        assert list(solver._invd) == [0.2, 0.125]
        m.update_values([5.0, 1.0, 1.0, 0.0])
        with pytest.raises(SingularPreconditionerError, match="zero diagonal entry at row 1"):
            solver.refresh()
        assert list(solver._invd) == [0.2, 0.125]  # a failed refresh keeps the old state

    @given(data=st.data())
    def test_diagonal_search_matches_a_per_row_scan(self, ref, data):
        n = data.draw(st.integers(0, 6), label="n")
        ptrs, cols, vals = [0], [], []
        for r in range(n):
            row = data.draw(st.one_of(st.just(set()), st.just(set(range(n))),
                                      st.sets(st.integers(0, n - 1))), label=f"row {r}")
            diag = data.draw(st.sampled_from(["as drawn", "absent", "zero"]), label=f"diag {r}")
            row = sorted(row - {r} if diag == "absent" else row)
            cols += row
            vals += [0.0 if c == r and diag == "zero" else float(c - 2 * r + 7) for c in row]
            ptrs.append(len(cols))
        m = Csr.from_arrays(ref, (n, n), ptrs, cols, vals)

        want = [-1] * n  # the reference: scan each row for its diagonal entry
        for r in range(n):
            for k in range(ptrs[r], ptrs[r + 1]):
                if cols[k] == r:
                    want[r] = k
        assert solver_module._diagonal_positions(m.get_row_ptrs().numpy(),
                                                  m.get_col_idxs().numpy()).tolist() == want
        missing = [r for r in range(n) if want[r] < 0]
        zero = [r for r in range(n) if want[r] >= 0 and vals[want[r]] == 0.0]
        if missing or zero:
            message = f"row {missing[0]} has no" if missing else f"zero diagonal entry at row {zero[0]}"
            with pytest.raises(SingularPreconditionerError, match=message):
                self._generate(m)
        else:
            assert self._generate(m)._invd.tolist() == [1.0 / vals[k] for k in want]

        # a batch of the matrix and of a copy whose stored diagonal is all ones
        fixed = np.array(vals)
        fixed[[k for k in want if k >= 0]] = 1.0
        batch = BatchCsr(ref, 2, (n, n), ptrs, cols, np.stack([vals, fixed]))
        b = BatchDense.from_values(ref, np.ones((2, n, 1)))
        report = batch_solve("cg", batch, b, BatchDense.zeros(ref, 2, (n, 1)), (Iteration(3),),
                             preconditioner="jacobi")
        singular = [r == "singular_preconditioner" for r in report.stop_reasons]
        assert singular == [bool(missing or zero), bool(missing)]


class TestBicgstab:
    def test_nonsymmetric_closed_form(self, ref):
        solver = make_solver(ref, np.array([[2.0, 1.0], [0.0, 1.0]]), algorithm="bicgstab")
        b = dense_from_numpy(ref, [3.0, 1.0])
        x = Dense.create(ref, (2, 1))
        report = solver.solve(b, x)
        assert report.converged
        assert np.allclose(x.view2d()[:, 0], [1.0, 1.0], atol=1e-12)

    def test_half_step_exit_on_identity(self, ref):
        solver = make_solver(ref, np.eye(3), algorithm="bicgstab")
        b = dense_from_numpy(ref, [1.0, -2.0, 3.0])
        x = Dense.create(ref, (3, 1))
        report = solver.solve(b, x)
        assert report.iterations == 1
        assert report.converged
        assert list(x.view2d()[:, 0]) == [1.0, -2.0, 3.0]

    def test_breakdown_when_shadow_residual_degenerates(self, ref):
        solver = make_solver(ref, np.array([[0.0, 1.0], [1.0, 0.0]]), algorithm="bicgstab")
        b = dense_from_numpy(ref, [1.0, 0.0])
        x = Dense.create(ref, (2, 1))
        with pytest.raises(BreakdownError, match="degenerate") as err:
            solver.solve(b, x)
        assert err.value.iterations == 0

    def test_rho_collapse_restarts_the_shadow_residual(self, ref):
        """A kinetics cell (I - dt K, a 16-species chain) whose r turns almost
        orthogonal to rhat near convergence: rho collapses while r is not
        small, so rhat and p restart from r instead of the lane breaking down.
        Single and batched solves take the same recurrence."""
        n = 16
        vals = [  # row by row
        1.0184844519449336, -0.057465450583287184,
        -0.018484451944933672, 5.039923641770974, -0.011594864084744683,
        -3.9824581911876873, 4.271824416476362, -0.10336393379807281,
        -3.260229552391617, 8.593877376805906, -0.01955150480233703,
        -7.490513443007833, 1.1030067320977295, -0.040516655003555356,
        -0.08345522729539231, 1.917344553603356, -0.4341076282996826,
        -0.8768278985998006, 2.9445585349576566, -0.7182724730951627,
        -1.510450906657974, 6.735284785442967, -0.3926040413824297,
        -5.017012312347804, 1.4090841539549053, -1.559973239005979,
        -0.016480112572475662, 2.5812375386524984, -0.050592882879248575,
        -0.02126429964651936, 8.974891571747367, -0.023963089138154193,
        -7.924298688868118, 3.1094672050245986, -1.9058007693614079,
        -2.0855041158864442, 2.9526449331541, -0.020414421075920536,
        -0.046844163792692205, 5.704410077925863, -3.45776257395525,
        -4.683995656849943, 4.880671755653974, -0.9840477150697977,
        -0.42290918169872316, 1.9840477150697977,
        ]
        ptrs = np.concatenate([[0], np.cumsum([2] + [3] * (n - 2) + [2])])
        cols = [c for r in range(n) for c in (r - 1, r, r + 1) if 0 <= c < n]
        a = Csr.from_arrays(ref, (n, n), ptrs, cols, vals)
        b = np.eye(n)[0]  # everything starts as the first species, which is also the guess
        factory = SolverFactory("bicgstab", criteria=(Iteration(100), ResidualNorm(1e-10)),
                                preconditioner="jacobi")
        x = dense_from_numpy(ref, b)
        report = factory.generate(a).solve(dense_from_numpy(ref, b), x)
        assert report.converged and report.iterations == 14
        true = np.linalg.norm(b - a.to_dense() @ x.view2d()[:, 0])
        assert true <= 1e-10 * report.initial_residual_norm

        xb = BatchDense.from_values(ref, b[None, :, None])
        batch = BatchCsr(ref, 1, (n, n), ptrs, cols, np.array([vals]))
        batch_solve("bicgstab", batch, BatchDense.from_values(ref, b[None, :, None]), xb,
                    factory.criteria, "jacobi")
        assert np.array_equal(xb.values[0], x.view2d())

    def test_random_dd_systems(self, ref, rng):
        for n in (5, 11, 17):
            a = random_dd_dense(rng, n)
            b = rng.normal(size=n)
            solver = make_solver(ref, a, algorithm="bicgstab", reduction=1e-11)
            x = Dense.create(ref, (n, 1))
            report = solver.solve(dense_from_numpy(ref, b), x)
            assert report.converged
            assert relative_residual(a, x.view2d()[:, 0], b) <= 1e-8


def shifted_random(rng, n):
    """Random matrix pushed away from singularity; needs ~20 GMRES iterations
    for a 1e-10 reduction, comfortably more than the small restart lengths
    below."""
    return rng.normal(size=(n, n)) / math.sqrt(n) + 3.0 * np.eye(n)


class TestGmres:
    def test_counts_iterations_across_restarts(self, ref, rng):
        n = 40
        a = shifted_random(rng, n)
        solver = make_solver(ref, a, algorithm="gmres", reduction=1e-10, restart=5)
        b = rng.normal(size=n)
        x = Dense.create(ref, (n, 1))
        report = solver.solve(dense_from_numpy(ref, b), x)
        assert report.converged
        assert report.iterations > 5  # crossed at least one restart boundary
        assert relative_residual(a, x.view2d()[:, 0], b) <= 1e-8

    def test_restart_boundary_recomputes_the_true_residual(self, ref, rng):
        n = 30
        a = shifted_random(rng, n)
        b = rng.normal(size=n)
        solver = make_solver(ref, a, algorithm="gmres", reduction=1e-10, restart=4)
        x = Dense.create(ref, (n, 1))
        report = solver.solve(dense_from_numpy(ref, b), x)
        true_final = relative_residual(a, x.view2d()[:, 0], b) * np.linalg.norm(b)
        assert abs(report.final_residual_norm - true_final) <= 1e-6 * max(
            report.initial_residual_norm, 1.0
        )

    def test_happy_breakdown_on_identity(self, ref):
        solver = make_solver(ref, np.eye(4), algorithm="gmres")
        b = dense_from_numpy(ref, [1.0, 2.0, 3.0, 4.0])
        x = Dense.create(ref, (4, 1))
        report = solver.solve(b, x)
        assert report.converged
        assert report.iterations == 1
        assert np.allclose(x.view2d()[:, 0], [1.0, 2.0, 3.0, 4.0], rtol=1e-14)

    def test_jacobi_preconditioning_works(self, ref, rng):
        a = random_dd_dense(rng, 20)
        solver = make_solver(ref, a, algorithm="gmres", preconditioner="jacobi")
        b = rng.normal(size=20)
        x = Dense.create(ref, (20, 1))
        assert solver.solve(dense_from_numpy(ref, b), x).converged
        assert relative_residual(a, x.view2d()[:, 0], b) <= 1e-8


class TestLu:
    def test_known_permutation(self):
        perm, lower, upper = lu_factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert list(perm) == [1, 0]
        assert np.array_equal(lower, np.eye(2))
        assert np.array_equal(upper, np.eye(2))

    def test_reconstruction(self, rng):
        a = rng.normal(size=(20, 20))
        perm, lower, upper = lu_factorize(a.copy())
        assert np.abs(lower - np.tril(lower)).max() == 0.0
        assert np.abs(upper - np.triu(upper)).max() == 0.0
        assert np.abs(np.tril(lower, -1)).max() <= 1.0
        err = np.abs(a[perm] - lower @ upper).max() / np.abs(a).max()
        assert err <= 1e-12

    def test_singular_column_named(self):
        with pytest.raises(SingularMatrixError, match="column 1"):
            lu_factorize(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_solve_multiple_rhs(self, ref, rng):
        a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        rhs = rng.normal(size=(6, 3))
        x = Dense.create(ref, (6, 3))
        report = make_solver(ref, a, algorithm="lu").solve(dense_from_numpy(ref, rhs), x)
        assert report.stop_reason == "direct"
        assert np.allclose(a @ x.view2d(), rhs, atol=1e-10)

    def test_callback_sees_the_initial_residual_once(self, ref):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        x0 = np.array([1.0, -1.0])
        b = np.array([1.0, 2.0])
        history = []
        make_solver(ref, a, algorithm="lu").solve(
            dense_from_numpy(ref, b), dense_from_numpy(ref, x0),
            callback=lambda k, norm: history.append((k, norm)))
        assert history == [(0, float(np.linalg.norm(b - a @ x0)))]

    @pytest.mark.parametrize("b, x0", [([0.0, 0.0], [0.0, 0.0]), ([5.0, 4.0], [1.0, 1.0])],
                             ids=["zero b", "exact guess"])
    def test_solved_guess_stops_on_the_residual(self, ref, b, x0):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        x = dense_from_numpy(ref, x0)
        report = make_solver(ref, a, algorithm="lu").solve(dense_from_numpy(ref, b), x)
        assert (report.stop_reason, report.converged, report.iterations) == ("residual_norm", True, 0)
        assert report.initial_residual_norm == report.final_residual_norm == 0.0
        assert list(x.view2d()[:, 0]) == x0

    def test_underflowing_residual_is_still_solved(self, ref):
        # ||b - A x0||^2 underflows to 0, but b - A x0 is not 0: the guess is no solution
        x = Dense.create(ref, (2, 1))
        report = make_solver(ref, np.diag([2.0, 4.0]), algorithm="lu").solve(
            dense_from_numpy(ref, [1e-170, 1e-170]), x)
        assert report.stop_reason == "direct" and report.initial_residual_norm == 0.0
        assert list(x.view2d()[:, 0]) == [5e-171, 2.5e-171]

    def test_overflowing_rhs_stays_quiet(self, ref):
        # a RuntimeWarning fails this module's tests: LU's arithmetic runs as the lanes' does
        solver = make_solver(ref, np.array([[4.0, 1.0], [1.0, 3.0]]), algorithm="lu")
        report = solver.solve(dense_from_numpy(ref, [1e200, 1e200]), Dense.create(ref, (2, 1)))
        assert report.stop_reason == "direct"
        assert report.initial_residual_norm == math.inf

    def test_direct_solver_report(self, ref, rng):
        a = random_dd_dense(rng, 8)
        b = rng.normal(size=8)
        solver = make_solver(ref, a, algorithm="lu")
        x = Dense.create(ref, (8, 1))
        report = solver.solve(dense_from_numpy(ref, b), x)
        assert report.iterations == 0
        assert report.converged
        assert report.stop_reason == "direct"
        assert report.initial_residual_norm == pytest.approx(np.linalg.norm(b))
        assert relative_residual(a, x.view2d()[:, 0], b) <= 1e-12

    def test_refresh_refactorizes(self, ref):
        a = np.diag([2.0, 4.0])
        solver = make_solver(ref, a, algorithm="lu")
        b = dense_from_numpy(ref, [2.0, 4.0])
        x = Dense.create(ref, (2, 1))
        solver.solve(b, x)
        assert list(x.view2d()[:, 0]) == [1.0, 1.0]
        solver.system_matrix.update_values([4.0, 8.0])
        solver.refresh()
        x2 = Dense.create(ref, (2, 1))
        report = solver.solve(b, x2)
        assert list(x2.view2d()[:, 0]) == [0.5, 0.5]
        assert report.converged

    def test_gmres_lu_is_a_two_iteration_solver(self, ref, rng):
        a = random_dd_dense(rng, 20)
        b = rng.normal(size=20)
        solver = make_solver(ref, a, algorithm="gmres_lu", reduction=1e-12)
        x = Dense.create(ref, (20, 1))
        report = solver.solve(dense_from_numpy(ref, b), x)
        assert report.converged
        assert report.iterations <= 2
        assert relative_residual(a, x.view2d()[:, 0], b) <= 1e-10


class TestSolverAsOperator:
    def test_apply_inverts(self, ref):
        solver = make_solver(ref, np.diag([2.0, 4.0]))
        b = dense_from_numpy(ref, [2.0, 4.0])
        x = Dense.create(ref, (2, 1))
        solver.apply(b, x)
        assert np.allclose(x.view2d()[:, 0], [1.0, 1.0], rtol=1e-12)

    def test_advanced_apply_combines_with_the_incoming_iterate(self, ref):
        solver = make_solver(ref, np.diag([2.0, 4.0]))
        b = dense_from_numpy(ref, [2.0, 4.0])
        x = dense_from_numpy(ref, [1.0, 1.0])
        solver.advanced_apply(2.0, b, 3.0, x)  # 2 * [1,1] + 3 * [1,1]
        assert np.allclose(x.view2d()[:, 0], [5.0, 5.0], rtol=1e-12)
        x = dense_from_numpy(ref, [np.nan, np.inf])
        solver.advanced_apply(2.0, b, 0.0, x)  # beta = 0 ignores x, as for matrices
        assert np.allclose(x.view2d()[:, 0], [2.0, 2.0], rtol=1e-12)

    @pytest.mark.parametrize("cols", [1, 3])
    def test_solver_in_operator_position_applies_from_a_zero_guess(self, ref, rng, cols):
        """An outer CG over an inner CG solves A^-1 x = b, so x = A b.  Every
        inner solve starts from zero, as ``advanced_apply``'s do, so the outer
        initial residual is ||b||."""
        a = random_spd_dense(rng, 12)
        guesses = []

        class Inner(Solver):
            def _apply(self, b, x):
                guesses.append(x.view2d().copy())
                super()._apply(b, x)

        factory = SolverFactory("cg", (Iteration(200), ResidualNorm(1e-14)))
        outer = Solver(factory, Inner(factory, csr_from_numpy(ref, a)))
        bmat = rng.normal(size=(12, cols)) * np.array([1.0, 1e3, 1e-3])[:cols]
        x = Dense.create(ref, (12, cols))
        report = outer.solve(dense_from_numpy(ref, bmat), x)
        assert len(guesses) > cols and not np.any(guesses)
        assert report.converged
        assert report.initial_residual_norm == pytest.approx(np.linalg.norm(bmat), rel=1e-12)
        ab = a @ bmat
        assert (np.linalg.norm(x.view2d() - ab, axis=0) <= 1e-9 * np.linalg.norm(ab, axis=0)).all()

    @pytest.mark.parametrize("cols", [1, 3])
    @pytest.mark.parametrize("algorithm", ["cg", "gmres"])
    def test_inner_solver_sees_live_columns_only(self, ref, rng, monkeypatch, algorithm, cols):
        """A zero column stops at iteration 0 and keeps its row; its discarded
        arithmetic (0/0 in CG's alpha) must not reach the inner solver, whose
        NaN right-hand side would break the outer solve down.  The live columns
        reach it together: one inner block per outer lane apply."""
        a = random_spd_dense(rng, 12)
        factory = SolverFactory("cg", (Iteration(200), ResidualNorm(1e-14)))
        inner = Solver(factory, csr_from_numpy(ref, a))
        applies, blocks, real = [], [], inner._apply_lanes
        monkeypatch.setattr(inner, "_apply_lanes", lambda *args: applies.append(1) or real(*args))
        outer = Solver(SolverFactory(algorithm, factory.criteria), inner)
        bmat = rng.normal(size=(12, cols))
        if cols > 1:
            bmat[:, 1] = 0.0
        x = Dense.create(ref, (12, cols))

        class CountedLanes(solver_module._Lanes):
            def __init__(self, *args):
                blocks.append(1)
                super().__init__(*args)

        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_Lanes", CountedLanes)
            assert outer.solve(dense_from_numpy(ref, bmat), x).converged
        assert len(applies) > 3 and len(blocks) == 1 + len(applies)
        for j in range(cols):
            xj = Dense.create(ref, (12, 1))
            assert outer.solve(dense_from_numpy(ref, bmat[:, j]), xj).converged
            assert np.array_equal(x.view2d()[:, j].view(np.uint64),
                                  xj.view2d()[:, 0].view(np.uint64)), j

    def test_an_inner_breakdown_raises_the_outer_solves_error(self, ref):
        """The inner CG breaks down on every column (p . A p = 0): the outer solve
        raises with its own x, iteration count and residual norm.  A guess the
        inner solve breaks down on stops the outer before any norm is known."""
        factory = SolverFactory("cg", (Iteration(10), ResidualNorm(1e-12)))
        outer = Solver(factory, Solver(factory, csr_from_numpy(ref, [[0.0, 1.0], [1.0, 0.0]])))
        b = dense_from_numpy(ref, np.eye(2))
        for guess, norm in ((np.zeros((2, 2)), math.sqrt(2.0)), (np.eye(2), math.nan)):
            x = dense_from_numpy(ref, guess)
            with pytest.raises(BreakdownError, match="conjugacy") as err:
                outer.solve(b, x)
            assert err.value.best is x
            assert err.value.iterations == 0
            assert err.value.residual_norm == pytest.approx(norm, nan_ok=True)
            assert np.array_equal(x.view2d(), guess)

    def test_solver_preconditions_another_solver(self, ref, rng):
        # an operator-valued sanity check: x = S(b) with S a solver behaves
        # like A^{-1} b up to the inner tolerance
        a = random_spd_dense(rng, 10)
        inner = make_solver(ref, a, reduction=1e-13)
        b = rng.normal(size=10)
        x = Dense.create(ref, (10, 1))
        inner.apply(dense_from_numpy(ref, b), x)
        assert np.allclose(a @ x.view2d()[:, 0], b, atol=1e-9)


class TestMultiColumn:
    """Every algorithm runs the columns in lockstep; each column still gets the
    bits of its own single solve."""

    def test_matches_per_column_solves(self, ref, rng):
        a = random_spd_dense(rng, 6)
        a[0, 0] *= 1e3  # ill-scaled, so Jacobi changes every iterate
        bmat = rng.normal(size=(6, 3))
        for algorithm in ("cg", "bicgstab", "gmres", "lu", "gmres_lu"):
            for preconditioner in (None, "jacobi"):
                context = (algorithm, preconditioner)
                # GMRES(3) restarts, and its columns stop in different cycles
                solver = make_solver(ref, a, algorithm=algorithm, reduction=1e-11,
                                     preconditioner=preconditioner, restart=3)
                together = Dense.create(ref, (6, 3))
                report = solver.solve(dense_from_numpy(ref, bmat), together)

                singles = []
                reports = []
                for j in range(3):
                    xj = Dense.create(ref, (6, 1))
                    reports.append(solver.solve(dense_from_numpy(ref, bmat[:, j]), xj))
                    singles.append(xj.view2d()[:, 0].copy())
                assert np.array_equal(together.view2d(), np.column_stack(singles)), context
                assert report.iterations == max(r.iterations for r in reports), context
                assert report.converged == all(r.converged for r in reports), context
                assert report.converged, context
                assert report.initial_residual_norm == math.hypot(
                    *(r.initial_residual_norm for r in reports)), context
                assert report.final_residual_norm == math.hypot(
                    *(r.final_residual_norm for r in reports)), context

    @pytest.mark.parametrize("override", [False, True], ids=["Csr", "apply override"])
    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres", "lu"])
    def test_padded_solution_gets_each_columns_bits_and_keeps_its_padding(self, ref, rng,
                                                                          algorithm, override):
        """Lanes write into the caller's strided x; the padding stays as it was.
        One solver then takes 1, 3 and 1 columns, each into a padded x.  A Csr
        subclass's apply, which takes (n, 1) Dense columns, gives the same bits."""
        # column j's b and guess lie in the span of sizes[j] eigenvectors, so
        # the Krylov solvers stop it after about that many iterations
        n, sizes = 20, [3, 0, 6, 10, 20]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (q * np.linspace(1.0, 4.0, n)) @ q.T
        bmat, guess = np.zeros((n, 5)), np.zeros((n, 5))
        for j, m in enumerate(sizes):
            bmat[:, j] = q[:, :m] @ rng.normal(size=m)
            guess[:, j] = q[:, :m] @ rng.normal(size=m) * 0.1
        bmat[:, 2] *= 1e-8
        guess[:, 2] *= 1e-8
        factory = SolverFactory(algorithm, (Iteration(200), ResidualNorm(1e-10)), restart=6)
        solver = factory.generate((_ApplyCounter if override else Csr).from_data(
            ref, data_from_numpy(a)))

        def fresh(j):
            x = dense_from_numpy(ref, guess[:, j])
            report = make_solver(ref, a, algorithm=algorithm, reduction=1e-10,
                                 restart=6).solve(dense_from_numpy(ref, bmat[:, j]), x)
            return x.view2d()[:, 0].view(np.uint64), report.iterations

        want = [fresh(j) for j in range(5)]
        if algorithm != "lu":
            assert len({it for _, it in want}) > 2  # columns stop at different iterations
        for cols in ([0, 1, 2, 3, 4], [3], [0, 2, 4], [1]):
            x = Dense.create(ref, (n, len(cols)), stride=7)
            storage = x.values.numpy()
            storage[...] = -np.inf
            x.view2d()[...] = guess[:, cols]
            solver.solve(dense_from_numpy(ref, bmat[:, cols]), x)
            for k, j in enumerate(cols):
                assert np.array_equal(x.view2d()[:, k].view(np.uint64), want[j][0]), (cols, j)
            assert (storage.reshape(n, 7)[:, len(cols):] == -np.inf).all(), cols

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
    def test_callback_sees_all_columns_and_ends_at_the_report(self, ref, rng, algorithm):
        a = random_dd_dense(rng, 8) if algorithm == "bicgstab" else random_spd_dense(rng, 8)
        a[0, 1:] = a[1:, 0] = 0.0
        bmat = rng.normal(size=(8, 3))
        bmat[:, 0] = [3.0] + [0.0] * 7  # along an eigenvector: stops after one iteration
        solver = make_solver(ref, a, algorithm=algorithm, reduction=1e-11)
        history = []
        report = solver.solve(dense_from_numpy(ref, bmat), Dense.create(ref, (8, 3)),
                              callback=lambda k, r: history.append((k, r)))
        assert report.converged
        assert [k for k, _ in history] == list(range(report.iterations + 1))
        assert history[0][1] == report.initial_residual_norm
        assert history[-1][1] == report.final_residual_norm
        # a column stopped early and contributed its final norm to the rest
        singles = [solver.solve(dense_from_numpy(ref, bmat[:, j]), Dense.create(ref, (8, 1)))
                   for j in range(3)]
        assert min(r.iterations for r in singles) < report.iterations

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
    def test_a_dead_column_neither_breaks_down_nor_changes_the_others(self, ref, rng,
                                                                      algorithm):
        # Column 0 lies along an eigenvector and stops after one iteration; its
        # row stays held (three of four lanes live) while the others run on,
        # and its recurrence degenerates there (a zero rho, p . Ap or
        # Hessenberg column).
        n = 40
        q, _ = np.linalg.qr(rng.normal(size=(n - 1, n - 1)))
        a = np.zeros((n, n))
        a[0, 0] = 2.0
        a[1:, 1:] = (q * np.geomspace(1e-3, 1.0, n - 1)) @ q.T
        bmat = rng.normal(size=(n, 4))
        bmat[:, 0] = [3.0] + [0.0] * (n - 1)
        for preconditioner in (None, "jacobi"):
            solver = make_solver(ref, a, algorithm=algorithm, reduction=1e-12,
                                 preconditioner=preconditioner, restart=10)
            together, history = Dense.create(ref, (n, 4)), []
            report = solver.solve(dense_from_numpy(ref, bmat), together,
                                  callback=lambda k, r: history.append((k, r)))
            assert [k for k, _ in history] == list(range(report.iterations + 1)), preconditioner
            assert history[-1][1] == report.final_residual_norm, preconditioner
            singles = []
            for j in range(4):
                xj = Dense.create(ref, (n, 1))
                singles.append(solver.solve(dense_from_numpy(ref, bmat[:, j]), xj))
                assert np.array_equal(together.view2d()[:, j].view(np.uint64),
                                      xj.view2d()[:, 0].view(np.uint64)), (preconditioner, j)
            assert singles[0].iterations == 1 and report.iterations >= 15, preconditioner
            assert report.final_residual_norm == math.hypot(
                *(r.final_residual_norm for r in singles)), preconditioner

    def test_bicgstab_half_stop_beside_dead_rows_reaches_the_callback_once(self, ref,
                                                                           monkeypatch):
        # On a diagonal matrix a column with m nonzero entries is solved in
        # about m iterations.  Columns 0 and 1 (four entries) stop at 4 and
        # keep their rows (three of five lanes live); at 7 their dead rows'
        # ||s|| meets the target while column 2 takes the half step alone.
        # Counting the dead rows there would fire the callback for 7 twice.
        n = 12
        a = np.diag(np.linspace(1.0, 3.0, n))
        sizes = [4, 4, 7, 8, 11]
        bmat = np.zeros((n, len(sizes)))
        for j, m in enumerate(sizes):
            bmat[:m, j] = 1.0
        solver = make_solver(ref, a, algorithm="bicgstab", reduction=1e-10)
        seen = []  # (dead, live) rows of each mask restricted to live lanes
        real = solver_module._Lanes.live_only

        def spy(lanes, mask):
            if lanes.live is not None:
                seen.append((int(np.count_nonzero(mask & ~lanes.live)),
                             int(np.count_nonzero(mask & lanes.live))))
            return real(lanes, mask)

        monkeypatch.setattr(solver_module._Lanes, "live_only", spy)
        history = []
        report = solver.solve(dense_from_numpy(ref, bmat), Dense.create(ref, (n, 5)),
                              callback=lambda k, r: history.append(k))
        assert history == list(range(report.iterations + 1))
        assert report.converged and report.iterations == 9
        assert (2, 1) in seen  # the case this test is built for
        singles = [solver.solve(dense_from_numpy(ref, bmat[:, j]), Dense.create(ref, (n, 1)))
                   for j in range(len(sizes))]
        assert [r.iterations for r in singles] == [4, 4, 7, 8, 9]

    def test_breakdown_in_one_column_raises_after_the_others_are_solved(self, ref):
        # p . Ap = 0 at once for [1, 1]; [1, 0] is solved in one iteration
        solver = make_solver(ref, np.array([[1.0, 0.0], [0.0, -1.0]]))
        b = dense_from_numpy(ref, [[1.0, 1.0], [1.0, 0.0]])
        x = Dense.create(ref, (2, 2))
        with pytest.raises(BreakdownError, match="conjugacy") as err:
            solver.solve(b, x)
        assert err.value.best is x
        assert list(x.view2d()[:, 0]) == [0.0, 0.0]
        assert list(x.view2d()[:, 1]) == [1.0, 0.0]
        assert err.value.iterations == 1
        assert err.value.residual_norm == math.hypot(math.sqrt(2.0), 0.0)


class _Laplacian1D(LinOp):
    """The 1-D Laplacian stencil [-1, 2, -1], applied without stored entries."""

    def __init__(self, exec_, n):
        super().__init__(exec_, (n, n))
        self.columns_applied = []

    def _apply(self, b, x):
        self.columns_applied.append(b.size.cols)
        v = b.view2d()
        out = 2.0 * v
        out[1:] -= v[:-1]
        out[:-1] -= v[1:]
        x.view2d()[...] = out


@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_matrix_free_operator_solves_two_columns(ref, rng, algorithm):
    n = 20
    op = _Laplacian1D(ref, n)
    factory = SolverFactory(algorithm, criteria=(Iteration(200), ResidualNorm(1e-12)))
    solver = Solver(factory, op)
    bmat = rng.normal(size=(n, 2))
    x = Dense.create(ref, (n, 2))
    report = solver.solve(dense_from_numpy(ref, bmat), x)
    assert report.converged
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    for j in range(2):
        assert relative_residual(dense, x.view2d()[:, j], bmat[:, j]) <= 1e-10
    assert set(op.columns_applied) == {1}  # one column per call, through its own apply
    y = dense_from_numpy(ref, bmat)
    op.advanced_apply(0.5, x, -1.0, y)  # LinOp's own advanced apply: 0.5 A x - b
    assert np.allclose(y.view2d(), -0.5 * bmat, atol=1e-9)


@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres", "lu", "gmres_lu"])
def test_zero_columns_are_rejected(ref, algorithm):
    solver = make_solver(ref, np.diag([2.0, 4.0]), algorithm=algorithm)
    for run in (solver.solve, solver.apply):
        with pytest.raises(InvalidArgumentError, match="at least one column"):
            run(Dense.create(ref, (2, 0)), Dense.create(ref, (2, 0)))


@pytest.mark.parametrize("cols", [1, 2])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_nan_right_hand_side_breaks_down_at_the_guess(ref, rng, algorithm, cols):
    a = random_spd_dense(rng, 8)
    bmat = rng.normal(size=(8, cols))
    bmat[3, 0] = np.nan
    guess = rng.normal(size=(8, cols))
    x = dense_from_numpy(ref, guess)
    with pytest.raises(BreakdownError) as err:
        make_solver(ref, a, algorithm=algorithm).solve(dense_from_numpy(ref, bmat), x)
    assert err.value.best is x
    assert np.array_equal(x.view2d()[:, 0], guess[:, 0])
    # the NaN column stops at iteration 0, after the finite one is solved
    assert (err.value.iterations == 0) == (cols == 1)


class TestFactoryValidation:
    def test_algorithm_names(self, ref):
        with pytest.raises(InvalidArgumentError, match="unknown algorithm 'qr'"):
            SolverFactory("qr", criteria=(Iteration(1),)).generate(
                csr_from_numpy(ref, np.eye(2))
            )

    def test_criteria_required(self, ref):
        with pytest.raises(InvalidArgumentError, match="criterion"):
            SolverFactory("cg").generate(csr_from_numpy(ref, np.eye(2)))

    def test_criteria_type_checked(self, ref):
        with pytest.raises(InvalidArgumentError, match="unknown stopping criterion"):
            SolverFactory("cg", criteria=("soon",)).generate(csr_from_numpy(ref, np.eye(2)))

    def test_square_matrix_required(self, ref):
        data = MatrixData((2, 3), [(0, 0, 1.0)])
        with pytest.raises(InvalidArgumentError, match="square"):
            SolverFactory("cg", criteria=(Iteration(1),)).generate(Csr.from_data(ref, data))

    def test_csr_required(self, ref):
        with pytest.raises(InvalidArgumentError, match="Csr"):
            SolverFactory("cg", criteria=(Iteration(1),)).generate(np.eye(2))

    def test_restart_bound(self, ref):
        with pytest.raises(InvalidArgumentError, match="restart"):
            SolverFactory("gmres", criteria=(Iteration(1),), restart=0).generate(
                csr_from_numpy(ref, np.eye(2))
            )

    def test_preconditioner_names(self, ref):
        with pytest.raises(InvalidArgumentError, match="ilu"):
            SolverFactory("cg", criteria=(Iteration(1),), preconditioner="ilu").generate(
                csr_from_numpy(ref, np.eye(2))
            )


@pytest.mark.parametrize("factory, op_size, match", [
    (SolverFactory("qr", criteria=(Iteration(1),)), 2, "unknown algorithm 'qr'"),
    (SolverFactory("cg"), 2, "criterion"),
    (SolverFactory("cg", criteria=("soon",)), 2, "unknown stopping criterion"),
    (SolverFactory("cg", criteria=(Iteration(1),), preconditioner="ilu"), 2, "ilu"),
    (SolverFactory("gmres", criteria=(Iteration(1),), restart=0), 2, "restart"),
    (SolverFactory("cg", criteria=(Iteration(1),)), (2, 3), "square"),
], ids=["algorithm", "no criteria", "criterion type", "preconditioner", "restart", "square"])
def test_direct_construction_checks_the_configuration(ref, factory, op_size, match):
    """``Solver(factory, op)`` for a matrix-free operator checks what
    ``generate`` would have."""
    op = _Laplacian1D(ref, op_size) if op_size == 2 else Dense.create(ref, op_size)
    with pytest.raises(InvalidArgumentError, match=match):
        Solver(factory, op)


@pytest.mark.parametrize("algorithm, preconditioner", [
    ("cg", "jacobi"), ("gmres", "jacobi"), ("lu", None), ("gmres_lu", None)])
def test_operator_without_stored_entries_is_refused_what_needs_them(ref, algorithm,
                                                                     preconditioner):
    """Jacobi reads the stored diagonal and LU factorizes the stored entries,
    so a matrix-free operator or a Dense one is refused with a named error."""
    factory = SolverFactory(algorithm, criteria=(Iteration(1),), preconditioner=preconditioner)
    for op in (_Laplacian1D(ref, 4), Dense.create(ref, (4, 4))):
        with pytest.raises(InvalidArgumentError, match="needs a Csr"):
            Solver(factory, op)


def test_parallel_backend_produces_the_same_history(par, ref, rng):
    a = random_spd_dense(rng, 16)
    b = rng.normal(size=16)
    for algorithm in ("cg", "gmres", "gmres_lu"):  # GMRES(5) restarts
        histories = {}
        for exec_ in (ref, par):
            solver = make_solver(exec_, a, algorithm=algorithm, reduction=1e-11, restart=5)
            x = Dense.create(exec_, (16, 1))
            hist = []
            solver.solve(dense_from_numpy(exec_, b), x, callback=lambda k, r: hist.append((k, r)))
            histories[exec_.kind.value] = (hist, x.view2d()[:, 0].view(np.uint64).copy())
        # the lane core runs the same numpy calls on both kinds, so the
        # parallel run executes identical arithmetic
        assert histories["reference"][0] == histories["parallel"][0], algorithm
        assert np.array_equal(histories["reference"][1], histories["parallel"][1]), algorithm


def test_heat_cg_from_a_random_rhs_is_bitwise_equal_across_kinds_and_spmv_bodies(monkeypatch):
    """The whole CG+Jacobi loop, hundreds of iterations, gives the same bits
    on reference and parallel(2) and on both SpMV bodies.

    The heat demo's own right-hand side is a stencil eigenvector and
    converges in one iteration, so a seeded random one is used instead.
    """
    grid = 64
    n = grid * grid
    data = MatrixData((n, n), assemble_poisson(grid))
    b0 = np.random.default_rng(64).standard_normal(n)
    outcomes = {}
    for body in ("compiled", "numpy") if COMPILED_SPMV is not None else ("numpy",):
        spy = use_spmv_body(monkeypatch, body)
        for name, workers in (("reference", None), ("parallel", 2)):
            exec_ = executor_from_name(name, workers)
            factory = SolverFactory(
                "cg", criteria=(Iteration(5000), ResidualNorm(1e-10)), preconditioner="jacobi"
            )
            solver = factory.generate(Csr.from_data(exec_, data))
            x = Dense.create(exec_, (n, 1))
            report = solver.solve(dense_from_numpy(exec_, b0), x)
            assert report.converged and report.iterations > 200
            outcomes[body, name] = (report, x.view2d().copy())
        if spy is not None:
            assert spy.calls > 400  # every SpMV of both solves ran compiled
    (report, x), *others = outcomes.values()
    for other_report, other_x in others:
        assert other_report == report
        assert np.array_equal(other_x.view(np.uint64), x.view(np.uint64))


class _ApplyCounter(Csr):
    """A Csr whose public applies count themselves, as a tracing subclass would."""

    calls = 0

    def apply(self, b, x):
        self.calls += 1
        super().apply(b, x)

    def advanced_apply(self, alpha, b, beta, x):
        self.calls += 1
        super().advanced_apply(alpha, b, beta, x)


@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_krylov_loops_skip_the_vector_checks(ref, rng, monkeypatch, algorithm):
    """Only ``Solver.solve`` checks its vectors; the loop's own applies do not."""
    checks = []
    real = LinOp._check_vectors
    monkeypatch.setattr(LinOp, "_check_vectors", lambda op, b, x: checks.append(op) or real(op, b, x))
    solver = make_solver(ref, random_spd_dense(rng, 12), algorithm=algorithm)
    report = solver.solve(dense_from_numpy(ref, rng.normal(size=12)), Dense.create(ref, (12, 1)))
    assert report.converged and report.iterations > 3
    assert checks == [solver]
    with pytest.raises(InvalidArgumentError, match="alias"):
        v = Dense.create(ref, (12, 1))
        solver.system_matrix.apply(v, v)


class _PlainCsr(Csr):
    """A Csr subclass that overrides nothing, so it keeps Csr's lane apply."""


@pytest.mark.parametrize("matrix", [Csr, _PlainCsr], ids=["Csr", "Csr subclass"])
@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_plain_csr_lanes_go_straight_to_the_spmv_kernel(ref, rng, monkeypatch, algorithm, matrix):
    """No Dense is built per lane apply for a Csr that overrides no apply."""
    factory = SolverFactory(algorithm, (Iteration(200), ResidualNorm(1e-12)))
    solver = factory.generate(matrix.from_data(ref, data_from_numpy(random_spd_dense(rng, 12))))
    b, x = dense_from_numpy(ref, rng.normal(size=12)), Dense.create(ref, (12, 1))
    built, real = [], Dense.__init__
    monkeypatch.setattr(Dense, "__init__", lambda *args: built.append(1) or real(*args))
    report = solver.solve(b, x)
    assert report.converged and report.iterations > 3 and not built


@pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
def test_krylov_loops_call_an_apply_override(ref, rng, algorithm):
    dense = random_spd_dense(rng, 12)
    counted = _ApplyCounter.from_data(ref, data_from_numpy(dense))
    factory = SolverFactory(algorithm, criteria=(Iteration(200), ResidualNorm(1e-12)))
    x = Dense.create(ref, (12, 1))
    report = factory.generate(counted).solve(dense_from_numpy(ref, rng.normal(size=12)), x)
    assert report.converged
    assert counted.calls >= report.iterations
