"""Batched solves against the one-at-a-time solvers they must reproduce."""

import numpy as np
import pytest

from linopkit import batched
from linopkit.batched import BatchCsr, BatchDense, _flat_rows, _spmv_block, batch_solve
from linopkit.container import MatrixData, copy_stats, reset_copy_stats
from linopkit.errors import BreakdownError, InvalidArgumentError
from linopkit.executor import executor_from_name
from linopkit.linop import Dense
from linopkit.solver import Iteration, ResidualNorm, SolverFactory

from helpers import dense_from_numpy, random_dd_dense, random_spd_dense

# The recurrences divide without masks once stopped systems have left, so a
# division on a system that should have stopped must fail loudly.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def full_pattern(n):
    """Template with every (i, j) present, so dense values map 1:1 in
    row-major order."""
    return MatrixData((n, n), [(i, j, 1.0) for i in range(n) for j in range(n)])


def build_batch(exec_, dense_stack):
    num, n, _ = dense_stack.shape
    values = dense_stack.reshape(num, n * n)
    return BatchCsr.from_template(exec_, num, full_pattern(n), values)


def solo_solve(exec_, a_csr, bvec, algorithm, criteria, preconditioner=None):
    factory = SolverFactory(algorithm, criteria=criteria, preconditioner=preconditioner)
    solver = factory.generate(a_csr)
    x = Dense.create(exec_, (a_csr.size.rows, 1))
    report = solver.solve(dense_from_numpy(exec_, bvec), x)
    return x.view2d()[:, 0].copy(), report


CRITERIA = (Iteration(60), ResidualNorm(1e-11))
MIXED_CRITERIA = (Iteration(8), ResidualNorm(1e-11))
MIXED_REASONS = {"residual_norm", "iteration", "breakdown", "singular_preconditioner"}


def mixed_exit_batch(rng):
    """37 systems of size 6 that, under MIXED_CRITERIA with Jacobi, stop for
    every reason: system 3 has a zero diagonal, system 8 (all ones, b summing
    to 0) breaks down, system 20 (condition number 1e6) hits the iteration
    cap and the rest converge within 6 iterations.
    """
    num, n = 37, 6
    stack = np.stack([random_spd_dense(rng, n) for _ in range(num)])
    bv = rng.normal(size=(num, n, 1))
    stack[3, 2, 2] = 0.0
    stack[8] = 1.0
    bv[8, :, 0] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    stack[20] = (q * np.geomspace(1e-6, 1.0, n)) @ q.T
    return stack, bv


def solve_outcome(exec_, stack, bv, algorithm, criteria, preconditioner):
    """Everything a batched solve reports, per system."""
    a = build_batch(exec_, stack)
    b = BatchDense.from_values(exec_, bv.copy())
    x = BatchDense.zeros(exec_, stack.shape[0], (stack.shape[1], 1))
    report = batch_solve(algorithm, a, b, x, criteria, preconditioner=preconditioner)
    return {
        "x": x.values.copy(),
        "iterations": report.iterations.copy(),
        "stop_reasons": np.array(report.stop_reasons),
        "converged": report.converged.copy(),
        "final_residual_norms": report.final_residual_norms.copy(),
    }


def assert_same_bits(expected, actual, context):
    for key, want in expected.items():
        got = actual[key]
        if want.dtype == np.float64:
            want, got = want.view(np.uint64), got.view(np.uint64)
        assert np.array_equal(want, got), (key, context)


class TestAgainstSingleSolves:
    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
    def test_batch_equals_loop_of_singles(self, ref, rng, algorithm):
        num, n = 40, 6
        if algorithm == "cg":
            stack = np.stack([random_spd_dense(rng, n) for _ in range(num)])
        else:
            stack = np.stack([random_dd_dense(rng, n) for _ in range(num)])
        a = build_batch(ref, stack)
        bv = rng.normal(size=(num, n, 1))
        b = BatchDense.from_values(ref, bv)
        x = BatchDense.zeros(ref, num, (n, 1))

        report = batch_solve(algorithm, a, b, x, CRITERIA)

        for k in range(num):
            xk, rk = solo_solve(ref, a.extract_system(k), bv[k, :, 0], algorithm, CRITERIA)
            assert rk.iterations == report.iterations[k], f"system {k}"
            dev = np.abs(x.system_view(k)[:, 0] - xk).max()
            assert dev <= 1e-12 * max(1.0, np.abs(xk).max()), f"system {k}"
            assert report.stop_reasons[k] == rk.stop_reason
            assert bool(report.converged[k]) == rk.converged

    def test_jacobi_matches_singles(self, ref, rng):
        num, n = 12, 5
        stack = np.stack([random_spd_dense(rng, n) for _ in range(num)])
        a = build_batch(ref, stack)
        bv = rng.normal(size=(num, n, 1))
        b = BatchDense.from_values(ref, bv)
        x = BatchDense.zeros(ref, num, (n, 1))
        report = batch_solve("cg", a, b, x, CRITERIA, preconditioner="jacobi")
        for k in range(num):
            xk, rk = solo_solve(
                ref, a.extract_system(k), bv[k, :, 0], "cg", CRITERIA, "jacobi"
            )
            assert rk.iterations == report.iterations[k]
            assert np.allclose(x.system_view(k)[:, 0], xk, rtol=1e-12, atol=1e-14)

    def test_each_system_stops_by_its_own_criteria(self, ref, rng):
        # an identity system converges immediately; a generic SPD one does not
        easy = np.eye(4)
        hard = random_spd_dense(rng, 4)
        a = build_batch(ref, np.stack([easy, hard]))
        bv = rng.normal(size=(2, 4, 1))
        b = BatchDense.from_values(ref, bv)
        x = BatchDense.zeros(ref, 2, (4, 1))
        report = batch_solve("cg", a, b, x, CRITERIA)
        assert report.converged.all()
        assert report.iterations[0] == 1
        assert report.iterations[1] > report.iterations[0]


class TestFaultIsolation:
    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
    def test_breakdown_stays_contained(self, ref, rng, algorithm):
        num, n = 5, 4
        stack = np.stack([random_spd_dense(rng, n) for _ in range(num)])
        stack[2] = 0.0  # this system cannot produce a search direction
        a = build_batch(ref, stack)
        bv = rng.normal(size=(num, n, 1))
        b = BatchDense.from_values(ref, bv)
        x = BatchDense.zeros(ref, num, (n, 1))
        report = batch_solve(algorithm, a, b, x, CRITERIA)

        assert report.stop_reasons[2] == "breakdown"
        assert not report.converged[2]
        for k in (0, 1, 3, 4):
            assert report.converged[k], k
            assert report.stop_reasons[k] == "residual_norm"

        # the solo solver fails the same way at the same point
        with pytest.raises(BreakdownError) as err:
            solo_solve(ref, a.extract_system(2), bv[2, :, 0], algorithm, CRITERIA)
        assert err.value.iterations == report.iterations[2]

    def test_omega_collapse_stays_contained(self, ref, rng):
        # t . s is exactly 0 in the first iteration, so omega collapses to 0,
        # which leaves rho = 0 in the second: the system must stop there
        # before anything divides by omega, as the solo solver does.
        omega_zero = np.array([[-1.0, -1.0], [0.0, 2.0]])
        a = build_batch(ref, np.stack([omega_zero, random_dd_dense(rng, 2)]))
        bv = np.array([[1.0, -1.0], rng.normal(size=2)])[:, :, None]
        b = BatchDense.from_values(ref, bv)
        x = BatchDense.zeros(ref, 2, (2, 1))
        report = batch_solve("bicgstab", a, b, x, CRITERIA)
        assert report.stop_reasons == ["breakdown", "residual_norm"]
        assert report.iterations[0] == 1 and not report.converged[0]
        with pytest.raises(BreakdownError) as err:
            solo_solve(ref, a.extract_system(0), bv[0, :, 0], "bicgstab", CRITERIA)
        assert err.value.iterations == report.iterations[0]

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
    def test_final_norms_follow_the_stop_reason(self, ref, rng, algorithm):
        stack, bv = mixed_exit_batch(rng)
        out = solve_outcome(ref, stack, bv, algorithm, MIXED_CRITERIA, "jacobi")
        final, reasons = out["final_residual_norms"], out["stop_reasons"]
        r0 = np.linalg.norm(bv[:, :, 0], axis=1)  # x starts at 0
        target = MIXED_CRITERIA[1].reduction_factor * r0 * (1 + 1e-12)
        converged = reasons == "residual_norm"
        assert (final[converged] <= target[converged]).all()
        assert (final[reasons == "iteration"] > target[reasons == "iteration"]).all()
        at_start = out["iterations"] == 0  # singular, and the breakdown system
        assert at_start.sum() == 2
        assert np.allclose(final[at_start], r0[at_start], rtol=1e-14, atol=0.0)
        ax = np.einsum("kij,kj->ki", stack, out["x"][:, :, 0])
        true = np.linalg.norm(bv[:, :, 0] - ax, axis=1)
        assert (true[converged] <= 1e-9 * r0[converged]).all()

    def test_zero_diagonal_marks_only_that_system_singular(self, ref, rng):
        num, n = 4, 3
        stack = np.stack([random_spd_dense(rng, n) for _ in range(num)])
        stack[1, 0, 0] = 0.0
        a = build_batch(ref, stack)
        b = BatchDense.from_values(ref, rng.normal(size=(num, n, 1)))
        x = BatchDense.zeros(ref, num, (n, 1))
        report = batch_solve("cg", a, b, x, CRITERIA, preconditioner="jacobi")
        assert report.stop_reasons[1] == "singular_preconditioner"
        assert report.iterations[1] == 0
        assert not report.converged[1]
        for k in (0, 2, 3):
            assert report.converged[k]

    def test_structurally_missing_diagonal_fails_the_batch(self, ref):
        template = MatrixData((2, 2), [(0, 0, 1.0), (1, 0, 1.0)])  # no (1,1)
        a = BatchCsr.from_template(ref, 2, template, np.ones((2, 2)))
        b = BatchDense.from_values(ref, np.ones((2, 2, 1)))
        x = BatchDense.zeros(ref, 2, (2, 1))
        report = batch_solve("cg", a, b, x, CRITERIA, preconditioner="jacobi")
        assert all(r == "singular_preconditioner" for r in report.stop_reasons)


class TestSharedStorage:
    def test_extract_system_is_zero_copy(self, ref, rng):
        stack = np.stack([random_spd_dense(rng, 3) for _ in range(4)])
        a = build_batch(ref, stack)
        reset_copy_stats()
        sys2 = a.extract_system(2)
        stats = copy_stats()
        assert stats.element_copies == 0 and stats.matrix_conversions == 0
        assert np.shares_memory(sys2.get_values(const=True).numpy(), a.values)

    def test_batch_value_writes_show_through_extracted_systems(self, ref, rng):
        stack = np.stack([random_spd_dense(rng, 3) for _ in range(2)])
        a = build_batch(ref, stack)
        sys0 = a.extract_system(0)
        a.values[0, 0] = 123.0
        assert sys0.to_dense()[0, 0] == 123.0

    def test_extract_bounds(self, ref, rng):
        a = build_batch(ref, np.stack([random_spd_dense(rng, 3)]))
        with pytest.raises(InvalidArgumentError, match="out of range"):
            a.extract_system(1)

    def test_system_view_shares_memory(self, ref):
        b = BatchDense.zeros(ref, 3, (2, 1))
        b.system_view(1)[0, 0] = 7.0
        assert b.values[1, 0, 0] == 7.0


class TestParallelPartitioning:
    def test_results_bitwise_identical_across_worker_counts(self, rng):
        # 37 systems, so every partition is uneven; the mixed exits make
        # systems leave at different iterations in every block.
        stack, bv = mixed_exit_batch(rng)
        for algorithm in ("cg", "bicgstab"):
            outcomes = [
                solve_outcome(executor_from_name(backend, wc), stack, bv, algorithm,
                              MIXED_CRITERIA, "jacobi")
                for backend, wc in (("reference", None), ("parallel", 1), ("parallel", 2),
                                    ("parallel", 4))
            ]
            assert set(outcomes[0]["stop_reasons"]) == MIXED_REASONS, algorithm
            for wc, outcome in zip((1, 2, 4), outcomes[1:]):
                assert_same_bits(outcomes[0], outcome, (algorithm, wc))


class TestLaneIndependence:
    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
    @pytest.mark.parametrize("preconditioner", [None, "jacobi"])
    def test_sub_batch_gives_the_same_bits(self, ref, rng, algorithm, preconditioner):
        """A system's result does not depend on which other systems share its
        batch, nor on when they stop."""
        stack, bv = mixed_exit_batch(rng)
        whole = solve_outcome(ref, stack, bv, algorithm, MIXED_CRITERIA, preconditioner)
        for start in (0, 1):  # every other system, both halves
            sub = solve_outcome(ref, stack[start::2], bv[start::2], algorithm,
                                MIXED_CRITERIA, preconditioner)
            expected = {key: value[start::2] for key, value in whole.items()}
            assert_same_bits(expected, sub, (algorithm, preconditioner, start))

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
    def test_lane_groups_give_the_same_bits(self, ref, rng, monkeypatch, algorithm):
        stack, bv = mixed_exit_batch(rng)
        whole = solve_outcome(ref, stack, bv, algorithm, MIXED_CRITERIA, "jacobi")
        monkeypatch.setattr(batched, "GROUP_ENTRIES", 5 * stack.shape[1] ** 2)  # 5 systems
        grouped = solve_outcome(ref, stack, bv, algorithm, MIXED_CRITERIA, "jacobi")
        assert_same_bits(whole, grouped, algorithm)


class TestSpmvBlock:
    @staticmethod
    def _old_formula(vals, row_ids, col_idxs, n, xb):
        """The per-system SpMV the block kernel must reproduce bit for bit."""
        m = xb.shape[0]
        flat = (np.arange(m)[:, None] * n + row_ids[None, :]).ravel()
        prod = vals * xb[:, col_idxs]
        return np.bincount(flat, weights=prod.ravel(), minlength=m * n).reshape(m, n)

    def test_bitwise_equal_to_bincount_formula(self, ref, rng):
        n, num = 6, 9
        entries = [(0, 0), (0, 3), (0, 5), (2, 1), (2, 2), (3, 0), (3, 3), (3, 4),
                   (3, 5), (4, 4), (5, 2)]  # row 1 is empty
        template = MatrixData((n, n), [(i, j, 1.0) for i, j in entries])
        a = BatchCsr.from_template(ref, num, template, rng.normal(size=(num, len(entries))))
        row_ids, col_idxs = a._row_ids, a.col_idxs
        xb = rng.normal(size=(num, n))
        xb[0, 3] = xb[4, 0] = -0.0
        xb[2, 5] = np.inf
        xb[5, 0] = -np.inf
        xb[7, 3] = np.nan
        flat = _flat_rows(row_ids, n, num)
        with np.errstate(invalid="ignore"):
            for lanes in (np.arange(num), np.arange(4), np.array([1, 2, 5, 7, 8])):
                vals = a.values[lanes]
                expected = self._old_formula(vals, row_ids, col_idxs, n, xb[lanes])
                got = _spmv_block(vals, flat, col_idxs, n, xb[lanes])
                assert got.shape == (len(lanes), n)
                assert np.array_equal(expected.view(np.uint64), got.view(np.uint64)), lanes
        assert np.isnan(expected).any() and np.isinf(got).any() and (got[:, 1] == 0.0).all()


class TestValidation:
    def _tiny(self, ref):
        a = BatchCsr.from_template(ref, 2, full_pattern(2), np.ones((2, 4)))
        b = BatchDense.zeros(ref, 2, (2, 1))
        x = BatchDense.zeros(ref, 2, (2, 1))
        return a, b, x

    def test_algorithm_restricted(self, ref):
        a, b, x = self._tiny(ref)
        with pytest.raises(InvalidArgumentError, match="gmres"):
            batch_solve("gmres", a, b, x, CRITERIA)

    def test_matrix_type_and_shape(self, ref):
        _, b, x = self._tiny(ref)
        with pytest.raises(InvalidArgumentError, match="BatchCsr"):
            batch_solve("cg", np.eye(2), b, x, CRITERIA)
        rect = BatchCsr.from_template(
            ref, 2, MatrixData((2, 3), [(0, 0, 1.0)]), np.ones((2, 1))
        )
        with pytest.raises(InvalidArgumentError, match="square"):
            batch_solve("cg", rect, b, x, CRITERIA)

    def test_vector_checks(self, ref):
        a, b, x = self._tiny(ref)
        with pytest.raises(InvalidArgumentError, match="BatchDense"):
            batch_solve("cg", a, np.zeros((2, 2, 1)), x, CRITERIA)
        wrong_count = BatchDense.zeros(ref, 3, (2, 1))
        with pytest.raises(InvalidArgumentError, match="holds 3 systems"):
            batch_solve("cg", a, wrong_count, x, CRITERIA)
        wide = BatchDense.zeros(ref, 2, (2, 2))
        with pytest.raises(InvalidArgumentError, match="one right-hand side"):
            batch_solve("cg", a, wide, x, CRITERIA)
        tall = BatchDense.zeros(ref, 2, (3, 1))
        with pytest.raises(InvalidArgumentError, match="rows"):
            batch_solve("cg", a, tall, x, CRITERIA)

    def test_criteria_and_preconditioner_checked(self, ref):
        a, b, x = self._tiny(ref)
        with pytest.raises(InvalidArgumentError, match="criterion"):
            batch_solve("cg", a, b, x, ())
        with pytest.raises(InvalidArgumentError, match="ilu"):
            batch_solve("cg", a, b, x, CRITERIA, preconditioner="ilu")

    def test_from_template_value_count(self, ref):
        with pytest.raises(InvalidArgumentError, match="expected 2 x 4"):
            BatchCsr.from_template(ref, 2, full_pattern(2), np.ones(7))

    def test_template_duplicates_collapse_before_the_value_check(self, ref):
        template = MatrixData((2, 2), [(0, 0, 1.0), (0, 0, 1.0), (1, 1, 1.0)])
        a = BatchCsr.from_template(ref, 3, template, np.ones((3, 2)))
        assert a.num_stored_elements == 2

    def test_batch_dense_shape_checks(self, ref):
        with pytest.raises(InvalidArgumentError, match="3-D"):
            BatchDense.from_values(ref, np.zeros((2, 2)))
        with pytest.raises(InvalidArgumentError, match="shape"):
            BatchDense(ref, 2, (2, 1), np.zeros((2, 3, 1)))

    def test_report_num_systems(self, ref, rng):
        a = build_batch(ref, np.stack([random_spd_dense(rng, 3)] * 2))
        b = BatchDense.from_values(ref, rng.normal(size=(2, 3, 1)))
        x = BatchDense.zeros(ref, 2, (3, 1))
        assert batch_solve("cg", a, b, x, CRITERIA).num_systems == 2
