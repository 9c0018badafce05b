"""Batched solves against the one-at-a-time solvers they must reproduce."""

import numpy as np
import pytest

from linopkit import batched, kernels, solver
from linopkit.batched import BatchCsr, BatchDense, batch_solve
from linopkit.container import MatrixData, array_view, copy_stats, reset_copy_stats
from linopkit.errors import BreakdownError, DimensionError, InvalidArgumentError
from linopkit.executor import executor_from_name
from linopkit.linop import Csr, Dense
from linopkit.solver import Iteration, ResidualNorm, SolverFactory

from helpers import COMPILED_SPMV, dense_from_numpy, random_dd_dense, random_spd_dense, use_spmv_body

# Lane blocks run with floating-point errors ignored, at every lane count: a
# stopped system keeps its row until the next compaction, and its discarded
# arithmetic there may divide by zero unseen.  Any other RuntimeWarning fails.
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


def spmv_bodies(monkeypatch):
    """Select each available SpMV body in turn, yielding its counting spy
    (None for the numpy body)."""
    for body in ("compiled", "numpy") if COMPILED_SPMV is not None else ("numpy",):
        yield use_spmv_body(monkeypatch, body)


def assert_compiled_ran(spy):
    """On the compiled body, the solves really called it: a silent fallback
    to the numpy body must not pass for it."""
    if spy is not None:
        assert spy.calls > 0


def assert_batch_equals_singles(exec_, a, bv, x, report, algorithm, preconditioner,
                                systems=None):
    """Every system's (or every one in ``systems``') solution, iterations, stop
    reason, convergence flag and final norm are bit for bit those of its single
    solve."""
    for k in range(a.num_systems) if systems is None else systems:
        xk, rk = solo_solve(exec_, a.extract_system(k), bv[k, :, 0], algorithm, CRITERIA,
                            preconditioner)
        context = (algorithm, preconditioner, k)
        assert np.array_equal(x.values[k][:, 0].view(np.uint64), xk.view(np.uint64)), context
        assert report.iterations[k] == rk.iterations, context
        assert report.stop_reasons[k] == rk.stop_reason, context
        assert bool(report.converged[k]) == rk.converged, context
        assert report.final_residual_norms[k:k + 1].view(np.uint64) == np.float64(
            rk.final_residual_norm).view(np.uint64), context


class TestAgainstSingleSolves:
    """Batched and single solves run the same recurrence, so they agree bit
    for bit, on either SpMV body."""

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
    def test_batch_equals_loop_of_singles(self, ref, rng, monkeypatch, algorithm):
        num, n = 40, 6
        if algorithm == "cg":
            stack = np.stack([random_spd_dense(rng, n) for _ in range(num)])
        else:
            stack = np.stack([random_dd_dense(rng, n) for _ in range(num)])
        a = build_batch(ref, stack)
        bv = rng.normal(size=(num, n, 1))
        b = BatchDense.from_values(ref, bv)

        for spy in spmv_bodies(monkeypatch):
            for preconditioner in (None, "jacobi"):
                x = BatchDense.zeros(ref, num, (n, 1))
                report = batch_solve(algorithm, a, b, x, CRITERIA, preconditioner=preconditioner)
                assert_compiled_ran(spy)
                assert report.converged.all()
                assert_batch_equals_singles(ref, a, bv, x, report, algorithm, preconditioner)

    def test_jacobi_matches_singles(self, ref, rng, monkeypatch):
        num, n = 12, 5
        stack = np.stack([random_dd_dense(rng, n) for _ in range(num)])
        stack[:6] = [random_spd_dense(rng, n) for _ in range(6)]
        stack[:, 0, 0] *= 1e3  # ill-scaled, so Jacobi changes every iterate
        a = build_batch(ref, stack)
        bv = rng.normal(size=(num, n, 1))
        for spy in spmv_bodies(monkeypatch):
            for algorithm, systems in (("cg", slice(0, 6)), ("bicgstab", slice(None))):
                sub = build_batch(ref, stack[systems])
                x = BatchDense.zeros(ref, sub.num_systems, (n, 1))
                report = batch_solve(algorithm, sub, BatchDense.from_values(ref, bv[systems]), x,
                                     CRITERIA, preconditioner="jacobi")
                assert_compiled_ran(spy)
                assert report.converged.all()
                assert_batch_equals_singles(ref, sub, bv[systems], x, report, algorithm, "jacobi")

    def test_each_system_stops_by_its_own_criteria(self, ref, rng, monkeypatch):
        # an identity system converges immediately; a generic SPD one does not
        easy = np.eye(4)
        hard = random_spd_dense(rng, 4)
        a = build_batch(ref, np.stack([easy, hard]))
        bv = rng.normal(size=(2, 4, 1))
        b = BatchDense.from_values(ref, bv)
        for spy in spmv_bodies(monkeypatch):
            x = BatchDense.zeros(ref, 2, (4, 1))
            report = batch_solve("cg", a, b, x, CRITERIA)
            assert_compiled_ran(spy)
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


class TestDeadLanes:
    """A stopped system keeps its row, dead, until the live systems fall to half
    the rows held; nothing computed there may reach any result."""

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
    def test_mixed_stops_match_single_solves_and_stay_put(self, ref, rng, monkeypatch,
                                                          algorithm):
        # 0: b = 0, solved at iteration 0; 1: the identity, one iteration;
        # 2: all ones against a zero-sum b, breaks down; 3: a zero diagonal;
        # 4-5 well conditioned; 6-11 condition number 1e4, 15+ iterations.
        num, n = 12, 24
        stack = np.stack([random_spd_dense(rng, n) for _ in range(num)])
        for k in range(6, num):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            stack[k] = (q * np.geomspace(1e-4, 1.0, n)) @ q.T
        stack[1], stack[2], stack[3, 5, 5] = np.eye(n), 1.0, 0.0
        bv = rng.normal(size=(num, n, 1))
        bv[0] = 0.0
        bv[2, :, 0] = np.tile([1.0, -1.0], n // 2)
        a = build_batch(ref, stack)

        real_stop, stops, dead = solver._Lanes.stop, {}, []

        def spying_stop(lanes, *args):
            """Record each system's x when it stops, and how many dead rows stay;
            a stop never compacts (only ``check`` does)."""
            held = lanes.held
            result = real_stop(lanes, *args)
            assert lanes.held == held
            xv, _, _, reasons = lanes._out
            for slot in np.flatnonzero(np.not_equal(reasons, None)):
                stops.setdefault(slot, xv[slot].copy())
            dead.append(lanes.held - lanes.count)
            return result

        monkeypatch.setattr(solver._Lanes, "stop", spying_stop)
        for spy in spmv_bodies(monkeypatch):
            stops.clear()
            dead.clear()
            x = BatchDense.zeros(ref, num, (n, 1))
            report = batch_solve(algorithm, a, BatchDense.from_values(ref, bv), x, CRITERIA,
                                 preconditioner="jacobi")
            assert_compiled_ran(spy)
            assert max(dead) > 0 and len(stops) == num
            for k, at_stop in stops.items():
                assert np.array_equal(x.values[k][:, 0].view(np.uint64),
                                      at_stop.view(np.uint64)), (algorithm, k)
            iterations, reasons = report.iterations, report.stop_reasons
            assert (iterations[0], iterations[1]) == (0, 1) and iterations[6:].min() >= 15
            assert (reasons[2], reasons[3]) == ("breakdown", "singular_preconditioner")
            assert iterations[3] == 0 and not x.values[3].any()
            with pytest.raises(BreakdownError) as err:
                solo_solve(ref, a.extract_system(2), bv[2, :, 0], algorithm, CRITERIA, "jacobi")
            assert err.value.iterations == iterations[2]
            assert np.array_equal(x.values[2], err.value.best.view2d())
            assert_batch_equals_singles(ref, a, bv, x, report, algorithm, "jacobi",
                                        [k for k in range(num) if k not in (2, 3)])


class TestSharedStorage:
    def test_extract_system_is_zero_copy(self, ref, rng):
        stack = np.stack([random_spd_dense(rng, 3) for _ in range(4)])
        a = build_batch(ref, stack)
        reset_copy_stats()
        sys2 = a.extract_system(2)
        stats = copy_stats()
        assert stats.element_copies == 0 and stats.matrix_conversions == 0
        assert np.shares_memory(sys2.get_values(const=True).numpy(), a.values[2])
        assert sys2._pattern is a._pattern

    def test_batch_value_writes_show_through_extracted_systems(self, ref, rng):
        stack = np.stack([random_spd_dense(rng, 3) for _ in range(2)])
        a = build_batch(ref, stack)
        sys0 = a.extract_system(0)
        a.values[0, 0] = 123.0
        assert sys0.to_dense()[0, 0] == 123.0

    def test_from_template_keeps_a_contiguous_float64_block(self, ref, rng):
        block = np.stack([random_spd_dense(rng, 3) for _ in range(4)]).reshape(4, 9)
        a = BatchCsr.from_template(ref, 4, full_pattern(3), block)
        assert np.shares_memory(a.values, block)

    def test_writes_to_the_borrowed_block_show_in_the_next_solve(self, ref, rng):
        stack = np.stack([random_spd_dense(rng, 3) for _ in range(3)])
        block = stack.reshape(3, 9).copy()
        a = BatchCsr.from_template(ref, 3, full_pattern(3), block)
        bvals = rng.normal(size=(3, 3, 1))

        def solve(batch):
            x = BatchDense.zeros(ref, 3, (3, 1))
            batch_solve("cg", batch, BatchDense.from_values(ref, bvals), x, CRITERIA)
            return x.values.view(np.uint64)

        before = solve(a)
        block[1] *= 2.0
        after = solve(a)
        assert np.array_equal(after, solve(build_batch(ref, block.reshape(3, 3, 3).copy())))
        assert np.array_equal(after[[0, 2]], before[[0, 2]])
        assert not np.array_equal(after[1], before[1])

    @pytest.mark.parametrize("convert", [np.ndarray.tolist,
                                         lambda v: v.astype(np.float32),
                                         np.asfortranarray])
    def test_other_value_inputs_get_a_contiguous_float64_copy(self, ref, rng, convert):
        stack = np.stack([random_spd_dense(rng, 3) for _ in range(3)])
        given = convert(stack.reshape(3, 9))
        expected = np.array(given, dtype=np.float64)  # a float64 block of its own
        a = BatchCsr.from_template(ref, 3, full_pattern(3), given)
        assert a.values.dtype == np.float64 and a.values.flags.c_contiguous
        assert not np.shares_memory(a.values, np.asarray(given))
        assert np.array_equal(a.values, expected)
        b = rng.normal(size=(3, 3, 1))
        xs = [BatchDense.zeros(ref, 3, (3, 1)) for _ in range(2)]
        for batch, x in zip((a, BatchCsr.from_template(ref, 3, full_pattern(3), expected)), xs):
            batch_solve("bicgstab", batch, BatchDense.from_values(ref, b), x, CRITERIA)
        assert np.array_equal(xs[0].values.view(np.uint64), xs[1].values.view(np.uint64))

    def test_fortran_ordered_values_run_the_compiled_body(self, ref, rng, monkeypatch):
        """The constructor makes a Fortran-ordered value block C-contiguous, so
        every SpMV of its solve is compiled, with the C-ordered block's bits."""
        spy = use_spmv_body(monkeypatch, "compiled")
        stack, bv = mixed_exit_batch(rng)
        num, n, _ = stack.shape
        rp, ci = np.arange(0, n * n + 1, n), np.tile(np.arange(n), n)
        block = stack.reshape(num, n * n)
        solves = []
        for values in (block, np.asfortranarray(block)):
            a = BatchCsr(ref, num, (n, n), rp, ci, values)
            x = BatchDense.zeros(ref, num, (n, 1))
            spy.calls = 0
            batch_solve("bicgstab", a, BatchDense.from_values(ref, bv), x, MIXED_CRITERIA, "jacobi")
            assert_compiled_ran(spy)
            solves.append((spy.calls, x.values.view(np.uint64)))
        assert solves[0][0] == solves[1][0]
        assert np.array_equal(solves[0][1], solves[1][1])

    def test_extract_bounds(self, ref, rng):
        a = build_batch(ref, np.stack([random_spd_dense(rng, 3)]))
        with pytest.raises(InvalidArgumentError, match="out of range"):
            a.extract_system(1)

    def test_pattern_is_checked_and_frozen_by_either_constructor(self, ref):
        rp, ci = np.array([0, 1, 3], dtype=np.int64), np.array([0, 0, 1], dtype=np.int64)
        public = BatchCsr(ref, 1, (2, 2), rp, ci, np.ones((1, 3)))
        # the caller's arrays are copied, and stay the caller's to change
        assert not np.shares_memory(public.col_idxs, ci) and ci.flags.writeable
        template = MatrixData((2, 2), [(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
        converted = BatchCsr.from_template(ref, 1, template, np.ones(3))
        for a in (public, converted):
            assert list(a.row_ptrs) == [0, 1, 3] and list(a.col_idxs) == [0, 0, 1]
            assert a._pattern.frozen() and (a._pattern.lanes, a._pattern.cols) == (1, 2)
            assert a.extract_system(0)._pattern is a._pattern


class TestParallelPartitioning:
    def test_results_bitwise_identical_across_worker_counts(self, rng, monkeypatch):
        # 37 systems, so every partition is uneven; the mixed exits make
        # systems leave at different iterations in every block.  Every SpMV
        # body gives the same bits too.
        stack, bv = mixed_exit_batch(rng)
        expected = {}
        for spy in spmv_bodies(monkeypatch):
            for algorithm in ("cg", "bicgstab"):
                outcomes = [
                    solve_outcome(executor_from_name(backend, wc), stack, bv, algorithm,
                                  MIXED_CRITERIA, "jacobi")
                    for backend, wc in (("reference", None), ("parallel", 1), ("parallel", 2),
                                        ("parallel", 4))
                ]
                assert set(outcomes[0]["stop_reasons"]) == MIXED_REASONS, algorithm
                expected.setdefault(algorithm, outcomes[0])
                for wc, outcome in zip((None, 1, 2, 4), outcomes):
                    assert_same_bits(expected[algorithm], outcome, (algorithm, wc, spy))
            assert_compiled_ran(spy)

    def test_gmres_jacobi_gives_the_reference_bits(self, rng, monkeypatch):
        """Each pool size splits the 37 systems differently; no result may move."""
        stack, bv = mixed_exit_batch(rng)
        args = (stack, bv, "gmres", MIXED_CRITERIA, "jacobi")
        for spy in spmv_bodies(monkeypatch):
            expected = solve_outcome(executor_from_name("reference"), *args)
            for wc in (2, 3):
                outcome = solve_outcome(executor_from_name("parallel", wc), *args)
                assert_same_bits(expected, outcome, (wc, spy))
            assert_compiled_ran(spy)


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

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab", "gmres"])
    def test_lane_groups_give_the_same_bits(self, ref, rng, monkeypatch, algorithm):
        stack, bv = mixed_exit_batch(rng)
        whole = solve_outcome(ref, stack, bv, algorithm, MIXED_CRITERIA, "jacobi")
        n = stack.shape[1]
        monkeypatch.setattr(batched, "GROUP_WORDS", 5 * solver._lane_words(algorithm, n, n * n))
        for spy in spmv_bodies(monkeypatch):
            grouped = solve_outcome(ref, stack, bv, algorithm, MIXED_CRITERIA, "jacobi")
            assert_same_bits(whole, grouped, (algorithm, spy))
            assert_compiled_ran(spy)


@pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
def test_exactly_solved_systems_converge_under_an_iteration_criterion_alone(ref, algorithm):
    """The identity with b = [1, -2, 3] and with b = 0: every system converges,
    at the guess or after one iteration, as its single solve does."""
    a = build_batch(ref, np.stack([np.eye(3)] * 2))
    bv = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]])[:, :, None]
    x = BatchDense.zeros(ref, 2, (3, 1))
    report = batch_solve(algorithm, a, BatchDense.from_values(ref, bv.copy()), x,
                         (Iteration(5),))
    assert report.stop_reasons == ["residual_norm"] * 2 and report.converged.all()
    assert report.iterations.tolist() == [1, 0]
    assert np.array_equal(x.values, bv) and not report.final_residual_norms.any()


@pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
def test_non_finite_initial_residual_fails_only_its_system(ref, algorithm):
    """||b||^2 overflows for b = [1e200, 1], and b = [inf, 1] is inf: neither
    system converges, while the finite one beside them keeps its single solve's bits."""
    a = build_batch(ref, np.stack([np.diag([2.0, 4.0])] * 3))
    bv = np.array([[1e200, 1.0], [3.0, -1.0], [np.inf, 1.0]])[:, :, None]
    criteria = (Iteration(20), ResidualNorm(1e-12))
    x = BatchDense.zeros(ref, 3, (2, 1))
    report = batch_solve(algorithm, a, BatchDense.from_values(ref, bv.copy()), x, criteria)
    assert report.converged.tolist() == [False, True, False]
    assert report.stop_reasons[0] == report.stop_reasons[2] == "breakdown"
    single, _ = solo_solve(ref, a.extract_system(1), bv[1, :, 0], algorithm, criteria)
    assert np.array_equal(x.values[1, :, 0].view(np.uint64), single.view(np.uint64))


class TestSpmvBlock:
    @staticmethod
    def _old_formula(vals, row_ids, col_idxs, n, xb):
        """The per-system SpMV the block kernel must reproduce bit for bit."""
        m = xb.shape[0]
        flat = (np.arange(m)[:, None] * n + row_ids[None, :]).ravel()
        prod = vals * xb[:, col_idxs]
        return np.bincount(flat, weights=prod.ravel(), minlength=m * n).reshape(m, n)

    def _batch(self, ref, rng, num):
        n = 6
        entries = [(0, 0), (0, 3), (0, 5), (2, 1), (2, 2), (3, 0), (3, 3), (3, 4),
                   (3, 5), (4, 4), (5, 2)]  # row 1 is empty
        template = MatrixData((n, n), [(i, j, 1.0) for i, j in entries])
        a = BatchCsr.from_template(ref, num, template, rng.normal(size=(num, len(entries))))
        xb = rng.normal(size=(num, n))
        xb[0, 3] = xb[4, 0] = -0.0
        xb[2, 5] = np.inf
        xb[5, 0] = -np.inf
        xb[7, 3] = np.nan
        return a, xb

    def test_bitwise_equal_to_bincount_formula(self, ref, rng, monkeypatch):
        num = 9
        a, xb = self._batch(ref, rng, num)
        n, row_ids, col_idxs = a.size.rows, a._pattern.row_ids(), a.col_idxs
        pattern = kernels.block_pattern(a._pattern, num)
        assert pattern.frozen()
        for spy in spmv_bodies(monkeypatch):
            with np.errstate(invalid="ignore"):
                # every lane, a prefix, and a scattered set as compaction leaves it
                for lanes in (np.arange(num), np.arange(4), np.array([1, 2, 5, 7, 8])):
                    vals = a.values[lanes]
                    expected = self._old_formula(vals, row_ids, col_idxs, n, xb[lanes])
                    out = np.full(expected.shape, np.nan)
                    assert kernels.block_spmv(pattern, vals, xb[lanes], out) is out
                    assert np.array_equal(expected.view(np.uint64), out.view(np.uint64)), (
                        spy, lanes)
            assert np.isnan(expected).any() and np.isinf(out).any() and (out[:, 1] == 0.0).all()
            if spy is not None:
                assert spy.calls == 3

    def test_shared_values_give_the_bits_of_per_lane_calls(self, ref, rng, monkeypatch):
        """On a one-lane pattern one row of values serves every lane, as a Csr's
        columns and a Solver's lanes use it: one call gives the bits of one
        call per lane, on compact and strided operands alike.  A multi-lane
        block refuses shared values."""
        num = 9
        a, xb = self._batch(ref, rng, num)
        n, pattern, vals = a.size.rows, a._pattern, a.values[4:5]
        with np.errstate(invalid="ignore"):
            formula = self._old_formula(np.repeat(vals, num, axis=0), pattern.row_ids(),
                                        pattern.col_idxs, n, xb)
        for spy in spmv_bodies(monkeypatch):
            with np.errstate(invalid="ignore"):
                want = np.full((num, n), np.nan)
                for lane in range(num):
                    kernels.block_spmv(pattern, vals, xb[lane:lane + 1], want[lane:lane + 1])
                assert np.array_equal(want.view(np.uint64), formula.view(np.uint64)), spy
                for x, out in ((xb, np.empty((num, n))),
                               (np.asfortranarray(xb), np.empty((n, num)).T)):
                    assert kernels.block_spmv(pattern, vals, x, out) is out
                    assert np.array_equal(want.view(np.uint64), out.view(np.uint64)), spy
            if spy is not None:
                assert spy.calls == 3 * num
        block = kernels.block_pattern(a._pattern, 4)
        with pytest.raises(DimensionError):
            kernels.block_spmv(block, vals, xb[:3], np.empty((3, n)))

    def test_strided_operands_run_compiled_on_contiguous_copies(self, ref, rng, monkeypatch):
        """Operands that are not C-contiguous are copied before the compiled loop
        reads them, and an ``out`` that is not goes through a contiguous
        temporary; every such call gives the numpy body's bits.  Operands of
        the wrong shape, or more lanes than the block has, are refused before
        the loop runs."""
        spy = use_spmv_body(monkeypatch, "compiled")
        a, xb = self._batch(ref, rng, 9)
        n, row_ids, col_idxs = a.size.rows, a._pattern.row_ids(), a.col_idxs
        pattern = kernels.block_pattern(a._pattern, 4)
        vals = a.values
        cases = {
            "strided x": (vals[:3], np.repeat(xb[:3], 2, axis=1)[:, ::2], np.empty((3, n))),
            "Fortran-ordered x": (vals[:3], np.asfortranarray(xb[:3]), np.empty((3, n))),
            "Fortran-ordered values": (np.asfortranarray(vals[:3]), xb[:3], np.empty((3, n))),
            "strided out": (vals[:3], xb[:3], np.empty((3, 2 * n))[:, ::2]),
            "Fortran-ordered out": (vals[:3], xb[:3], np.empty((3, n), order="F")),
        }
        short = {
            "more lanes than the block": (vals, xb, np.empty((9, n))),
            "a row too short": (vals[:3], xb[:3, :-1], np.empty((3, n))),
            "values too short": (vals[:3, :-1], xb[:3], np.empty((3, n))),
            "an out row too short": (vals[:3], xb[:3], np.empty((3, n - 1))),
        }
        with np.errstate(invalid="ignore"):
            for case, (v, x, out) in cases.items():
                out[...] = np.nan
                expected = self._old_formula(v, row_ids, col_idxs, n, x)
                assert kernels.block_spmv(pattern, v, x, out) is out, case
                assert np.array_equal(expected.view(np.uint64), out.view(np.uint64)), case
        assert spy.calls == len(cases)
        for case, (v, x, out) in short.items():
            with pytest.raises(DimensionError):
                kernels.block_spmv(pattern, v, x, out)
        assert spy.calls == len(cases)

    def test_non_contiguous_solution_is_copied_before_any_spmv(self, ref, rng, monkeypatch):
        """With the compiled body in use, a solve whose ``x`` is not C-contiguous
        iterates on a contiguous copy, so every SpMV runs compiled, and writes
        the contiguous solve's bits into the caller's array."""
        spy = use_spmv_body(monkeypatch, "compiled")
        seen, real = [], spy.csr_matvec

        def recording(*args):  # keeps each call's x operand
            seen.append(args[-2])
            real(*args)

        def numpy_body(*args):
            raise AssertionError("the numpy body ran")

        monkeypatch.setattr(spy, "csr_matvec", recording)
        monkeypatch.setattr(kernels, "_spmv_numpy", numpy_body)
        stack, bv = mixed_exit_batch(rng)
        x0 = rng.normal(size=bv.shape)
        for algorithm in ("cg", "bicgstab"):
            a = build_batch(ref, stack)
            want = BatchDense.from_values(ref, x0)
            batch_solve(algorithm, a, BatchDense.from_values(ref, bv), want, MIXED_CRITERIA, "jacobi")
            given = np.asfortranarray(x0)
            x = BatchDense(ref, x0.shape[0], x0.shape[1:], given)
            seen.clear()
            batch_solve(algorithm, a, BatchDense.from_values(ref, bv), x, MIXED_CRITERIA, "jacobi")
            assert x.values is given and not given[:, :, 0].flags.c_contiguous
            assert np.array_equal(given.view(np.uint64), want.values.view(np.uint64)), algorithm
            assert seen and not any(np.shares_memory(xb, given) for xb in seen), algorithm

    @pytest.mark.parametrize("algorithm", ["cg", "bicgstab"])
    def test_both_bodies_give_the_same_solves_unpreconditioned(self, rng, monkeypatch, algorithm):
        """TestParallelPartitioning compares the bodies with Jacobi."""
        stack, bv = mixed_exit_batch(rng)
        for name, wc in (("reference", None), ("parallel", 2)):
            exec_ = executor_from_name(name, wc)
            outcomes = []
            for spy in spmv_bodies(monkeypatch):
                outcomes.append(solve_outcome(exec_, stack, bv, algorithm, MIXED_CRITERIA, None))
                assert_compiled_ran(spy)
            for outcome in outcomes[1:]:
                assert_same_bits(outcomes[0], outcome, (name, wc, algorithm))


def _writable_alias(arr):
    """A writable array over ``arr``'s memory, made without numpy's consent."""
    buf = (np.ctypeslib.as_ctypes_type(arr.dtype) * arr.shape[0]).from_address(arr.ctypes.data)
    return np.ctypeslib.as_array(buf)


class TestBlockPatternSafety:
    """A pattern that is not the checked, frozen one never reaches the compiled
    loop, which does not bounds-check: a batched solve refuses it, and a Csr
    over its arrays takes the numpy body, with the checked pattern's bits."""

    FORGERIES = {
        "raw writable copies": lambda a: (a.row_ptrs.copy(), a.col_idxs.copy()),
        "frozen copies nobody checked": lambda a: tuple(
            np.frombuffer(arr.tobytes(), dtype=arr.dtype) for arr in (a.row_ptrs, a.col_idxs)
        ),
        "forged writable views": lambda a: (_writable_alias(a.row_ptrs), _writable_alias(a.col_idxs)),
    }

    def _solve(self, a, bv, preconditioner="jacobi"):
        b = BatchDense.from_values(a.executor, bv.copy())
        x = BatchDense.zeros(a.executor, a.num_systems, (a.size.rows, 1))
        report = batch_solve("bicgstab", a, b, x, MIXED_CRITERIA, preconditioner=preconditioner)
        return x.values.copy(), report.iterations.copy(), np.array(report.stop_reasons)

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_unchecked_pattern_takes_the_numpy_body(self, ref, rng, monkeypatch, forgery):
        spy = use_spmv_body(monkeypatch, "compiled")
        stack, bv = mixed_exit_batch(rng)
        a = build_batch(ref, stack)
        x, iterations, reasons = self._solve(a, bv)
        assert spy.calls > 0
        rp, ci = self.FORGERIES[forgery](a)
        forged = kernels.BlockPattern(rp, ci, a.size.cols)
        assert not forged.frozen()
        with pytest.raises(InvalidArgumentError, match="checked"):
            kernels.block_pattern(forged, a.num_systems)
        monkeypatch.setattr(a, "_pattern", forged)
        with pytest.raises(InvalidArgumentError, match="checked"):
            self._solve(a, bv)
        # each system over the forged arrays, solved alone, gets the batch's bits
        spy.calls = 0
        for k in np.flatnonzero(np.isin(reasons, ["residual_norm", "iteration"])):
            csr = Csr(ref, a.size, *(array_view(ref, len(v), v) for v in (rp, ci, a.values[k])))
            xk, rk = solo_solve(ref, csr, bv[k, :, 0], "bicgstab", MIXED_CRITERIA, "jacobi")
            assert np.array_equal(xk.view(np.uint64), x[k, :, 0].view(np.uint64)), (forgery, k)
            assert (rk.iterations, rk.stop_reason) == (iterations[k], reasons[k]), (forgery, k)
        assert spy.calls == 0

    def test_unfrozen_owner_never_runs_compiled(self, ref, rng, monkeypatch):
        """An owner made writable again, and then changed, is refused by batched
        solves and raises in the applies of the systems extracted from it."""
        spy = use_spmv_body(monkeypatch, "compiled")
        stack, bv = mixed_exit_batch(rng)
        a = build_batch(ref, stack)
        system = a.extract_system(0)
        b, x = dense_from_numpy(ref, bv[0]), Dense.create(ref, (a.size.rows, 1))
        a.col_idxs.flags.writeable = True  # the owner can be unfrozen, and then changed
        assert not a._pattern.frozen()
        system.apply(b, x)
        assert np.allclose(x.view2d(), stack[0] @ bv[0], rtol=1e-14, atol=0)
        a.col_idxs[1] = 10**9
        with pytest.raises(InvalidArgumentError, match="checked"):
            self._solve(a, bv)
        with pytest.raises(IndexError):
            system.apply(b, x)
        assert spy.calls == 0

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_lanes_are_offset_by_the_column_count(self, ref, rng, monkeypatch, forgery):
        """No entry is stored in the last column, so the largest index is not
        the column count; each lane reads its own x only when the block
        offsets lanes by the latter.  A forged pattern, lane by lane, gives
        the same bits."""
        num, n = 12, 6
        stack = np.stack([random_dd_dense(rng, n) for _ in range(num)])[:, :, :-1]
        template = MatrixData((n, n), [(i, j, 1.0) for i in range(n) for j in range(n - 1)])
        a = BatchCsr.from_template(ref, num, template, stack.reshape(num, -1))
        forged = kernels.BlockPattern(*self.FORGERIES[forgery](a), n)
        assert forged.col_idxs.max() == n - 2
        xb = rng.normal(size=(num, n))
        want = TestSpmvBlock._old_formula(a.values, a._pattern.row_ids(), a.col_idxs, n, xb)
        for spy in spmv_bodies(monkeypatch):
            out = kernels.block_spmv(kernels.block_pattern(a._pattern, num), a.values, xb,
                                     np.empty((num, n)))
            assert np.array_equal(want.view(np.uint64), out.view(np.uint64)), forgery
            out.fill(np.nan)
            for lane in range(num):
                kernels.block_spmv(forged, a.values[lane:lane + 1], xb[lane:lane + 1],
                                   out[lane:lane + 1])
            assert np.array_equal(want.view(np.uint64), out.view(np.uint64)), forgery
            if spy is not None:
                assert spy.calls == 1


class TestValidation:
    def _tiny(self, ref):
        a = BatchCsr.from_template(ref, 2, full_pattern(2), np.ones((2, 4)))
        b = BatchDense.zeros(ref, 2, (2, 1))
        x = BatchDense.zeros(ref, 2, (2, 1))
        return a, b, x

    def test_algorithm_restricted(self, ref):
        a, b, x = self._tiny(ref)
        for algorithm in ("lu", "gmres_lu"):  # they factor one matrix
            with pytest.raises(InvalidArgumentError, match=f"'{algorithm}'"):
                batch_solve(algorithm, a, b, x, CRITERIA)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_batch_dense_values_must_be_float64(self, ref, dtype):
        # float32 iterates reported convergence their stored values do not
        # show, and int64 ones failed inside the recurrence
        with pytest.raises(InvalidArgumentError, match="float64"):
            BatchDense(ref, 2, (2, 1), np.zeros((2, 2, 1), dtype=dtype))

    def test_report_num_systems(self, ref, rng):
        a = build_batch(ref, np.stack([random_spd_dense(rng, 3)] * 2))
        b = BatchDense.from_values(ref, rng.normal(size=(2, 3, 1)))
        x = BatchDense.zeros(ref, 2, (3, 1))
        assert batch_solve("cg", a, b, x, CRITERIA).num_systems == 2
