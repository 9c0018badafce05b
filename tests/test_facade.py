"""The application-facing solver boundary: zero-copy views, fixed option
surface, and the decoupling rules the demos rely on."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import linopkit.facade
from linopkit.container import copy_stats, reset_copy_stats
from linopkit.errors import (
    BreakdownError,
    ConfigurationError,
    InvalidArgumentError,
    SingularMatrixError,
    SingularPreconditionerError,
)
from linopkit.facade import (
    AbstractSolver,
    AppMatrix,
    AppVector,
    SolverOptions,
    create_solver,
)
from linopkit.linop import Dense
from linopkit.solver import Iteration, ResidualNorm, SolverFactory

from helpers import csr_from_numpy, dense_from_numpy, random_spd_dense

SRC_ROOT = Path(linopkit.facade.__file__).parent


def app_matrix_from_dense(dense):
    matrix = AppMatrix(dense.shape[0], dense.shape[1])
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            if dense[i, j] != 0.0:
                matrix.add_entry(i, j, dense[i, j])
    return matrix


class TestAppVector:
    def test_geometry_and_access(self):
        v = AppVector(3, 2, stride=4)
        v.set(1, 5.0, j=1)
        assert v.get(1, 1) == 5.0
        assert v.data()[1 * 4 + 1] == 5.0
        assert v.total_size() == 12

    def test_from_values_and_to_array(self):
        v = AppVector.from_values([1.0, 2.0, 3.0])
        assert v.num_cols == 1
        assert np.array_equal(v.to_array(), [1.0, 2.0, 3.0])
        m = AppVector.from_values([[1.0, 2.0], [3.0, 4.0]], stride=5)
        assert m.stride == 5
        assert np.array_equal(m.to_array(), [[1.0, 2.0], [3.0, 4.0]])

    def test_wraps_caller_storage(self):
        buf = np.zeros(6)
        v = AppVector(2, 2, stride=3, data=buf)
        assert v.data() is buf
        v.set(1, 9.0)
        assert buf[3] == 9.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AppVector(2, 2, stride=1)
        with pytest.raises(InvalidArgumentError, match="float64"):
            AppVector(2, 1, data=np.zeros(2, dtype=np.float32))
        with pytest.raises(InvalidArgumentError, match="2 elements"):
            AppVector(2, 1, data=np.zeros(3))


class TestAppMatrix:
    def test_iterates_every_entry_once(self):
        m = AppMatrix(2, 2)
        m.add_entry(0, 0, 1.0)
        m.add_entry(0, 0, 2.0)  # duplicates are the application's business
        m.add_entry(1, 1, 3.0)
        assert list(m) == [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)]
        assert len(m) == 3

    def test_bounds_checked(self):
        m = AppMatrix(2, 2)
        with pytest.raises(InvalidArgumentError, match="outside"):
            m.add_entry(0, 2, 1.0)

    def test_bulk_and_single_entries_share_one_order(self):
        m = AppMatrix(3, 3)
        m.add_entry(2, 0, 1.0)
        m.add_entries(np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0]))
        m.add_entry(1, 2, 4.0)
        assert list(m) == [(2, 0, 1.0), (0, 1, 2.0), (0, 1, 3.0), (1, 2, 4.0)]
        assert len(m) == 4

    def test_rejected_bulk_call_stores_nothing(self):
        m = AppMatrix(2, 2)
        m.add_entry(0, 0, 1.0)
        with pytest.raises(InvalidArgumentError, match=r"entry \(2, 1\) outside 2x2"):
            m.add_entries([1, 2, 3], [0, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(InvalidArgumentError, match="equal length"):
            m.add_entries([1, 1], [0], [1.0, 1.0])
        assert list(m) == [(0, 0, 1.0)]

    def test_bulk_assembly_converts_once_and_solves_like_per_entry(self, ref):
        rng = np.random.default_rng(3)
        n = 10
        dense = random_spd_dense(rng, n)
        rows, cols = np.nonzero(dense)
        bulk, single = AppMatrix(n, n), AppMatrix(n, n)
        bulk.add_entries(rows, cols, dense[rows, cols])
        for i, j in zip(rows, cols):
            single.add_entry(i, j, dense[i, j])
        xs = []
        for matrix in (bulk, single):
            reset_copy_stats()
            solver = create_solver(ref, matrix, SolverOptions("cg"))
            x = AppVector(n)
            solver.solve(AppVector.from_values(np.arange(1.0, n + 1)), x)
            stats = copy_stats()
            assert (stats.matrix_conversions, stats.element_copies) == (1, 0)
            xs.append(x.to_array())
        assert np.array_equal(xs[0], xs[1])


class TestSolverOptions:
    def test_exactly_five_fields(self):
        names = [f.name for f in dataclasses.fields(SolverOptions)]
        assert names == [
            "algorithm",
            "max_iters",
            "reduction_factor",
            "wrap_in_gmres",
            "preconditioner",
        ]

    def test_defaults(self):
        opts = SolverOptions("cg")
        assert opts.max_iters == 1000
        assert opts.reduction_factor == 1e-10
        assert opts.wrap_in_gmres is False
        assert opts.preconditioner == "none"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverOptions("cg").max_iters = 5

    def test_interface_is_two_methods(self):
        assert AbstractSolver.__abstractmethods__ == {"solve", "update_matrix_values"}


class TestCreateSolver:
    def test_unknown_algorithm_lists_valid_ones(self, ref):
        m = app_matrix_from_dense(np.eye(2))
        with pytest.raises(ConfigurationError, match="cg, bicgstab, gmres, lu"):
            create_solver(ref, m, SolverOptions("minres"))

    def test_unknown_preconditioner(self, ref):
        m = app_matrix_from_dense(np.eye(2))
        with pytest.raises(ConfigurationError, match="none, jacobi"):
            create_solver(ref, m, SolverOptions("cg", preconditioner="ssor"))

    @pytest.mark.parametrize(
        "options",
        [
            SolverOptions("cg", max_iters=-1),
            SolverOptions("cg", reduction_factor=0.0),
            SolverOptions("cg", reduction_factor=-1.0),
        ],
    )
    def test_bad_numeric_options(self, ref, options):
        with pytest.raises(ConfigurationError):
            create_solver(ref, app_matrix_from_dense(np.eye(2)), options)

    def test_returns_the_abstract_interface(self, ref):
        solver = create_solver(ref, app_matrix_from_dense(np.eye(2)), SolverOptions("cg"))
        assert isinstance(solver, AbstractSolver)


class TestZeroCopy:
    def test_hundred_solves_one_conversion_no_element_copies(self, ref, rng):
        dense = random_spd_dense(rng, 12)
        matrix = app_matrix_from_dense(dense)
        reset_copy_stats()
        solver = create_solver(ref, matrix, SolverOptions("cg", reduction_factor=1e-10))
        assert copy_stats().matrix_conversions == 1

        b = AppVector(12)
        x = AppVector(12)
        for round_ in range(100):
            for i in range(12):
                b.set(i, float((i + round_) % 5) + 1.0)
            report = solver.solve(b, x)
            assert report.converged
        stats = copy_stats()
        assert stats.element_copies == 0
        assert stats.matrix_conversions == 1

    def test_solution_lands_in_caller_storage(self, ref):
        buf = np.zeros(2)
        x = AppVector(2, data=buf)
        solver = create_solver(
            ref, app_matrix_from_dense(np.diag([2.0, 4.0])), SolverOptions("cg")
        )
        solver.solve(AppVector.from_values([2.0, 4.0]), x)
        assert np.allclose(buf, [1.0, 1.0], rtol=1e-12)

    def test_rhs_is_read_only_for_the_solve(self, ref, rng):
        dense = random_spd_dense(rng, 6)
        solver = create_solver(ref, app_matrix_from_dense(dense), SolverOptions("cg"))
        b = AppVector.from_values(rng.normal(size=6))
        before = b.to_array()
        solver.solve(b, AppVector(6))
        assert np.array_equal(b.to_array(), before)

    def test_initial_guess_is_used(self, ref):
        solver = create_solver(
            ref, app_matrix_from_dense(np.diag([2.0, 4.0])), SolverOptions("cg")
        )
        x = AppVector.from_values([1.0, 1.0])  # already exact
        report = solver.solve(AppVector.from_values([2.0, 4.0]), x)
        assert report.iterations == 0


class TestBehavioralEquivalence:
    def test_residual_history_matches_direct_library_use(self, ref, par, rng):
        dense = random_spd_dense(rng, 10)
        b_np = rng.normal(size=10)
        for exec_ in (ref, par):
            solver = create_solver(
                exec_,
                app_matrix_from_dense(dense),
                SolverOptions("cg", reduction_factor=1e-11, preconditioner="jacobi"),
            )
            facade_hist = []
            solver.iteration_callback = lambda k, r: facade_hist.append((k, r))
            x = AppVector(10)
            solver.solve(AppVector.from_values(b_np), x)

            factory = SolverFactory(
                "cg",
                criteria=(Iteration(1000), ResidualNorm(1e-11)),
                preconditioner="jacobi",
            )
            direct = factory.generate(csr_from_numpy(exec_, dense))
            direct_hist = []
            xd = Dense.create(exec_, (10, 1))
            direct.solve(
                dense_from_numpy(exec_, b_np), xd, callback=lambda k, r: direct_hist.append((k, r))
            )
            assert facade_hist == direct_hist
            assert np.array_equal(x.to_array(), xd.view2d()[:, 0])


def test_lu_solves_whatever_the_criteria(ref):
    dense, b = np.diag([2.0, 4.0]), [1.0, 1.0]
    x = Dense.create(ref, (2, 1))
    factory = SolverFactory("lu", (Iteration(0),))
    report = factory.generate(csr_from_numpy(ref, dense)).solve(dense_from_numpy(ref, b), x)
    app_x = AppVector(2)
    app_report = create_solver(ref, app_matrix_from_dense(dense),
                               SolverOptions("lu", max_iters=0)).solve(AppVector.from_values(b), app_x)
    for rep, solution in ((report, x.view2d()[:, 0]), (app_report, app_x.to_array())):
        assert rep.stop_reason == "direct" and rep.converged
        assert list(solution) == [0.5, 0.25]


@pytest.mark.parametrize("dense, b, finite", [
    ([[4.0, 1.0], [1.0, 3.0]], [np.inf, 1.0], False),
    ([[4.0, 1.0], [1.0, 3.0]], [np.nan, 1.0], False),
    ([[1.0, 0.0], [0.0, 1e-12]], [1.0, 1e300], False),  # the substitution overflows
    ([[4.0, 1.0], [1.0, 3.0]], [1e200, 1e200], True),  # only ||r0||^2 overflows
], ids=["inf b", "nan b", "overflowing x", "overflowing r0 norm"])
def test_lu_breaks_down_unless_its_residual_is_finite(ref, dense, b, finite):
    """A Solver and the facade end an LU solve ``direct`` only with a finite
    residual norm; otherwise they raise, the x reached left in place."""
    dense, x, app_x = np.array(dense), Dense.create(ref, (2, 1)), AppVector(2)
    single = SolverFactory("lu", (Iteration(1),)).generate(csr_from_numpy(ref, dense))
    app = create_solver(ref, app_matrix_from_dense(dense), SolverOptions("lu"))
    for solve, solution in ((lambda: single.solve(dense_from_numpy(ref, b), x),
                             lambda: x.view2d()[:, 0]),
                            (lambda: app.solve(AppVector.from_values(b), app_x), app_x.to_array)):
        if finite:
            report = solve()
            assert report.stop_reason == "direct" and report.converged
            assert np.isfinite(report.final_residual_norm) and np.isfinite(solution()).all()
            continue
        with pytest.raises(BreakdownError, match="lu: solution not finite") as err:
            solve()
        assert err.value.iterations == 0 and not np.isfinite(err.value.residual_norm)
        assert not np.isfinite(solution()).all()


class TestMatrixUpdate:
    def test_lu_refactorizes(self, ref):
        solver = create_solver(
            ref, app_matrix_from_dense(np.diag([2.0, 4.0])), SolverOptions("lu")
        )
        b = AppVector.from_values([2.0, 4.0])
        x = AppVector(2)
        report = solver.solve(b, x)
        assert report.stop_reason == "direct" and report.iterations == 0
        assert np.allclose(x.to_array(), [1.0, 1.0], rtol=1e-14)

        solver.update_matrix_values([4.0, 8.0])  # doubled matrix, halved solution
        x2 = AppVector(2)
        solver.solve(b, x2)
        assert np.allclose(x2.to_array(), [0.5, 0.5], rtol=1e-14)

    def test_jacobi_diagonal_is_reextracted(self, ref):
        # with a stale inverse diagonal the preconditioned operator has two
        # distinct eigenvalues and needs two iterations; fresh extraction
        # keeps it a one-iteration solve
        solver = create_solver(
            ref,
            app_matrix_from_dense(np.diag([1.0, 100.0])),
            SolverOptions("cg", preconditioner="jacobi"),
        )
        solver.update_matrix_values([100.0, 1.0])
        report = solver.solve(AppVector.from_values([1.0, 1.0]), AppVector(2))
        assert report.iterations == 1

    @pytest.mark.parametrize("options, rejected, error", [
        (SolverOptions("cg", preconditioner="jacobi"), [0.0, 1.0, 1.0, 3.0],
         SingularPreconditionerError),
        (SolverOptions("lu"), [1.0, 1.0, 1.0, 1.0], SingularMatrixError),
    ], ids=["zero jacobi diagonal", "singular lu"])
    def test_rejected_update_changes_nothing(self, ref, options, rejected, error):
        solver = create_solver(ref, app_matrix_from_dense(np.array([[4.0, 1.0], [2.0, 3.0]])),
                               options)
        b = AppVector.from_values([1.0, 2.0])

        def solve():
            x = AppVector(2)
            report = solver.solve(b, x)
            return report, x.data().view(np.uint64).copy()

        before = solve()
        with pytest.raises(error):
            solver.update_matrix_values(rejected)
        assert list(solver._matrix.get_values(const=True).numpy()) == [4.0, 1.0, 2.0, 3.0]
        report, bits = solve()
        assert report == before[0] and np.array_equal(bits, before[1])

    def test_wrap_in_gmres_is_observable(self, ref, rng):
        dense = random_spd_dense(rng, 5)
        b = AppVector.from_values(rng.normal(size=5))
        plain = create_solver(ref, app_matrix_from_dense(dense), SolverOptions("lu"))
        wrapped = create_solver(
            ref, app_matrix_from_dense(dense), SolverOptions("lu", wrap_in_gmres=True)
        )
        direct_report = plain.solve(b, AppVector(5))
        wrapped_report = wrapped.solve(b, AppVector(5))
        assert direct_report.stop_reason == "direct"
        assert direct_report.iterations == 0
        assert wrapped_report.stop_reason == "residual_norm"
        assert wrapped_report.iterations >= 1

    def test_gmres_restart_rides_outside_the_options(self, ref, rng):
        dense = rng.normal(size=(30, 30)) / np.sqrt(30) + 3.0 * np.eye(30)
        solver = create_solver(
            ref, app_matrix_from_dense(dense), SolverOptions("gmres"), restart=4
        )
        report = solver.solve(AppVector.from_values(rng.normal(size=30)), AppVector(30))
        assert report.converged


class TestArchitecture:
    """Static checks for the decoupling rules the package promises."""

    def test_facade_stays_small(self):
        lines = (SRC_ROOT / "facade.py").read_text().splitlines()
        code = [
            ln for ln in lines if ln.strip() and not ln.strip().startswith("#")
        ]
        assert len(code) <= 500

    def test_executor_kind_never_leaks_past_the_dispatch_layer(self):
        allowed = {"executor.py", "kernels.py"}
        offenders = [
            path.name
            for path in SRC_ROOT.rglob("*.py")
            if "ExecutorKind" in path.read_text() and path.name not in allowed
        ]
        assert offenders == []

    @staticmethod
    def _relative_imports(module_path):
        tree = ast.parse(module_path.read_text())
        return {
            node.module.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module
        }

    def test_heat_demo_talks_only_to_the_facade(self):
        imports = self._relative_imports(SRC_ROOT / "apps" / "heat.py")
        assert imports <= {"executor", "facade"}

    def test_euler_demo_is_the_tightly_coupled_contrast(self):
        imports = self._relative_imports(SRC_ROOT / "apps" / "euler.py")
        assert {"linop", "solver"} <= imports
