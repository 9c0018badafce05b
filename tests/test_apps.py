"""File formats, run configuration, the benchmark CLI, and the demo apps."""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linopkit.apps.bench import REPORT_KEYS, run_benchmark
from linopkit.apps.config import (
    LCG_INCREMENT,
    LCG_MULTIPLIER,
    RunConfig,
    build_run_config,
    lcg_uniform,
    load_config_file,
    parse_rhs_spec,
)
from linopkit.apps.euler import ImplicitEulerStepper, integrate_decay
from linopkit.apps.heat import assemble_poisson, manufactured_solution, run_heat_demo
from linopkit.apps.kinetics import cell_matrix_values, run_kinetics_step
from linopkit.apps.mtx import read_matrix_market
from linopkit.batched import BatchCsr, BatchDense, batch_solve
from linopkit.container import MatrixData
from linopkit.errors import (
    ConfigurationError,
    InvalidArgumentError,
    LibraryError,
    ParseError,
    UnsupportedFormatError,
)
from linopkit.executor import ExecutorKind, executor_from_name
from linopkit.facade import AppMatrix, AppVector, SolverOptions, create_solver
from linopkit.linop import Csr, Dense
from linopkit.solver import Iteration, ResidualNorm, Solver, SolverFactory

from helpers import csr_from_numpy, dense_from_numpy, use_spmv_body

REPO_ROOT = Path(__file__).resolve().parent.parent
LATTICE = REPO_ROOT / "data" / "spd_lattice.mtx"
SMALL = REPO_ROOT / "data" / "spd_small.mtx"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMatrixMarketReader:
    def test_general_file(self):
        data = read_matrix_market(SMALL)
        assert data.size == (2, 2)
        assert sorted(data) == [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]

    def test_symmetric_mirrors_off_diagonals(self, tmp_path):
        path = write(
            tmp_path,
            "sym.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "3 2 -1.0\n"
            "3 3 2.0\n",
        )
        data = read_matrix_market(path)
        dense = np.zeros((3, 3))
        for i, j, v in data:
            dense[i, j] += v
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.array_equal(dense, expected)
        assert len(data) == 6  # two mirrored entries, diagonals unduplicated

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "c.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "% produced by hand\n"
            "\n"
            "2 2 1\n"
            "% body comment\n"
            "2 2 5.0\n",
        )
        assert list(read_matrix_market(path)) == [(1, 1, 5.0)]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "e.mtx", "")
        with pytest.raises(ParseError, match="line 1") as err:
            read_matrix_market(path)
        assert err.value.line_number == 1

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "h.mtx", "%%MatrixMarket matrix coordinate real\n")
        with pytest.raises(ParseError, match="header"):
            read_matrix_market(path)

    @pytest.mark.parametrize(
        "header",
        [
            "%%MatrixMarket vector coordinate real general",
            "%%MatrixMarket matrix array real general",
            "%%MatrixMarket matrix coordinate complex general",
            "%%MatrixMarket matrix coordinate pattern general",
            "%%MatrixMarket matrix coordinate integer general",
            "%%MatrixMarket matrix coordinate real skew-symmetric",
            "%%MatrixMarket matrix coordinate real hermitian",
        ],
    )
    def test_unsupported_variants(self, tmp_path, header):
        path = write(tmp_path, "u.mtx", header + "\n1 1 1\n1 1 1.0\n")
        with pytest.raises(UnsupportedFormatError):
            read_matrix_market(path)

    def test_size_line_errors_carry_the_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "s.mtx",
            "%%MatrixMarket matrix coordinate real general\n% note\n2 2\n",
        )
        with pytest.raises(ParseError, match="line 3") as err:
            read_matrix_market(path)
        assert err.value.line_number == 3

    def test_missing_size_line(self, tmp_path):
        path = write(tmp_path, "m.mtx", "%%MatrixMarket matrix coordinate real general\n%\n")
        with pytest.raises(ParseError, match="missing size line"):
            read_matrix_market(path)

    def test_symmetric_must_be_square(self, tmp_path):
        path = write(
            tmp_path,
            "r.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="square"):
            read_matrix_market(path)

    def test_entry_errors(self, tmp_path):
        cases = [
            ("2 2 1\n1 1\n", "row col value"),
            ("2 2 1\n1 1 abc\n", "could not parse"),
            ("2 2 1\n3 1 1.0\n", "outside"),
            ("2 2 1\n1 1 1.0\n2 2 1.0\n", "more than the declared 1"),
            ("2 2 3\n1 1 1.0\n", "ends after 1"),
        ]
        for body, message in cases:
            path = write(
                tmp_path, "b.mtx", "%%MatrixMarket matrix coordinate real general\n" + body
            )
            with pytest.raises(ParseError, match=message):
                read_matrix_market(path)

    def test_entry_error_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "ln.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\nbogus\n",
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line_number == 4


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.backend == "reference"
        assert cfg.solver == "cg"
        assert cfg.max_iters == 1000
        assert cfg.rhs == "ones"

    def test_file_keys_drop_dashes(self, tmp_path):
        path = write(
            tmp_path,
            "run.cfg",
            "# sample\n\nbackend = parallel\nmaxiters=50\nreductionfactor = 1e-8\n",
        )
        raw = load_config_file(path)
        assert raw == {"backend": "parallel", "max_iters": "50", "reduction_factor": "1e-8"}

    def test_unknown_key_is_named(self, tmp_path):
        path = write(tmp_path, "run.cfg", "omega=1.5\n")
        with pytest.raises(ConfigurationError, match="omega"):
            load_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = write(tmp_path, "run.cfg", "backend reference\n")
        with pytest.raises(ParseError, match="line 1"):
            load_config_file(path)

    def test_flags_override_file_override_defaults(self, tmp_path):
        path = write(tmp_path, "run.cfg", f"matrix={SMALL}\nsolver=cg\nmaxiters=7\n")
        flags = {"solver": "bicgstab", "backend": None}
        cfg = build_run_config(flags, config_path=path)
        assert cfg.solver == "bicgstab"  # flag wins
        assert cfg.max_iters == 7  # file wins over default
        assert cfg.backend == "reference"  # default survives a None flag

    def test_numeric_coercion_errors(self, tmp_path):
        path = write(tmp_path, "run.cfg", f"matrix={SMALL}\nmaxiters=soon\n")
        with pytest.raises(ConfigurationError, match="max_iters must be an integer"):
            build_run_config({}, config_path=path)

    @pytest.mark.parametrize(
        "flags, message",
        [
            ({"matrix": "m.mtx", "backend": "simd"}, "unknown backend 'simd'"),
            ({"matrix": "m.mtx", "solver": "sor"}, "unknown algorithm 'sor'"),
            ({"matrix": "m.mtx", "preconditioner": "amg"}, "unknown preconditioner"),
            ({}, "no matrix file"),
            ({"matrix": "m.mtx", "max_iters": 0}, "max_iters"),
            ({"matrix": "m.mtx", "reduction_factor": 0.0}, "reduction_factor"),
            ({"matrix": "m.mtx", "restart": 0}, "restart"),
            ({"matrix": "m.mtx", "rhs": "random(x)"}, "integer seed"),
            ({"matrix": "m.mtx", "rhs": "random"}, "malformed rhs"),
        ],
    )
    def test_validation(self, flags, message):
        with pytest.raises(ConfigurationError, match=message):
            build_run_config(flags)

    def test_rhs_specs(self):
        assert parse_rhs_spec("ones") == ("ones", None)
        assert parse_rhs_spec("random(42)") == ("random", 42)
        assert parse_rhs_spec("values.txt") == ("file", "values.txt")


def _batch_solve(ref, algorithm):
    a = BatchCsr(ref, 1, (1, 1), [0, 1], [0], [[2.0]])
    b, x = BatchDense.from_values(ref, [[[1.0]]]), BatchDense.zeros(ref, 1, (1, 1))
    batch_solve(algorithm, a, b, x, (Iteration(5),))


def _create_solver(ref, **options):
    matrix = AppMatrix(1, 1)
    matrix.add_entry(0, 0, 2.0)
    create_solver(ref, matrix, SolverOptions(**{"algorithm": "cg", **options}))


@pytest.mark.parametrize("error, call", [
    (ConfigurationError, lambda ref: _create_solver(ref, algorithm="gmres_lu")),
    (ConfigurationError, lambda ref: _create_solver(ref, preconditioner=None)),
    (ConfigurationError, lambda ref: _create_solver(ref, max_iters=-1)),
    (ConfigurationError, lambda ref: _create_solver(ref, reduction_factor=0.0)),
    (ConfigurationError, lambda ref: _create_solver(ref, reduction_factor=-1.0)),
    (ConfigurationError, lambda ref: _create_solver(ref, reduction_factor=math.nan)),
    (ConfigurationError, lambda ref: build_run_config({"matrix": "m.mtx", "backend": "simd"})),
    (ConfigurationError, lambda ref: build_run_config({"matrix": "m.mtx", "solver": "sor"})),
    (ConfigurationError, lambda ref: build_run_config({"matrix": "m.mtx",
                                                       "preconditioner": "amg"})),
    (ConfigurationError, lambda ref: build_run_config({"matrix": "m.mtx", "max_iters": 0})),
    (ConfigurationError, lambda ref: build_run_config({"matrix": "m.mtx", "restart": 0})),
    (ConfigurationError, lambda ref: executor_from_name(ExecutorKind.REFERENCE)),
    (InvalidArgumentError, lambda ref: _batch_solve(ref, "lu")),
    (InvalidArgumentError, lambda ref: Solver(SolverFactory("gmres", (Iteration(1),), restart=0),
                                              csr_from_numpy(ref, np.eye(2)))),
], ids=["facade gmres_lu", "facade preconditioner None", "facade max_iters -1",
        "facade reduction 0", "facade reduction -1", "facade reduction nan", "cli backend",
        "cli solver", "cli preconditioner", "cli max_iters 0", "cli restart 0",
        "executor kind member", "batched lu", "solver restart 0"])
def test_each_layer_refuses_with_its_own_error_class(ref, error, call):
    """Every option an entry point refuses, it refuses with the class it always
    did, whichever layer owns the check."""
    with pytest.raises(LibraryError) as err:
        call(ref)
    assert err.type is error


class TestLcg:
    def test_frozen_first_draws(self):
        assert list(lcg_uniform(42, 3)) == [
            0.5682303266439076,
            0.2254634289477513,
            0.41283831882951183,
        ]
        assert lcg_uniform(7, 1)[0] == 0.4932122668392295

    def test_range_and_determinism(self):
        draws = lcg_uniform(123, 500)
        assert ((draws >= 0.0) & (draws < 1.0)).all()
        assert np.array_equal(draws, lcg_uniform(123, 500))
        assert not np.array_equal(draws, lcg_uniform(124, 500))

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("count", [0, 1, 100_000])
    def test_bit_exact_against_the_step_by_step_loop(self, seed, count):
        def loop(seed, count):  # the recurrence one state at a time
            out = np.empty(count)
            state = seed & (2**64 - 1)
            for i in range(count):
                state = (LCG_MULTIPLIER * state + LCG_INCREMENT) & (2**64 - 1)
                out[i] = (state >> 11) * 2.0**-53
            return out

        draws = lcg_uniform(seed, count)
        assert draws.dtype == np.float64 and draws.shape == (count,)
        assert np.array_equal(draws.view(np.uint64), loop(seed, count).view(np.uint64))


class TestBenchmark:
    def test_report_shape_on_checked_in_matrix(self):
        cfg = RunConfig(matrix=str(SMALL))
        report = run_benchmark(cfg)
        assert report.matrix == "spd_small"
        assert (report.rows, report.cols, report.nnz) == (2, 2, 4)
        assert report.converged
        assert report.iterations >= 1
        assert report.wall_time_ms > 0.0
        payload = json.loads(report.to_json())
        assert list(payload.keys()) == list(REPORT_KEYS)

    def test_nnz_counts_unique_coordinates(self, tmp_path):
        path = write(
            tmp_path,
            "dup.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 1 2.0\n2 2 1.0\n",
        )
        report = run_benchmark(RunConfig(matrix=str(path)))
        assert report.nnz == 2
        assert report.matrix == "dup"

    def test_nnz_is_the_number_of_distinct_coordinates(self, tmp_path):
        """A symmetric file whose off-diagonal entry is listed twice, and the
        checked-in matrices, against a set of the triplets' coordinates."""
        sym = write(
            tmp_path,
            "sym.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 4.0\n2 1 -1.0\n2 1 -0.5\n3 3 2.0\n",
        )
        for path in (sym, SMALL, LATTICE):
            report = run_benchmark(RunConfig(matrix=str(path)))
            expected = len({(row, col) for row, col, _ in read_matrix_market(path)})
            assert type(report.nnz) is int and report.nnz == expected, path
        assert run_benchmark(RunConfig(matrix=str(sym))).nnz == 4

    def test_rhs_file(self, tmp_path):
        rhs = write(tmp_path, "b.txt", "1.0\n2.0\n")
        report = run_benchmark(RunConfig(matrix=str(SMALL), rhs=str(rhs)))
        assert report.converged

    def test_rhs_file_length_checked(self, tmp_path):
        rhs = write(tmp_path, "b.txt", "1.0\n2.0\n3.0\n")
        with pytest.raises(ConfigurationError, match="holds 3 values, matrix needs 2"):
            run_benchmark(RunConfig(matrix=str(SMALL), rhs=str(rhs)))

    def test_jacobi_run_on_lattice(self):
        cfg = RunConfig(matrix=str(LATTICE), preconditioner="jacobi", rhs="random(11)")
        report = run_benchmark(cfg)
        assert report.converged
        assert (report.rows, report.cols, report.nnz) == (36, 36, 156)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "linopkit.apps.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


class TestCli:
    def test_converged_run_exits_zero_with_json(self):
        proc = run_cli("--matrix", str(LATTICE), "--solver", "cg")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert list(payload.keys()) == list(REPORT_KEYS)
        assert payload["converged"] is True
        assert payload["backend"] == "reference"

    def test_unconverged_run_exits_one_but_reports(self):
        proc = run_cli("--matrix", str(LATTICE), "--max-iters", "1")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["converged"] is False
        assert payload["iterations"] == 1

    def test_missing_file_exits_two_without_json(self, tmp_path):
        proc = run_cli("--matrix", str(tmp_path / "nope.mtx"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_bad_backend_is_diagnosed(self):
        proc = run_cli("--matrix", str(LATTICE), "--backend", "simd")
        assert proc.returncode == 2
        assert "unknown backend 'simd'" in proc.stderr

    def test_malformed_matrix_exits_two_without_json(self, tmp_path):
        bad = write(tmp_path, "bad.mtx", "not a matrix market file\n")
        proc = run_cli("--matrix", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr

    def test_output_flag_writes_the_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("--matrix", str(SMALL), "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        payload = json.loads(out.read_text())
        assert list(payload.keys()) == list(REPORT_KEYS)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", f"matrix={SMALL}\nsolver=cg\nrhs=random(5)\n")
        proc = run_cli("--config", str(cfg), "--solver", "bicgstab")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["algorithm"] == "bicgstab"

    def test_reports_are_deterministic_up_to_the_clock(self):
        args = ("--matrix", str(LATTICE), "--rhs", "random(3)", "--solver", "cg")
        first = json.loads(run_cli(*args).stdout)
        second = json.loads(run_cli(*args).stdout)
        first.pop("wall_time_ms")
        second.pop("wall_time_ms")
        assert first == second


class TestEulerDemo:
    def test_scalar_decay_closed_form(self, ref):
        value = integrate_decay(10, 0.1, ref)
        assert abs(value - (1.1 ** -10)) <= 1e-10

    def test_stepper_matches_dense_oracle(self, ref):
        jac = np.array([[-2.0, 1.0], [1.0, -3.0]])
        dt = 0.05
        stepper = ImplicitEulerStepper(ref, csr_from_numpy(ref, jac), dt)
        u = dense_from_numpy(ref, [1.0, 0.5])
        expected = np.array([1.0, 0.5])
        for _ in range(3):
            rate = np.linalg.solve(np.eye(2) - dt * jac, jac @ expected)
            expected = expected + dt * rate
            stepper.advance(u)
        assert np.allclose(u.view2d()[:, 0], expected, atol=1e-11)

    def test_system_matrix_bits_match_per_entry_assembly(self, ref, rng):
        data = MatrixData((30, 30))
        for _ in range(200):
            data.add(int(rng.integers(30)), int(rng.integers(30)), float(rng.normal()))
        jacobian = Csr.from_data(ref, data)
        dt = 0.037
        system = MatrixData(jacobian.size)  # I - dt J one entry at a time
        for i in range(30):
            system.add(i, i, 1.0)
        for row, col, value in jacobian.write_data():
            system.add(row, col, -dt * value)
        expected = Csr.from_data(ref, system)
        got = ImplicitEulerStepper(ref, jacobian, dt)._inverse.system_matrix
        assert np.array_equal(got.get_row_ptrs().numpy(), expected.get_row_ptrs().numpy())
        assert np.array_equal(got.get_col_idxs().numpy(), expected.get_col_idxs().numpy())
        assert np.array_equal(
            got.get_values().numpy().view(np.uint64), expected.get_values().numpy().view(np.uint64)
        )

    def test_custom_algorithm_and_bounds(self, ref):
        jac = csr_from_numpy(ref, np.array([[-1.0]]))
        stepper = ImplicitEulerStepper(ref, jac, 0.1, algorithm="gmres", max_iters=5)
        u = dense_from_numpy(ref, [2.0])
        stepper.advance(u)
        assert u.at(0, 0) == pytest.approx(2.0 / 1.1, rel=1e-12)


class TestHeatDemo:
    def test_assembly_shape(self):
        n = 4
        matrix = assemble_poisson(n)
        assert (matrix.num_rows, matrix.num_cols) == (16, 16)
        assert len(matrix) == 5 * n * n - 4 * n
        diag = [v for i, j, v in matrix if i == j]
        assert all(v == pytest.approx(4.0 * (n + 1) ** 2) for v in diag)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 200])
    def test_assembly_keeps_the_per_entry_triplet_order(self, ref, n):
        def per_entry(n, offsets):  # the stencil one add_entry at a time
            h = 1.0 / (n + 1)
            diag, off = 4.0 / (h * h), -1.0 / (h * h)
            out = []
            for i in range(n):
                for j in range(n):
                    row = i * n + j
                    inside = {-n: i > 0, n: i < n - 1, -1: j > 0, 1: j < n - 1, 0: True}
                    out += [(row, row + d, diag if d == 0 else off) for d in offsets if inside[d]]
            return out

        triplets = list(assemble_poisson(n))
        assert triplets == per_entry(n, (-n, -1, 0, 1, n))  # up, left, self, right, down
        assert all(type(r) is int and type(c) is int and type(v) is float for r, c, v in triplets)
        # the converted matrix has the bits of the earlier self-first order,
        # which needed a sort: self, up, down, left, right
        old = Csr.from_data(ref, MatrixData((n * n, n * n), per_entry(n, (0, -n, n, -1, 1))))
        new = Csr.from_data(ref, assemble_poisson(n)._data)
        for a, b in ((old.get_row_ptrs(), new.get_row_ptrs()),
                     (old.get_col_idxs(), new.get_col_idxs()),
                     (old.get_values(const=True), new.get_values(const=True))):
            assert a.numpy().tobytes() == b.numpy().tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 200])
    def test_assembly_has_the_bytes_of_the_slot_table_construction(self, n):
        def slot_table(n):  # one (N, 5) table of up, left, self, right, down, masked
            h = 1.0 / (n + 1)
            row = np.arange(n * n, dtype=np.int64)
            i, j = np.divmod(row, n)
            cols = row[:, None] + np.array([-n, -1, 0, 1, n])
            inside = np.stack([i > 0, j > 0, np.ones(n * n, dtype=bool), j < n - 1, i < n - 1],
                              axis=1)
            vals = np.array([-1.0, -1.0, 4.0, -1.0, -1.0]) / (h * h)
            return (np.broadcast_to(row[:, None], cols.shape)[inside], cols[inside],
                    np.broadcast_to(vals, cols.shape)[inside])

        for got, want in zip(assemble_poisson(n)._data.arrays(), slot_table(n)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_the_heat_matrix_is_int32_and_runs_the_compiled_body(self, ref, monkeypatch):
        """create_solver's heat matrix holds int32 indices, runs the compiled
        body with Jacobi without keeping row ids, and gets the numpy body's bits."""
        solver = create_solver(ref, assemble_poisson(200),
                               SolverOptions("cg", max_iters=5, preconditioner="jacobi"))
        pattern = solver._matrix._pattern
        assert pattern.row_ptrs.dtype == pattern.col_idxs.dtype == np.int32 and pattern.frozen()
        b = AppVector.from_values(np.linspace(0.0, 1.0, pattern.rows))
        outcomes = []
        for body in ("compiled", "numpy"):
            spy, x = use_spmv_body(monkeypatch, body), AppVector(pattern.rows)
            report = solver.solve(b, x)
            outcomes.append((x.data().tobytes(), report.iterations, report.stop_reason))
            if spy is not None:
                assert spy.calls == 6 and pattern._row_ids is None  # 5 iterations and r0
        assert outcomes[0] == outcomes[1] and outcomes[0][1] == 5

    def test_assembly_allocates_little_besides_what_it_keeps(self):
        assemble_poisson(200)  # first-call costs stay out of the count
        tracemalloc.start()
        try:
            matrix = assemble_poisson(200)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= 3 * 8 * len(matrix)  # the three arrays, 199,200 entries each
        assert peak - kept <= 2_000_000  # a few arrays as long as the grid (40,000 points)

    def test_manufactured_solution_peaks_at_the_center(self):
        vals = manufactured_solution(5)
        assert vals.shape == (25,)
        # on the center line y = 1/2, one point toward x = 1 (the e^x factor)
        assert divmod(int(np.argmax(vals)), 5) == (3, 2)

    def test_solution_accuracy_scales_with_the_grid(self):
        small = run_heat_demo(8)
        assert small.converged
        assert small.max_error < 0.02
        large = run_heat_demo(16)
        ratio = small.max_error / large.max_error
        assert 2.5 < ratio < 6.0  # roughly h^2

    def test_backends_agree(self):
        a = run_heat_demo(8, backend="reference")
        b = run_heat_demo(8, backend="parallel", worker_count=2)
        assert np.array_equal(a.solution, b.solution)


class TestKineticsDemo:
    def test_cell_matrix_oracle(self):
        rates = np.array([[1.0, 2.0, 3.0, 4.0]])
        dt = 0.1
        k = np.array([[-1.0, 2.0, 0.0], [1.0, -(2.0 + 3.0), 4.0], [0.0, 3.0, -4.0]])
        dense = np.eye(3) - dt * k
        vals = cell_matrix_values(rates, dt)[0]
        from linopkit.apps.kinetics import STENCIL

        for (i, j), v in zip(STENCIL, vals):
            assert v == pytest.approx(dense[i, j])

    def test_step_conserves_mass_and_converges(self):
        report = run_kinetics_step(100)
        assert report.solve.converged.all()
        totals = report.solutions.sum(axis=1)
        assert np.abs(totals - 1.0).max() <= 1e-12
        assert (report.solutions > -1e-12).all()

    def test_batch_matches_loop_of_singles(self, ref):
        result = run_kinetics_step(25, seed=77)
        rng = np.random.default_rng(77)
        rates = rng.uniform(1.0, 1000.0, size=(25, 4))
        from linopkit.apps.kinetics import STENCIL

        template = MatrixData((3, 3), [(r, c, 1.0) for r, c in STENCIL])
        batch = BatchCsr.from_template(ref, 25, template, cell_matrix_values(rates, 0.002))
        factory = SolverFactory(
            "bicgstab", criteria=(Iteration(50), ResidualNorm(1e-12))
        )
        for k in range(25):
            solver = factory.generate(batch.extract_system(k))
            b = dense_from_numpy(ref, [1.0, 0.0, 0.0])
            x = dense_from_numpy(ref, [1.0, 0.0, 0.0])
            solo = solver.solve(b, x)
            assert solo.iterations == result.solve.iterations[k]
            assert np.allclose(
                x.view2d()[:, 0], result.solutions[k], rtol=1e-13, atol=1e-15
            )

    def test_parallel_backend_gives_identical_results(self):
        a = run_kinetics_step(30, backend="reference")
        b = run_kinetics_step(30, backend="parallel", worker_count=4)
        assert np.array_equal(a.solutions, b.solutions)
        assert np.array_equal(a.solve.iterations, b.solve.iterations)


def test_lattice_file_is_the_documented_laplacian(ref):
    data = read_matrix_market(LATTICE)
    m = Csr.from_data(ref, data)
    dense = m.to_dense()
    assert np.array_equal(dense, dense.T)
    assert (np.diag(dense) == 4.0).all()
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0.0  # positive definite
    assert m.num_stored_elements == 156
