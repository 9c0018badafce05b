"""A lane's bits depend on nothing but its own system, at every size.

Every reduction over a vector's length runs through ``kernels.rowdot`` on
fixed 8,192-entry tiles, so the relations below hold above one tile too: a
column alone and among others, a batched system and its single solve, any
kind and worker count, and any BLAS thread count.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linopkit import kernels
from linopkit.batched import BatchCsr, BatchDense, batch_solve
from linopkit.container import MatrixData
from linopkit.executor import executor_from_name
from linopkit.linop import Csr, Dense
from linopkit.solver import Iteration, ResidualNorm, SolverFactory

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: One row past a reduction tile, and heat's N: both span several tiles.
SIZES = (kernels.REDUCTION_TILE + 1, 40_000)
ALGORITHMS = ("cg", "bicgstab", "gmres")


def chain(n, shift=0.5):
    """The 1-D 3-point matrix with diagonal 2 + shift + (1 + sin(i)) / 4 and -1
    beside it: symmetric positive definite, its diagonal varying so that Jacobi acts."""
    i = np.arange(n)
    data = MatrixData((n, n))
    data.add_entries(np.concatenate([i, i[1:], i[:-1]]), np.concatenate([i, i[:-1], i[1:]]),
                     np.concatenate([2.0 + shift + 0.25 * (1.0 + np.sin(i)), -np.ones(2 * (n - 1))]))
    return data


def solve(exec_, a, bmat, algorithm, criteria):
    """x from a zero guess for every column of ``bmat``, solved together."""
    solver = SolverFactory(algorithm, criteria, "jacobi", restart=10).generate(a)
    b = Dense.create(exec_, bmat.shape)
    b.view2d()[...] = bmat
    x = Dense.create(exec_, bmat.shape)
    solver.solve(b, x)
    return x.view2d().copy()


def together_and_alone(n, algorithm, criteria=(Iteration(15),)):
    """x of three columns solved together, and of each solved alone."""
    ref = executor_from_name("reference")
    a = Csr.from_data(ref, chain(n))
    bmat = np.random.default_rng(n).normal(size=(n, 3))
    alone = np.hstack([solve(ref, a, bmat[:, [j]], algorithm, criteria) for j in range(3)])
    return solve(ref, a, bmat, algorithm, criteria), alone


def solve_hashes(n):
    """sha256 of every algorithm's x, together and alone, one line each."""
    return "\n".join(hashlib.sha256(x.tobytes()).hexdigest() for algorithm in ALGORITHMS
                     for x in together_and_alone(n, algorithm))


@pytest.mark.parametrize("iterations", [1, 15])  # GMRES's first Krylov vector, and restarts
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", SIZES)
def test_column_alone_gets_its_bits_among_others(n, algorithm, iterations):
    together, alone = together_and_alone(n, algorithm, (Iteration(iterations),))
    assert np.array_equal(together.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("kind", [("reference", None), ("parallel", 1), ("parallel", 2),
                                  ("parallel", 4)])
def test_batched_system_gets_its_single_solve_bits(kind):
    """Five systems that stop at different iterations; the worker count
    changes which of them share a group, and compaction leaves one alone."""
    exec_ = executor_from_name(*kind)
    n, shifts = SIZES[0], (0.5, 0.2, 0.1, 0.05, 0.02)
    template = chain(n)
    values = np.stack([Csr.from_data(exec_, chain(n, s)).get_values().numpy() for s in shifts])
    a = BatchCsr.from_template(exec_, len(shifts), template, values)
    bv = np.random.default_rng(3).normal(size=(len(shifts), n, 1))
    x = BatchDense.zeros(exec_, len(shifts), (n, 1))
    criteria = (Iteration(200), ResidualNorm(1e-8))
    report = batch_solve("cg", a, BatchDense.from_values(exec_, bv.copy()), x, criteria, "jacobi")
    assert len(set(report.iterations.tolist())) == len(shifts)
    for k in range(len(shifts)):
        single = solve(exec_, a.extract_system(k), bv[k], "cg", criteria)
        assert np.array_equal(x.values[k].view(np.uint64), single.view(np.uint64)), k
    assert report.converged.all()


def test_results_do_not_depend_on_the_blas_thread_count():
    """The same hashes under OPENBLAS_NUM_THREADS=1, =2 and unset, in fresh
    processes, whose BLAS reads the variable when it loads."""
    src = str(Path(kernels.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_determinism import solve_hashes; print(solve_hashes(40_000))")
    outputs = []
    for threads in ("1", "2", None):
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 2 * len(ALGORITHMS)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(set(outputs[0][0::2])) == len(ALGORITHMS)  # each algorithm its own x
    assert outputs[0][0::2] == outputs[0][1::2]  # together == alone
