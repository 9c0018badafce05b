import numpy as np
import pytest

from linopkit.executor import executor_from_name


@pytest.fixture(scope="session")
def ref():
    return executor_from_name("reference")


@pytest.fixture(scope="session")
def par():
    return executor_from_name("parallel", 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture(params=["compiled", "numpy"])
def spmv_body(request, monkeypatch):
    """Run the test on one SpMV body; the compiled one is skipped without scipy.

    Yields the counting spy around the compiled body, or None for numpy.
    """
    from helpers import use_spmv_body

    yield use_spmv_body(monkeypatch, request.param)
