import os
import pathlib

import numpy as np
import pytest

from freepick.jsonio import parse_series, parse_tuple
from freepick.matcore import MatrixTuple

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """The CLI and script tests start child interpreters; pytest's
    ``pythonpath`` setting reaches only this one, so export src too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def x3_series():
    return parse_series(str(FIXTURES / "x3_series.json"))


@pytest.fixture(scope="session")
def halfres_series():
    """Truncation of 1/(2-x) to degree 12, decay rate 2."""
    return parse_series(str(FIXTURES / "halfres_series.json"))


@pytest.fixture(scope="session")
def d2res_series():
    """Truncation of (2 - 0.6 Z1 - 0.4 Z2)^{-1} to degree 8, d = 2."""
    return parse_series(str(FIXTURES / "d2res_series.json"))


@pytest.fixture(scope="session")
def jordan_point() -> MatrixTuple:
    return parse_tuple(str(FIXTURES / "jordan_point.json"))


@pytest.fixture
def ones_pair() -> tuple[MatrixTuple, MatrixTuple]:
    X = MatrixTuple((np.array([[1.0, 1.0], [1.0, 1.0]]),))
    Y = MatrixTuple((np.array([[2.0, 1.0], [1.0, 1.0]]),))
    return X, Y
