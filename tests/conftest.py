import numpy as np
import pytest

from gausstent.cli import RunConfig
from gausstent.grid import HalfSpaceGrid


@pytest.fixture(scope="session")
def grid_small():
    # coarse grid for unit tests that loop; same box as the default
    return HalfSpaceGrid(((-8.0, 8.0),), (128,), 1e-3, 8.0, 32)


@pytest.fixture(scope="session")
def grid_default():
    return RunConfig().grid()


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
