import numpy as np
import pytest
from hypothesis import settings

from donorsim import DeviceParameters

# Property tests draw the same examples on every run and keep no example
# database, so a run's verdict depends on the code alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def p():
    return DeviceParameters()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
