import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wristsim.dynamics import BodyModel
from wristsim.experiments import ClockTask, SimOptions
from wristsim.planner import BandParams

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def body():
    return BodyModel()


@pytest.fixture(scope="session")
def weightless():
    """The default body with gravity switched off."""
    return BodyModel(gravity=(0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def band():
    return BandParams()


@pytest.fixture(scope="session")
def task():
    return ClockTask()


@pytest.fixture(scope="session")
def opts():
    return SimOptions()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
