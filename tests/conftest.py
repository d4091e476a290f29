import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ergolift import scenario

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def empty_warm_start_memo():
    """Each test starts from an empty warm-start memo, so the order the
    tests run in cannot change what they see."""
    scenario.clear_warm_start_memo()
