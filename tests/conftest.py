import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def peak_bytes():
    """Peak bytes allocated while fn() runs, numpy arrays included."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
