import pytest
from hypothesis import HealthCheck, settings

from gegtau import gegenbauer, pencil

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


@pytest.fixture
def cold_pencil_caches():
    """Empty the pencil's per-configuration caches and the endpoint tables,
    so that a test's patched builder runs, and its counts hold, whichever
    tests ran before it."""
    pencil._operator.cache_clear()
    pencil._collocation_table.cache_clear()
    gegenbauer._table.cache_clear()
