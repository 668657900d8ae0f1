import pytest
from hypothesis import HealthCheck, settings

from gegtau import pencil

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


@pytest.fixture
def cold_pencil_caches():
    """Empty the pencil's per-configuration caches, so that a test's patched
    builder runs even where an earlier test built the same configuration."""
    pencil._operator.cache_clear()
    pencil._collocation_table.cache_clear()
