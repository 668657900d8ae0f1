import pytest
from hypothesis import HealthCheck, settings

from gegtau import gegenbauer, pencil, spectra

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


@pytest.fixture
def cold_pencil_caches():
    """Empty the pencil's per-configuration caches, the endpoint tables and
    the table of kept solves, so that a test's patched builder runs, and its
    counts hold, whichever tests ran before it."""
    pencil._operator.cache_clear()
    pencil._collocation_table.cache_clear()
    gegenbauer._table.cache_clear()
    spectra._shared.clear()
