import tracemalloc

import pytest

from thermolight.units import make_context
from thermolight import pulsekit, mixturekit


@pytest.fixture(scope="session")
def ctx():
    return make_context(5777.0)


@pytest.fixture(scope="session")
def thermal_family(ctx):
    # shared so the envelope tables are built once per session
    return pulsekit.make_thermal_family(ctx)


@pytest.fixture(scope="session")
def power_family(ctx):
    # the second table weight: a broad profile, (1 + mu)^2 / 4, which weighs
    # mu <= 0 (the default e^{20 (mu - 1)} does so by at most e^{-20})
    return pulsekit.make_thermal_family(ctx, upsilon_kind="power",
                                        upsilon_param=2.0)


@pytest.fixture(scope="session")
def matched_weights(ctx):
    return mixturekit.make_matched_improper_weights(ctx)


def _traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) under tracemalloc: its value, the peak of traced
    allocations during the call and what the call left allocated, both in
    bytes above what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn(*args, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak - base, kept - base


@pytest.fixture
def traced_peak():
    """The memory tests' one way to trace a call: see _traced_peak."""
    return _traced_peak
