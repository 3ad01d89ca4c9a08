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
