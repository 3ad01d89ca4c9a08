import math

import numpy as np
import pytest

from thermolight import units
from thermolight.units import check_seed, make_context


def test_context_scales_at_5777K(ctx):
    assert math.isclose(ctx.length_scale, 3.9637952556823235e-07, rel_tol=1e-12)
    assert math.isclose(ctx.time_scale, 1.322179778012402e-15, rel_tol=1e-12)
    assert math.isclose(ctx.length_scale, ctx.c * ctx.time_scale, rel_tol=1e-15)


def test_context_constants(ctx):
    assert ctx.hbar == 1.054571817e-34
    assert ctx.c == 299792458.0
    assert ctx.epsilon0 == 8.8541878128e-12
    assert math.isclose(ctx.beta, 1.0 / (1.380649e-23 * 5777.0), rel_tol=1e-15)


def test_length_scale_inverse_in_temperature():
    a = make_context(3000.0)
    b = make_context(6000.0)
    assert math.isclose(a.length_scale, 2.0 * b.length_scale, rel_tol=1e-14)


@pytest.mark.parametrize("bad", [0.0, -5.0, np.nan, np.inf, 1e-40, 1e40,
                                 1e-300, np.nextafter(units.T_MIN_K, 0.0),
                                 np.nextafter(units.T_MAX_K, np.inf)])
def test_invalid_temperature_rejected(bad):
    """Below T_MIN_K or above T_MAX_K, fig1 gave NaN (1e-40 K) or
    overflowed (1e40 K); the message names T."""
    with pytest.raises(ValueError, match="temperature T must lie in"):
        make_context(bad)


def test_temperature_range_keeps_scales_in_float_range():
    """make_context takes T from T_MIN_K to T_MAX_K, 1e-20 and 1e20 K
    included, where beta hbar c runs from 1e23 m down to 1e-23 m."""
    for T in (units.T_MIN_K, 1e-20, 1e20, units.T_MAX_K):
        assert 1e-23 * (1 - 1e-15) <= make_context(T).length_scale \
            <= 1e23 * (1 + 1e-15)


def test_check_seed_accepts_integers_in_range():
    """The invalid seeds are in the fockdis and mcfield input tables."""
    assert check_seed(0) == 0 and check_seed(2**63 - 1) == 2**63 - 1
    assert type(check_seed(np.uint64(7))) is int
    with pytest.raises(ValueError, match="seed"):
        check_seed(2**63)
