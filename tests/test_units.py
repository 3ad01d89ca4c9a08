import math

import numpy as np
import pytest

from thermolight.units import make_context


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


@pytest.mark.parametrize("bad", [0.0, -5.0, np.nan, np.inf])
def test_invalid_temperature_rejected(bad):
    with pytest.raises(ValueError):
        make_context(bad)
