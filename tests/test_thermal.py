import math

import numpy as np
import pytest

from thermolight.units import make_context
from thermolight import thermal
from thermolight.thermal import _spatial_sums


def test_g1_zero_frozen_value(ctx):
    assert math.isclose(thermal.g1_zero(ctx), 15862093872.936672, rel_tol=1e-10)


def test_g1_zero_closed_form(ctx):
    # the zero-delay diagonal equals pi^2 / (90 eps0 beta^4 (hbar c)^3)
    want = math.pi**2 / (90.0 * ctx.epsilon0 * ctx.beta**4
                         * (ctx.hbar * ctx.c) ** 3)
    assert math.isclose(thermal.g1_zero(ctx), want, rel_tol=1e-14)


def test_g1_temporal_conjugation_and_decay(ctx):
    taus = np.linspace(0.0, 8e-15, 9)
    vals = [thermal.g1_temporal(ctx, float(t)) for t in taus]
    assert math.isclose(vals[0].real, thermal.g1_zero(ctx), rel_tol=1e-13)
    for t, v in zip(taus, vals):
        back = thermal.g1_temporal(ctx, -float(t))
        assert abs(back - np.conj(v)) <= 1e-13 * abs(v)
    mags = [abs(v) for v in vals]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_spatial_sums_frozen():
    # oracle: brute summation to 2e6 terms with Euler-Maclaurin tail
    cases = {
        0.5: (0.7143585179332619, 0.45104708843929214),
        1.0: (0.3068369754177022, 0.038244724869605826),
        2.0: (0.06693405989231492, -0.017896095459129912),
    }
    for rho, (sl, st) in cases.items():
        got_l, got_t = _spatial_sums(rho)
        assert math.isclose(got_l, sl, rel_tol=1e-9)
        assert math.isclose(got_t, st, rel_tol=1e-9, abs_tol=1e-12)


def test_g2_ratio_doubles_at_contact(ctx):
    g2 = thermal.g2_equal_time(ctx, 0.0)
    assert math.isclose(g2.value / g2.asymptote, 2.0, rel_tol=1e-10)


def test_g2_asymptote_is_g1_squared(ctx):
    assert thermal.g2_asymptote(ctx) == thermal.g1_zero(ctx) ** 2


def test_g2_large_separation_margin(ctx):
    g2 = thermal.g2_equal_time(ctx, 5e-6, "parallel")
    excess = g2.value / g2.asymptote - 1.0
    assert 0.0 < excess < 1e-3
    assert math.isclose(excess, 1.1785057263402621e-07, rel_tol=1e-3)


def test_one_percent_radii_frozen(ctx):
    """Where each orientation's curve first drops to 1% above the floor."""
    asym = thermal.g2_asymptote(ctx)
    frozen = {"parallel": 6.521796265636143e-07,
              "perpendicular": 3.318361487097106e-07}
    for orientation, radius in frozen.items():
        dev = thermal.g2_equal_time(ctx, radius, orientation).value / asym - 1.0
        assert math.isclose(dev, 0.01, rel_tol=1e-4)
        inside = thermal.g2_equal_time(ctx, 0.97 * radius, orientation)
        assert inside.value / asym - 1.0 > 0.01


def test_g2_curve_matches_pointwise(ctx):
    rs = np.array([0.0, 2e-7, 6e-7, 1.5e-6])
    curve = thermal.g2_curve(ctx, rs, "perpendicular")
    for r, ratio in zip(rs, curve):
        g2 = thermal.g2_equal_time(ctx, float(r), "perpendicular")
        assert math.isclose(ratio, g2.value / g2.asymptote, rel_tol=1e-12)


def test_nan_separation_rejected(ctx):
    with pytest.raises(ValueError):
        thermal.g2_equal_time(ctx, float("nan"))


def test_invalid_orientation_rejected(ctx):
    with pytest.raises(ValueError):
        thermal.g2_equal_time(ctx, 1e-7, "diagonal")


def test_asymptote_temperature_scaling():
    a = thermal.g2_asymptote(make_context(3000.0))
    b = thermal.g2_asymptote(make_context(6000.0))
    assert math.isclose(b / a, 2.0 ** 8, rel_tol=1e-11)


def test_coherence_time_frozen(ctx):
    tc = thermal.coherence_time(ctx)
    assert math.isclose(tc, 1.2756422477282634e-15, rel_tol=1e-10)


def test_coherence_time_kappa_invariant(ctx):
    # tau_c * (k_B T / hbar) is a pure number
    tc = thermal.coherence_time(ctx)
    kappa = tc / ctx.time_scale
    assert math.isclose(kappa, 0.9648024186590263, rel_tol=1e-9)
