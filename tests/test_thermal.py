import math

import mpmath
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


def _sums_nsum(rho):
    """The two defining series at rho, summed by mpmath to 30 digits.

    The transverse terms change sign at m = rho, which misleads nsum's
    extrapolation, so the terms up to well past it are added exactly."""
    a2 = mpmath.mpf(rho) ** 2
    head = int(2 * rho) + 10
    out = []
    for term in (lambda m: 1 / (m * m + a2) ** 2,
                 lambda m: (m * m - a2) / (m * m + a2) ** 3):
        out.append(mpmath.fsum(term(m) for m in range(1, head))
                   + mpmath.nsum(term, [head, mpmath.inf],
                                 method="euler-maclaurin"))
    return out


def _sums_closed_form(rho):
    """s_long and s_trans from the coth closed forms, to 50 digits."""
    a = mpmath.mpf(rho)
    pi, c, h = mpmath.pi, mpmath.coth(mpmath.pi * a), mpmath.csch(mpmath.pi * a) ** 2
    s2 = (pi * c / (2 * a**3) + pi**2 * h / (2 * a**2) - a**-4) / 2
    s3 = (3 * pi * c / (8 * a**5) + 3 * pi**2 * h / (8 * a**4)
          + pi**3 * h * c / (4 * a**3) - a**-6) / 2
    return s2, s2 - 2 * a * a * s3


def test_spatial_sums_match_nsum():
    """Both branches, and the switch between them at rho = 0.6, against the
    series themselves; s_trans changes sign between rho = 1 and 2, so its
    error is measured against s_long."""
    with mpmath.workdps(30):
        for rho in (0.0, 0.05, 0.3, 0.59, 0.6, 0.61, 1.0, 1.7, 2.0, 5.05,
                    12.5, 30.0):
            want_l, want_t = _sums_nsum(rho)
            got_l, got_t = _spatial_sums(rho)
            assert abs(got_l - want_l) <= 1e-14 * want_l, rho
            assert abs(got_t - want_t) <= 1e-14 * want_l, rho


def test_spatial_sums_match_closed_form_up_to_1e8():
    rhos = np.concatenate([np.geomspace(1e-3, 1e8, 300),
                           np.linspace(0.55, 0.65, 21)])
    got_l, got_t = _spatial_sums(rhos)
    with mpmath.workdps(50):
        for rho, gl, gt in zip(rhos, got_l, got_t):
            want_l, want_t = _sums_closed_form(rho)
            assert abs(gl - want_l) <= 1e-14 * want_l, rho
            assert abs(gt - want_t) <= 1e-14 * want_l, rho


def test_spatial_sums_finite_at_extreme_separation():
    # RuntimeWarnings are errors under pytest, so this is also warning-free
    rhos = np.array([0.0, 1e300, np.finfo(float).max])
    s_long, s_trans = _spatial_sums(rhos)
    assert np.all(np.isfinite(s_long)) and np.all(np.isfinite(s_trans))
    assert s_long[1] == s_long[2] == 0.0 and s_trans[1] == s_trans[2] == 0.0


def test_g2_ratio_doubles_at_contact(ctx):
    g2 = thermal.g2_equal_time(ctx, 0.0)
    assert g2.value / g2.asymptote == 2.0


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
    with pytest.raises(ValueError):
        thermal.g2_equal_time(ctx, np.array([1e-7, float("nan")]))


@pytest.mark.parametrize("orientation", ["parallel", "perpendicular"])
def test_g2_equal_time_array_matches_scalar(ctx, orientation):
    """Separations on both sides of the Taylor switch, in a 2-D shape:
    each value has the bits of the scalar call."""
    rs = np.linspace(0.0, 3e-6, 17).reshape(-1, 1)
    g2 = thermal.g2_equal_time(ctx, rs, orientation)
    assert g2.value.shape == rs.shape
    assert g2.asymptote == thermal.g2_asymptote(ctx)
    want = [thermal.g2_equal_time(ctx, float(r), orientation).value
            for r in rs.ravel()]
    np.testing.assert_array_equal(g2.value.ravel(), want)


def test_nan_delay_rejected(ctx):
    with pytest.raises(ValueError, match="finite"):
        thermal.g1_temporal(ctx, float("nan"))


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


def test_coherence_time_against_mpmath(ctx):
    """kappa_c = 2 pi 6! (zeta(6) - zeta(7)) / (pi^4/15)^2 is
    int |g1(u)/g1(0)|^2 du; here by 40-digit quadrature of that integral's
    Parseval form, 2 pi int x^6/(e^x - 1)^2 dx / (pi^4/15)^2."""
    with mpmath.workdps(40):
        inner = mpmath.quad(lambda x: x**6 / mpmath.expm1(x) ** 2,
                            [0, 10, 40, mpmath.inf])
        want = float(2 * mpmath.pi * inner / (mpmath.pi**4 / 15) ** 2)
    kappa = thermal.coherence_time(ctx) / ctx.time_scale
    assert abs(kappa - want) <= 1e-14 * want
