import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from thermolight import mcfield, mixturekit, pulsekit
from thermolight.mcfield import (estimate_g1_mix, estimate_g2_mix,
                                 tail_intensity_bound,
                                 g2_truncation_bias_bound)
from thermolight.mixturekit import (g1_improper, make_unit_trace_weights,
                                    make_matched_improper_weights)
from thermolight.thermal import g1_zero


def _cube(ctx, side_units):
    return (side_units * ctx.length_scale) ** 3


def test_g1_seed_determinism(ctx, thermal_family, matched_weights):
    om = _cube(ctx, 40.0)
    args = (thermal_family, matched_weights, om, np.zeros(3), 0.0, 2000)
    a = estimate_g1_mix(*args, seed=12)
    b = estimate_g1_mix(*args, seed=12)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = estimate_g1_mix(*args, seed=13)
    assert c.mean != a.mean


def test_g1_uniform_path_determinism(ctx):
    fam = pulsekit.make_gaussian_family(ctx, 0.04 / ctx.length_scale)
    om = _cube(ctx, 160.0)
    w = make_unit_trace_weights(om)
    args = (fam, w, om, np.zeros(3), 0.0, 2000)
    a = estimate_g1_mix(*args, seed=12, k0=8.0 / ctx.length_scale)
    b = estimate_g1_mix(*args, seed=12, k0=8.0 / ctx.length_scale)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_estimators_reject_tiny_samples(ctx, thermal_family, matched_weights):
    om = _cube(ctx, 40.0)
    with pytest.raises(ValueError):
        estimate_g1_mix(thermal_family, matched_weights, om, np.zeros(3),
                        0.0, 99, seed=1)
    with pytest.raises(ValueError):
        estimate_g2_mix(thermal_family, matched_weights, om, 0.0, 99, seed=1)
    with pytest.raises(ValueError):
        estimate_g2_mix(thermal_family, matched_weights, om, -1.0, 1000,
                        seed=1)


def test_g2_rejects_inputs_it_cannot_estimate(ctx, thermal_family,
                                              matched_weights):
    om = _cube(ctx, 40.0)
    with pytest.raises(ValueError, match="n_strata"):
        estimate_g2_mix(thermal_family, matched_weights, om, 0.0, 100,
                        seed=1, n_strata=200)
    with pytest.raises(ValueError):
        estimate_g2_mix(thermal_family, matched_weights, om, float("nan"),
                        1000, seed=1)
    gauss = pulsekit.make_gaussian_family(ctx, 0.04 / ctx.length_scale)
    with pytest.raises(ValueError, match="thermal"):
        estimate_g2_mix(gauss, make_unit_trace_weights(om), om, 0.0, 1000,
                        seed=1)


@pytest.mark.parametrize("case", [
    "g1-omega-zero", "g1-omega-negative", "g1-omega-nan", "g1-tau-nan",
    "g1-r-nan", "g2-omega-negative", "g2-R-inf", "g2-reach-zero",
    "g2-reach-nan", "table-delay-nan", "table-reach-nan", "table-reach-zero",
    "table-reach-short", "g2-reach-short"])
def test_bad_geometry_rejected_before_any_work(ctx, thermal_family,
                                               matched_weights, monkeypatch,
                                               case):
    """Each of these used to raise a stray TypeError, build (and keep) a NaN
    table or one too short to read, or return a NaN or zero estimate."""
    def no_work(*args, **kwargs):
        raise AssertionError("drew labels or built a table before checking")

    monkeypatch.setattr(mcfield, "draw_batch", no_work)
    monkeypatch.setattr(mcfield, "_draw_shell", no_work)
    monkeypatch.setattr(pulsekit, "_build_table", no_work)
    fam, w, nan, origin = thermal_family, matched_weights, math.nan, np.zeros(3)
    om = _cube(ctx, 40.0)
    calls = {
        "g1-omega-zero": lambda: estimate_g1_mix(fam, w, 0.0, origin, 0.0,
                                                 1000, 1),
        "g1-omega-negative": lambda: estimate_g1_mix(fam, w, -om, origin,
                                                     0.0, 1000, 1),
        "g1-omega-nan": lambda: estimate_g1_mix(fam, w, nan, origin, 0.0,
                                                1000, 1),
        "g1-tau-nan": lambda: estimate_g1_mix(fam, w, om, origin, nan,
                                              1000, 1),
        "g1-r-nan": lambda: estimate_g1_mix(fam, w, om, np.array(
            [0.0, nan, 0.0]), 0.0, 1000, 1),
        "g2-omega-negative": lambda: estimate_g2_mix(fam, w, -om, 0.0,
                                                     1000, 1),
        "g2-R-inf": lambda: estimate_g2_mix(fam, w, om, math.inf, 1000, 1),
        "g2-reach-zero": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, 1,
                                                 reach=0.0),
        "g2-reach-nan": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, 1,
                                                reach=nan),
        "table-delay-nan": lambda: fam.table(nan),
        "table-reach-nan": lambda: fam.table(0.0, reach=nan),
        "table-reach-zero": lambda: fam.table(0.0, reach=0.0),
        "table-reach-short": lambda: fam.table(0.0, reach=0.2),
        "g2-reach-short": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, 1,
                                                  reach=0.2),
    }
    with pytest.raises(ValueError):
        calls[case]()


def test_amplitude_consistency_enforced(ctx, thermal_family):
    w = make_matched_improper_weights(ctx, alpha_sq=4.0)
    with pytest.raises(ValueError):
        estimate_g1_mix(thermal_family, w, _cube(ctx, 40.0), np.zeros(3),
                        0.0, 1000, seed=1)


def test_zero_amplitude_gives_exact_zero(ctx):
    fam = pulsekit.make_thermal_family(ctx, alpha=0.0)
    om = _cube(ctx, 40.0)
    w = make_unit_trace_weights(om, alpha_sq=0.0)
    est = estimate_g1_mix(fam, w, om, np.zeros(3), 0.0, 1000, seed=4)
    assert est.mean == 0.0 + 0.0j
    assert est.std_error == 0.0


def test_toy_gaussian_mixture_is_unbiased(ctx):
    """Narrow-lineshape mixture has a closed-form first-order value; the
    estimator must straddle it with 1/sqrt(n) error bars."""
    ls = ctx.length_scale
    sig = 0.04 / ls
    fam = pulsekit.make_gaussian_family(ctx, sig)
    k0 = 8.0 / ls
    om = _cube(ctx, 160.0)
    w = make_unit_trace_weights(om)
    params = pulsekit.make_pulse_params(np.array([0.0, 0.0, 1.0]), 0.3,
                                        np.zeros(3), k0=k0)
    peak = pulsekit.field_envelope(fam, params, np.zeros(3)).value
    expect = float(np.vdot(peak, peak).real) \
        * (math.pi / sig**2) ** 1.5 / (3.0 * om)
    errs = {}
    for n in (1000, 10_000):
        est = estimate_g1_mix(fam, w, om, np.zeros(3), 0.0, n, 99, k0=k0)
        assert abs(est.mean.real - expect) <= 3.0 * est.std_error, n
        errs[n] = est.std_error
    assert 2.0 < errs[1000] / errs[10_000] < 5.0


def test_g1_halves_when_volume_doubles(ctx, thermal_family):
    om = _cube(ctx, 40.0)
    a = estimate_g1_mix(thermal_family, make_unit_trace_weights(om), om,
                        np.zeros(3), 0.0, 100_000, 5)
    b = estimate_g1_mix(thermal_family, make_unit_trace_weights(2 * om),
                        2 * om, np.zeros(3), 0.0, 100_000, 6)
    ratio = a.mean.real / b.mean.real
    sig = abs(ratio) * math.hypot(a.std_error / abs(a.mean),
                                  b.std_error / abs(b.mean))
    assert abs(ratio - 2.0) <= 3.0 * sig, (ratio, sig)


def test_g1_estimator_matches_label_average(ctx, thermal_family,
                                            matched_weights):
    """MC versus the deterministic mixture transform over a span of delays.

    The stratified sampler only reaches the envelope table, which holds
    about 99.77% of the pulse intensity, so a small one-sided truncation
    allowance rides on top of the statistical band.
    """
    om = _cube(ctx, 40.0)
    allowance = 3e-3 * g1_zero(ctx)
    for tau in np.linspace(0.0, 3e-15, 6):
        est = estimate_g1_mix(thermal_family, matched_weights, om,
                              np.zeros(3), float(tau), 40_000, 101)
        ref = g1_improper(thermal_family, matched_weights, float(tau))
        assert abs(est.mean - ref) <= 3.0 * est.std_error + allowance, tau


def test_g2_overlap_term_against_moment_quadrature(ctx, thermal_family,
                                                   matched_weights):
    """Coincident detectors: the pulse-overlap average has a deterministic
    form after doing the orientation average analytically.

    For a uniformly rotated orthonormal pair (e2, m) the z-component
    moments are <e2_z^4> = <m_z^4> = 1/5 and <e2_z^2 m_z^2> = 1/15, which
    turns <|E_z|^4> into an explicit functional of the canonical-frame
    transforms; what remains is a 3D quadrature over the relative geometry.
    """
    tab = thermal_family.table(0.0)
    pref4 = abs(thermal_family.envelope_prefactor() * 2.0 * math.pi) ** 4
    dg = np.linspace(1e-3, 15.98, 600)
    cg, cw = leggauss(96)
    st = np.sqrt(1.0 - cg**2)
    s2 = np.sin(2.0 * math.pi * (np.arange(32) + 0.5) / 32) ** 2
    qbar = np.empty(len(dg))
    for i, d in enumerate(dg):
        ty, tz = tab.lookup(d * st, d * cg)
        ty2 = np.abs(ty) ** 2
        tz2 = np.abs(tz) ** 2
        imtc = np.imag(ty * np.conj(tz))
        q = (0.2 * (ty2[None, :] ** 2 + (tz2[None, :] * s2[:, None]) ** 2)
             + (2.0 * ty2[None, :] * tz2[None, :] * s2[:, None]
                + 4.0 * imtc[None, :] ** 2 * s2[:, None]) / 15.0)
        qbar[i] = 0.5 * float(np.sum(cw[None, :] * q) / len(s2))
    oracle = (8.0 * math.pi**2 * matched_weights.p_const * pref4
              * 4.0 * math.pi * np.trapezoid(dg**2 * qbar, dg)
              * ctx.length_scale**3)

    est = estimate_g2_mix(thermal_family, matched_weights, _cube(ctx, 40.0),
                          0.0, 400_000, 17)
    # the integrand is heavy-tailed, so the estimate is order-of-magnitude
    ratio = est.mean / oracle
    assert 0.25 < ratio < 4.0, (est.mean, oracle)


def test_g2_decays_beyond_pulse_extent(ctx, thermal_family, matched_weights):
    ext = pulsekit.pulse_extent(thermal_family, 0.99)
    om = _cube(ctx, 40.0)
    vals = [estimate_g2_mix(thermal_family, matched_weights, om,
                            mult * ext, 20_000, 31).mean
            for mult in (1.2, 2.0, 3.5)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_tail_bound_dominates_far_field(thermal_family):
    pref2 = abs(thermal_family.envelope_prefactor() * 2.0 * math.pi) ** 2
    bound = tail_intensity_bound(thermal_family, 21.0)
    for P, Z in [(21.0, 0.0), (14.849, 14.849), (0.0, 21.0)]:
        ty, tz = pulsekit.transforms_direct(thermal_family, P, Z)
        assert pref2 * (abs(ty) + abs(tz)) ** 2 <= bound
    assert tail_intensity_bound(thermal_family, 18.0) \
        > tail_intensity_bound(thermal_family, 25.0) \
        > tail_intensity_bound(thermal_family, 32.0)


def test_truncation_bias_bound_properties(ctx, thermal_family,
                                          matched_weights):
    R = 30.0 * ctx.length_scale
    g1m = g1_zero(ctx)
    b = g2_truncation_bias_bound(thermal_family, matched_weights, R, 16.0,
                                 g1m)
    assert b > 0.0
    sym = g2_truncation_bias_bound(thermal_family, matched_weights, R,
                                   30.0 - 16.0, g1m)
    assert math.isclose(b, sym, rel_tol=1e-12)
    with pytest.raises(ValueError):
        g2_truncation_bias_bound(thermal_family, matched_weights, R, 30.0,
                                 g1m)
    with pytest.raises(ValueError):
        g2_truncation_bias_bound(thermal_family, matched_weights, R, 0.0,
                                 g1m)
