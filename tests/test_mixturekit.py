import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from thermolight import mixturekit, pulsekit, thermal
from thermolight.mixturekit import (WeightSpec, make_matched_improper_weights,
                                    make_unit_trace_weights, g1_improper,
                                    simulation_residual, solve_gaussian_weights,
                                    gaussian_weights_to_spec,
                                    blackbody_spectral_target,
                                    unit_trace_scaling)

ZETA3 = 1.2020569031595943
C_LIGHT = 299792458.0


def test_matched_product_closed_form(ctx):
    want = ZETA3 / (4.0 * math.pi**4 * ctx.length_scale**3)
    assert math.isclose(mixturekit.matched_product(ctx), want, rel_tol=1e-14)


def test_matched_mixture_reproduces_blackbody(ctx, thermal_family,
                                              matched_weights):
    for tau in (0.0, 2e-15, 8e-15):
        imp = g1_improper(thermal_family, matched_weights, tau)
        th = thermal.g1_temporal(ctx, tau)
        assert abs(imp - th) <= 1e-10 * abs(th), tau


def test_mixture_value_independent_of_direction_profile(ctx, matched_weights,
                                                        thermal_family):
    """The normalization absorbs the directional profile entirely."""
    other = pulsekit.make_thermal_family(ctx, upsilon_kind="power",
                                         upsilon_param=7.0)
    a = g1_improper(thermal_family, matched_weights, 1e-15)
    b = g1_improper(other, matched_weights, 1e-15)
    assert abs(a - b) <= 1e-10 * abs(a)


def test_mixture_conjugation(thermal_family, matched_weights):
    plus = g1_improper(thermal_family, matched_weights, 3e-15)
    minus = g1_improper(thermal_family, matched_weights, -3e-15)
    assert minus == plus.conjugate()


def test_mixture_linear_in_weight_product(ctx, thermal_family):
    base = mixturekit.matched_product(ctx)
    w1 = make_matched_improper_weights(ctx, product=base)
    w2 = make_matched_improper_weights(ctx, product=2.0 * base)
    a = g1_improper(thermal_family, w1, 0.0)
    b = g1_improper(thermal_family, w2, 0.0)
    assert math.isclose(b.real, 2.0 * a.real, rel_tol=1e-13)


def test_alpha_sq_reweighting_keeps_product(ctx, thermal_family):
    # same product split differently between p and |alpha|^2
    w = make_matched_improper_weights(ctx, alpha_sq=5.0)
    a = g1_improper(thermal_family, w, 0.0)
    b = thermal.g1_zero(ctx)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_simulation_residual_thermal(ctx, thermal_family, matched_weights):
    taus = np.linspace(0.0, 10e-15, 21)
    rep = simulation_residual(thermal_family, matched_weights, taus)
    assert rep.residual < 1e-6
    assert rep.g1_imp.shape == (21,)
    with pytest.raises(ValueError):
        simulation_residual(thermal_family, matched_weights, [])


def test_weight_spec_validation(ctx):
    with pytest.raises(ValueError):
        WeightSpec(kind="Banana", alpha_sq=1.0).validate()
    with pytest.raises(ValueError):
        WeightSpec(kind="TraceImproper", alpha_sq=-1.0, p_const=1.0,
                   calV=1.0).validate()
    with pytest.raises(ValueError):
        WeightSpec(kind="TraceImproper", alpha_sq=1.0).validate()
    with pytest.raises(ValueError):
        WeightSpec(kind="TraceImproper", alpha_sq=1.0, p_const=1.0,
                   calV=3.0).validate()
    with pytest.raises(ValueError):
        WeightSpec(kind="UnitTrace", alpha_sq=1.0, p_const=1.0,
                   quant_volume=2.0).validate()
    with pytest.raises(ValueError):
        make_unit_trace_weights(0.0)
    ok = make_unit_trace_weights(1e-18, alpha_sq=2.0)
    ok.validate()


@pytest.mark.parametrize("case", [
    "upsilon-exp-nan", "upsilon-power-inf", "thermal-family-inf",
    "gaussian-sigma-inf", "unit-trace-inf", "improper-alpha-zero",
    "improper-alpha-nan", "improper-product-nan", "spec-alpha-nan",
    "spec-p-const-nan"])
def test_invalid_builder_inputs_rejected(ctx, case):
    """Each of these used to give a NaN normalization, a ZeroDivisionError,
    or weights that passed validation."""
    nan, inf = math.nan, math.inf
    improper_p = 1.0 / mixturekit._LABEL_MEASURE        # with calV = 1
    calls = {
        "upsilon-exp-nan": lambda: pulsekit.upsilon_function("exp", nan),
        "upsilon-power-inf": lambda: pulsekit.upsilon_function("power", inf),
        "thermal-family-inf": lambda: pulsekit.make_thermal_family(
            ctx, upsilon_param=inf),
        "gaussian-sigma-inf": lambda: pulsekit.make_gaussian_family(ctx, inf),
        "unit-trace-inf": lambda: make_unit_trace_weights(inf),
        "improper-alpha-zero": lambda: make_matched_improper_weights(
            ctx, alpha_sq=0.0),
        "improper-alpha-nan": lambda: make_matched_improper_weights(
            ctx, alpha_sq=nan),
        "improper-product-nan": lambda: make_matched_improper_weights(
            ctx, product=nan),
        "spec-alpha-nan": lambda: WeightSpec(
            kind="TraceImproper", alpha_sq=nan, p_const=improper_p,
            calV=1.0).validate(),
        "spec-p-const-nan": lambda: WeightSpec(
            kind="UnitTrace", alpha_sq=1.0, p_const=nan,
            quant_volume=1.0).validate(),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            calls[case]()


def test_blackbody_spectral_target_totals():
    # three polarization-summed components integrate to the photon density
    val, _ = integrate.quad(lambda x: blackbody_spectral_target(x), 0, 60)
    assert math.isclose(val, math.pi**2 / 90.0, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# nonnegative weight solver


@pytest.fixture(scope="module")
def nnls_fits(ctx):
    fits = {}
    for dur in (1e-12, 100e-15, 10e-15):
        fits[dur] = solve_gaussian_weights(ctx, 1.0 / (C_LIGHT * dur))
    return fits


def test_solver_residuals_frozen(nnls_fits):
    frozen = {1e-12: 8.5563e-07, 100e-15: 3.0508e-05, 10e-15: 2.6019e-03}
    for dur, want in frozen.items():
        assert math.isclose(nnls_fits[dur].residual, want, rel_tol=1e-3), dur


def test_solver_residual_grows_for_short_pulses(nnls_fits):
    r = [nnls_fits[d].residual for d in (1e-12, 100e-15, 10e-15)]
    assert r[0] < r[1] < r[2]


def test_solver_satisfies_kkt(nnls_fits):
    for fit in nnls_fits.values():
        assert fit.kkt_violation < 1e-8
        assert np.all(fit.weights >= 0.0)


def test_narrow_limit_recovers_occupation_shape(ctx, nnls_fits):
    """For long pulses each node holds its own delta; the masses must
    then follow x0^3/(e^{x0}-1) exactly."""
    fit = nnls_fits[1e-12]
    x0 = fit.k0_grid * ctx.length_scale
    sel = (x0 > 0.5) & (x0 < 8.0) & (fit.weights > 0)
    assert np.count_nonzero(sel) >= 50
    ratio = fit.weights[sel] / (x0[sel] ** 3 / np.expm1(x0[sel]))
    spread = float(ratio.max() / ratio.min()) - 1.0
    assert spread < 1e-6


def test_solver_rejects_bad_sigma(ctx):
    with pytest.raises(ValueError):
        solve_gaussian_weights(ctx, 0.0)


def test_gaussian_route_simulation(ctx, nnls_fits):
    fit = nnls_fits[1e-12]
    spec = gaussian_weights_to_spec(ctx, fit)
    spec.validate()
    fam = pulsekit.make_gaussian_family(ctx, 1.0 / (C_LIGHT * 1e-12))
    taus = np.linspace(0.0, 10e-15, 21)
    rep = simulation_residual(fam, spec, taus)
    assert rep.residual < 1e-3


def test_angular_trace_frozen(ctx):
    """The closed-form Psi/phi average reproduces the former triple
    quadrature over mu, phi and Psi."""
    for kind, param, frozen in (("exp", 20.0, 0.9629032793810555),
                                ("power", 40.0, 0.9515736171906727)):
        fam = pulsekit.make_thermal_family(ctx, upsilon_kind=kind,
                                           upsilon_param=param)
        assert math.isclose(mixturekit._angular_trace(fam), frozen,
                            rel_tol=1e-14), kind


def test_g1_improper_array_matches_scalar(ctx, thermal_family,
                                          matched_weights, nnls_fits):
    taus = np.linspace(-3e-15, 10e-15, 4)
    gauss = pulsekit.make_gaussian_family(ctx, 1.0 / (C_LIGHT * 100e-15))
    for fam, w in ((thermal_family, matched_weights),
                   (gauss, gaussian_weights_to_spec(ctx, nnls_fits[100e-15]))):
        arr = g1_improper(fam, w, taus)
        assert arr.shape == taus.shape
        np.testing.assert_array_equal(
            arr, [g1_improper(fam, w, float(t)) for t in taus])
        assert isinstance(g1_improper(fam, w, 0.0), complex)


def test_g1_improper_requires_improper_kind(thermal_family):
    with pytest.raises(ValueError):
        g1_improper(thermal_family, make_unit_trace_weights(1e-18), 0.0)


# ---------------------------------------------------------------------------
# proper-mixture volume scaling


def test_scaling_requires_unit_trace(thermal_family, matched_weights, ctx):
    with pytest.raises(ValueError):
        unit_trace_scaling(thermal_family, matched_weights,
                           [1e-19, 2e-19, 4e-19])


def test_scaling_rejects_unordered_volumes(thermal_family, ctx):
    w = make_unit_trace_weights(1e-18)
    with pytest.raises(ValueError):
        unit_trace_scaling(thermal_family, w, [2e-19, 1e-19])


def test_scaling_inverse_volume_at_saturation(thermal_family, ctx):
    """Once the cube swallows the whole pulse, G1 falls off exactly as
    1/Omega and the compensated curve is flat."""
    sides = np.array([35.0, 70.0, 140.0]) * ctx.length_scale
    omegas = sides**3
    w = make_unit_trace_weights(float(omegas[0]))
    curve = unit_trace_scaling(thermal_family, w, omegas)
    assert math.isclose(curve.loglog_slope(), -1.0, abs_tol=1e-8)
    flat = curve.g1_compensated
    assert np.max(np.abs(flat / flat[0] - 1.0)) < 1e-10


def _orientation_grid_reference(family, weights, omega_list, n_dirs, n_psi):
    """Reference scaling curve: pulsekit.mu_integral averaged over an explicit
    orientation quadrature (n_dirs Fibonacci directions times n_psi
    polarization angles)."""
    omegas = np.asarray(omega_list, float)
    vals = np.empty(len(omegas))
    m_nodes = pulsekit._fibonacci_sphere(n_dirs)
    psis = 2.0 * math.pi * np.arange(n_psi) / n_psi
    for i, om in enumerate(omegas):
        acc = 0.0
        for m in m_nodes:
            for psi in psis:
                acc += pulsekit.mu_integral(family, m, float(psi),
                                            np.zeros(3), om)[2]
        vals[i] = acc / (len(m_nodes) * len(psis)) / om
    return vals * weights.alpha_sq


def test_scaling_radial_against_orientation_grid(thermal_family, ctx):
    om = (10.0 * ctx.length_scale) ** 3
    w = make_unit_trace_weights(om)
    rad = unit_trace_scaling(thermal_family, w, [om])
    grd = _orientation_grid_reference(thermal_family, w, [om],
                                      n_dirs=8, n_psi=4)
    rel = abs(grd[0] / rad.g1[0] - 1.0)
    assert rel < 2e-2, rel
