import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from oracles import mu_integral
from thermolight import mixturekit, pulsekit, thermal
from thermolight.mixturekit import (WeightSpec, make_matched_improper_weights,
                                    make_unit_trace_weights, g1_improper,
                                    g1_improper_gaussian, simulation_residual,
                                    solve_gaussian_weights,
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


def test_alpha_sq_reweighting_keeps_product(ctx):
    # same product split differently between p and |alpha|^2
    fam = pulsekit.make_thermal_family(ctx, alpha=math.sqrt(5.0))
    w = make_matched_improper_weights(ctx, alpha_sq=5.0)
    a = g1_improper(fam, w, 0.0)
    b = thermal.g1_zero(ctx)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_amplitude_read_from_family_once(ctx, thermal_family):
    """|alpha|^2 lives on the family: doubling alpha scales both readers
    by exactly 4.  unit_trace_scaling used to count it twice (16x) and
    g1_improper not at all (1x)."""
    fam2 = pulsekit.make_thermal_family(ctx, alpha=2.0)
    om = (10.0 * ctx.length_scale) ** 3
    one = unit_trace_scaling(thermal_family, [om]).g1[0]
    two = unit_trace_scaling(fam2, [om]).g1[0]
    assert abs(two / one - 4.0) <= 1e-14
    g0 = thermal.g1_zero(ctx)
    matched = g1_improper(fam2, make_matched_improper_weights(ctx), 0.0)
    assert abs(matched - 4.0 * g0) <= 1e-10 * 4.0 * g0
    split = g1_improper(fam2, make_matched_improper_weights(ctx, alpha_sq=4.0),
                        0.0)
    assert abs(split - g0) <= 1e-10 * g0


@pytest.mark.parametrize("omegas", [[1e-18, math.nan], [0.0, 1.0],
                                    [1e-18, math.inf], [-1.0, 1e-18]])
def test_unit_trace_scaling_rejects_unusable_volumes(thermal_family,
                                                     monkeypatch, omegas):
    """Every volume must be positive and finite, checked before the radial
    profile is read.  NaN passed the increasing-order check and gave a NaN
    g1 silently; 0, inf and a negative volume warned of a divide by zero
    or an invalid value."""
    def no_profile(*args, **kwargs):
        raise AssertionError("read the radial profile before checking")

    monkeypatch.setattr(pulsekit, "radial_intensity_profile", no_profile)
    with pytest.raises(ValueError, match="omega_list"):
        unit_trace_scaling(thermal_family, omegas)


def test_simulation_residual_thermal(ctx, thermal_family, matched_weights):
    taus = np.linspace(0.0, 10e-15, 21)
    rep = simulation_residual(thermal_family, matched_weights, taus)
    assert rep.residual < 1e-6
    assert rep.g1_imp.shape == (21,)
    with pytest.raises(ValueError):
        simulation_residual(thermal_family, matched_weights, [])


@pytest.mark.parametrize("kind, param", [("exp", 1e4), ("exp", 1e6),
                                         ("power", 1e4)])
def test_simulation_residual_narrow_profiles(ctx, matched_weights, kind,
                                             param):
    """The profile cancels for any width: a 200-node rule for the angular
    trace left residuals of 0.12 (kappa = 1e4), 1.0 (kappa = 1e6) and
    3.1e-3 (q = 1e4) against the closed-form normalization."""
    fam = pulsekit.make_thermal_family(ctx, upsilon_kind=kind,
                                       upsilon_param=param)
    taus = np.linspace(0.0, 10e-15, 50)
    assert simulation_residual(fam, matched_weights, taus).residual < 1e-12


def test_weight_spec_validation(ctx):
    """A WeightSpec is checked once, when it is made."""
    with pytest.raises(ValueError, match="kind"):
        WeightSpec(kind="Banana", p_const=1.0)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="p_const"):
            WeightSpec(kind="TraceImproper", p_const=bad)
    with pytest.raises(ValueError):
        make_unit_trace_weights(0.0)
    ok = make_unit_trace_weights(1e-18)
    assert ok == WeightSpec(kind="UnitTrace",
                            p_const=1.0 / (1e-18 * mixturekit._LABEL_MEASURE))


@pytest.mark.parametrize("case", [
    "upsilon-exp-nan", "upsilon-power-inf", "thermal-family-inf",
    "gaussian-sigma-inf", "gaussian-sigma-negative", "unit-trace-inf", "improper-alpha-zero",
    "improper-alpha-nan", "improper-product-nan", "family-alpha-nan",
    "family-alpha-inf", "family-alpha-imag-nan", "spec-p-const-nan"])
def test_invalid_builder_inputs_rejected(ctx, case):
    """Each of these used to give a NaN normalization, a ZeroDivisionError,
    or weights that passed validation."""
    nan, inf = math.nan, math.inf
    # any fit will do: sigma is checked first
    fit = mixturekit.GaussianWeightFit(k0_grid=np.ones(1), weights=np.ones(1),
                                       residual=0.0, kkt_violation=0.0)
    calls = {
        "upsilon-exp-nan": lambda: pulsekit.upsilon_function("exp", nan),
        "upsilon-power-inf": lambda: pulsekit.upsilon_function("power", inf),
        "thermal-family-inf": lambda: pulsekit.make_thermal_family(
            ctx, upsilon_param=inf),
        "gaussian-sigma-inf": lambda: g1_improper_gaussian(ctx, inf, fit, 0.0),
        "gaussian-sigma-negative": lambda: g1_improper_gaussian(
            ctx, -3.0, fit, 0.0),
        "unit-trace-inf": lambda: make_unit_trace_weights(inf),
        "improper-alpha-zero": lambda: make_matched_improper_weights(
            ctx, alpha_sq=0.0),
        "improper-alpha-nan": lambda: make_matched_improper_weights(
            ctx, alpha_sq=nan),
        "improper-product-nan": lambda: make_matched_improper_weights(
            ctx, product=nan),
        # these gave a NaN prefactor and NaN intensity totals
        "family-alpha-nan": lambda: pulsekit.make_thermal_family(
            ctx, alpha=nan),
        "family-alpha-inf": lambda: pulsekit.make_thermal_family(
            ctx, alpha=inf),
        "family-alpha-imag-nan": lambda: pulsekit.make_thermal_family(
            ctx, alpha=complex(1.0, nan)),
        "spec-p-const-nan": lambda: WeightSpec(kind="UnitTrace", p_const=nan),
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
    taus = np.linspace(0.0, 10e-15, 21)
    imp = g1_improper_gaussian(ctx, 1.0 / (C_LIGHT * 1e-12), nnls_fits[1e-12],
                               taus)
    th = thermal.g1_temporal(ctx, taus)
    assert np.linalg.norm(imp - th) / np.linalg.norm(th) < 1e-3


def test_angular_trace_frozen(ctx):
    """2 pi^2 J, the Psi/phi average in closed form times the mu integral,
    against 2 pi^2 int upsilon^2 (1 + mu^2) dmu by 40-digit mpmath
    quadrature (recorded)."""
    for kind, param, frozen in (("exp", 20.0, 0.9629032793812805),
                                ("power", 40.0, 0.9515736171908984)):
        fam = pulsekit.make_thermal_family(ctx, upsilon_kind=kind,
                                           upsilon_param=param)
        assert math.isclose(mixturekit._angular_trace(fam), frozen,
                            rel_tol=1e-14), kind


def test_g1_improper_array_matches_scalar(ctx, thermal_family,
                                          matched_weights, nnls_fits):
    taus = np.linspace(-3e-15, 10e-15, 4)
    fit = nnls_fits[100e-15]
    sigma = 1.0 / (C_LIGHT * 100e-15)
    for g1 in (lambda tau: g1_improper(thermal_family, matched_weights, tau),
               lambda tau: g1_improper_gaussian(ctx, sigma, fit, tau)):
        arr = g1(taus)
        assert arr.shape == taus.shape
        np.testing.assert_array_equal(arr, [g1(float(t)) for t in taus])
        assert isinstance(g1(0.0), complex)


def test_g1_improper_requires_improper_kind(ctx, thermal_family):
    with pytest.raises(ValueError):
        g1_improper(thermal_family, make_unit_trace_weights(1e-18), 0.0)


def _angular_kernel_per_entry(x, x0, s):
    """The kernel with its small-a rule summed one entry at a time, as it
    was before that branch took arrays; kept as the reference."""
    X, X0 = np.meshgrid(np.asarray(x, float), np.asarray(x0, float), indexing="ij")
    a = 2.0 * X * X0 / (s * s)
    out = np.empty_like(a)
    big = a >= 0.5
    ab = a[big]
    sh = 1.0 - np.exp(-2.0 * ab)
    ch = 1.0 + np.exp(-2.0 * ab)
    out[big] = sh / ab + ((ab * ab + 2.0) * sh - 2.0 * ab * ch) / ab**3
    xg, wg = pulsekit._gauss_legendre(48)
    asm = a[~big]
    out[~big] = np.exp(-asm) * np.array(
        [np.sum(wg * (1.0 + xg**2) * np.exp(av * xg)) for av in asm])
    return np.exp(-(X - X0) ** 2 / (s * s)) * out


@pytest.mark.parametrize("block", [7, None])
def test_gaussian_angular_kernel_matches_per_entry_sum(monkeypatch, block):
    """Both rules, block seams included: bit for bit the per-entry sum."""
    if block is not None:
        monkeypatch.setattr(mixturekit, "_KERNEL_BLOCK", block)
    x = np.linspace(0.01, 25.0, 240)
    x0 = np.linspace(0.02, 20.0, 30)
    for s in (0.3, 4.0, 30.0):
        got = mixturekit.gaussian_angular_kernel(x, x0, s)
        np.testing.assert_array_equal(got, _angular_kernel_per_entry(x, x0, s))


# ---------------------------------------------------------------------------
# proper-mixture volume scaling


def test_scaling_rejects_unordered_volumes(thermal_family, ctx):
    with pytest.raises(ValueError):
        unit_trace_scaling(thermal_family, [2e-19, 1e-19])


def test_scaling_inverse_volume_at_saturation(thermal_family, ctx):
    """Once the cube swallows the whole pulse, G1 falls off exactly as
    1/Omega and the compensated curve is flat."""
    sides = np.array([35.0, 70.0, 140.0]) * ctx.length_scale
    omegas = sides**3
    curve = unit_trace_scaling(thermal_family, omegas)
    assert math.isclose(curve.loglog_slope(), -1.0, abs_tol=1e-8)
    flat = curve.g1_compensated
    assert np.max(np.abs(flat / flat[0] - 1.0)) < 1e-10


def _fibonacci_sphere(n):
    """n nearly uniform unit vectors on a Fibonacci spiral."""
    i = np.arange(n) + 0.5
    mu = 1.0 - 2.0 * i / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    st = np.sqrt(1.0 - mu**2)
    return np.stack([st * np.cos(phi), st * np.sin(phi), mu], axis=1)


def _orientation_grid_reference(family, omega_list, n_dirs, n_psi):
    """Reference scaling curve: mu_integral averaged over an explicit
    orientation quadrature (n_dirs Fibonacci directions times n_psi
    polarization angles)."""
    omegas = np.asarray(omega_list, float)
    vals = np.empty(len(omegas))
    m_nodes = _fibonacci_sphere(n_dirs)
    psis = 2.0 * math.pi * np.arange(n_psi) / n_psi
    for i, om in enumerate(omegas):
        acc = 0.0
        for m in m_nodes:
            for psi in psis:
                acc += mu_integral(family, m, float(psi),
                                            np.zeros(3), om)[2]
        vals[i] = acc / (len(m_nodes) * len(psis)) / om
    return vals


def test_scaling_radial_against_orientation_grid(thermal_family, ctx):
    om = (10.0 * ctx.length_scale) ** 3
    rad = unit_trace_scaling(thermal_family, [om])
    grd = _orientation_grid_reference(thermal_family, [om],
                                      n_dirs=8, n_psi=4)
    rel = abs(grd[0] / rad.g1[0] - 1.0)
    assert rel < 2e-2, rel
