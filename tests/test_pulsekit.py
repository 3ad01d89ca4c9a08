import math
import warnings

import numpy as np
import pytest
from scipy import special

from thermolight import pulsekit
from thermolight.units import make_context
from thermolight.pulsekit import (PulseParams, make_pulse_params,
                                  make_gaussian_family, field_envelope,
                                  envelope_batch, transforms_direct,
                                  pulse_extent, total_intensity_integral,
                                  mu_integral, sphere_in_cube_fraction)


ZETA3 = 1.2020569031595943


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# envelope table versus direct quadrature


def test_table_matches_direct_quadrature(thermal_family):
    """Interpolated transforms against slow Gauss-Legendre quadrature."""
    peak = abs(transforms_direct(thermal_family, 0.0, 0.0, 0.0)[0])
    pts = [(0.0, 0.5), (1.0, 1.0), (3.0, -2.0), (0.3, 7.0), (9.0, 4.0)]
    for P, Z in pts:
        tab = thermal_family.table(0.0)
        ty_t, tz_t = tab.lookup(np.array([P]), np.array([Z]))
        ty_d, tz_d = transforms_direct(thermal_family, P, Z, 0.0)
        err = max(abs(ty_t[0] - ty_d), abs(tz_t[0] - tz_d)) / peak
        assert err < 5e-4, (P, Z, err)


def test_table_build_independent_of_temperature_and_amplitude():
    """The build sees only dimensionless inputs, which is what lets families
    at any T and alpha share one table."""
    hot = pulsekit.make_thermal_family(make_context(5777.0))
    cold = pulsekit.make_thermal_family(make_context(3000.0), alpha=2.0)
    a = pulsekit._build_table(hot, 0.0, 2.0, None)
    b = pulsekit._build_table(cold, 0.0, 2.0, None)
    np.testing.assert_array_equal(a.Ty, b.Ty)
    np.testing.assert_array_equal(a.Tz, b.Tz)


def test_tables_shared_across_temperature_and_amplitude(thermal_family):
    cold = pulsekit.make_thermal_family(make_context(3000.0), alpha=2.0)
    assert cold.table(0.0) is thermal_family.table(0.0)
    assert pulsekit.tail_coefficient(cold) \
        == pulsekit.tail_coefficient(thermal_family)
    other = pulsekit.make_thermal_family(make_context(3000.0),
                                         upsilon_kind="power")
    assert other.table(0.0, reach=2.0) is not cold.table(0.0, reach=2.0)


def test_tail_coefficient_frozen(thermal_family):
    """c3 sets the G2 truncation bound behind criterion 7; value recorded
    before the quadrature nodes were cached."""
    assert math.isclose(pulsekit.tail_coefficient(thermal_family),
                        7.204959811181557, rel_tol=1e-12)
    for span in ((0.0, 40.0), (-1.0, 1.0)):
        x, w = pulsekit._gauss_legendre(1200, *span)
        want = x.copy(), w.copy()
        x[:] = 0.0
        w[:] = 0.0
        for got, ref in zip(pulsekit._gauss_legendre(1200, *span), want):
            np.testing.assert_array_equal(got, ref)


def test_table_zero_outside_reach(thermal_family):
    tab = thermal_family.table(0.0)
    ty, tz = tab.lookup(np.array([20.0]), np.array([5.0]))
    assert ty[0] == 0.0 and tz[0] == 0.0


def test_delayed_table_matches_direct(thermal_family):
    u = 1.5
    tab = thermal_family.table(u)
    peak = abs(transforms_direct(thermal_family, 0.0, 0.0, 0.0)[0])
    for P, Z in [(0.5, 1.0), (2.0, 3.0)]:
        ty_t, tz_t = tab.lookup(np.array([P]), np.array([Z]))
        ty_d, tz_d = transforms_direct(thermal_family, P, Z, u)
        assert max(abs(ty_t[0] - ty_d), abs(tz_t[0] - tz_d)) / peak < 5e-4


def _transforms_full_grid(family, P, Z, u_delay=0.0, k0=None, nx=None,
                          nmu=None):
    """transforms_direct before its mu-parity fold: the whole nx x nmu grid
    as complex arrays, summed by einsum (slow oracle)."""
    dist = math.hypot(P, Z)
    x0 = None if k0 is None else k0 * family.ctx.length_scale
    xlo, xhi = pulsekit._support(family, x0)
    if nx is None:
        nx = int(max(300, 12 * dist))
    if nmu is None:
        nmu = int(max(1600, 24 * dist))
    x, xw = pulsekit._gauss_legendre(nx, max(0.0, xlo), xhi)
    mg, mw = pulsekit._gauss_legendre(nmu)
    st = np.sqrt(1.0 - mg**2)
    wx = pulsekit._spectral_weight(family, x[:, None], mg[None, :], x0)
    ph = np.exp(1j * np.outer(x, mg) * Z)
    if u_delay != 0.0:
        ph = ph * np.exp(-1j * x[:, None] * u_delay)
    jy = special.j0(np.outer(x, st) * P)
    jz = special.j1(np.outer(x, st) * P)
    ty = np.einsum("i,j,ij->", xw, mw * mg, wx * jy * ph)
    tz = np.einsum("i,j,ij->", xw, mw * st, wx * jz * ph)
    return complex(ty), complex(tz)


@pytest.mark.parametrize("kind, P, Z, u, nmu", [
    ("thermal", 3.0, 2.0, 0.0, 1600),
    ("thermal", 3.0, 2.0, 0.0, 1601),
    ("thermal", 0.0, 4.0, 0.0, 1600),
    ("thermal", 0.0, 4.0, 0.0, 1601),
    ("thermal", 5.0, 0.0, 0.0, 1601),
    ("thermal", 2.0, -3.0, 1.5, 1600),
    ("thermal", 2.0, -3.0, 1.5, 1601),
    ("power", 3.0, 2.0, 0.0, 1601),
    ("power", 2.0, -3.0, 1.5, 1601),
    ("gaussian", 1.0, 1.0, 0.0, 1601),
    ("gaussian", 0.5, -2.0, 0.0, 1601),
])
def test_transforms_direct_matches_full_grid(ctx, thermal_family, kind, P, Z,
                                             u, nmu):
    """The mu-parity fold sums the same nodes as the full grid; odd nmu puts
    a node at mu = 0, which the fold must count exactly once.  The default
    thermal profile is e^{-20} there, so the power profile and a broad
    gaussian are the cases that weigh that node."""
    fam, k0 = thermal_family, None
    if kind == "power":
        fam = pulsekit.make_thermal_family(ctx, upsilon_kind="power",
                                           upsilon_param=2.0)
    if kind == "gaussian":
        fam = make_gaussian_family(ctx, 1.0 / ctx.length_scale, alpha=1.0)
        k0 = 2.0 / ctx.length_scale
    folded = transforms_direct(fam, P, Z, u, k0, nmu=nmu)
    full = _transforms_full_grid(fam, P, Z, u, k0, nmu=nmu)
    if P == 0.0:                          # J1(0) = 0: T_z vanishes on the axis
        assert folded[1] == 0.0 and full[1] == 0.0
        folded, full = folded[:1], full[:1]
    for got, want in zip(folded, full):
        assert abs(got - want) <= 1e-10 * abs(want), (got, want)


def _table_error(family, points):
    """Largest |table - direct| over (P, Z) points, relative to the peak."""
    peak = abs(transforms_direct(family, 0.0, 0.0, 0.0)[0])
    P, Z = np.array(points, float).T
    ty, tz = family.table(0.0).lookup(P, Z)
    worst = 0.0
    for i, (p, z) in enumerate(points):
        ty_d, tz_d = transforms_direct(family, p, z, 0.0)
        worst = max(worst, abs(ty[i] - ty_d), abs(tz[i] - tz_d))
    return worst / peak


def test_table_near_axis_matches_direct(thermal_family):
    """T_z is odd in P and T_y even; a spline that treats both alike misses
    T_z next to the axis by more than this bound."""
    pts = [(P, Z) for P in (0.0, 0.005, 0.01, 0.02, 0.05, 0.1)
           for Z in (-3.0, 0.0, 0.5, 2.0)]
    assert _table_error(thermal_family, pts) < 2e-4


def test_table_edges_match_direct(thermal_family):
    pts = [(15.9, 0.0), (0.5, 15.9), (0.5, -15.9), (11.2, 11.2), (11.2, -11.2)]
    assert _table_error(thermal_family, pts) < 2e-4


def test_table_tz_linear_off_axis_nodes(thermal_family):
    """T_z is odd in P, so between the axis and the first grid row it rises
    linearly; an even extension across P = 0 flattens it there."""
    tab = thermal_family.table(0.0)
    dP = tab.P_grid[1] - tab.P_grid[0]
    Z = np.array([-3.0, -0.4, 0.3, 0.5, 2.0])
    _, tz_half = tab.lookup(np.full_like(Z, dP / 2), Z)
    _, tz_node = tab.lookup(np.full_like(Z, dP), Z)
    assert np.allclose(tz_half / tz_node, 0.5, rtol=1e-2)


def test_table_build_emits_no_warning(thermal_family):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (0.0, 0.7):              # real and complex weights
            pulsekit._build_table(thermal_family, u, 2.0, None)


# ---------------------------------------------------------------------------
# envelope geometry


def test_envelope_orthogonal_to_reference_direction(thermal_family, ctx):
    m_hat = _unit([0.2, -0.4, 0.7])
    params = make_pulse_params(m_hat, 0.9, np.zeros(3))
    delta = np.array([0.3, 1.1, -0.8]) * ctx.length_scale
    env = field_envelope(thermal_family, params, delta)
    assert abs(env.value @ params.n_hat) <= 1e-12 * np.linalg.norm(env.value)


def test_translation_covariance(thermal_family, ctx):
    m_hat = _unit([0.0, 0.6, 0.8])
    shift = np.array([1.0, -2.0, 0.5]) * ctx.length_scale
    at = np.array([0.4, 0.2, -0.9]) * ctx.length_scale
    a = field_envelope(thermal_family,
                       make_pulse_params(m_hat, 0.3, np.zeros(3)), at)
    b = field_envelope(thermal_family,
                       make_pulse_params(m_hat, 0.3, shift), at + shift)
    np.testing.assert_allclose(b.value, a.value, rtol=0, atol=1e-12 * np.linalg.norm(a.value))


def test_amplitude_linearity(ctx, thermal_family):
    fam3 = pulsekit.make_thermal_family(ctx, alpha=3.0)
    params = make_pulse_params(np.array([0.0, 0.0, 1.0]), 0.0, np.zeros(3))
    d = np.array([0.5, 0.0, 1.0]) * ctx.length_scale
    one = field_envelope(thermal_family, params, d, direct=True)
    three = field_envelope(fam3, params, d, direct=True)
    np.testing.assert_allclose(three.value, 3.0 * one.value, rtol=1e-12)


def test_envelope_batch_matches_single(thermal_family, ctx):
    rng = np.random.default_rng(3)
    n = 40
    mu = 2 * rng.random(n) - 1
    ph = 2 * math.pi * rng.random(n)
    st = np.sqrt(1 - mu**2)
    m_hats = np.stack([st * np.cos(ph), st * np.sin(ph), mu], axis=1)
    psis = 2 * math.pi * rng.random(n)
    deltas = (rng.random((n, 3)) - 0.5) * 10 * ctx.length_scale
    n_hats = []
    for m, psi in zip(m_hats, psis):
        n_hats.append(make_pulse_params(m, float(psi), np.zeros(3)).n_hat)
    n_hats = np.array(n_hats)
    batch = envelope_batch(thermal_family, m_hats, n_hats, deltas)
    for i in range(0, n, 7):
        params = make_pulse_params(m_hats[i], float(psis[i]), np.zeros(3))
        single = field_envelope(thermal_family, params, deltas[i])
        np.testing.assert_allclose(batch[i], single.value, rtol=0,
                                   atol=1e-10 * np.linalg.norm(single.value))


def test_pulse_params_validation():
    with pytest.raises(ValueError):
        PulseParams(m_hat=np.array([0.0, 0.0, 2.0]),
                    n_hat=np.array([1.0, 0.0, 0.0]), psi=0.0, r0=np.zeros(3))
    with pytest.raises(ValueError):
        PulseParams(m_hat=np.array([0.0, 0.0, 1.0]),
                    n_hat=np.array([0.0, 0.0, 1.0]), psi=0.0, r0=np.zeros(3))


def test_upsilon_validation():
    with pytest.raises(ValueError):
        pulsekit.upsilon_function("triangular", 3.0)
    with pytest.raises(ValueError):
        pulsekit.upsilon_function("exp", -1.0)


# ---------------------------------------------------------------------------
# intensity bookkeeping


def test_total_intensity_closed_form(thermal_family, ctx):
    # |alpha|^2 (hbar c / 2 eps0) <k>, with <k> the occupation-spectrum mean
    kmean = (math.pi**4 / 15.0) / (2.0 * ZETA3) / ctx.length_scale
    want = ctx.hbar * ctx.c / (2.0 * ctx.epsilon0) * kmean
    assert math.isclose(total_intensity_integral(thermal_family), want,
                        rel_tol=1e-12)


def test_pulse_extent_frozen_quantiles(thermal_family, ctx):
    frozen = {0.50: 1.1222, 0.90: 3.0293, 0.95: 4.1365, 0.99: 8.0150}
    for frac, units in frozen.items():
        got = pulse_extent(thermal_family, frac) / ctx.length_scale
        assert math.isclose(got, units, rel_tol=2e-3), (frac, got)


def test_pulse_extent_meters(thermal_family):
    assert math.isclose(pulse_extent(thermal_family, 0.99),
                        3.1769765197828154e-06, rel_tol=2e-3)


def test_pulse_extent_beyond_table_raises(thermal_family):
    with pytest.raises(RuntimeError):
        pulse_extent(thermal_family, 0.999)


def test_extent_fraction_domain(thermal_family):
    with pytest.raises(ValueError):
        pulse_extent(thermal_family, 1.2)


def test_table_captures_nearly_all_intensity(thermal_family, ctx):
    grid, prof = pulsekit.radial_intensity_profile(thermal_family)
    total = total_intensity_integral(thermal_family)
    captured = 4.0 * math.pi * np.trapezoid(grid**2 * prof, grid) \
        * ctx.length_scale**3
    assert 0.995 < captured / total < 0.999


def test_mu_integral_saturates_to_total(thermal_family, ctx):
    m_hat = _unit([0.3, -0.5, 0.81])
    mu = mu_integral(thermal_family, m_hat, 1.1, np.zeros(3),
                     (33 * ctx.length_scale) ** 3)
    ratio = mu.sum() / total_intensity_integral(thermal_family)
    assert 0.995 < ratio < 0.9995


def test_mu_integral_far_offset_vanishes(thermal_family, ctx):
    m_hat = np.array([0.0, 0.0, 1.0])
    far = np.array([60.0, 0.0, 0.0]) * ctx.length_scale
    mu = mu_integral(thermal_family, m_hat, 0.0, far,
                     (4 * ctx.length_scale) ** 3)
    assert np.all(mu == 0.0)


# ---------------------------------------------------------------------------
# sphere-in-cube weight


def test_sphere_in_cube_fraction_regimes():
    assert sphere_in_cube_fraction(0.9) == 1.0
    assert math.isclose(sphere_in_cube_fraction(1.2), 3.0 / 1.2 - 2.0,
                        rel_tol=1e-12)
    assert sphere_in_cube_fraction(1.74) == 0.0
    # continuity at the face-ball corner, and monotone decay to the vertex
    e = 1e-9
    assert abs(sphere_in_cube_fraction(math.sqrt(2.0) - e)
               - sphere_in_cube_fraction(math.sqrt(2.0) + e)) < 1e-3
    ds = np.linspace(1.43, 1.72, 12)
    vals = [sphere_in_cube_fraction(float(d)) for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# gaussian lineshapes


def test_gaussian_narrow_extent_closed_form(ctx):
    ls = ctx.length_scale
    fam = make_gaussian_family(ctx, 0.04 / ls, alpha=1.0)
    k0 = 8.0 / ls
    ext = pulse_extent(fam, 0.99, k0=k0)
    # quantile of r^2 exp(-sigma^2 r^2) via brute cumulative integration
    assert math.isclose(ext, 2.36012999e-05, rel_tol=1e-6)
    half = make_gaussian_family(ctx, 0.02 / ls, alpha=1.0)
    assert math.isclose(pulse_extent(half, 0.99, k0=k0), 2.0 * ext,
                        rel_tol=1e-12)


def test_gaussian_broad_extent_unsupported(ctx):
    fam = make_gaussian_family(ctx, 0.2 / ctx.length_scale)
    with pytest.raises(NotImplementedError):
        pulse_extent(fam, 0.99, k0=8.0 / ctx.length_scale)


def test_gaussian_requires_k0(ctx):
    fam = make_gaussian_family(ctx, 0.04 / ctx.length_scale)
    with pytest.raises(ValueError):
        pulse_extent(fam, 0.99)


def test_gaussian_narrow_parseval(ctx):
    """Peak amplitude and ball volume recover the spectral-side intensity."""
    ls = ctx.length_scale
    fam = make_gaussian_family(ctx, 0.04 / ls, alpha=1.0)
    k0 = 8.0 / ls
    params = make_pulse_params(np.array([0.0, 0.0, 1.0]), 0.7, np.zeros(3),
                               k0=k0)
    peak = field_envelope(fam, params, np.zeros(3)).value
    integral = float(np.vdot(peak, peak).real) * (math.pi / fam.sigma**2) ** 1.5
    want = ctx.hbar * ctx.c * k0 / (2.0 * ctx.epsilon0)
    assert math.isclose(integral, want, rel_tol=1e-4)


def test_gaussian_narrow_against_direct_quadrature(ctx):
    ls = ctx.length_scale
    fam = make_gaussian_family(ctx, 0.049 / ls, alpha=1.0)
    k0 = 8.0 / ls
    params = make_pulse_params(np.array([0.0, 0.0, 1.0]), 0.7, np.zeros(3),
                               k0=k0)
    peak = np.linalg.norm(field_envelope(fam, params, np.zeros(3)).value)
    e2 = np.cross(params.m_hat, params.n_hat)
    for d_units in ([0.0, 0.0, 0.5], [0.5, 0.0, 1.5]):
        du = np.array(d_units)
        analytic = field_envelope(fam, params, du * ls).value
        dx, dy, dz = du @ params.n_hat, du @ e2, du @ params.m_hat
        ty, tz = transforms_direct(fam, math.hypot(dx, dy), dz, 0.0, k0)
        pref = fam.envelope_prefactor(k0) * 2.0 * math.pi
        phi = math.atan2(dy, dx)
        direct = pref * (ty * e2 - 1j * math.sin(phi) * tz * params.m_hat)
        assert np.linalg.norm(analytic - direct) / peak < 3e-3


def test_gaussian_table_against_direct(ctx):
    ls = ctx.length_scale
    fam = make_gaussian_family(ctx, 0.2 / ls, alpha=1.0)
    k0 = 8.0 / ls
    params = make_pulse_params(np.array([0.0, 0.0, 1.0]), 0.7, np.zeros(3),
                               k0=k0)
    peak = np.linalg.norm(field_envelope(fam, params,
                                         np.array([0, 0, 1e-3]) * ls).value)
    ds = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 1.0], [0.0, 2.0, 3.0]]) * ls
    batch = envelope_batch(fam, np.tile(params.m_hat, (3, 1)),
                           np.tile(params.n_hat, (3, 1)), ds, k0=k0)
    for d, b in zip(ds, batch):
        tabled = field_envelope(fam, params, d).value
        direct = field_envelope(fam, params, d, direct=True).value
        assert np.linalg.norm(tabled - direct) / peak < 5e-3
        np.testing.assert_allclose(b, tabled, rtol=0, atol=1e-12 * peak)


def test_gaussian_sigma_must_be_positive(ctx):
    with pytest.raises(ValueError):
        make_gaussian_family(ctx, -3.0)
