import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, ndimage, special

from oracles import mu_integral
from thermolight import pulsekit
from thermolight.units import make_context
from thermolight.pulsekit import (make_gaussian_family, envelope_batch,
                                  transforms_direct, transverse_frames,
                                  pulse_extent, total_intensity_integral,
                                  sphere_in_cube_fraction)


ZETA3 = 1.2020569031595943


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def _frames(m_hat, psi, n):
    """m_hat and its n_hat at angle psi, each repeated as n rows."""
    m = _unit(m_hat)[None, :]
    return (np.repeat(m, n, axis=0),
            np.repeat(transverse_frames(m, np.array([psi])), n, axis=0))


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


def _grid_values(family, u_delay, reach):
    """T_y and T_z as _grid leaves them in the coefficient frame, before the
    prefilter: complex (len(P), len(Z)) views."""
    _, _, frame = pulsekit._grid(family, u_delay, reach)
    grid = frame[1 + pulsekit._PAD:-2, 1:-2].view(complex)
    return grid[:, :, 0], grid[:, :, 1]


@functools.lru_cache(maxsize=None)
def _cached_grid_values(family, u_delay, reach):
    """_grid_values, computed once per table for the oracle tests below (a
    few tables, about 18 MB each at the default reach), read-only."""
    ty, tz = map(np.ascontiguousarray, _grid_values(family, u_delay, reach))
    ty.flags.writeable = tz.flags.writeable = False
    return ty, tz


def test_table_build_independent_of_temperature_and_amplitude():
    """The build sees only dimensionless inputs, which is what lets families
    at any T and alpha share one table."""
    hot = pulsekit.make_thermal_family(make_context(5777.0))
    cold = pulsekit.make_thermal_family(make_context(3000.0), alpha=2.0)
    a = _grid_values(hot, 0.0, 2.0)
    b = _grid_values(cold, 0.0, 2.0)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


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


@pytest.mark.parametrize("n", [1, 2, 3, 47, 48, 200, 600, 1200, 1600, 1601,
                               3000])
def test_legendre_nodes_equal_leggauss(n):
    """The tridiagonal build reproduces numpy's dense-eigensolve rule bit for
    bit, which is what keeps c3 and every quadrature pin where it is."""
    x, w = pulsekit._legendre_nodes(n)
    want_x, want_w = leggauss(n)
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(w, want_w)


def test_legendre_nodes_cold_build_memory():
    """leggauss(3000) allocates a 72 MB companion matrix; the tridiagonal
    build needs only a few vectors of n."""
    tracemalloc.start()
    try:
        pulsekit._legendre_nodes.__wrapped__(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


@pytest.mark.parametrize("name, n", [("nmu", 0), ("nmu", -3), ("nx", 2.5),
                                     ("nx", True)])
def test_invalid_node_count_raises(thermal_family, monkeypatch, name, n):
    def no_rule(count):
        raise AssertionError("a rule was built before the check")

    monkeypatch.setattr(pulsekit, "_legendre_nodes", no_rule)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        transforms_direct(thermal_family, 1.0, 1.0, **{name: n})


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


def _transforms_full_grid(family, P, Z, u_delay=0.0, nx=None, nmu=None):
    """transforms_direct before its mu-parity fold: the whole nx x nmu grid
    as complex arrays, summed by einsum (slow oracle)."""
    dist = math.hypot(P, Z)
    xlo, xhi = pulsekit._support(family)
    if nx is None:
        nx = int(max(300, 12 * dist))
    if nmu is None:
        nmu = int(max(1600, 24 * dist))
    x, xw = pulsekit._gauss_legendre(nx, max(0.0, xlo), xhi)
    mg, mw = pulsekit._gauss_legendre(nmu)
    st = np.sqrt(1.0 - mg**2)
    wx = pulsekit._spectral_weight(family, x[:, None], mg[None, :])
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
    fam = thermal_family
    if kind == "power":
        fam = pulsekit.make_thermal_family(ctx, upsilon_kind="power",
                                           upsilon_param=2.0)
    if kind == "gaussian":
        fam = make_gaussian_family(ctx, 1.0 / ctx.length_scale, alpha=1.0,
                                   k0=2.0 / ctx.length_scale)
    folded = transforms_direct(fam, P, Z, u, nmu=nmu)
    full = _transforms_full_grid(fam, P, Z, u, nmu=nmu)
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


def _fourier_first_grid(family, u_delay, reach):
    """Ty, Tz summed in the build's former order (oracle): two zero-padded
    FFTs over b per row of a and transform, then the Bessel GEMM over a on
    the Z-columns.  Same grids, same weights; only the order differs."""
    xlo, xhi = pulsekit._support(family)
    da = db = 0.025
    bfloor = -8.0
    if family.kind == "gaussian":
        s = family.sigma_x()
        da = db = min(0.025, s / 4.0)
        bfloor = -4.0 * s
    a = np.arange(0.0, min(40.0, xhi) + da / 2, da)
    b = np.arange(min(bfloor, xlo), xhi + db / 2, db)
    wa = np.full_like(a, da)
    wa[0] *= 0.5
    wa[-1] *= 0.5
    nfft = 16384
    while math.pi / db < 1.05 * reach * (16384.0 / nfft):
        nfft *= 2
    Zk = 2.0 * math.pi * np.fft.fftfreq(nfft, d=db)
    cols = np.flatnonzero(np.abs(Zk) <= reach)
    cols = cols[np.argsort(Zk[cols])]
    phase = np.exp(1j * b[0] * Zk[cols]) * db
    Pg = np.arange(0.0, reach + pulsekit._P_STEP / 2, pulsekit._P_STEP)
    Ty = np.zeros((len(Pg), len(cols)), complex)
    Tz = np.zeros_like(Ty)
    for lo in range(0, len(a), pulsekit._ROW_BLOCK):
        ab = a[lo:lo + pulsekit._ROW_BLOCK]
        A, B = np.meshgrid(ab, b, indexing="ij")
        X = np.hypot(A, B)
        MU = np.divide(B, X, out=np.zeros_like(B), where=X > 0)
        ST = np.divide(A, X, out=np.zeros_like(A), where=X > 0)
        jac = np.divide(A, X * X, out=np.zeros_like(A), where=X > 0)
        W = pulsekit._spectral_weight(family, X, MU) * jac
        if u_delay != 0.0:
            W = W * np.exp(-1j * X * u_delay)
        Hy = np.fft.ifft(W * MU, n=nfft, axis=1, norm="forward").take(cols, axis=1) * phase
        Hz = np.fft.ifft(W * ST, n=nfft, axis=1, norm="forward").take(cols, axis=1) * phase
        Pa = np.outer(Pg, ab)
        wb = wa[lo:lo + pulsekit._ROW_BLOCK]
        Ty += ((special.j0(Pa) * wb) @ Hy.view(float)).view(complex)
        Tz += ((special.j1(Pa) * wb) @ Hz.view(float)).view(complex)
    return Ty, Tz


@pytest.mark.parametrize("which", ["default", "delayed", "reach2", "gaussian"])
def test_table_matches_fourier_first_order(ctx, thermal_family, which):
    """Hankel-then-FFT sums the same terms as FFT-then-Hankel: the grids
    agree to 1e-14 of the peak for a real weight, a complex (delayed) one,
    a short reach and a gaussian table."""
    fam = _gaussian(ctx, 0.2) if which == "gaussian" else thermal_family
    u = 0.7 if which == "delayed" else 0.0
    reach = 2.0 if which == "reach2" else pulsekit._DEFAULT_REACH
    ty, tz = _cached_grid_values(fam, u, reach)
    want_y, want_z = _fourier_first_grid(fam, u, reach)
    assert ty.shape == want_y.shape and tz.shape == want_z.shape
    peak = max(np.abs(want_y).max(), np.abs(want_z).max())
    worst = max(np.abs(ty - want_y).max(), np.abs(tz - want_z).max())
    assert worst <= 1e-14 * peak, worst / peak


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_fft_block_leaves_table_unchanged(thermal_family, monkeypatch, u):
    """_FFT_LINES sets only how many lines each real FFT call takes: five
    (two rows of a delayed table, whose rows are two lines each), with a
    short last block, give the same table bit for bit."""
    want = pulsekit._build_table(thermal_family, u, 2.0)
    want_grid = _grid_values(thermal_family, u, 2.0)
    monkeypatch.setattr(pulsekit, "_FFT_LINES", 5)
    got = pulsekit._build_table(thermal_family, u, 2.0)
    got_grid = _grid_values(thermal_family, u, 2.0)
    for g, w in zip(got_grid, want_grid):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(got.coef, want.coef)


@pytest.mark.parametrize("which", ["default", "gaussian"])
def test_undelayed_grid_is_hermitian(ctx, thermal_family, which):
    """A real weight gives T(P, -Z) = conj T(P, Z), and the real-FFT fold
    keeps it bit for bit on the exactly symmetric Z-grid."""
    fam = _gaussian(ctx, 0.2) if which == "gaussian" else thermal_family
    Zg = fam.table(0.0).Z_grid
    ty, tz = _cached_grid_values(fam, 0.0, pulsekit._DEFAULT_REACH)
    np.testing.assert_array_equal(Zg[::-1], -Zg)
    np.testing.assert_array_equal(ty[:, ::-1], ty.conj())
    np.testing.assert_array_equal(tz[:, ::-1], tz.conj())


def _prefilter_ndimage(Ty, Tz):
    """_prefilter as it was before its recursions were written out: one
    scipy spline_filter per channel, in place in the frame (oracle)."""
    pad = pulsekit._PAD
    coef = np.empty((Ty.shape[0] + pad + 3, Ty.shape[1] + 3, 4))
    inner = coef[1:-2, 1:-2]
    channels = ((Ty.real, 1.0), (Ty.imag, 1.0), (Tz.real, -1.0),
                (Tz.imag, -1.0))
    for c, (part, parity) in enumerate(channels):
        ext = inner[:, :, c]
        ext[:pad] = parity * part[pad:0:-1]
        ext[pad:] = part
        ndimage.spline_filter(ext, order=3, output=ext, mode="mirror")
    for axis in (0, 1):
        c = np.moveaxis(coef, axis, 0)
        c[0], c[-2], c[-1] = c[2], c[-4], c[-5]
    return coef


def _prefilter_copy_in(Ty, Tz):
    """_prefilter as it was while tables kept their grid values: both axes'
    gains applied as Ty and Tz are copied into a new frame, then the same
    in-place recursions (oracle)."""
    pad = pulsekit._PAD
    coef = np.empty((Ty.shape[0] + pad + 3, Ty.shape[1] + 3, 4))
    inner = coef[1:-2, 1:-2]
    gain = pulsekit._SPLINE_GAIN ** 2
    pairs = inner.view(complex)                         # (c_y, c_z)
    for c, (T, parity) in enumerate(((Ty, 1.0), (Tz, -1.0))):
        np.multiply(T[pad:0:-1], parity * gain, out=pairs[:pad, :, c])
        np.multiply(T, gain, out=pairs[pad:, :, c])
    pulsekit._spline_recursions(inner)
    pulsekit._spline_recursions(np.moveaxis(inner, 1, 0))
    for axis in (0, 1):
        c = np.moveaxis(coef, axis, 0)
        c[0], c[-2], c[-1] = c[2], c[-4], c[-5]
    return coef


_PREFILTER_CASES = ["default", "delayed", "reach2", "shortest", "gaussian"]


def _prefilter_case(ctx, thermal_family, which):
    """The family, delay and reach of a prefilter test case."""
    fam = _gaussian(ctx, 0.2) if which == "gaussian" else thermal_family
    reach = {"reach2": 2.0, "shortest": 0.24}.get(which,
                                                  pulsekit._DEFAULT_REACH)
    return fam, 0.7 if which == "delayed" else 0.0, reach


@pytest.mark.parametrize("which", _PREFILTER_CASES)
def test_prefilter_matches_spline_filter(ctx, thermal_family, which):
    """The in-place recursions give spline_filter's mirror-boundary
    coefficients, frame included, to 1e-14 of each channel's peak: for a
    real weight, a complex (delayed) one, a short reach, the shortest
    lines of P check_reach allows (whose mirror sum keeps every term) and a
    gaussian table.  Run in place on a frame, they allocate at most 2 MB."""
    fam, u, reach = _prefilter_case(ctx, thermal_family, which)
    tab = fam.table(u, reach)
    if which == "shortest":
        assert tab.coef.shape[0] - 3 == 2 * pulsekit._PAD + 1
    ty, tz = _cached_grid_values(fam, u, reach)
    want = _prefilter_ndimage(ty, tz)
    assert tab.coef.shape == want.shape
    worst = np.abs(tab.coef - want).max(axis=(0, 1))
    peak = np.abs(want).max(axis=(0, 1))
    assert np.all(worst <= 1e-14 * peak), worst / peak

    coef = np.empty(tab.coef.shape)
    grid = coef[1 + pulsekit._PAD:-2, 1:-2].view(complex)
    grid[:, :, 0], grid[:, :, 1] = ty, tz
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pulsekit._prefilter(coef)
        allocated = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert allocated <= 2 * 2**20, allocated / 2**20


@pytest.mark.parametrize("which", _PREFILTER_CASES)
def test_coefficients_equal_copy_in_prefilter(ctx, thermal_family, which):
    """Writing the FFT rows straight into the frame and scaling them there
    gives the coefficients of the former copy-in prefilter bit for bit."""
    fam, u, reach = _prefilter_case(ctx, thermal_family, which)
    np.testing.assert_array_equal(
        fam.table(u, reach).coef,
        _prefilter_copy_in(*_cached_grid_values(fam, u, reach)))


@pytest.mark.parametrize("which", ["default", "delayed", "gaussian"])
def test_grid_values_rebuilt_from_coefficients(ctx, thermal_family, which):
    """Ty and Tz, rebuilt from coef on each access, are the grid values to
    1e-14 of the peak, in the grid's shape and complex128, so the cell and
    MB counts taken from them stay what they were when tables kept them."""
    fam = _gaussian(ctx, 0.2) if which == "gaussian" else thermal_family
    u = 0.7 if which == "delayed" else 0.0
    tab = fam.table(u)
    want_y, want_z = _cached_grid_values(fam, u, pulsekit._DEFAULT_REACH)
    ty, tz = tab.Ty, tab.Tz
    assert ty.shape == tz.shape == (len(tab.P_grid), len(tab.Z_grid))
    assert ty.shape == (534, 2087)
    assert ty.dtype == tz.dtype == np.complex128
    assert ty.nbytes == tz.nbytes == want_y.nbytes
    peak = max(np.abs(want_y).max(), np.abs(want_z).max())
    worst = max(np.abs(ty - want_y).max(), np.abs(tz - want_z).max())
    assert worst <= 1e-14 * peak, worst / peak
    assert tab.Ty is not tab.Ty                     # rebuilt, not stored


def _map_coordinates_lookup(tab, Ty, Tz, P, Z):
    """The lookup as it was before the four coefficient channels were fused:
    per-part complex B-spline coefficients of the grid values Ty, Tz read by
    scipy's map_coordinates (oracle)."""
    Pg, Zg = tab.P_grid, tab.Z_grid
    ok = (P >= 0.0) & (P <= Pg[-1]) & (Z >= Zg[0]) & (Z <= Zg[-1])
    dP = Pg[1] - Pg[0]
    dZ = (Zg[-1] - Zg[0]) / (len(Zg) - 1)
    at = np.stack([P[ok] / dP + pulsekit._PAD, (Z[ok] - Zg[0]) / dZ])
    out = []
    for T, parity in ((Ty, 1.0), (Tz, -1.0)):
        ext = np.concatenate([parity * T[pulsekit._PAD:0:-1], T])
        coef = ndimage.spline_filter(ext, order=3, output=complex, mode="mirror")
        t = np.zeros(P.shape, complex)
        t[ok] = ndimage.map_coordinates(coef, at, order=3, mode="mirror",
                                        prefilter=False)
        out.append(t)
    return out


@pytest.mark.parametrize("which", ["default", "delayed", "gaussian"])
def test_lookup_matches_map_coordinates(ctx, thermal_family, which):
    """The fused gather reads the same spline as map_coordinates: at 1e5
    random points, on the four edges and at the corners of the grid, for a
    real weight, a complex (delayed) one and a gaussian table."""
    fam = _gaussian(ctx, 0.2) if which == "gaussian" else thermal_family
    u = 1.5 if which == "delayed" else 0.0
    tab = fam.table(u)
    grid_y, grid_z = _cached_grid_values(fam, u, pulsekit._DEFAULT_REACH)
    Pmax, Zlo, Zhi = tab.P_grid[-1], tab.Z_grid[0], tab.Z_grid[-1]
    rng = np.random.default_rng(14)
    n = 100_000
    P = rng.random(n) * Pmax
    Z = Zlo + rng.random(n) * (Zhi - Zlo)
    P[:100], P[100:200] = 0.0, Pmax
    Z[200:300], Z[300:400] = Zlo, Zhi
    P[400:404], Z[400:404] = [0.0, 0.0, Pmax, Pmax], [Zlo, Zhi, Zlo, Zhi]
    ty, tz = tab.lookup(P, Z)
    want_y, want_z = _map_coordinates_lookup(tab, grid_y, grid_z, P, Z)
    peak = max(np.abs(grid_y).max(), np.abs(grid_z).max())
    worst = max(np.abs(ty - want_y).max(), np.abs(tz - want_z).max())
    assert worst <= 1e-14 * peak, worst / peak

    # a 2D grid of points keeps its shape and its values
    ty2, tz2 = tab.lookup(P[:1000].reshape(25, 40), Z[:1000].reshape(25, 40))
    assert ty2.shape == tz2.shape == (25, 40)
    np.testing.assert_array_equal(ty2.ravel(), ty[:1000])
    np.testing.assert_array_equal(tz2.ravel(), tz[:1000])

    # beyond the grid by one ulp, or NaN: exact zeros
    out_P = [np.nextafter(0.0, -1.0), np.nextafter(Pmax, np.inf), 1.0, 1.0,
             np.nan, 1.0, np.inf]
    out_Z = [0.0, 0.0, np.nextafter(Zlo, -np.inf), np.nextafter(Zhi, np.inf),
             0.0, np.nan, 0.0]
    ty, tz = tab.lookup(np.array(out_P), np.array(out_Z))
    assert np.all(ty == 0.0) and np.all(tz == 0.0)


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_build_table_memory(thermal_family, u):
    """The default build, real or delayed, peaks below 90 MB and keeps below
    70 MB: the one four-channel coefficient array, 34.8 MB."""
    tracemalloc.start()
    try:
        tab = pulsekit._build_table(thermal_family, u, 16.0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tab.coef.shape == (tab.Ty.shape[0] + pulsekit._PAD + 3,
                              tab.Ty.shape[1] + 3, 4)
    assert peak <= 90 * 2**20, peak / 2**20
    assert retained <= 70 * 2**20, retained / 2**20


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_build_table_retains_only_coefficients(thermal_family, u):
    """A default build, real or delayed, keeps at most 36 MB: its 34.8 MB
    coefficient frame and its two grids, no grid values."""
    tracemalloc.start()
    try:
        tab = pulsekit._build_table(thermal_family, u, 16.0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tab.coef.nbytes <= retained <= 36 * 2**20, retained / 2**20


def test_lookup_transient_memory(thermal_family):
    """Reading 2e5 in-range points allocates the two outputs (6.4 MB) and a
    few MB of block temporaries, not per-point copies of the coefficients."""
    tab = thermal_family.table(0.0)
    rng = np.random.default_rng(5)
    P = rng.random(200_000) * 15.0
    Z = (rng.random(200_000) - 0.5) * 30.0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = tab.lookup(P, Z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out[0].shape == P.shape
    assert peak <= 12.5 * 2**20, peak / 2**20


def test_table_build_emits_no_warning(thermal_family):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (0.0, 0.7):              # real and complex weights
            pulsekit._build_table(thermal_family, u, 2.0)


# ---------------------------------------------------------------------------
# envelope geometry


def test_cross_equals_numpy_cross():
    """_cross is np.cross bit for bit, on random rows and on a broadcast
    operand (the mu_integral oracle passes broadcast frames)."""
    rng = np.random.default_rng(15)
    a, b = rng.standard_normal((2, 6250, 3))
    assert np.array_equal(pulsekit._cross(a, b), np.cross(a, b))
    row = np.broadcast_to(b[0], a.shape)
    assert np.array_equal(pulsekit._cross(row, a), np.cross(row, a))


def test_envelope_orthogonal_to_reference_direction(thermal_family, ctx):
    m_hats, n_hats = _frames([0.2, -0.4, 0.7], 0.9, 2)
    deltas = np.array([[0.3, 1.1, -0.8], [2.0, -0.5, 4.0]]) * ctx.length_scale
    env = envelope_batch(thermal_family, m_hats, n_hats, deltas)
    for e, n in zip(env, n_hats):
        assert abs(e @ n) <= 1e-12 * np.linalg.norm(e)


def test_amplitude_linearity(ctx, thermal_family):
    fam3 = pulsekit.make_thermal_family(ctx, alpha=3.0)
    m_hats, n_hats = _frames([0.0, 0.0, 1.0], 0.0, 1)
    d = np.array([[0.5, 0.0, 1.0]]) * ctx.length_scale
    one = envelope_batch(thermal_family, m_hats, n_hats, d)
    three = envelope_batch(fam3, m_hats, n_hats, d)
    np.testing.assert_allclose(three, 3.0 * one, rtol=1e-12)


def test_envelope_batch_matches_single(thermal_family, ctx):
    """Every row of a batch is the envelope of that pulse on its own."""
    rng = np.random.default_rng(3)
    n = 40
    mu = 2 * rng.random(n) - 1
    ph = 2 * math.pi * rng.random(n)
    st = np.sqrt(1 - mu**2)
    m_hats = np.stack([st * np.cos(ph), st * np.sin(ph), mu], axis=1)
    n_hats = transverse_frames(m_hats, 2 * math.pi * rng.random(n))
    deltas = (rng.random((n, 3)) - 0.5) * 10 * ctx.length_scale
    batch = envelope_batch(thermal_family, m_hats, n_hats, deltas)
    for i in range(0, n, 7):
        row = slice(i, i + 1)
        single = envelope_batch(thermal_family, m_hats[row], n_hats[row],
                                deltas[row])[0]
        np.testing.assert_allclose(batch[i], single, rtol=0,
                                   atol=1e-10 * np.linalg.norm(single))


@pytest.mark.parametrize("kind", ["thermal", "narrow-gaussian"])
@pytest.mark.parametrize("case", ["delta-nan", "delta-inf", "m-long",
                                  "n-short", "not-perpendicular", "frame-nan"])
def test_envelope_batch_rejects_bad_input(ctx, monkeypatch, kind, case):
    """Both branches refuse a non-finite delta or a frame that is not
    orthonormal, before any table work; the table path read a NaN delta as
    an exact zero field and m_hat = (0, 0, 2) as twice the field."""
    def no_work(*args, **kwargs):
        raise AssertionError("built a table before checking")

    monkeypatch.setattr(pulsekit, "_build_table", no_work)
    fam = (_gaussian(ctx, 0.04) if kind == "narrow-gaussian" else
           pulsekit.make_thermal_family(ctx, upsilon_param=11.0))
    m = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    n = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    d = np.ones((2, 3)) * ctx.length_scale
    bad, match = {
        "delta-nan": ((m, n, np.where(np.eye(2, 3) > 0, np.nan, d)), "deltas"),
        "delta-inf": ((m, n, np.where(np.eye(2, 3) > 0, np.inf, d)), "deltas"),
        "m-long": ((m * [[2.0], [1.0]], n, d), "orthonormal"),
        "n-short": ((m, n * (1.0 - 1e-11), d), "orthonormal"),
        "not-perpendicular": ((m, n + [[0.0, 0.0, 2e-12], [0.0] * 3], d),
                              "orthonormal"),
        "frame-nan": ((m, np.where(np.eye(2, 3) > 0, np.nan, n), d),
                      "orthonormal"),
    }[case]
    with pytest.raises(ValueError, match=match):
        envelope_batch(fam, *bad)


@pytest.mark.parametrize("shape, want_N, want_pref", [
    ("thermal", 4.111382758552278e-10, 28131.178700295j),
    ("power", 1.1631053013433926e-10, 7958.277056858802j),
    ("gaussian", 5.85659205708422e-17, 10109.595516628182j),
    ("narrow-gaussian", 6.549832995097432e-16, 113062.61668303206j),
])
def test_norm_frozen(ctx, shape, want_N, want_pref):
    """norm_N and the envelope prefactor, bit for bit.  The thermal and
    gaussian rows are as recorded before the normalization integral was
    cached per shape; the power row is norm_N from the exactly rounded J
    (test_thermal_norm_integral_against_mpmath), 1 ulp above the value
    adaptive quadrature gave."""
    fam = {"thermal": lambda: pulsekit.make_thermal_family(ctx),
           "power": lambda: pulsekit.make_thermal_family(
               ctx, upsilon_kind="power", upsilon_param=2.0),
           "gaussian": lambda: _gaussian(ctx, 0.2),
           "narrow-gaussian": lambda: _gaussian(ctx, 0.04)}[shape]()
    for _ in range(2):                    # cold, then from the cache
        assert fam.norm_N() == want_N
        assert fam.envelope_prefactor() == want_pref


def test_envelope_batch_second_call_reuses_norm_and_table(ctx):
    """A second call on a shape computes no normalization integral, and
    that cache takes no slot of the table memo."""
    fam = pulsekit.make_thermal_family(ctx, upsilon_kind="power",
                                       upsilon_param=3.0)
    m_hats, n_hats = _frames([0.1, 0.2, 0.9], 0.4, 3)
    d = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.0], [-0.5, 0.4, 1.0]]) \
        * ctx.length_scale
    first = envelope_batch(fam, m_hats, n_hats, d, reach=2.0)
    tables = [key for key in pulsekit._memo if key[0] == "table"]
    misses = pulsekit._norm_integral.cache_info().misses
    second = envelope_batch(fam, m_hats, n_hats, d, reach=2.0)
    np.testing.assert_array_equal(first, second)
    assert pulsekit._norm_integral.cache_info().misses == misses
    assert all(key in pulsekit._memo for key in tables)


def _mp_norm_integral(kind, param):
    """J = int upsilon^2 (1 + mu^2) dmu by mpmath quadrature at 40 digits,
    split at 1 - 10^-k down to about 1e-3 of the profile's width 1/param."""
    with mpmath.workdps(40):
        p = mpmath.mpf(param)
        if kind == "exp":
            def f(mu):
                return mpmath.exp(2 * p * (mu - 1)) * (1 + mu * mu)
        else:
            def f(mu):
                return ((1 + mu) / 2) ** (2 * p) * (1 + mu * mu)
        cuts = [1 - mpmath.mpf(10) ** -k for k in range(1, 12)
                if 10.0 ** -k > 1e-3 / param]
        return mpmath.quad(f, [-1, 0] + cuts + [1])


@pytest.mark.parametrize("kind, param", [
    *(("exp", k) for k in (1e-8, 1e-3, 0.3, 3.0, 20.0, 1e4, 1e8)),
    *(("power", q) for q in (1e-6, 2.0, 40.0, 1e6)),
])
def test_thermal_norm_integral_against_mpmath(kind, param):
    """The closed-form J over the whole range of both profiles: from nearly
    flat to a peak narrower than 1e-6 in mu, where adaptive quadrature
    returned 1.6e-21 for kappa = 1e4 (exact about 1e-4)."""
    shape = ("thermal", kind, param, None, None)
    want = _mp_norm_integral(kind, param)
    assert abs(pulsekit._norm_integral(shape) - want) <= 1e-14 * want


def test_norm_finite_for_narrow_profiles(ctx):
    """kappa = 1e6 and q = 1e6: adaptive quadrature raised
    ZeroDivisionError here."""
    for kind in ("exp", "power"):
        norm = pulsekit.make_thermal_family(ctx, kind, 1e6).norm_N()
        assert math.isfinite(norm) and norm > 0.0, kind


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


def test_pulse_extent_cumsum_is_scipy_trapezoid(thermal_family, monkeypatch):
    """pulse_extent's cumulative trapezoid over the default radial profile
    equals scipy's cumulative_trapezoid (oracle) bit for bit."""
    interp, seen = np.interp, []

    def spy(x, xp, fp, *args, **kwargs):
        seen.append(xp)
        return interp(x, xp, fp, *args, **kwargs)

    monkeypatch.setattr(pulsekit.np, "interp", spy)
    pulse_extent(thermal_family, 0.99)
    monkeypatch.undo()
    grid, prof = pulsekit.radial_intensity_profile(thermal_family)
    want = integrate.cumulative_trapezoid(grid**2 * prof, grid, initial=0.0)
    assert len(seen) == 1 and seen[0].shape == grid.shape == (3000,)
    np.testing.assert_array_equal(seen[0], want)


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


def test_radial_profile_fold_matches_full_rule(thermal_family):
    """The profile folded onto cos(theta) > 0 equals the full 200-node rule
    to rounding: an undelayed table has |T(P, -Z)| = |T(P, Z)|."""
    tab = thermal_family.table(0.0)
    grid, power = pulsekit._mean_transform_power(tab)
    cg, cw = pulsekit._gauss_legendre(200)
    ty, tz = tab.lookup(np.outer(grid, np.sqrt(1.0 - cg**2)), np.outer(grid, cg))
    full = 0.5 * ((np.abs(ty) ** 2 + 0.5 * np.abs(tz) ** 2) @ cw)
    np.testing.assert_allclose(power, full, rtol=1e-13, atol=0.0)


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


def test_sphere_in_cube_fraction_array_frozen():
    """One array call across the three bands returns, in d's shape, the
    values the scalar implementation gave (recorded from it)."""
    recorded = {0.0: 1.0, 0.5: 1.0, 1.0: 1.0, 1.2: 0.5,
                math.sqrt(2.0): 0.12132034355964239, 1.42: 0.11345,
                1.45: 0.08245, 1.5: 0.04805, 1.55: 0.0263, 1.6: 0.01235,
                1.65: 0.00425, 1.7: 0.00075, 1.73: 0.0, math.sqrt(3.0): 0.0,
                2.0: 0.0, 7.5: 0.0}
    ds = np.array(list(recorded)).reshape(4, 4)
    got = sphere_in_cube_fraction(ds)
    assert got.shape == (4, 4)
    np.testing.assert_array_equal(got.ravel(), list(recorded.values()))
    assert sphere_in_cube_fraction(math.nan) == 0.0


# ---------------------------------------------------------------------------
# gaussian angular kernel


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
        monkeypatch.setattr(pulsekit, "_KERNEL_BLOCK", block)
    x = np.linspace(0.01, 25.0, 240)
    x0 = np.linspace(0.02, 20.0, 30)
    for s in (0.3, 4.0, 30.0):
        got = pulsekit.gaussian_angular_kernel(x, x0, s)
        np.testing.assert_array_equal(got, _angular_kernel_per_entry(x, x0, s))


# ---------------------------------------------------------------------------
# gaussian lineshapes


def _gaussian(ctx, sigma_units, k0_units=8.0):
    ls = ctx.length_scale
    return make_gaussian_family(ctx, sigma_units / ls, alpha=1.0,
                                k0=k0_units / ls)


def test_gaussian_narrow_extent_closed_form(ctx):
    ext = pulse_extent(_gaussian(ctx, 0.04), 0.99)
    # quantile of r^2 exp(-sigma^2 r^2) via brute cumulative integration
    assert math.isclose(ext, 2.36012999e-05, rel_tol=1e-6)
    assert math.isclose(pulse_extent(_gaussian(ctx, 0.02), 0.99), 2.0 * ext,
                        rel_tol=1e-12)


def test_gaussian_broad_extent_unsupported(ctx):
    with pytest.raises(NotImplementedError):
        pulse_extent(_gaussian(ctx, 0.2), 0.99)


def test_gaussian_requires_k0(ctx):
    fam = make_gaussian_family(ctx, 0.04 / ctx.length_scale)
    with pytest.raises(ValueError, match="k0"):
        pulse_extent(fam, 0.99)
    with pytest.raises(ValueError, match="k0"):
        make_gaussian_family(ctx, 0.04 / ctx.length_scale, k0=-1.0)


def test_gaussian_narrow_parseval(ctx):
    """Peak amplitude and ball volume recover the spectral-side intensity."""
    fam = _gaussian(ctx, 0.04)
    peak = envelope_batch(fam, *_frames([0.0, 0.0, 1.0], 0.7, 1),
                          np.zeros((1, 3)))[0]
    integral = float(np.vdot(peak, peak).real) * (math.pi / fam.sigma**2) ** 1.5
    want = ctx.hbar * ctx.c * fam.k0 / (2.0 * ctx.epsilon0)
    assert math.isclose(integral, want, rel_tol=1e-4)


def test_gaussian_narrow_against_direct_quadrature(ctx):
    fam = _gaussian(ctx, 0.049)
    m_hats, n_hats = _frames([0.0, 0.0, 1.0], 0.7, 3)
    du = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.5, 0.0, 1.5]])
    analytic = envelope_batch(fam, m_hats, n_hats, du * ctx.length_scale)
    peak = np.linalg.norm(analytic[0])
    m, n = m_hats[0], n_hats[0]
    e2 = np.cross(m, n)
    pref = fam.envelope_prefactor() * 2.0 * math.pi
    for d, got in zip(du[1:], analytic[1:]):
        dx, dy, dz = d @ n, d @ e2, d @ m
        ty, tz = transforms_direct(fam, math.hypot(dx, dy), dz, 0.0)
        phi = math.atan2(dy, dx)
        direct = pref * (ty * e2 - 1j * math.sin(phi) * tz * m)
        assert np.linalg.norm(got - direct) / peak < 3e-3


def test_gaussian_table_against_direct(ctx):
    assert _table_error(_gaussian(ctx, 0.2),
                        [(0.0, 0.5), (1.0, 1.0), (2.0, 3.0)]) < 5e-3


def test_gaussian_sigma_must_be_positive(ctx):
    with pytest.raises(ValueError):
        make_gaussian_family(ctx, -3.0)
