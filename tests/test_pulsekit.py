import functools
import math
import warnings
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, ndimage, special

from oracles import (full_frame_lookup, grid_separate_accumulators,
                     mu_integral, spectral_weight, transverse_frames,
                     weights_masked)
from thermolight import pulsekit
from thermolight.units import make_context
from thermolight.pulsekit import (envelope_batch, transforms_direct,
                                  pulse_extent,
                                  total_intensity_integral,
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


def _frame_values(family, u_delay, reach):
    """T_y and T_z as _grid leaves them in the coefficient frame, before the
    prefilter: one complex (len(P), columns, channels / 2) array on the
    columns Z >= 0, with (T_y, T_z) for each real line of the weight, one
    undelayed and the Re and Im lines of W e^{-i x u} delayed."""
    _, _, frame = pulsekit._grid(family, u_delay, reach)
    return frame[1 + pulsekit._PAD:-2, 1:-2].view(complex)


def _mirrored(values):
    """Frame values extended to the whole Z-grid: each real weight's
    transforms at -Z are the conjugates of those at Z."""
    return np.concatenate([values[:, :0:-1].conj(), values], axis=1)


def _combined(parts):
    """T_y and T_z from the channels of _mirrored: A + i B for a delayed
    table's two real-weight parts, views of parts for an undelayed one."""
    T = parts[:, :, :2]
    if parts.shape[2] == 4:
        T = T + 1j * parts[:, :, 2:]
    return T[:, :, 0], T[:, :, 1]


def _z_parity(values):
    """The parity in Z that _prefilter gives the float channels of frame
    values: real parts even, imaginary parts odd, for each real weight."""
    return np.tile(pulsekit._Z_PARITY, values.shape[2] // 2)


# The power profile's tables, the second weight the build is checked on,
# reach 4: the same code runs as at the default reach, at a quarter of the
# cost, and the points of test_power_profile_table_against_direct lie inside.
_POWER_REACH = 4.0


def _table_case(thermal_family, power_family, which, delay=0.7):
    """The family, delay and reach of a table test case."""
    if which == "power":
        return power_family, 0.0, _POWER_REACH
    reach = {"reach2": 2.0, "shortest": 0.24}.get(which,
                                                  pulsekit._DEFAULT_REACH)
    return thermal_family, delay if which == "delayed" else 0.0, reach


@functools.lru_cache(maxsize=None)
def _cached_parts(family, u_delay, reach):
    """_mirrored frame values, computed once per table for the oracle tests
    below (a few tables, 36 MB at the default reach and 71 MB delayed),
    read-only."""
    parts = _mirrored(_frame_values(family, u_delay, reach))
    parts.flags.writeable = False
    return parts


def _cached_frame_values(family, u_delay, reach):
    """_frame_values, bit for bit, as a view of the cached parts."""
    parts = _cached_parts(family, u_delay, reach)
    return parts[:, parts.shape[1] // 2:]


def _cached_grid_values(family, u_delay, reach):
    """T_y and T_z on the whole Z-grid, complex (len(P), len(Z)) arrays,
    from the cached parts."""
    return _combined(_cached_parts(family, u_delay, reach))


def test_table_build_independent_of_temperature_and_amplitude():
    """The build sees only dimensionless inputs, which is what lets families
    at any T and alpha share one table."""
    hot = pulsekit.make_thermal_family(make_context(5777.0))
    cold = pulsekit.make_thermal_family(make_context(3000.0), alpha=2.0)
    np.testing.assert_array_equal(_frame_values(hot, 0.0, 2.0),
                                  _frame_values(cold, 0.0, 2.0))


def test_tables_shared_across_temperature_and_amplitude(thermal_family,
                                                        power_family):
    cold = pulsekit.make_thermal_family(make_context(3000.0), alpha=2.0)
    assert cold.table(0.0) is thermal_family.table(0.0)
    assert pulsekit.tail_coefficient(cold) \
        == pulsekit.tail_coefficient(thermal_family)
    assert power_family.table(0.0, reach=2.0) is not cold.table(0.0, reach=2.0)


def test_tables_compare_and_hash_by_identity():
    """Two tables of equal values are still two tables.  == used to compare
    the grid arrays as a tuple and raise ValueError, and hash() raised
    TypeError."""
    grid, coef = np.linspace(0.0, 1.0, 3), np.zeros((6, 6, 4))
    a = pulsekit.EnvelopeTable(grid, grid, coef)
    b = pulsekit.EnvelopeTable(grid.copy(), grid.copy(), coef.copy())
    assert a == a
    assert a != b
    assert len({a, b}) == 2


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


@pytest.mark.parametrize("n", [1, 2, 3, 47, 48, 200, 256, 257, 600, 1200,
                               1600, 1601, 3000])
def test_legendre_nodes_equal_leggauss(n):
    """Both solvers, leggauss up to 256 nodes and the tridiagonal build
    above, give numpy's dense-eigensolve rule bit for bit, which is what
    keeps c3 and every quadrature pin where it is."""
    x, w = pulsekit._legendre_nodes(n)
    want_x, want_w = leggauss(n)
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(w, want_w)


def test_legendre_nodes_cold_build_memory(traced_peak):
    """leggauss(3000) allocates a 72 MB companion matrix; the tridiagonal
    build needs only a few vectors of n."""
    _, peak, _ = traced_peak(pulsekit._legendre_nodes.__wrapped__, 3000)
    assert peak < 10e6, peak


@pytest.mark.parametrize("name, n", [("nmu", 0), ("nmu", -3), ("nx", 2.5),
                                     ("nx", True)])
def test_invalid_node_count_raises(thermal_family, monkeypatch, name, n):
    def no_rule(count):
        raise AssertionError("a rule was built before the check")

    monkeypatch.setattr(pulsekit, "_legendre_nodes", no_rule)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        transforms_direct(thermal_family, 1.0, 1.0, **{name: n})


@pytest.mark.parametrize("name, value", [("P", math.nan), ("Z", math.inf),
                                         ("Z", -math.inf),
                                         ("u_delay", math.nan)])
def test_non_finite_argument_raises(thermal_family, monkeypatch, name, value):
    def no_rule(count):
        raise AssertionError("a rule was built before the check")

    monkeypatch.setattr(pulsekit, "_legendre_nodes", no_rule)
    args = {"P": 1.0, "Z": 1.0, "u_delay": 0.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        transforms_direct(thermal_family, **args)


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


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_delayed_lookup_exact_at_nodes_near_axis(thermal_family, u):
    """Every table reads its Z coordinate as |Z| / dZ, the offset from
    Z = 0 in nodes, so at the nodes within 40 columns of Z = 0 on the
    first four rows of P the lookup gives the spline's node values (Ty, Tz)
    to 2e-15 of the peak, for a real weight and a complex (delayed) one,
    whose two real-weight parts are conjugated apart on Z < 0.  Read as
    (Z - Z_min) / dZ, the coordinate rounded by up to 2.3e-13 node units
    and the lookup erred by 1.7e-14 there."""
    tab = thermal_family.table(u)
    z0 = (len(tab.Z_grid) - 1) // 2
    i, j = np.meshgrid(np.arange(4), np.arange(z0 - 40, z0 + 41),
                       indexing="ij")
    ty, tz = tab.lookup(tab.P_grid[i], tab.Z_grid[j])
    Ty, Tz = tab.Ty, tab.Tz
    peak = max(np.abs(Ty).max(), np.abs(Tz).max())
    worst = max(np.abs(ty - Ty[i, j]).max(), np.abs(tz - Tz[i, j]).max())
    assert worst <= 2e-15 * peak, worst / peak


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_lookup_broadcasts_coordinates(thermal_family, u):
    """lookup broadcasts P against Z, as numpy would, and reads each point
    of the broadcast shape; it raised IndexError when the shapes differed.
    Shapes that do not broadcast raise numpy's ValueError."""
    tab = thermal_family.table(u, reach=2.0)
    for P, Z in [(np.array(0.3), np.array([-0.5, 1.2])),
                 (np.array([[0.1], [1.4]]), np.array([-1.0, 0.0, 0.7])),
                 (0.5, -0.25)]:
        shape = np.broadcast_shapes(np.shape(P), np.shape(Z))
        want = tab.lookup(np.broadcast_to(P, shape).copy(),
                          np.broadcast_to(Z, shape).copy())
        got = tab.lookup(P, Z)
        for g, w in zip(got, want):
            assert g.shape == shape
            np.testing.assert_array_equal(g, w)
            assert np.all(w != 0.0)
    with pytest.raises(ValueError):
        tab.lookup(np.zeros(2), np.zeros(3))


def _transforms_full_grid(family, P, Z, u_delay=0.0, nx=None, nmu=None):
    """transforms_direct before its mu-parity fold: the whole nx x nmu grid
    as complex arrays, summed by einsum (slow oracle)."""
    dist = math.hypot(P, Z)
    if nx is None:
        nx = int(max(300, 12 * dist))
    if nmu is None:
        nmu = int(max(1600, 24 * dist))
    x, xw = pulsekit._gauss_legendre(nx, 0.0, pulsekit._X_MAX)
    mg, mw = pulsekit._gauss_legendre(nmu)
    st = np.sqrt(1.0 - mg**2)
    wx = spectral_weight(family, x[:, None], mg[None, :])
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
    ("thermal", 0.0, 4.0, 1.5, 1600),
    ("thermal", 0.0, 4.0, 1.5, 1601),
    ("thermal", 5.0, 0.0, 0.0, 1600),
    ("thermal", 5.0, 0.0, 0.0, 1601),
    ("thermal", 5.0, 0.0, 1.5, 1600),
    ("thermal", 5.0, 0.0, 1.5, 1601),
    ("thermal", 0.0, 0.0, 0.0, 1601),
    ("thermal", 0.0, 0.0, 1.5, 1600),
    ("thermal", 2.0, -3.0, 1.5, 1600),
    ("thermal", 2.0, -3.0, 1.5, 1601),
    ("thermal", 17.43, 4.5, 0.0, None),
    ("power", 3.0, 2.0, 0.0, 1601),
    ("power", 2.0, -3.0, 1.5, 1601),
    ("power", 1.0, 1.0, 0.0, 1601),
    ("power", 0.5, -2.0, 0.0, 1601),
    ("power", 0.0, 2.0, 0.0, 1600),
    ("power", 0.0, 2.0, 1.5, 1601),
    ("power", 3.0, 0.0, 0.0, 1601),
    ("power", 3.0, 0.0, 1.5, 1600),
    ("power", 0.0, 0.0, 1.5, 1601),
])
def test_transforms_direct_matches_full_grid(thermal_family, power_family,
                                             kind, P, Z, u, nmu):
    """The mu-parity fold with its folded node weights sums the same nodes
    as the full grid; odd nmu puts a node at mu = 0, which the fold must
    count exactly once.  The default thermal profile is e^{-20} there, so
    the power profile is the case that weighs that node.  The rows on the
    axis (P = 0) and the equator (Z = 0) take the exact branches that skip
    the Bessel or the trigonometric factors; (17.43, 4.5) is on the far
    ring of the tail calibration, at default node counts."""
    fam = power_family if kind == "power" else thermal_family
    folded = transforms_direct(fam, P, Z, u, nmu=nmu)
    full = _transforms_full_grid(fam, P, Z, u, nmu=nmu)
    if P == 0.0:                          # J1(0) = 0: T_z vanishes on the axis
        assert folded[1] == 0.0 and full[1] == 0.0
        folded, full = folded[:1], full[:1]
    for got, want in zip(folded, full):
        assert abs(got - want) <= 1e-10 * abs(want), (got, want)


@pytest.mark.parametrize("nx", [1, 65, 66, 301])
def test_transforms_direct_mirror_rows_match_full_grid(thermal_family, nx):
    """Blocks pair x nodes with their mirrors about _X_MAX / 2 and take the
    mirrors' phases from their partners'.  An odd rule's middle node has
    no partner and must be summed once; 65 and 66 nodes end on a block
    with one near row, without and with a far one."""
    for P, Z, u in [(3.0, 2.0, 0.0), (2.0, -3.0, 1.5), (0.0, 4.0, 0.0)]:
        folded = transforms_direct(thermal_family, P, Z, u, nx=nx)
        full = _transforms_full_grid(thermal_family, P, Z, u, nx=nx)
        for got, want in zip(folded, full):
            assert abs(got - want) <= 1e-10 * abs(want), (P, Z, got, want)


def _table_error(family, points, reach=pulsekit._DEFAULT_REACH):
    """Largest |table - direct| over (P, Z) points, relative to the peak."""
    peak = abs(transforms_direct(family, 0.0, 0.0, 0.0)[0])
    P, Z = np.array(points, float).T
    ty, tz = family.table(0.0, reach).lookup(P, Z)
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


def test_power_profile_table_against_direct(power_family):
    """A second weight through the same build.  The table's b = x mu grid
    starts at -8, which cuts this broad profile's backward lobe: that,
    not the spline, sets the 1.4e-3 error at (0, 0.5)."""
    assert _table_error(power_family, [(0.0, 0.5), (1.0, 1.0), (2.0, 3.0)],
                        _POWER_REACH) < 5e-3


def test_table_tz_linear_off_axis_nodes(thermal_family):
    """T_z is odd in P, so between the axis and the first grid row it rises
    linearly; an even extension across P = 0 flattens it there."""
    tab = thermal_family.table(0.0)
    dP = tab.P_grid[1] - tab.P_grid[0]
    Z = np.array([-3.0, -0.4, 0.3, 0.5, 2.0])
    _, tz_half = tab.lookup(np.full_like(Z, dP / 2), Z)
    _, tz_node = tab.lookup(np.full_like(Z, dP), Z)
    assert np.allclose(tz_half / tz_node, 0.5, rtol=1e-2)


def _z_columns(reach):
    """nfft, the FFT bins of the whole Z-grid in ascending Z, and their
    phase (the shift to start at b = _B_FLOOR, times db), as _grid picks
    them."""
    db = 0.025
    nfft = 16384
    while math.pi / db < 1.05 * reach * (16384.0 / nfft):
        nfft *= 2
    Zk = 2.0 * math.pi * np.fft.fftfreq(nfft, d=db)
    cols = np.flatnonzero(np.abs(Zk) <= reach)
    cols = cols[np.argsort(Zk[cols])]
    return nfft, cols, np.exp(1j * pulsekit._B_FLOOR * Zk[cols]) * db


def _fourier_first_grid(family, u_delay, reach):
    """Ty, Tz summed in the build's former order (oracle): two zero-padded
    FFTs over b per row of a and transform, then the Bessel GEMM over a on
    the Z-columns.  Same grids, same weights; only the order differs."""
    da = db = 0.025
    a = np.arange(0.0, pulsekit._X_MAX + da / 2, da)
    b = np.arange(pulsekit._B_FLOOR, pulsekit._X_MAX + db / 2, db)
    wa = np.full_like(a, da)
    wa[0] *= 0.5
    wa[-1] *= 0.5
    nfft, cols, phase = _z_columns(reach)
    Pg = np.arange(0.0, reach + pulsekit._P_STEP / 2, pulsekit._P_STEP)
    Ty = np.zeros((len(Pg), len(cols)), complex)
    Tz = np.zeros_like(Ty)
    for lo in range(0, len(a), pulsekit._ROW_BLOCK):
        ab = a[lo:lo + pulsekit._ROW_BLOCK]
        wmu, wst = weights_masked(family, ab, b, u_delay)
        Hy = np.fft.ifft(wmu, n=nfft, axis=1, norm="forward").take(cols, axis=1) * phase
        Hz = np.fft.ifft(wst, n=nfft, axis=1, norm="forward").take(cols, axis=1) * phase
        Pa = np.outer(Pg, ab)
        wb = wa[lo:lo + pulsekit._ROW_BLOCK]
        Ty += ((special.j0(Pa) * wb) @ Hy.view(float)).view(complex)
        Tz += ((special.j1(Pa) * wb) @ Hz.view(float)).view(complex)
    return Ty, Tz


@pytest.mark.parametrize("which", ["default", "delayed", "reach2", "power"])
def test_table_matches_fourier_first_order(thermal_family, power_family,
                                           which):
    """Hankel-then-FFT sums the same terms as FFT-then-Hankel: the grids
    agree to 1e-14 of the peak for a real weight, a complex (delayed) one,
    a short reach and the power profile's table."""
    fam, u, reach = _table_case(thermal_family, power_family, which)
    ty, tz = _cached_grid_values(fam, u, reach)
    want_y, want_z = _fourier_first_grid(fam, u, reach)
    assert ty.shape == want_y.shape and tz.shape == want_z.shape
    peak = max(np.abs(want_y).max(), np.abs(want_z).max())
    worst = max(np.abs(ty - want_y).max(), np.abs(tz - want_z).max())
    assert worst <= 1e-14 * peak, worst / peak


@pytest.mark.parametrize("which", ["default", "delayed", "reach2", "power",
                                   "shortest"])
def test_grid_equals_separate_accumulators(thermal_family, power_family,
                                           which):
    """Summing G_y and G_z inside the frame's rows, with the GEMM products
    added chunk by chunk and the FFTs run block by block, gives the grid
    of separate accumulators and whole products bit for bit: for a real
    weight, a complex (delayed) one, a frame narrower than the sums (reach
    2 and the shortest reach), and the power profile."""
    fam, u, reach = _table_case(thermal_family, power_family, which)
    np.testing.assert_array_equal(_cached_frame_values(fam, u, reach),
                                  grid_separate_accumulators(fam, u, reach))


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_narrow_frame_coef_is_compact(thermal_family, u):
    """A reach-2 frame is narrower than the Hankel sums it accumulates, so
    it is built in wider scratch rows; the table keeps a C-contiguous copy
    that holds no more than its own values."""
    tab = pulsekit._build_table(thermal_family, u, 2.0)
    lines = 1 if u == 0.0 else 2          # real lines per row of G_y, G_z
    assert tab.coef.shape[2] == 4 * lines
    assert tab.coef.shape[1] * 4 * lines < 2 * lines * 1921   # 1921 b nodes
    assert tab.coef.flags.c_contiguous
    assert tab.coef.base is None or tab.coef.base.nbytes == tab.coef.nbytes


def test_check_reach_bounds_frame_without_allocating(thermal_family,
                                                    monkeypatch,
                                                    traced_peak):
    """check_reach turns down a reach whose frame would pass
    _MAX_FRAME_BYTES, from the shape rules alone: reach 401.7 (at least
    21 GiB of delayed frame) and 1e300 raise while tracing under 64 kB.  Its
    size rule is the delayed default table's eight-channel frame exactly,
    64 rows (columns + 3) bytes: a limit one byte below that frame rejects
    reach 16, the frame's own size accepts it."""
    def rejected(reach):
        with pytest.raises(ValueError, match="above the limit"):
            pulsekit.check_reach(reach)

    for reach in (401.7, 1e300):
        _, peak, _ = traced_peak(rejected, reach)
        assert peak < 64 * 2**10, peak
    pulsekit.check_reach(61.0)
    rejected(62.0)
    nbytes = thermal_family.table(0.7).coef.nbytes
    assert nbytes == 64 * 545 * 1047
    monkeypatch.setattr(pulsekit, "_MAX_FRAME_BYTES", nbytes)
    pulsekit.check_reach(16.0)
    monkeypatch.setattr(pulsekit, "_MAX_FRAME_BYTES", nbytes - 1)
    rejected(16.0)


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_fft_block_leaves_table_unchanged(thermal_family, monkeypatch, u):
    """_FFT_LINES sets only how many lines each real FFT call takes, and
    _GEMM_ROWS how many real lines of P each GEMM product takes: five and
    seven (two rows and three of a delayed table, whose rows are two lines
    each), with short last blocks, give the same table bit for bit."""
    want = pulsekit._build_table(thermal_family, u, 2.0)
    want_grid = _frame_values(thermal_family, u, 2.0)
    monkeypatch.setattr(pulsekit, "_FFT_LINES", 5)
    monkeypatch.setattr(pulsekit, "_GEMM_ROWS", 7)
    got = pulsekit._build_table(thermal_family, u, 2.0)
    np.testing.assert_array_equal(_frame_values(thermal_family, u, 2.0),
                                  want_grid)
    np.testing.assert_array_equal(got.coef, want.coef)


@pytest.mark.parametrize("which", ["thermal", "power"])
def test_delayed_table_is_sum_of_real_weight_tables(thermal_family,
                                                    power_family, monkeypatch,
                                                    which):
    """A delayed table is T[Re w] + i T[Im w] for its complex weight
    w = W e^{-i x u}: its channels are, bit for bit, the coefficients of
    two undelayed builds whose weights are the Re and Im lines of w, and
    its lookup and node values are theirs combined as A + i B."""
    fam, u, reach = ((thermal_family, 0.7, 2.0) if which == "thermal"
                     else (power_family, 1.5, _POWER_REACH))
    delayed = pulsekit._build_table(fam, u, reach)
    weight_rows = pulsekit._weight_rows
    parts = []
    for line in (0, 1):
        def one_line(family, a, b, u_delay, line=line):
            assert u_delay == 0.0
            return tuple(np.ascontiguousarray(W[:, line::2])
                         for W in weight_rows(family, a, b, u))
        monkeypatch.setattr(pulsekit, "_weight_rows", one_line)
        parts.append(pulsekit._build_table(fam, 0.0, reach))
    re, im = parts
    assert delayed.coef.shape == re.coef.shape[:2] + (8,)
    np.testing.assert_array_equal(delayed.coef[:, :, :4], re.coef)
    np.testing.assert_array_equal(delayed.coef[:, :, 4:], im.coef)

    rng = np.random.default_rng(30)
    P = rng.random(20_000) * reach
    Z = (2.0 * rng.random(20_000) - 1.0) * reach
    Z[:100], Z[100:200] = 0.0, -0.0
    for got, a, b in zip(delayed.lookup(P, Z), re.lookup(P, Z),
                         im.lookup(P, Z)):
        np.testing.assert_array_equal(got, a + 1j * b)
    np.testing.assert_array_equal(delayed.Ty, re.Ty + 1j * im.Ty)
    np.testing.assert_array_equal(delayed.Tz, re.Tz + 1j * im.Tz)


@pytest.mark.parametrize("which", ["default", "power"])
def test_undelayed_grid_is_hermitian(thermal_family, power_family, which):
    """A real weight gives T(P, -Z) = conj T(P, Z) on the exactly symmetric
    Z-grid, so a table loses nothing by keeping Z >= 0 only, and its lookup
    reads T(P, -Z) as the conjugate of T(P, Z) bit for bit.  The first
    column, Z = 0, has Im T exactly zero, as the odd extension of the
    imaginary parts across it needs; so do both real-weight parts of a
    delayed table."""
    fam, _, reach = _table_case(thermal_family, power_family, which)
    tab = fam.table(0.0, reach)
    Zg = tab.Z_grid
    np.testing.assert_array_equal(Zg[::-1], -Zg)
    assert tab.coef.shape[1] - 3 == len(Zg) // 2 + 1
    assert np.all(_cached_frame_values(fam, 0.0, reach)[:, 0].imag == 0.0)
    if which == "default":
        assert np.all(_cached_frame_values(fam, 0.7, reach)[:, 0].imag == 0.0)

    rng = np.random.default_rng(7)
    P = rng.random(10_000) * tab.P_grid[-1]
    Z = rng.random(10_000) * Zg[-1]
    for above, below in zip(tab.lookup(P, Z), tab.lookup(P, -Z)):
        np.testing.assert_array_equal(below, above.conj())


def _prefilter_ndimage(parts):
    """_prefilter as it was before its recursions were written out: one
    scipy spline_filter per channel, in place in the frame (oracle).  parts
    are whole-grid complex channels (T_y, T_z) of each real weight."""
    pad = pulsekit._PAD
    coef = np.empty((parts.shape[0] + pad + 3, parts.shape[1] + 3,
                     2 * parts.shape[2]))
    inner = coef[1:-2, 1:-2]
    for c in range(coef.shape[2]):
        part = (parts.real, parts.imag)[c % 2][:, :, c // 2]
        parity = pulsekit._PARITY[c % 4]
        ext = inner[:, :, c]
        ext[:pad] = parity * part[pad:0:-1]
        ext[pad:] = part
        ndimage.spline_filter(ext, order=3, output=ext, mode="mirror")
    for axis in (0, 1):
        c = np.moveaxis(coef, axis, 0)
        c[0], c[-2], c[-1] = c[2], c[-4], c[-5]
    return coef


def _prefilter_copy_in(values, z_parity):
    """_prefilter as it was while tables kept their grid values: both axes'
    gains applied as the complex channels values, (T_y, T_z) of each real
    weight on the columns the frame holds, are copied into a new frame,
    then the same in-place recursions, with z_parity across the first
    column (oracle)."""
    pad = pulsekit._PAD
    coef = np.empty((values.shape[0] + pad + 3, values.shape[1] + 3,
                     2 * values.shape[2]))
    inner = coef[1:-2, 1:-2]
    gain = pulsekit._SPLINE_GAIN ** 2
    pairs = inner.view(complex)
    for c in range(values.shape[2]):
        T, parity = values[:, :, c], (1.0, -1.0)[c % 2]
        np.multiply(T[pad:0:-1], parity * gain, out=pairs[:pad, :, c])
        np.multiply(T, gain, out=pairs[pad:, :, c])
    pulsekit._spline_recursions(inner)
    pulsekit._spline_recursions(np.moveaxis(inner, 1, 0), z_parity)
    for axis, parity in ((0, 1.0), (1, z_parity)):
        c = np.moveaxis(coef, axis, 0)
        c[0], c[-2], c[-1] = parity * c[2], c[-4], c[-5]
    return coef


_PREFILTER_CASES = ["default", "delayed", "reach2", "shortest", "power"]



@pytest.mark.parametrize("which", _PREFILTER_CASES)
def test_prefilter_matches_spline_filter(thermal_family, power_family,
                                         traced_peak, which):
    """The in-place recursions give spline_filter's mirror-boundary
    coefficients over the whole Z-grid, frame included, to 1e-14 of each
    channel's peak: for a real weight, a complex (delayed) one, a short
    reach, the shortest lines of P check_reach allows (whose mirror sum
    keeps every term) and the power profile's table.  A table's frame on
    Z >= 0, extended across Z = 0 by parity, holds that frame's columns
    from Z = -dZ on, for each real weight: the delayed table's channels
    match the whole-grid frames of its Re and Im parts.  Run in place on a
    frame, they allocate at most 2 MB."""
    fam, u, reach = _table_case(thermal_family, power_family, which)
    tab = fam.table(u, reach)
    if which == "shortest":
        assert tab.coef.shape[0] - 3 == 2 * pulsekit._PAD + 1
    want = _prefilter_ndimage(_cached_parts(fam, u, reach))
    want = want[:, want.shape[1] - tab.coef.shape[1]:]
    assert tab.coef.shape == want.shape
    worst = np.abs(tab.coef - want).max(axis=(0, 1))
    peak = np.abs(want).max(axis=(0, 1))
    assert np.all(worst <= 1e-14 * peak), worst / peak

    coef = np.empty(tab.coef.shape)
    coef[1 + pulsekit._PAD:-2, 1:-2].view(complex)[:] = \
        _cached_frame_values(fam, u, reach)
    _, allocated, _ = traced_peak(pulsekit._prefilter, coef)
    assert allocated <= 2 * 2**20, allocated / 2**20


@pytest.mark.parametrize("which", _PREFILTER_CASES)
def test_coefficients_equal_copy_in_prefilter(thermal_family, power_family,
                                              which):
    """Writing the FFT rows straight into the frame and scaling them there
    gives the coefficients of the former copy-in prefilter bit for bit."""
    fam, u, reach = _table_case(thermal_family, power_family, which)
    tab = fam.table(u, reach)
    values = _cached_frame_values(fam, u, reach)
    np.testing.assert_array_equal(
        tab.coef, _prefilter_copy_in(values, _z_parity(values)))


@pytest.mark.parametrize("which", ["default", "delayed", "power"])
def test_grid_values_rebuilt_from_coefficients(thermal_family, power_family,
                                               which):
    """Ty and Tz, rebuilt from coef on each access, are the grid values to
    1e-14 of the peak, in the grid's shape and complex128, so the cell and
    MB counts taken from them stay what they were when tables kept them."""
    fam, u, reach = _table_case(thermal_family, power_family, which)
    tab = fam.table(u, reach)
    want_y, want_z = _cached_grid_values(fam, u, reach)
    ty, tz = tab.Ty, tab.Tz
    assert ty.shape == tz.shape == (len(tab.P_grid), len(tab.Z_grid))
    if reach == pulsekit._DEFAULT_REACH:
        assert ty.shape == (534, 2087)
    assert ty.dtype == tz.dtype == np.complex128
    assert ty.nbytes == tz.nbytes == want_y.nbytes
    peak = max(np.abs(want_y).max(), np.abs(want_z).max())
    worst = max(np.abs(ty - want_y).max(), np.abs(tz - want_z).max())
    assert worst <= 1e-14 * peak, worst / peak
    assert tab.Ty is not tab.Ty                     # rebuilt, not stored


def _map_coordinates_lookup(tab, Ty, Tz, P, Z):
    """The lookup as it was before the four coefficient channels were fused:
    per-part complex B-spline coefficients of the whole-grid values Ty, Tz
    read by scipy's map_coordinates (oracle).  Points are read as lookup
    reads them, at |Z| counted from the column Z = -dZ on their side of
    Z = 0, so that the coordinate of a point near the axis is as exact as
    lookup's: an undelayed table from the side Z >= 0, conjugated where
    Z < 0, and a delayed table, whose T has no such symmetry, at Z < 0 from
    its columns in reverse order, which the symmetric B-spline reads as the
    same spline."""
    real = tab.coef.shape[2] == 4
    Pg, Zg = tab.P_grid, tab.Z_grid
    ok = (P >= 0.0) & (P <= Pg[-1]) & (Z >= Zg[0]) & (Z <= Zg[-1])
    dP = Pg[1] - Pg[0]
    dZ = (Zg[-1] - Zg[0]) / (len(Zg) - 1)
    mid = len(Zg) // 2                                  # the column Z = 0
    at = np.stack([P[ok] / dP + pulsekit._PAD, np.abs(Z[ok]) / dZ + 1.0])
    below = np.zeros(len(at[0]), bool) if real else Z[ok] < 0.0
    out = []
    for T, parity in ((Ty, 1.0), (Tz, -1.0)):
        ext = np.concatenate([parity * T[pulsekit._PAD:0:-1], T])
        coef = ndimage.spline_filter(ext, order=3, output=complex, mode="mirror")
        t = np.zeros(P.shape, complex)
        part = np.empty(len(at[0]), complex)
        for side, c in ((~below, coef[:, mid - 1:]),
                        (below, coef[:, mid + 1::-1])):
            part[side] = ndimage.map_coordinates(c, at[:, side], order=3,
                                                 mode="mirror",
                                                 prefilter=False)
        t[ok] = part
        if real:
            np.conjugate(t, out=t, where=Z < 0.0)
        out.append(t)
    return out


@pytest.mark.parametrize("which", ["default", "delayed", "power"])
def test_lookup_matches_map_coordinates(thermal_family, power_family, which):
    """The fused gather reads the same spline as map_coordinates: at 1e5
    random points, on the four edges and at the corners of the grid, for a
    real weight, a complex (delayed) one and the power profile's table."""
    fam, u, reach = _table_case(thermal_family, power_family, which, delay=1.5)
    tab = fam.table(u, reach)
    grid_y, grid_z = _cached_grid_values(fam, u, reach)
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


def _full_table(ty, tz):
    """The coefficient frame of whole-grid values ty, tz through the copy-in
    prefilter with the mirror boundary at both ends of Z (oracle): the
    frame every table kept before undelayed ones stored Z >= 0 only, and
    delayed ones until they stored two real-weight parts on Z >= 0.
    oracles.full_frame_lookup reads it."""
    return _prefilter_copy_in(np.stack([ty, tz], axis=2), 1.0)


@pytest.mark.parametrize("which", ["default", "power", "reach2", "shortest",
                                   "delayed"])
def test_half_table_matches_full_table(thermal_family, power_family, which):
    """Every table keeps only Z >= 0 and reads Z < 0 as conjugates, of T
    itself for a real weight and of each real-weight part for a delayed
    one.  It reads what the full-frame table reads to 1e-13 of the peak:
    at 1e5 random points with both signs of Z, at Z = +0.0 and -0.0 and
    within 3 dZ of Z = 0, and exact zeros out of range or at NaN.  The
    default table's coefficients take at most 0.52 of the full frame's
    34.8 MB; a delayed table holds eight channels on the same columns."""
    fam, u, reach = _table_case(thermal_family, power_family, which)
    tab = fam.table(u, reach)
    ty, tz = _cached_grid_values(fam, u, reach)
    full = _full_table(ty, tz)
    assert tab.coef.shape[1] - 3 == len(tab.Z_grid) // 2 + 1
    assert full.shape[1] - 3 == len(tab.Z_grid)
    Pmax, Zmax = tab.P_grid[-1], tab.Z_grid[-1]
    dZ = 2.0 * Zmax / (len(tab.Z_grid) - 1)
    rng = np.random.default_rng(26)
    n = 100_000
    P = rng.random(n) * Pmax
    Z = (2.0 * rng.random(n) - 1.0) * Zmax
    Z[:1000], Z[1000:2000] = 0.0, -0.0
    Z[2000:12000] = (2.0 * rng.random(10_000) - 1.0) * 3.0 * dZ
    P[12000:12100], Z[12100:12200] = 0.0, -Zmax
    got = tab.lookup(P, Z)
    want = full_frame_lookup(tab.P_grid, tab.Z_grid, full, P, Z)
    peak = max(np.abs(ty).max(), np.abs(tz).max())
    worst = max(np.abs(g - w).max() for g, w in zip(got, want))
    assert worst <= 1e-13 * peak, worst / peak

    Zlo = tab.Z_grid[0]
    out_P = [np.nextafter(0.0, -1.0), np.nextafter(Pmax, np.inf), 1.0, 1.0,
             np.nan, 1.0, np.inf]
    out_Z = [0.0, 0.0, np.nextafter(Zlo, -np.inf), np.nextafter(Zmax, np.inf),
             0.0, np.nan, 0.0]
    ty_out, tz_out = tab.lookup(np.array(out_P), np.array(out_Z))
    assert np.all(ty_out == 0.0) and np.all(tz_out == 0.0)

    if which == "default":
        assert full.shape == (545, 2090, 4)
        assert tab.coef.nbytes <= 0.52 * full.nbytes
    if which == "delayed":
        assert tab.coef.shape == (545, 1047, 8)


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_build_table_memory(thermal_family, traced_peak, u):
    """The default build peaks below 27 MB and keeps below 20 MB when real,
    below 48 and 70 MB when delayed: the one coefficient array on Z >= 0,
    17.4 MB for the real table's four channels and 34.8 MB for the delayed
    table's eight, and a few MB of block buffers beside it (traced peaks
    25.7 and 44.1 MB; with separate G_y and G_z arrays and whole GEMM
    products they were 35.7 and 68.8 MB)."""
    tab, peak, retained = traced_peak(pulsekit._build_table, thermal_family,
                                      u, 16.0)
    peak_mb, kept_mb = (48, 70) if u else (27, 20)
    assert tab.coef.shape == (tab.Ty.shape[0] + pulsekit._PAD + 3,
                              tab.Ty.shape[1] // 2 + 1 + 3, 8 if u else 4)
    assert peak <= peak_mb * 2**20, peak / 2**20
    assert retained <= kept_mb * 2**20, retained / 2**20


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_build_table_retains_only_coefficients(thermal_family, traced_peak,
                                               u):
    """A default build keeps at most 18 MB when real and 36 MB when
    delayed: its 17.4 or 34.8 MB coefficient frame (four or eight channels
    on Z >= 0) and its two grids, no grid values."""
    tab, _, retained = traced_peak(pulsekit._build_table, thermal_family,
                                   u, 16.0)
    kept_mb = 36 if u else 18
    assert tab.coef.nbytes <= retained <= kept_mb * 2**20, retained / 2**20


def test_lookup_transient_memory(thermal_family, traced_peak):
    """Reading 2e5 in-range points allocates the two outputs (6.4 MB) and a
    few MB of block temporaries, not per-point copies of the coefficients."""
    tab = thermal_family.table(0.0)
    rng = np.random.default_rng(5)
    P = rng.random(200_000) * 15.0
    Z = (rng.random(200_000) - 0.5) * 30.0
    out, peak, _ = traced_peak(tab.lookup, P, Z)
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


@pytest.mark.parametrize("kind", ["thermal", "power"])
@pytest.mark.parametrize("case", ["delta-nan", "delta-inf", "m-long",
                                  "n-short", "not-perpendicular", "frame-nan"])
def test_envelope_batch_rejects_bad_input(ctx, monkeypatch, kind, case):
    """Either profile refuses a non-finite delta or a frame that is not
    orthonormal, before any table work; the table path read a NaN delta as
    an exact zero field and m_hat = (0, 0, 2) as twice the field."""
    def no_work(*args, **kwargs):
        raise AssertionError("built a table before checking")

    monkeypatch.setattr(pulsekit, "_build_table", no_work)
    fam = pulsekit.make_thermal_family(
        ctx, upsilon_kind="power" if kind == "power" else "exp",
        upsilon_param=2.0 if kind == "power" else 11.0)
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
])
def test_norm_frozen(thermal_family, power_family, shape, want_N, want_pref):
    """norm_N and the envelope prefactor, bit for bit.  The thermal row is
    as recorded before the normalization integral was cached per shape; the
    power row is norm_N from the exactly rounded J
    (test_thermal_norm_integral_against_mpmath), 1 ulp above the value
    adaptive quadrature gave."""
    fam = power_family if shape == "power" else thermal_family
    assert fam.norm_N() == want_N
    assert fam.envelope_prefactor() == want_pref


def test_envelope_batch_second_call_reuses_table(ctx, power_family,
                                                 monkeypatch):
    """A second call on a shape builds no table and reads the same bits."""
    fam = power_family
    m_hats, n_hats = _frames([0.1, 0.2, 0.9], 0.4, 3)
    d = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.0], [-0.5, 0.4, 1.0]]) \
        * ctx.length_scale
    first = envelope_batch(fam, m_hats, n_hats, d, reach=2.0)

    def no_build(*args, **kwargs):
        raise AssertionError("built the table again")

    monkeypatch.setattr(pulsekit, "_build_table", no_build)
    second = envelope_batch(fam, m_hats, n_hats, d, reach=2.0)
    np.testing.assert_array_equal(first, second)


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
    want = _mp_norm_integral(kind, param)
    assert abs(pulsekit.upsilon_norm_integral(kind, param) - want) \
        <= 1e-14 * want


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


def test_pulse_extent_cold_peak_memory(thermal_family, monkeypatch,
                                      traced_peak):
    """pulse_extent on an empty memo, the set-up of the Monte Carlo
    estimators (the default table's build, then the radial profile), peaks
    below 29 MB of traced allocations; it peaks at 27.2 MB.  With separate
    G_y and G_z arrays in the build and the profile's 3e5 points read at
    once it peaked at 37.0 MB, and at 54.3 MB when undelayed tables held
    the whole Z-grid."""
    monkeypatch.setattr(pulsekit, "_memo", OrderedDict())
    _, peak, _ = traced_peak(pulsekit.pulse_extent, thermal_family)
    assert peak <= 29 * 2**20, peak / 2**20


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


def _mp_sphere_in_cube_fraction(d):
    """The edge-band fraction 1 - (6 caps - 12 pair) / (4 pi d^2) with the
    cap-pair overlap pair = d int (pi/2 - 2 asin(1/sqrt(d^2 - z^2))) dz over
    |z| <= sqrt(d^2 - 2), an even integrand, by mpmath quadrature at 20
    digits."""
    with mpmath.workdps(20):
        r = mpmath.mpf(d)
        zm = mpmath.sqrt(r * r - 2)
        pair = 2 * r * mpmath.quad(
            lambda z: mpmath.pi / 2 - 2 * mpmath.asin(1 / mpmath.sqrt(r * r - z * z)),
            [0, zm])
        return float(1 - (12 * mpmath.pi * r * (r - 1) - 12 * pair)
                     / (4 * mpmath.pi * r * r))


def test_sphere_in_cube_fraction_edge_band_against_mpmath():
    """The closed-form edge band against quadrature of its overlap integral
    at 41 points of (sqrt(2), sqrt(3)); the 20000-point Fibonacci count it
    replaced was 25% low at d = 1.7.  At sqrt(2) the band meets the face
    formula, and at sqrt(3) it reaches 0."""
    lo, hi = math.sqrt(2.0), math.sqrt(3.0)
    ds = np.linspace(lo, hi, 43)[1:-1]
    got = sphere_in_cube_fraction(ds)
    want = [_mp_sphere_in_cube_fraction(d) for d in ds]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    assert abs(sphere_in_cube_fraction(np.nextafter(lo, 2.0))
               - sphere_in_cube_fraction(lo)) <= 1e-15
    assert 0.0 <= sphere_in_cube_fraction(np.nextafter(hi, 1.0)) <= 1e-15


def test_sphere_in_cube_fraction_array_frozen():
    """One array call across the three bands returns, in d's shape, the
    scalar calls' values, and those are the recorded ones: exact in the
    face band, and in the edge band the float of a 20-digit mpmath
    quadrature (_mp_sphere_in_cube_fraction) to 1e-15."""
    recorded = {0.0: 1.0, 0.5: 1.0, 1.0: 1.0, 1.2: 0.5,
                math.sqrt(2.0): 0.12132034355964239,
                1.42: 0.1136115104540568, 1.45: 0.08281121340996674,
                1.5: 0.048327646991334516, 1.55: 0.02625169652407259,
                1.6: 0.012360903626746883, 1.65: 0.00431334325489713,
                1.7: 0.000599377300447654, 1.73: 2.3270473491284153e-06,
                math.sqrt(3.0): 0.0,
                2.0: 0.0, 7.5: 0.0}
    ds = np.array(list(recorded)).reshape(4, 4)
    got = sphere_in_cube_fraction(ds)
    assert got.shape == (4, 4)
    np.testing.assert_array_equal(
        got.ravel(), [sphere_in_cube_fraction(float(d)) for d in ds.ravel()])
    np.testing.assert_allclose(got.ravel(), list(recorded.values()),
                               rtol=0.0, atol=1e-15)
    assert sphere_in_cube_fraction(math.nan) == 0.0
