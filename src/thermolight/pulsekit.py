"""Coherent pulse families and their classical field envelopes.

A pulse is labeled by a propagation direction m_hat, a transverse vector
n_hat (polarization reference, perpendicular to m_hat) and a nominal
position r0.  A family has the occupation-matched radial lineshape and a
directional profile upsilon; its momentum-space kernel is

    K = N * radial(k) * upsilon(k_hat . m_hat) * (e*_{k,lambda} . (k x n_hat))

with radial(k) = 1/(k sqrt(e^{beta hbar c k} - 1)).  Since k x n_hat is
already transverse, summing over helicities just reproduces it, and the
envelope is

    E(r,t) = i N alpha int d3k sqrt(hbar c k / 16 pi^3 eps0)
             (k x n_hat) radial upsilon e^{i k.(r-r0) - i c k t}.

In the canonical frame (m_hat = z', n_hat = x') the azimuthal integral is
analytic and leaves two scalar transforms

    T_y(P,Z) = int dx dmu w(x,mu) mu            J0(x P st) e^{i x Z mu}
    T_z(P,Z) = int dx dmu w(x,mu) sqrt(1-mu^2)  J1(x P st) e^{i x Z mu}

with (P, Phi, Z) cylindrical coordinates of (r-r0)/(beta hbar c), giving

    E = pref * 2 pi * [ T_y * (m_hat x n_hat) - i sin(Phi) T_z * m_hat ].

envelope_batch is the public way to a field: it evaluates this for arrays of
(m_hat, n_hat, r - r0) at once.  Its two steps, the checked frame
coordinates (_frame_coordinates) and the table read (_table_fields), also
serve mcfield's G2 estimator, which reads one component at two points per
pulse, and only on the pulses where both lie on the table.  The Monte Carlo
estimators need millions of points, so T_y and T_z are precomputed on a
uniform (P, Z) grid: substituting a = x st, b = x mu turns the P-dependence
into Hankel transforms over a and the mu-oscillation into a plain Fourier
transform over b.  The Hankel sums run first, as dense real Bessel matrices
times the weights, one GEMM per block of a-rows, onto (P, b); then one real
FFT per row of P and transform (two for a delayed table's complex rows)
takes b to Z, written straight into the table's coefficient array.  Lookups
evaluate a cubic B-spline through the grid values; its coefficients come
from the grid extended across P = 0 with the parity of each transform (J0
makes T_y even in P, J1 makes T_z odd), through the spline's recursive
prefilter, run in place there.  The real and imaginary parts of both sit as
four channels of one real array, so one gather of the 4 x 4 neighbouring
nodes and one set of spline weights per point give T_y and T_z together.  A
table keeps only that array.  Without a delay the weight is real, so
T(P, -Z) = conj T(P, Z): such a table computes and stores only Z >= 0,
extended across Z = 0 by the parity of each channel (real parts even,
imaginary parts odd), and a lookup reads |Z| and conjugates where Z < 0.
The tests check the table against direct 2D Gauss-Legendre quadrature
(transforms_direct) at listed points, near the axis, at the grid edges,
and for a delayed table, its grid against the former FFT-then-Hankel
order, its coefficients against scipy's spline_filter, the lookup against
scipy's map_coordinates, and a half table against the whole-grid table.

Gaussian lineshapes appear only on the spectral side, in mixturekit's
weight fit; no position-space field is built from them.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy import fft, linalg, special

from .specfun import ZETA3, PI4_OVER_15
from .units import PhysicalContext, check_count

_SIXTEEN_PI3 = 16.0 * math.pi**3

# Envelope tables, radial profiles and tail coefficients depend only on a
# family's dimensionless shape and the call's dimensionless arguments: lengths
# scale with beta hbar c and amplitudes with alpha (see units.py), and both
# enter through the SI prefactor alone.  One memo keyed on those values serves
# every temperature and amplitude.  A default table (545 x 1047 x 4 real
# B-spline coefficients on Z >= 0, no grid values) retains 17.4 MB (of 2^20
# bytes) and a delayed one (545 x 2090 x 4, the whole Z range) 34.8 MB,
# measured with tracemalloc, so only the most recently used few are kept.
_MEMO_SIZE = 8
_memo: OrderedDict = OrderedDict()

# Table layout: the Hankel GEMM runs on _ROW_BLOCK rows of a at a time, and
# each product is added to the sums through a buffer of _GEMM_ROWS real
# lines of P (2.8 MB for the default table): a whole product of 534 rows
# held 8 MB, and 64 lines made a cold default build about 15% slower.  The
# FFT over b takes _FFT_LINES real lines at a time (rows of P, or the Re and
# Im halves of a delayed table's rows): their spectra (8193 bins each for
# the default table) then hold 1 MB, which stays in a core's L2 cache; 64
# lines at a time ran up to a quarter slower.  The B-spline prefilter sees
# the grid extended across P = 0 by _PAD rows, in a frame that holds every
# tap of a lookup: 1 row and column below, 2 above.  Its mirror boundary
# lies _PAD rows below P = 0, and its effect there has decayed by
# |_SPLINE_POLE| = 0.268 per row (below 1e-7 of the peak).  Across Z = 0
# (undelayed tables) the boundary is exact instead: the recursions' start
# sums each channel's parity extension in closed form, so no pad columns are
# needed; 8 of them would leave an error of |_SPLINE_POLE|^8 = 2.7e-5 at
# Z = 0, far above rounding.  Rows of P are _P_STEP apart.
_ROW_BLOCK = 64
_GEMM_ROWS = 192
_FFT_LINES = 8
_PAD = 8
_P_STEP = 0.03

# The cubic B-spline prefilter's pole z, and its gain (1 - z)(1 - 1/z) per
# axis (Unser, Aldroubi & Eden, IEEE Trans. Signal Process. 41, 1993, 821).
_SPLINE_POLE = math.sqrt(3.0) - 2.0
_SPLINE_GAIN = 6.0

# Parity in P of the four coefficient channels (Re, Im of T_y, then of T_z):
# J0 makes T_y even, J1 makes T_z odd.
_PARITY = np.array([1.0, 1.0, -1.0, -1.0])

# Their parity in Z for a real weight, where T(P, -Z) = conj T(P, Z): real
# parts even, imaginary parts odd (and zero at Z = 0).
_Z_PARITY = np.array([1.0, -1.0, 1.0, -1.0])

# lookup reads _LOOKUP_BLOCK points at a time: its gather of 16 nodes x 4
# channels then holds 2 MB.  The radial profile reads the table
# _PROFILE_RADII radii (of 100 angles each) at a time.
_LOOKUP_BLOCK = 4096
_PROFILE_RADII = 250

# The band of x = beta hbar c k the transforms integrate over, [0, _X_MAX]:
# the weight x^{5/2}/sqrt(e^x - 1) at 40 is 4.5e-6 of its peak (at x = 5).
# A table's b = x mu starts at _B_FLOOR.  The default profile weighs mu < 0
# by at most e^{-20}, but a broad one loses its backward lobe there: the
# power profile with q = 2 reads 1.4e-3 of the peak off at (P, Z) = (0, 0.5).
_X_MAX = 40.0
_B_FLOOR = -8.0

# The (a, b) grid's steps, a = x st and b = x mu.
_DA = _DB = 0.025

# The largest coefficient frame check_reach lets a table build: 512 MiB,
# which a delayed table reaches near reach 61.
_MAX_FRAME_BYTES = 512 * 2**20

# Largest |Delta| (dimensionless) of the default envelope table.  Envelopes
# beyond it read as zero, so samplers that skip draws there use it too.
_DEFAULT_REACH = 16.0

# How far from 1, 1 and 0 envelope_batch lets |m_hat|, |n_hat| and
# m_hat . n_hat be: frames from mcfield's sampler, built from their drawn
# angles, and from tests/oracles.py's transverse_frames are off by a few ulps.
_FRAME_TOL = 1e-12

# Node counts whose raw Gauss-Legendre rules are kept.  _legendre_nodes builds
# leggauss's rule bit for bit from an O(n^2) tridiagonal eigen-solve; cold,
# the 3000-node rule of transforms_direct's far ring still takes about 0.3 s,
# as long as the quadrature itself.
_NODE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_NODE_CACHE_SIZE)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's leggauss(n), with the eigenvalues found in O(n^2).

    leggauss takes the eigenvalues of legcompanion's symmetric tridiagonal
    (Jacobi) matrix with eigvalsh, a dense O(n^3) solve (Golub & Welsch,
    Math. Comp. 23, 1969, 221).  Its LAPACK routine reduces the matrix to
    tridiagonal form first, which leaves an already tridiagonal matrix
    unchanged, and then runs the root-free QL iteration dsterf on it; here
    dsterf gets the diagonal and off-diagonal directly.  The Newton step,
    weight formula, symmetrization and rescale are leggauss's own, so nodes
    and weights equal leggauss(n) bit for bit (the tests hold them to it).
    """
    c = np.array([0] * n + [1])
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]    # as in legcompanion
    x = linalg.eigvalsh_tridiagonal(np.zeros(n), off, lapack_driver="sterf")
    # one Newton step, then weights scaled against overflow
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    x.flags.writeable = w.flags.writeable = False      # shared by every call
    return x, w


def _gauss_legendre(n: int, lo: float = -1.0, hi: float = 1.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [lo, hi], as fresh arrays.

    The rule comes from _legendre_nodes' tridiagonal eigen-solve, and on
    [-1, 1] it equals leggauss(n) bit for bit, since the map has mid = 0
    and half = 1.  A count that is not an integer >= 1 raises ValueError.
    """
    x, w = _legendre_nodes(check_count(n, "n"))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _memoized(key: tuple, build: Callable[[], object]):
    """build() on the first request for key; the stored value afterwards."""
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    value = _memo[key] = build()
    if len(_memo) > _MEMO_SIZE:
        _memo.popitem(last=False)
    return value


def upsilon_function(kind: str, param: float) -> Callable[[np.ndarray], np.ndarray]:
    """Directional profiles peaked at mu = 1.

    'exp'   : exp(kappa (mu - 1))
    'power' : ((1 + mu)/2)^q
    """
    if kind == "exp":
        if not 0.0 < param < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {param}")
        return lambda mu: np.exp(param * (np.asarray(mu) - 1.0))
    if kind == "power":
        if not 0.0 < param < math.inf:
            raise ValueError(f"q must be positive and finite, got {param}")
        return lambda mu: ((1.0 + np.asarray(mu)) / 2.0) ** param
    raise ValueError(f"unknown upsilon kind {kind!r}")


def upsilon_norm_integral(kind: str, param: float) -> float:
    """J = int_{-1}^{1} upsilon(mu)^2 (1 + mu^2) dmu in closed form.

    'exp'   : with s = 2 kappa, 1 + mu^2 = (4/3) P_0 + (2/3) P_2 and
              int e^{s mu} P_n dmu = 2 i_n(s) give
              J = sqrt(pi / 2s) [(8/3) ive(1/2, s) + (4/3) ive(5/2, s)],
              free of cancellation and overflow for every kappa > 0
    'power' : J = 4/(2q + 1) - 8/(2q + 2) + 8/(2q + 3)

    Both agree with 40-digit quadrature to a few 1e-15 relative for kappa
    in [1e-8, 1e8] and q in [1e-6, 1e6].
    """
    upsilon_function(kind, param)  # validate
    if kind == "exp":
        s = 2.0 * param
        return float(math.sqrt(math.pi / (2.0 * s))
                     * (8.0 / 3.0 * special.ive(0.5, s)
                        + 4.0 / 3.0 * special.ive(2.5, s)))
    q2 = 2.0 * param
    return 4.0 / (q2 + 1.0) - 8.0 / (q2 + 2.0) + 8.0 / (q2 + 3.0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (N, 3) arrays (either may be a broadcast
    view), equal to np.cross bit for bit: the same two products and one
    difference per component, without np.cross's axis moves and
    temporaries, 4-5x faster on a few thousand rows."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(a[:, i], b[:, j], out=out[:, k])
        out[:, k] -= a[:, j] * b[:, i]
    return out


@dataclass(frozen=True, eq=False)
class EnvelopeTable:
    """The canonical-frame transforms T_y, T_z on a uniform (P, Z) grid.

    lookup evaluates the cubic B-spline through the grid values.  Its
    coefficients are prefiltered over the grid extended across P = 0 by
    _PAD rows, evenly for T_y and oddly for T_z, so they start at
    P = -_PAD dP.  coef holds them as one real (rows, columns, 4) array with
    channels (Re c_y, Im c_y, Re c_z, Im c_z), padded with a boundary row
    and column below and two above so that every tap of an in-range point
    lies inside it.

    An undelayed table (real weight) has T(P, -Z) = conj T(P, Z), so its
    coef holds only the columns Z >= 0: the spline is extended across
    Z = 0 by each channel's parity in Z (_Z_PARITY), and lookup reads |Z|
    and conjugates where Z < 0.  For the default table that is
    545 x 1047 x 4 values, 17.4 MB (of 2^20 bytes).  A delayed table
    (complex weight, no such symmetry) holds every column, with the mirror
    boundary at both ends of Z: 545 x 2090 x 4, 34.8 MB; lookup reads its
    Z as the offset from Z = 0 in nodes, as exact near the axis as a half
    table's |Z|.  coef is C-contiguous and its own: _grid builds a narrow
    frame in wider scratch rows and keeps a compact copy.  The table
    stores nothing else of size: no grid values.  Ty and Tz rebuild those from
    coef on each access, on the full Z_grid.  Tables compare and hash by
    identity: two builds are distinct tables, whatever their values.
    """

    P_grid: np.ndarray
    Z_grid: np.ndarray
    coef: np.ndarray = field(repr=False)

    @property
    def support_radius(self) -> float:
        """Largest |Delta| (dimensionless) the table can evaluate."""
        return min(float(self.P_grid[-1]), float(self.Z_grid[-1]),
                   float(-self.Z_grid[0]))

    @property
    def Ty(self) -> np.ndarray:
        """T_y at the grid nodes, a fresh (len(P), len(Z)) complex array."""
        return self._nodes(0)

    @property
    def Tz(self) -> np.ndarray:
        """T_z at the grid nodes, a fresh (len(P), len(Z)) complex array."""
        return self._nodes(1)

    @property
    def _half(self) -> bool:
        """True if coef holds only the columns Z >= 0 (an undelayed table)."""
        return self.coef.shape[1] < len(self.Z_grid) + 3

    def _nodes(self, which: int) -> np.ndarray:
        """The spline at the grid nodes, for T_y (0) or T_z (1): at a node
        the cubic B-spline weighs its coefficient and the two beside it
        (1, 4, 1)/6 along each axis.  It equals the grid value up to the
        prefilter's rounding.  A half table's columns Z < 0 are the
        conjugates of those at -Z."""
        n, m = len(self.P_grid), len(self.Z_grid)
        k = self.coef.shape[1] - 3                  # the columns coef holds
        c = self.coef[_PAD:_PAD + n + 2, :k + 2, 2 * which:2 * which + 2]
        along_p = c[1:-1] * 4.0
        along_p += c[:-2]
        along_p += c[2:]
        out = np.empty((n, m), complex)
        t = out.view(float).reshape(n, m, 2)[:, m - k:]
        np.multiply(along_p[:, 1:-1], 4.0, out=t)
        t += along_p[:, :-2]
        t += along_p[:, 2:]
        t /= 36.0
        if k < m:
            np.conjugate(out[:, :m - k:-1], out=out[:, :m - k])
        return out

    def _inside_z(self, Z: np.ndarray) -> np.ndarray:
        """True where Z lies on the grid's Z range; NaN is outside."""
        return (Z >= self.Z_grid[0]) & (Z <= self.Z_grid[-1])

    def _inside(self, P: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """True where (P, Z) lies on the grid, the points lookup reads;
        lookup reads exactly zero everywhere else."""
        return (P >= 0.0) & (P <= self.P_grid[-1]) & self._inside_z(Z)

    def lookup(self, P: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T_y, T_z at arrays of cylindrical coordinates; zero outside range.

        Per point: the node below it and four cubic B-spline weights per
        axis, one gather of the 16 neighbouring coefficient rows and one
        weighted sum over them for all four channels (Unser, Aldroubi &
        Eden, IEEE Trans. Signal Process. 41, 1993, 821).  A half table is
        read at |Z|, and both transforms are conjugated where Z is negative
        (-0.0 included, where the two agree).  A delayed table takes the
        node below Z from floor(Z / dZ) plus the column of Z = 0, so the
        coordinate rounds like |Z| / dZ, not like (Z - Z_min) / dZ, which
        is off by up to 2.3e-13 nodes everywhere.  Points outside the
        grid, NaN included, read exactly zero.
        """
        P = np.asarray(P, float)
        Z = np.asarray(Z, float)
        Pg, Zg = self.P_grid, self.Z_grid
        ok = self._inside(P, Z)
        ty = np.zeros(P.shape, complex)
        tz = np.zeros(P.shape, complex)
        dP = Pg[1] - Pg[0]
        dZ = (Zg[-1] - Zg[0]) / (len(Zg) - 1)
        half = self._half
        z0 = (len(Zg) - 1) // 2                       # the node Z = 0
        ncol = self.coef.shape[1]
        flat = self.coef.reshape(-1, 4)
        taps = (np.arange(4)[:, None] * ncol + np.arange(4)).ravel()
        P, Z, ok = P.reshape(-1), Z.reshape(-1), ok.reshape(-1)
        ty_flat, tz_flat = ty.reshape(-1), tz.reshape(-1)
        for lo in range(0, P.size, _LOOKUP_BLOCK):
            sel = lo + np.flatnonzero(ok[lo:lo + _LOOKUP_BLOCK])
            z = Z[sel]
            wp, i = _bspline_weights(P[sel] / dP + _PAD)
            if half:
                wz, j = _bspline_weights(np.abs(z) / dZ)
            else:
                # the offset from Z = 0 in nodes, exact at the nodes near
                # it, clipped at the first node against its rounding there
                wz, j = _bspline_weights(np.maximum(z / dZ, -z0), z0)
            w = np.einsum("na,nb->nab", wp, wz).reshape(-1, 1, 16)
            nodes = flat.take((i * ncol + j)[:, None] + taps, axis=0)
            both = (w @ nodes).view(complex)              # (n, 1, 2)
            ty_sel, tz_sel = both[:, 0, 0], both[:, 0, 1]
            if half:
                # conjugate by the sign of Z: 1-D strided products, several
                # times faster than a masked np.conjugate on these blocks
                sign = np.copysign(1.0, z)
                np.multiply(ty_sel.imag, sign, out=ty_sel.imag)
                np.multiply(tz_sel.imag, sign, out=tz_sel.imag)
            ty_flat[sel] = ty_sel
            tz_flat[sel] = tz_sel
        return ty, tz


def _bspline_weights(x: np.ndarray, origin: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The four cubic B-spline weights of nodes floor(x) - 1 .. floor(x) + 2
    at coordinates x, as an (n, 4) array, and the index origin + floor(x)
    of node floor(x)."""
    f = np.floor(x)
    t = x - f
    s = 1.0 - t
    w = np.empty((x.size, 4))
    w[:, 0] = s * s * s / 6.0
    w[:, 1] = (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0
    w[:, 2] = (s * s * (s - 2.0) * 3.0 + 4.0) / 6.0
    w[:, 3] = t * t * t / 6.0
    i = f.astype(np.intp)
    if origin:
        i += origin
    return w, i


@dataclass(frozen=True)
class PulseFamily:
    """A normalized family of coherent pulses sharing one spectral shape:
    the radial lineshape 1/(k sqrt(e^x - 1)) with directional profile
    upsilon (see upsilon_function).

    Envelope tables, the radial intensity profile (before its SI factor) and
    the tail coefficient depend only on `shape`, so families at different
    temperatures or amplitudes share them.
    """

    ctx: PhysicalContext
    alpha: complex
    upsilon_kind: str
    upsilon_param: float

    @property
    def shape(self) -> tuple:
        """Dimensionless spectral shape, free of T and alpha: the upsilon
        kind and parameter.  The memo keys on it."""
        return (self.upsilon_kind, self.upsilon_param)

    def upsilon(self, mu):
        return upsilon_function(self.upsilon_kind, self.upsilon_param)(mu)

    def norm_N(self) -> float:
        """Normalization constant N (SI, m^{3/2}) making sum_lambda int |K|^2 = 1:
        the radial integral is 2 zeta(3) and the angular one pi J, with J from
        upsilon_norm_integral."""
        bhc = self.ctx.length_scale
        J = upsilon_norm_integral(self.upsilon_kind, self.upsilon_param)
        return math.sqrt(bhc**3 / (2.0 * ZETA3 * math.pi * J))

    def envelope_prefactor(self) -> complex:
        """i N alpha sqrt(hbar c / 16 pi^3 eps0) (beta hbar c)^{-7/2}, SI V/m,
        matching the dimensionless tables of the weight x^{5/2}/sqrt(e^x-1).
        """
        ctx = self.ctx
        base = 1j * self.alpha * math.sqrt(ctx.hbar * ctx.c / (_SIXTEEN_PI3 * ctx.epsilon0))
        return base * self.norm_N() * ctx.length_scale ** -3.5

    # -- envelope tables ------------------------------------------------

    def table(self, u_delay: float = 0.0, reach: float = _DEFAULT_REACH
              ) -> EnvelopeTable:
        """T_y, T_z on a (P, Z) grid reaching |Delta| = reach, at delay u."""
        if not math.isfinite(u_delay):
            raise ValueError(f"delay u must be finite, got {u_delay}")
        check_reach(reach)
        return _memoized(("table", self.shape, u_delay, reach),
                         lambda: _build_table(self, u_delay, reach))


def check_reach(reach: float) -> None:
    """Raise ValueError unless a table reaching |Delta| = reach is finite,
    has the _PAD + 1 rows of P its prefilter mirrors across P = 0 (a
    shorter table would be read with shifted B-spline coefficients), and
    fits _MAX_FRAME_BYTES.  The size is that of a delayed table's frame,
    the larger kind, from _grid's shape rules and without building
    anything: 34.8 MB at the default reach, and the limit of 512 MiB is
    reached near reach 61."""
    # np.arange(0, reach + _P_STEP / 2, _P_STEP) in _grid has
    # ceil(lines) rows
    lines = (reach + _P_STEP / 2) / _P_STEP
    if not (math.isfinite(reach) and lines > _PAD):
        raise ValueError(f"reach must be finite and span {_PAD + 1} rows of "
                         f"P, {_P_STEP} apart, got {reach}")
    # Z columns: the frequencies 2 pi k / (16384 _DB) within reach,
    # k = -half .. half.  _grid lengthens its FFT only beyond reach 119.7,
    # where this lower bound on the frame is already 2 GB.
    half = float(np.floor(reach * 16384 * _DB / (2.0 * math.pi)))
    size = 32.0 * (float(np.ceil(lines)) + _PAD + 3) * (2.0 * half + 4.0)
    if size > _MAX_FRAME_BYTES:
        raise ValueError(f"a table reaching {reach} would hold "
                         f"{size / 2**20:.0f} MiB of coefficients or more, "
                         f"above the limit of {_MAX_FRAME_BYTES / 2**20:.0f} "
                         f"MiB")


def make_thermal_family(ctx: PhysicalContext, upsilon_kind: str = "exp",
                        upsilon_param: float = 20.0,
                        alpha: complex = 1.0 + 0.0j) -> PulseFamily:
    """Family with the occupation-matched radial lineshape.

    The radial normalization integrand reduces to x^2/(e^x - 1), whose
    integral is 2 zeta(3); the angular factor is pi * J with
    J = int upsilon^2 (1 + mu^2) dmu.  A non-finite alpha raises ValueError;
    alpha = 0 is a family of vacuum pulses.
    """
    upsilon_function(upsilon_kind, upsilon_param)  # validate early
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return PulseFamily(ctx=ctx, alpha=complex(alpha), upsilon_kind=upsilon_kind,
                       upsilon_param=float(upsilon_param))


# ---------------------------------------------------------------------------
# spectral helpers


def thermal_radial_weight(x: np.ndarray) -> np.ndarray:
    """x^{5/2} / sqrt(e^x - 1), finite (zero) at x = 0."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 1e-12
    out[pos] = x[pos] ** 2.5 / np.sqrt(np.expm1(x[pos]))
    return out


# ---------------------------------------------------------------------------
# table construction


def _build_table(family: PulseFamily, u_delay: float, reach: float
                 ) -> EnvelopeTable:
    """The envelope table: _grid's values of T_y, T_z, turned into B-spline
    coefficients in place in their frame by _prefilter.  The table keeps
    only the coefficients (17.4 MB for the default table).  An undelayed
    frame starts at Z = 0, across which each channel has its parity in Z;
    a delayed one starts at the grid's edge, a mirror boundary."""
    Pg, Zg, coef = _grid(family, u_delay, reach)
    _prefilter(coef, _Z_PARITY if u_delay == 0.0 else 1.0)
    coef.flags.writeable = False                      # shared via the memo
    return EnvelopeTable(P_grid=Pg, Z_grid=Zg, coef=coef)


def _grid(family: PulseFamily, u_delay: float, reach: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hankel-then-FFT construction of T_y, T_z on a (P, Z) grid.

    Returns P_grid, Z_grid and the table's coefficient frame, a C-contiguous
    real (len(P) + _PAD + 3, columns + 3, 4) array whose rows
    1 + _PAD .. -3 and columns 1 .. -3 hold T_y and T_z as the complex
    channel pairs (Re T_y, Im T_y, Re T_z, Im T_z).  Every other entry is
    left unset for _prefilter to fill.  Z_grid is symmetric about 0 bit for
    bit.  For an undelayed table the columns are its Z >= 0 half, from
    Z = 0 on: a real weight makes T(P, -Z) = conj T(P, Z) bit for bit (see
    _fourier_rows), so the other half is not computed.  A delayed table
    holds every column of Z_grid.

    With a = x st and b = x mu on uniform grids (trapezoid in a, plain sum
    in b), T_y(P, Z) = sum_b e^{i b Z} G_y(P, b) with
    G_y(P, b) = sum_a J0(P a) w_a W(a, b) mu, and T_z alike with J1 and st.
    Both sums are linear, so their order is free: the Hankel sums run first,
    as one real GEMM per _ROW_BLOCK rows of a and transform (on the complex
    weight's float view for a delayed table, see _weight_rows), accumulating
    G_y and G_z on the b-grid; then one zero-padded real FFT per row of P
    and transform, 2 len(P) in all (twice that for a delayed table, whose
    rows have Re and Im halves), takes them to the frame's Z columns.
    Summing Fourier-first, a-row by a-row, would take 2 len(a) FFTs and run
    the GEMM on the wider Z-grid; the tests keep that order as an oracle.

    Nothing of the size of the frame is allocated beside it.  G_y and G_z
    accumulate inside the frame, side by side in the grid's own rows: a
    frame row of 4 (columns + 3) floats holds the 2 len(b) floats (twice
    that when delayed) of both, for every reach above about 14.7.  A
    narrower frame is built in scratch rows that wide and copied out
    compact at the end; a wide one needs no copy.  Each GEMM product is
    added through a buffer of _GEMM_ROWS real lines of P (half as many rows
    of a delayed table's complex sums), and the FFT stage runs _FFT_LINES
    rows of P at a time, both channels of a block transformed before its T
    rows overwrite its G rows.  The tests keep the former
    order, separate G_y and G_z arrays and whole GEMM products, as an
    oracle, and hold every frame to it bit for bit.

    reach sets the largest |Delta| that must be representable.  Against
    transforms_direct (converged to 1e-8 relative), the grid errs by at most
    about 9e-5 of the peak |T_y|.  Far out that is not small relative to the
    field itself: on the rings |Delta| = 8 and 14 (default thermal table,
    nine angles each) T_y is 0.4-3% off at 8 and 1-10% off at 14, most along
    the axis and at Z = 0, while T_z stays within 0.2% away from the axis.
    """
    a = np.arange(0.0, _X_MAX + _DA / 2, _DA)
    b = np.arange(_B_FLOOR, _X_MAX + _DB / 2, _DB)
    wa = np.full_like(a, _DA)
    wa[0] *= 0.5
    wa[-1] *= 0.5

    nfft = 16384
    while math.pi / _DB < 1.05 * reach * (16384.0 / nfft):
        nfft *= 2  # never triggers for the default grids; safety for big reach
    Zk = 2.0 * math.pi * np.fft.fftfreq(nfft, d=_DB)
    cols = np.flatnonzero(np.abs(Zk) <= reach)
    cols = cols[np.argsort(Zk[cols])]
    Zg = Zk[cols]
    if u_delay == 0.0:
        cols = cols[Zg >= 0.0]
    phase = np.exp(1j * b[0] * Zk[cols]) * _DB        # shift to start at b[0]
    Pg = np.arange(0.0, reach + _P_STEP / 2, _P_STEP)

    # the frame's flat rows, wide enough for G_y and G_z side by side
    # (real lines per row of G: 1, or Re and Im for a delayed table)
    n_p, lines = len(Pg), 1 if u_delay == 0.0 else 2
    shape = (n_p + _PAD + 3, len(cols) + 3, 4)
    width = lines * len(b)
    flat = np.zeros((shape[0], max(shape[1] * 4, 2 * width)))
    coef = flat[:, :shape[1] * 4].reshape(shape)
    g_rows = flat[1 + _PAD:1 + _PAD + n_p]
    Gy, Gz = g_rows[:, :width], g_rows[:, width:2 * width]
    chunk = _GEMM_ROWS // lines
    prod = np.empty((min(chunk, n_p), width))
    for lo in range(0, len(a), _ROW_BLOCK):
        ab = a[lo:lo + _ROW_BLOCK]
        Pa = np.outer(Pg, ab)
        wb = wa[lo:lo + _ROW_BLOCK]
        W = _weight_rows(family, ab, b, u_delay)
        # real Bessel matrix times W as one real GEMM per chunk of P rows
        for k, (bessel, G) in enumerate(((special.j0, Gy), (special.j1, Gz))):
            J = bessel(Pa) * wb
            for p in range(0, n_p, chunk):
                m = len(J[p:p + chunk])
                np.matmul(J[p:p + chunk], W[k], out=prod[:m])
                G[p:p + chunk] += prod[:m]
        del W        # freed before the next block's weights are built
    del prod

    grid = coef[1 + _PAD:-2, 1:-2].view(complex)       # (P, Z, (T_y, T_z))
    dtype = float if lines == 1 else complex
    Gy, Gz = Gy.view(dtype), Gz.view(dtype)
    block = np.empty((min(_FFT_LINES, n_p),) + grid.shape[1:], complex)
    for lo in range(0, n_p, _FFT_LINES):
        rows = slice(lo, lo + _FFT_LINES)
        t = block[:len(grid[rows])]
        _fourier_rows(Gy[rows], nfft, cols, phase, out=t[:, :, 0])
        _fourier_rows(Gz[rows], nfft, cols, phase, out=t[:, :, 1])
        grid[rows] = t
    return Pg, Zg, np.ascontiguousarray(coef)


def _weight_rows(family: PulseFamily, a: np.ndarray, b: np.ndarray,
                 u_delay: float) -> tuple[np.ndarray, np.ndarray]:
    """The Hankel GEMM's right-hand sides W mu and W st on the rows a of
    the (a, b) grid, as real (len(a), len(b)) arrays, or for a delayed
    table the (len(a), 2 len(b)) float views of complex ones.

    At x = hypot(a, b), mu = b / x and st = a / x, the weight is
    W = R(x) upsilon(mu) a / x^2 (the Jacobian of (x, mu) -> (a, b)), times
    e^{-i x u} with a delay, R(x) = x^{5/2} / sqrt(e^x - 1) as in
    thermal_radial_weight.  Each element takes the operations of those
    formulas in their order, on whole blocks by broadcasting and in place.
    The row a = 0 is zero, as a / x^2 is there; every other row has
    x >= a >= _DA, far above thermal_radial_weight's cut at 1e-12, so no
    element is masked.
    """
    A = a[:, None]
    x = np.hypot(A, b)
    # the row a = 0 divides 0 by 0 where b = 0; it is set to zero below
    with np.errstate(invalid="ignore", divide="ignore"):
        mu = np.divide(b, x)
        ups = family.upsilon(mu)
        W = np.power(x, 2.5)
        t = np.expm1(x)
        W /= np.sqrt(t, out=t)                              # R(x)
        W *= ups
        del ups
        W *= np.divide(A, np.multiply(x, x, out=t), out=t)  # the Jacobian
        st = np.divide(A, x, out=t)
    if u_delay != 0.0:
        ph = np.multiply(x, -1j)
        del x
        ph *= u_delay
        np.exp(ph, out=ph)
        ph *= W
        W = ph                                              # W e^{-i x u}
        wmu = np.multiply(W, mu, out=np.empty_like(W))
        del mu
        wst = np.multiply(W, st, out=W)
    else:
        wmu, wst = np.multiply(W, mu, out=mu), np.multiply(W, st, out=st)
    wmu[a == 0.0] = 0.0
    wst[a == 0.0] = 0.0
    return wmu.view(float), wst.view(float)


def _fourier_rows(G: np.ndarray, nfft: int, cols: np.ndarray,
                  phase: np.ndarray, out: np.ndarray) -> None:
    """out[P, Z] = sum_b e^{i b Z} G[P, b] db at the Z of cols, for a real
    or a complex (delayed) G, by one zero-padded real FFT per real line.

    A real row is one line; a complex row is two, the Re and Im halves of
    its float view, recombined as Re + i Im.  For a real line x,
    sum_b x_b e^{+2 pi i b k / nfft} is the conjugate of rfft bin k at
    Z >= 0, and rfft bin nfft - k as it stands at Z < 0.  For a real G,
    T(P, -Z) is then conj T(P, Z) bit for bit: the phase at -Z is the
    conjugate of the phase at Z, and IEEE complex products commute with
    conjugation, which lets an undelayed table keep Z >= 0 only.  The FFTs
    run _FFT_LINES lines at a time; each block is finished in a contiguous
    buffer and then copied into out.  G may be a view with rows apart, such
    as a block of the sums _grid keeps in the frame's rows, and out any
    complex (len(G), len(cols)) view, such as one channel of _grid's block
    buffer.  Lines are transformed one by one, so neither the block sizes
    nor the strides change a bit of the result.
    """
    parts = G.view(float).reshape(len(G), G.shape[1], -1)   # (rows, b, 1|2)
    unit = np.array([1.0, 1j])[:parts.shape[2]]
    pos = cols <= nfft // 2                                  # Z >= 0
    bins = np.where(pos, cols, nfft - cols)
    rows = _FFT_LINES // parts.shape[2]
    for lo in range(0, len(G), rows):
        F = fft.rfft(parts[lo:lo + rows], n=nfft, axis=1).take(bins, axis=1)
        np.conjugate(F, out=F, where=pos[:, None])
        T = F @ unit
        T *= phase
        out[lo:lo + rows] = T


def _prefilter(coef: np.ndarray, z_parity: np.ndarray | float) -> None:
    """Cubic B-spline coefficients, in place, of the grid values _grid left
    in the frame coef, each transform extended across P = 0 by _PAD rows of
    its parity (T_y even, T_z odd), as the channels
    (Re c_y, Im c_y, Re c_z, Im c_z).  z_parity is the extension across the
    frame's first column of Z, per channel: 1 for the mirror boundary of a
    delayed table's full Z range, _Z_PARITY for an undelayed table's Z >= 0
    half, whose first column is Z = 0.

    Apart from that parity, the filter is ndimage.spline_filter's with its
    "mirror" boundary (the tests keep that as the oracle), written out: per
    axis, the gain _SPLINE_GAIN and one causal and one anticausal recursion
    with pole _SPLINE_POLE.  Both axes' gains scale the grid rows at once;
    the _PAD rows below P = 0 take the scaled rows above it, times each
    channel's parity.  Each recursion then runs in place, one vector step
    per row of P across every column and channel, then one per column of Z
    across every row and channel.  No step allocates more than one row.
    The frame of 1 row and column below and 2 above then takes the mirror
    boundary too (np.pad's "reflect"), the column below times z_parity: it
    holds every tap lookup can reach.
    """
    inner = coef[1:-2, 1:-2]
    inner[_PAD:] *= _SPLINE_GAIN ** 2
    np.multiply(inner[2 * _PAD:_PAD:-1], _PARITY, out=inner[:_PAD])
    _spline_recursions(inner)                                   # along P
    _spline_recursions(np.moveaxis(inner, 1, 0), z_parity)      # along Z
    # mirror about the first and last node: index -1 reads 1, n reads n - 2
    # and n + 1 reads n - 3, as np.pad's "reflect" would fill them
    for axis, parity in ((0, 1.0), (1, z_parity)):
        c = np.moveaxis(coef, axis, 0)
        c[0], c[-2], c[-1] = parity * c[2], c[-4], c[-5]


def _spline_recursions(lines: np.ndarray,
                       parity: np.ndarray | float = 1.0) -> None:
    """The cubic B-spline recursions along axis 0 of lines, in place;
    lines[i] is one vector step.  The far end has ndimage's "mirror"
    boundary.  Across the near end the line extends as c[-k] = s c[k] with
    s = parity, per channel (the last axis) or for all: s = 1 is the
    mirror boundary, s = -1 the odd extension of a line whose c[0] is zero.

    Causal: c+[i] = c[i] + z c+[i-1], from c+[0] = sum_k z^k c[-k] over the
    extension, which repeats with period 2n - 2 up to the factor s, summed
    in closed form over one period.  Its terms below float64 rounding are
    left out: for a long line, those from k = 28 on.
    Anticausal: c[n-1] = z/(z^2 - 1) (c+[n-1] + z c+[n-2]) in closed form,
    then c[i] = z (c[i+1] - c+[i]).
    """
    z, n = _SPLINE_POLE, len(lines)
    k = np.arange(n)
    w = z ** k
    w[1:-1] += z ** (2 * n - 2 - k[1:-1])       # the period's mirrored half
    w = np.multiply.outer(w, parity)            # c[-k] = s c[k] for k >= 1
    w[0] = 1.0
    w /= 1.0 - parity * z ** (2 * n - 2)
    kept = np.abs(w[1:]).reshape(n - 1, -1).max(axis=1) >= np.finfo(float).eps
    step = np.empty_like(lines[0])
    lines[0] *= w[0]
    for i in 1 + np.flatnonzero(kept):
        np.multiply(lines[i], w[i], out=step)
        lines[0] += step
    for i in range(1, n):
        np.multiply(lines[i - 1], z, out=step)
        lines[i] += step
    np.multiply(lines[n - 2], z, out=step)
    lines[n - 1] += step
    lines[n - 1] *= z / (z * z - 1.0)
    for i in range(n - 2, -1, -1):
        np.subtract(lines[i + 1], lines[i], out=lines[i])
        lines[i] *= z


def transforms_direct(family: PulseFamily, P: float, Z: float,
                      u_delay: float = 0.0,
                      nx: int | None = None, nmu: int | None = None
                      ) -> tuple[complex, complex]:
    """T_y, T_z by direct 2D Gauss-Legendre quadrature (oracle path).

    Node counts scale with the phase x*Z across the radial range so the
    oscillatory far zone stays resolved; doubling them is the convergence
    check used in the tests.  A P, Z or u_delay that is not finite raises
    ValueError before any rule is built.

    The full nx x nmu rule is evaluated, folded on the parity of mu: the
    Gauss-Legendre nodes are exactly symmetric, mu and -mu share
    sqrt(1 - mu^2) and so both Bessel factors, and e^{-i x mu Z} is the
    conjugate of e^{i x mu Z}.  The weight w(x, mu) = R(x) upsilon(mu) is
    separable, so everything but the phase and the Bessel arguments folds
    into one weight per node of x and four per node of mu >= 0:

        xa = x-weight * R(x) * e^{-i x u_delay}
        vy_c, vy_s = W mu (upsilon(mu) -+ upsilon(-mu))
        vz_c, vz_s = W st (upsilon(mu) +- upsilon(-mu))

    with W the mu-weight (halved at mu = 0 for odd nmu).  With c, s the
    cosine and sine of x mu Z and rho = x st P,

        T_y = sum_x xa [(J0(rho) c) @ vy_c + i (J0(rho) s) @ vy_s]
        T_z = sum_x xa [(J1(rho) c) @ vz_c + i (J1(rho) s) @ vz_s]

    in real blocks of _ROW_BLOCK rows of x.  This halves the Bessel and
    trigonometric work and matches the unfolded sum to about 1e-11
    relative.  On the equator (Z = 0) c = 1 and s = 0 exactly, and on the
    axis (P = 0) J0 = 1 and J1 = 0 exactly, so those factors and the terms
    they zero are not computed; on the axis T_z is exactly zero.

    The x nodes are symmetric too, about _X_MAX / 2, and the phase of the
    far node _X_MAX - x is e^{i _X_MAX mu Z} times the conjugate of the
    phase at x.  So each block pairs rows of the near half of the rule
    with their far partners, and only the near rows call sin and cos: the
    far rows' c and s come from one complex product with
    (cos, sin)(_X_MAX mu Z), exact up to rounding.
    """
    for name, value in (("P", P), ("Z", Z), ("u_delay", u_delay)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    dist = math.hypot(P, Z)
    if nx is None:
        nx = int(max(300, 12 * dist))
    if nmu is None:
        nmu = int(max(1600, 24 * dist))
    nx, nmu = check_count(nx, "nx"), check_count(nmu, "nmu")
    x, xw = _gauss_legendre(nx, 0.0, _X_MAX)
    mg, mw = _gauss_legendre(nmu)
    mu, wmu = mg[nmu // 2:], mw[nmu // 2:]
    if nmu % 2:
        wmu[0] *= 0.5                       # mu = 0 enters once, half per side
    st = np.sqrt(1.0 - mu**2)
    xa = xw * thermal_radial_weight(x) * np.exp(-1j * x * u_delay)
    up, um = family.upsilon(mu), family.upsilon(-mu)
    even, odd = wmu * (up + um), wmu * (up - um)
    vy_c, vy_s, vz_c, vz_s = mu * odd, mu * even, st * even, st * odd
    mu_z, st_p = mu * Z, st * P
    far_c, far_s = np.cos(_X_MAX * mu_z), np.sin(_X_MAX * mu_z)
    # the block arrays, allocated once per call and written in place; on
    # the equator cos and on the axis J0 stay 1
    buf = np.empty((5, min(nx, _ROW_BLOCK), len(mu)))
    if Z == 0.0:
        buf[0] = 1.0
    if P == 0.0:
        buf[2] = 1.0
    ty = tz = 0j
    n_near = (nx + 1) // 2
    for lo in range(0, n_near, _ROW_BLOCK // 2):
        near = np.arange(lo, min(lo + _ROW_BLOCK // 2, n_near))
        far = nx - 1 - near
        far = far[far > near]           # an odd rule's middle node has none
        h, m = len(near), len(far)
        rows = np.concatenate([near, far])
        xb = x[rows, None]
        c, s, jy, jz, prod = buf[:, :h + m]
        if Z != 0.0:
            np.multiply(xb[:h], mu_z, out=c[:h])    # the phase x mu Z
            np.sin(c[:h], out=s[:h])
            np.cos(c[:h], out=c[:h])
            # the far rows: (far_c + i far_s)(c - i s) of their partners
            t = prod[:m]
            np.multiply(far_c, c[:m], out=c[h:])
            c[h:] += np.multiply(far_s, s[:m], out=t)
            np.multiply(far_s, c[:m], out=s[h:])
            s[h:] -= np.multiply(far_c, s[:m], out=t)
        if P != 0.0:
            np.multiply(xb, st_p, out=jz)       # rho = x st P
            special.j0(jz, out=jy)
            special.j1(jz, out=jz)
        xa_b = xa[rows]
        y = np.multiply(jy, c, out=prod) @ vy_c
        if Z != 0.0:
            y = y + 1j * (np.multiply(jy, s, out=prod) @ vy_s)
        ty += xa_b @ y
        if P != 0.0:
            z = np.multiply(jz, c, out=prod) @ vz_c
            if Z != 0.0:
                z = z + 1j * (np.multiply(jz, s, out=prod) @ vz_s)
            tz += xa_b @ z
    return complex(ty), complex(tz)


# ---------------------------------------------------------------------------
# envelope evaluation


def envelope_batch(family: PulseFamily, m_hats: np.ndarray, n_hats: np.ndarray,
                   deltas: np.ndarray, t: float = 0.0,
                   reach: float = _DEFAULT_REACH) -> np.ndarray:
    """Classical field envelopes of many pulses at once, at time t.

    m_hats, n_hats, deltas: (N, 3) arrays, deltas in meters (already r - r0).
    Returns an (N, 3) complex array of lab-frame field vectors,
    E = pref 2 pi [T_y (m x n) - i sin(Phi) T_z m], with T_y, T_z read from
    the family's table reaching |Delta| = reach (zero beyond it).  Each
    field depends on r and r0 only through delta, has no component along
    its n_hat, and scales linearly in alpha.

    Before any table work, a non-finite delta, or a frame whose |m_hat|,
    |n_hat| or m_hat . n_hat is off from 1, 1, 0 by more than _FRAME_TOL,
    raises ValueError (the checks of _frame_coordinates).
    """
    at = _frame_coordinates(family, m_hats, n_hats, [deltas])
    tab = family.table(t / family.ctx.time_scale, reach=reach)
    return _table_fields(family, tab, at)[0]


class _Coordinates(NamedTuple):
    """Field points in pulse frames, on the rows a caller reads (see
    _frame_coordinates): per point the cylindrical P, the transverse Y (so
    sin(Phi) = Y / P) and the axial Z, all dimensionless."""

    rows: np.ndarray | None     # input rows kept; None keeps every row
    m_hats: np.ndarray          # (M, 3) on the kept rows
    e2: np.ndarray              # (M, 3) m_hat x n_hat there
    P: list[np.ndarray]         # one (M,) array per field point
    Y: list[np.ndarray]
    Z: list[np.ndarray]


def _frame_coordinates(family: PulseFamily, m_hats: np.ndarray,
                       n_hats: np.ndarray, deltas: list[np.ndarray],
                       table: EnvelopeTable | None = None) -> _Coordinates:
    """Check many pulse frames and their offsets to field points, and give
    the points' coordinates in each frame.

    deltas holds one (N, 3) array in meters (r - r0) per field point, all
    for the N frames (m_hats, n_hats).  Every row is checked before any row
    is dropped: a non-finite delta, or a frame whose |m_hat|, |n_hat| or
    m_hat . n_hat is off from 1, 1, 0 by more than _FRAME_TOL, raises
    ValueError.  With d = delta / (beta hbar c) and e2 = m_hat x n_hat, a
    point sits at Z = d . m_hat along its pulse and at X = d . n_hat,
    Y = d . e2 across it, P = hypot(X, Y).

    Without a table every row is kept.  With one, Z comes first, on every
    row; e2, X, Y and P follow only on the rows where every point's Z lies
    on the table's grid, and the rows kept are those where every point
    also passes the table's own range test (EnvelopeTable._inside) on
    these P and Z values, so no margin is needed: lookup would read
    exactly zero on each row left out.
    """
    for delta in deltas:
        if not np.isfinite(delta).all():
            raise ValueError("deltas must be finite")
    d = [delta / family.ctx.length_scale for delta in deltas]
    mm, nn, mn, *Z = _row_dots((m_hats, m_hats), (n_hats, n_hats),
                               (m_hats, n_hats), *((dk, m_hats) for dk in d))
    _check_frames(mm, nn, mn)
    rows = None
    if table is not None:
        rows = np.flatnonzero(np.logical_and.reduce(
            [table._inside_z(Zk) for Zk in Z]))
        m_hats, n_hats = (v.take(rows, axis=0) for v in (m_hats, n_hats))
        d = [dk.take(rows, axis=0) for dk in d]
        Z = [Zk.take(rows) for Zk in Z]
    e2 = _cross(m_hats, n_hats)
    XY = _row_dots(*(pair for dk in d for pair in ((dk, n_hats), (dk, e2))))
    Y = list(XY[1::2])
    P = [np.hypot(X, Yk) for X, Yk in zip(XY[0::2], Y)]
    if table is not None:
        keep = np.flatnonzero(np.logical_and.reduce(
            [table._inside(Pk, Zk) for Pk, Zk in zip(P, Z)]))
        rows = rows.take(keep)
        m_hats, e2 = m_hats.take(keep, axis=0), e2.take(keep, axis=0)
        P, Y, Z = ([v.take(keep) for v in vs] for vs in (P, Y, Z))
    return _Coordinates(rows, m_hats, e2, P, Y, Z)


def _table_fields(family: PulseFamily, table: EnvelopeTable,
                  at: _Coordinates, component: int | None = None
                  ) -> list[np.ndarray]:
    """E = pref 2 pi [T_y (m x n) - i sin(Phi) T_z m] at each point of at,
    read through table.lookup: one (M, 3) array per point, or only its
    Cartesian `component` as an (M,) array."""
    pref = family.envelope_prefactor() * 2.0 * math.pi
    e2, m_hats = at.e2, at.m_hats
    if component is not None:
        e2, m_hats = e2[:, component], m_hats[:, component]
    fields = []
    for P, Y, Z in zip(at.P, at.Y, at.Z):
        ty, tz = table.lookup(P, Z)
        sphi_tz = np.divide(Y, P, out=np.zeros_like(Y), where=P > 1e-300) * tz
        if component is None:
            ty, sphi_tz = ty[:, None], sphi_tz[:, None]
        fields.append(pref * (ty * e2 - 1j * sphi_tz * m_hats))
    return fields


def _row_dots(*pairs) -> np.ndarray:
    """a_i . b_i for each pair (a, b) of (N, 3) arrays, as the rows of one
    (len(pairs), N) array.  The products share one buffer and one
    matrix-vector sum, about half the time of an einsum per pair."""
    prod = np.empty((len(pairs),) + np.broadcast(*pairs[0]).shape)
    for k, (a, b) in enumerate(pairs):
        np.multiply(a, b, out=prod[k])
    return prod @ np.ones(3)


def _check_frames(mm: np.ndarray, nn: np.ndarray, mn: np.ndarray) -> None:
    """ValueError unless every frame is orthonormal: the row dots
    mm = |m_hat|^2 and nn = |n_hat|^2 within 2 _FRAME_TOL of 1 (so the
    norms within _FRAME_TOL) and mn = m_hat . n_hat within _FRAME_TOL of
    0.  NaN fails."""
    for dot, want, tol in ((mm, 1.0, 2.0 * _FRAME_TOL),
                           (nn, 1.0, 2.0 * _FRAME_TOL),
                           (mn, 0.0, _FRAME_TOL)):
        if not (want - tol <= dot.min(initial=want)
                <= dot.max(initial=want) <= want + tol):
            raise ValueError(f"m_hats and n_hats must be orthonormal frames: "
                             f"|m_hat|, |n_hat| within {_FRAME_TOL} of 1 and "
                             f"m_hat . n_hat within {_FRAME_TOL} of 0")


# ---------------------------------------------------------------------------
# intensity diagnostics


def total_intensity_integral(family: PulseFamily) -> float:
    """int d3r |E|^2 from the spectral side (Parseval), SI (V/m)^2 m^3.

    Equals |alpha|^2 (hbar c / 2 eps0) <k> with <k> the normalized first
    moment of the thermal lineshape's spectral density,
    <k> = (pi^4/15) / (2 zeta3 beta hbar c).
    """
    ctx = family.ctx
    kmean = PI4_OVER_15 / (2.0 * ZETA3 * ctx.length_scale)
    return abs(family.alpha) ** 2 * ctx.hbar * ctx.c / (2.0 * ctx.epsilon0) * kmean


def radial_intensity_profile(family: PulseFamily) -> tuple[np.ndarray, np.ndarray]:
    """(grid, profile) of the orientation-averaged total intensity I(|delta|).

    Averaging |E|^2 over the pulse orientation at fixed |delta| equals
    averaging over the direction of delta in the canonical frame, with the
    azimuthal average already analytic: <|E|^2> = |pref 2 pi|^2
    (|T_y|^2 + |T_z|^2/2) averaged over cos(theta).  The grid is
    dimensionless |delta| up to the default table reach; the profile is in
    SI (V/m)^2.
    """
    grid, power = _memoized(("radial_profile", family.shape),
                            lambda: _mean_transform_power(family.table(0.0)))
    return grid, abs(family.envelope_prefactor() * 2.0 * math.pi) ** 2 * power


def _mean_transform_power(table: EnvelopeTable) -> tuple[np.ndarray, np.ndarray]:
    """|delta| grid, and (|T_y|^2 + |T_z|^2/2) averaged over cos(theta) on it.

    The average, half the integral over cos(theta) in [-1, 1], is taken as
    the integral over [0, 1] on the 100 positive nodes of a 200-node rule.
    That fold holds for an undelayed table only: with a real weight w,
    e^{-i x mu Z} is the conjugate of e^{i x mu Z}, so T(P, -Z) =
    conj(T(P, Z)) and both powers are even in cos(theta); a delay u != 0
    makes w complex and breaks it.  On the table the fold is exact: an
    undelayed table stores only Z >= 0 and its lookup reads T(P, -Z) as
    the conjugate of T(P, Z), so the spline too is symmetric bit for bit.

    The 3000 x 100 points are read _PROFILE_RADII radii at a time into one
    power array, and the rule's weights are applied to the whole array at
    once, so the profile is the same bit for bit as from a single read,
    for a few MB of lookup temporaries instead of about 20.
    """
    grid = np.linspace(1e-4, table.support_radius * 0.995, 3000)
    grid.flags.writeable = False                      # shared via the memo
    cg, cw = _gauss_legendre(200)
    cg, cw = cg[100:], cw[100:]
    st = np.sqrt(1.0 - cg**2)
    power = np.empty((len(grid), len(cg)))
    for lo in range(0, len(grid), _PROFILE_RADII):
        r = grid[lo:lo + _PROFILE_RADII]
        ty, tz = table.lookup(np.outer(r, st), np.outer(r, cg))
        power[lo:lo + _PROFILE_RADII] = np.abs(ty) ** 2 + 0.5 * np.abs(tz) ** 2
    return grid, power @ cw


def pulse_extent(family: PulseFamily, fraction: float = 0.99) -> float:
    """Radius [m] of the sphere around r0 holding `fraction` of int |E|^2 d3r.

    The quantile is taken against the spectral-side (Parseval) total, so
    mass beyond the interpolation table counts toward the denominator; the
    profile itself falls off as 1/|delta|^6, leaving the quantile position
    insensitive to the table reach.  Independent of alpha and of m_hat.
    """
    if not 0.0 < fraction < 0.9999:
        raise ValueError("fraction must be in (0, 0.9999)")
    ctx = family.ctx
    grid, prof = radial_intensity_profile(family)
    y = grid**2 * prof
    # the cumulative trapezoid rule, as scipy's cumulative_trapezoid sums it
    cum = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (y[1:] + y[:-1]) / 2.0)))
    total = total_intensity_integral(family) / (4.0 * math.pi * ctx.length_scale**3)
    target = fraction * total
    if cum[-1] < target:
        raise RuntimeError(
            f"extent quantile {fraction} beyond table reach "
            f"(captured {cum[-1]/total:.6f} of the intensity)")
    return float(np.interp(target, cum, grid)) * ctx.length_scale


def tail_coefficient(family: PulseFamily) -> float:
    """c3 with |T_y| + |T_z| ~ c3 / |Delta|^3 beyond the default table.

    The momentum kernel is direction-dependent but finite at k -> 0, which
    makes the position-space transforms fall off as 1/|Delta|^3.  c3 is the
    largest d^3 (|T_y| + |T_z|) over 15 direct-quadrature points, five
    angles on each of the rings d = 18, 25 and 32.  It is not a supremum:
    the coefficient keeps rising beyond the rings, to about 7.63 at
    d = 1000 against c3 = 7.205, and the factor mcfield._TAIL_SAFETY = 3
    covers that gap.
    """
    return _memoized(("tail_c3", family.shape), lambda: _calibrate_tail(family))


def _calibrate_tail(family: PulseFamily) -> float:
    c3 = 0.0
    for d in (18.0, 25.0, 32.0):
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            zz = d * frac
            pp = math.sqrt(max(d * d - zz * zz, 0.0))
            ty, tz = transforms_direct(family, pp, zz, nx=1200, nmu=3000)
            c3 = max(c3, (abs(ty) + abs(tz)) * d**3)
    return c3


def sphere_in_cube_fraction(d: float | np.ndarray) -> float | np.ndarray:
    """Fraction of a sphere's surface (radius*d = half-side) inside a cube.

    Argument d = radius / (L/2), a number or an array; the result has d's
    shape, and NaN reads 0.  In units of the half-side the sphere leaves
    the cube through six caps of area 2 pi d (d - 1) once d > 1.  For
    sqrt(2) < d < sqrt(3) neighbouring caps overlap along the 12 edges;
    with Archimedes' dA = d dphi dz each overlap is
    pair = d int (pi/2 - 2 asin(1/sqrt(d^2 - z^2))) dz over |z| <= z_m,
    z_m = sqrt(d^2 - 2), which is 4 d [d atan(z_m/d) - asin(z_m/sqrt(d^2 - 1))]
    in closed form.  So fraction = 1 - (6 caps - 12 pair) / (4 pi d^2), or

        3/d - 2 + (12/pi) [atan(z_m/d) - asin(z_m/sqrt(d^2 - 1)) / d],

    clipped at 0 against rounding next to sqrt(3).
    """
    d = np.asarray(d, dtype=float)
    out = np.where(d <= math.sqrt(2.0), 3.0 / np.maximum(d, 1.0) - 2.0, 0.0)
    edge = (d > math.sqrt(2.0)) & (d < math.sqrt(3.0))
    r = d[edge]
    zm = np.sqrt(r * r - 2.0)
    out[edge] = np.maximum(3.0 / r - 2.0 + 12.0 / math.pi * (
        np.arctan(zm / r) - np.arcsin(zm / np.sqrt(r * r - 1.0)) / r), 0.0)
    return out[()]
