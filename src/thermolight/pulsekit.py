"""Coherent pulse families and their classical field envelopes.

A pulse is labeled by a propagation direction m_hat, a transverse vector
n_hat (polarization reference, perpendicular to m_hat) and a nominal
position r0; a Gaussian-lineshape family also fixes a central wavenumber k0
for all its pulses.  Its momentum-space kernel is

    K = N * radial(k) * upsilon(k_hat . m_hat) * (e*_{k,lambda} . (k x n_hat))

where radial(k) is either exp(-|k - k0 m_hat|^2 / 2 sigma^2) (Gaussian kind,
with upsilon absent) or 1/(k sqrt(e^{beta hbar c k} - 1)) with an explicit
directional profile upsilon (thermal kind).  Since k x n_hat is already
transverse, summing over helicities just reproduces it, and the envelope is

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
table keeps only that array.  The tests check the table against direct 2D
Gauss-Legendre quadrature (transforms_direct) at listed points, near the
axis, at the grid edges, and for a delayed table, its grid against the
former FFT-then-Hankel order, its coefficients against scipy's
spline_filter, and the lookup against scipy's map_coordinates.

The one other branch of envelope_batch is the closed form of a narrow
Gaussian lineshape (sigma beta hbar c < 0.05), whose 99% radius exceeds 47
length scales (60 at 0.04): no affordable table reaches that far.
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
# every temperature and amplitude.  A default table (545 x 2090 x 4 real
# B-spline coefficients, no grid values) retains 34.8 MB (of 2^20 bytes),
# measured with tracemalloc, so only the most recently used few are kept.
_MEMO_SIZE = 8
_memo: OrderedDict = OrderedDict()

# Table layout: the Hankel GEMM runs on _ROW_BLOCK rows of a at a time.  The
# FFT over b takes _FFT_LINES real lines at a time (rows of P, or the Re and
# Im halves of a delayed table's rows): their spectra (8193 bins each for the
# default table) then hold 1 MB, which stays in a core's L2 cache; 64 lines
# at a time ran up to a quarter slower.  The B-spline prefilter sees the grid
# extended across P = 0 by _PAD rows, in a frame that holds every tap of a
# lookup: 1 row and column below, 2 above.  Its mirror boundary lies _PAD
# rows below P = 0, and its effect there has decayed by |_SPLINE_POLE| =
# 0.268 per row (below 1e-7 of the peak).  Rows of P are _P_STEP apart.
_ROW_BLOCK = 64
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

# lookup reads _LOOKUP_BLOCK points at a time: its gather of 16 nodes x 4
# channels then holds 2 MB.
_LOOKUP_BLOCK = 4096

# gaussian_angular_kernel sums its 48-node rule over _KERNEL_BLOCK small-a
# entries at a time, so each temporary holds 96 kB.
_KERNEL_BLOCK = 256

# Gauss-Legendre nodes of the gaussian-kind radial normalization.
_RADIAL_NODES = 600

# Half-width, in sigma, of the gaussian kind's radial band.
_GAUSS_BAND = 10.0

# Largest |Delta| (dimensionless) of the default envelope table.  Envelopes
# beyond it read as zero, so samplers that skip draws there use it too.
_DEFAULT_REACH = 16.0

# How far from 1, 1 and 0 envelope_batch lets |m_hat|, |n_hat| and
# m_hat . n_hat be: frames from transverse_frames are off by a few ulps.
_FRAME_TOL = 1e-12

# Node counts whose raw Gauss-Legendre rules are kept.  _legendre_nodes builds
# leggauss's rule bit for bit from an O(n^2) tridiagonal eigen-solve; cold,
# the 3000-node rule of transforms_direct's far ring still takes about 0.3 s,
# as long as the quadrature itself.
_NODE_CACHE_SIZE = 32

# Family shapes whose normalization integral is kept (a float each).
_NORM_CACHE_SIZE = 64


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


def transverse_frames(m_hat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """n_hat at angle psi in the plane normal to each m_hat (vectorized)."""
    n = len(m_hat)
    ref = np.zeros((n, 3))
    near_z = np.abs(m_hat[:, 2]) > 0.9
    ref[near_z, 0] = 1.0
    ref[~near_z, 2] = 1.0
    e1 = _cross(ref, m_hat)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = _cross(m_hat, e1)
    return np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2


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


@dataclass(frozen=True)
class EnvelopeTable:
    """The canonical-frame transforms T_y, T_z on a uniform (P, Z) grid.

    lookup evaluates the cubic B-spline through the grid values.  Its
    coefficients are prefiltered over the grid extended across P = 0 by
    _PAD rows, evenly for T_y and oddly for T_z, so they start at
    P = -_PAD dP.  coef holds them as one real (rows, columns, 4) array with
    channels (Re c_y, Im c_y, Re c_z, Im c_z), padded with the spline's
    mirror boundary (1 row and column below, 2 above) so that every tap of
    an in-range point lies inside it.  For the default table that is
    545 x 2090 x 4 values, 34.8 MB (of 2^20 bytes), and the table stores
    nothing else of size: no grid values.  Ty and Tz rebuild those from
    coef on each access.
    """

    P_grid: np.ndarray
    Z_grid: np.ndarray
    coef: np.ndarray = field(repr=False, compare=False)

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

    def _nodes(self, which: int) -> np.ndarray:
        """The spline at the grid nodes, for T_y (0) or T_z (1): at a node
        the cubic B-spline weighs its coefficient and the two beside it
        (1, 4, 1)/6 along each axis.  It equals the grid value up to the
        prefilter's rounding."""
        n, m = len(self.P_grid), len(self.Z_grid)
        c = self.coef[_PAD:_PAD + n + 2, :m + 2, 2 * which:2 * which + 2]
        along_p = c[1:-1] * 4.0
        along_p += c[:-2]
        along_p += c[2:]
        out = np.empty((n, m), complex)
        t = out.view(float).reshape(n, m, 2)
        np.multiply(along_p[:, 1:-1], 4.0, out=t)
        t += along_p[:, :-2]
        t += along_p[:, 2:]
        t /= 36.0
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
        Eden, IEEE Trans. Signal Process. 41, 1993, 821).  Points outside
        the grid, NaN included, read exactly zero.
        """
        P = np.asarray(P, float)
        Z = np.asarray(Z, float)
        Pg, Zg = self.P_grid, self.Z_grid
        ok = self._inside(P, Z)
        ty = np.zeros(P.shape, complex)
        tz = np.zeros(P.shape, complex)
        dP = Pg[1] - Pg[0]
        dZ = (Zg[-1] - Zg[0]) / (len(Zg) - 1)
        ncol = self.coef.shape[1]
        flat = self.coef.reshape(-1, 4)
        taps = (np.arange(4)[:, None] * ncol + np.arange(4)).ravel()
        P, Z, ok = P.reshape(-1), Z.reshape(-1), ok.reshape(-1)
        ty_flat, tz_flat = ty.reshape(-1), tz.reshape(-1)
        for lo in range(0, P.size, _LOOKUP_BLOCK):
            sel = lo + np.flatnonzero(ok[lo:lo + _LOOKUP_BLOCK])
            wp, i = _bspline_weights(P[sel] / dP + _PAD)
            wz, j = _bspline_weights((Z[sel] - Zg[0]) / dZ)
            w = np.einsum("na,nb->nab", wp, wz).reshape(-1, 1, 16)
            nodes = flat.take((i * ncol + j)[:, None] + taps, axis=0)
            both = (w @ nodes).view(complex)              # (n, 1, 2)
            ty_flat[sel] = both[:, 0, 0]
            tz_flat[sel] = both[:, 0, 1]
        return ty, tz


def _bspline_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The four cubic B-spline weights of nodes floor(x) - 1 .. floor(x) + 2
    at coordinates x >= 0, as an (n, 4) array, and floor(x)."""
    i = x.astype(np.intp)
    t = x - i
    s = 1.0 - t
    w = np.empty((x.size, 4))
    w[:, 0] = s * s * s / 6.0
    w[:, 1] = (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0
    w[:, 2] = (s * s * (s - 2.0) * 3.0 + 4.0) / 6.0
    w[:, 3] = t * t * t / 6.0
    return w, i


@dataclass(frozen=True)
class PulseFamily:
    """A normalized family of coherent pulses sharing one spectral shape.

    kind 'thermal': radial lineshape 1/(k sqrt(e^x - 1)) with directional
    profile upsilon.  kind 'gaussian': lineshape exp(-|k - k0 m_hat|^2/2
    sigma^2).  Its k0 may be None for spectral-side use (mixturekit reads
    only sigma), but every position-space quantity needs it; x0() is where
    its absence raises.

    Envelope tables, the radial intensity profile (before its SI factor) and
    the tail coefficient depend only on `shape`, so families at different
    temperatures or amplitudes share them.
    """

    kind: str
    ctx: PhysicalContext
    alpha: complex
    sigma: float | None = None              # 1/m, gaussian kind
    upsilon_kind: str | None = None         # thermal kind
    upsilon_param: float | None = None
    k0: float | None = None                 # 1/m, gaussian kind

    @property
    def shape(self) -> tuple:
        """Dimensionless spectral shape, free of T and alpha: (kind, upsilon
        kind and parameter, sigma and k0 times beta hbar c).  The memo keys
        on it, so a gaussian family without k0 raises here, before any work."""
        if self.kind == "gaussian":
            return (self.kind, None, None, self.sigma_x(), self.x0())
        return (self.kind, self.upsilon_kind, self.upsilon_param, None, None)

    # -- spectral weights (dimensionless) ------------------------------

    def upsilon(self, mu):
        return upsilon_function(self.upsilon_kind, self.upsilon_param)(mu)

    def sigma_x(self) -> float:
        """sigma in dimensionless units."""
        return self.sigma * self.ctx.length_scale

    def x0(self) -> float:
        """k0 in dimensionless units; ValueError for a family without k0."""
        if self.k0 is None:
            raise ValueError("a gaussian family needs k0 for position-space work")
        return self.k0 * self.ctx.length_scale

    def norm_N(self) -> float:
        """Normalization constant N (SI, m^{3/2}) making sum_lambda int |K|^2 = 1."""
        bhc = self.ctx.length_scale
        if self.kind == "thermal":
            J = _norm_integral(self.shape)
            return math.sqrt(bhc**3 / (2.0 * ZETA3 * math.pi * J))
        if self.kind == "gaussian":
            # the gaussian amplitude carries an extra factor k, so the
            # squared-norm integral scales as (beta hbar c)^{-5}
            return math.sqrt(bhc**5 / _norm_integral(self.shape))
        raise ValueError(f"unknown family kind {self.kind!r}")

    def envelope_prefactor(self) -> complex:
        """i N alpha sqrt(hbar c / 16 pi^3 eps0) (beta hbar c)^p, SI V/m.

        p is -3.5 for the thermal weight x^{5/2}/sqrt(e^x-1) and -4.5 for
        the gaussian weight x^{7/2} L(x), matching the dimensionless tables.
        """
        ctx = self.ctx
        base = 1j * self.alpha * math.sqrt(ctx.hbar * ctx.c / (_SIXTEEN_PI3 * ctx.epsilon0))
        p = -3.5 if self.kind == "thermal" else -4.5
        return base * self.norm_N() * ctx.length_scale ** p

    # -- envelope tables ------------------------------------------------

    def table(self, u_delay: float = 0.0, reach: float = _DEFAULT_REACH
              ) -> EnvelopeTable:
        """T_y, T_z on a (P, Z) grid reaching |Delta| = reach, at delay u."""
        if not math.isfinite(u_delay):
            raise ValueError(f"delay u must be finite, got {u_delay}")
        check_reach(reach)
        return _memoized(("table", self.shape, u_delay, reach),
                         lambda: _build_table(self, u_delay, reach))


@functools.lru_cache(maxsize=_NORM_CACHE_SIZE)
def _norm_integral(shape: tuple) -> float:
    """The dimensionless integral under norm_N, once per family shape.

    Thermal kind: J = int_{-1}^{1} upsilon(mu)^2 (1 + mu^2) dmu, in closed
    form (upsilon_norm_integral).  Gaussian kind: pi int x^4 Phi(x, x0) dx
    over _support's band, by the _RADIAL_NODES-point rule.  norm_N applies
    the temperature.
    """
    kind, ups_kind, ups_param, s, x0 = shape
    if kind == "thermal":
        return upsilon_norm_integral(ups_kind, ups_param)
    xg, wg = _gauss_legendre(_RADIAL_NODES, max(0.0, x0 - _GAUSS_BAND * s),
                             x0 + _GAUSS_BAND * s)
    phi = gaussian_angular_kernel(xg, np.array([x0]), s)[:, 0]
    return math.pi * float(np.sum(wg * xg**4 * phi))


def check_reach(reach: float) -> None:
    """Raise ValueError unless a table reaching |Delta| = reach is finite
    and has the _PAD + 1 rows of P its prefilter mirrors across P = 0; a
    shorter table would be read with shifted B-spline coefficients."""
    # np.arange(0, reach + _P_STEP / 2, _P_STEP) in _build_table has this
    # many rows
    if not (math.isfinite(reach)
            and math.ceil((reach + _P_STEP / 2) / _P_STEP) > _PAD):
        raise ValueError(f"reach must be finite and span {_PAD + 1} rows of "
                         f"P, {_P_STEP} apart, got {reach}")


def make_thermal_family(ctx: PhysicalContext, upsilon_kind: str = "exp",
                        upsilon_param: float = 20.0,
                        alpha: complex = 1.0 + 0.0j) -> PulseFamily:
    """Family with the occupation-matched radial lineshape.

    The radial normalization integrand reduces to x^2/(e^x - 1), whose
    integral is 2 zeta(3); the angular factor is pi * J with
    J = int upsilon^2 (1 + mu^2) dmu.
    """
    upsilon_function(upsilon_kind, upsilon_param)  # validate early
    return PulseFamily(kind="thermal", ctx=ctx, alpha=complex(alpha),
                       upsilon_kind=upsilon_kind, upsilon_param=float(upsilon_param))


def make_gaussian_family(ctx: PhysicalContext, sigma: float,
                         alpha: complex = 1.0 + 0.0j,
                         k0: float | None = None) -> PulseFamily:
    """Family of Gaussian-lineshape pulses with width sigma and central
    wavenumber k0 [1/m].  k0 may stay None for spectral-side use only."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if k0 is not None and not 0.0 < k0 < math.inf:
        raise ValueError(f"k0 must be positive and finite, got {k0}")
    return PulseFamily(kind="gaussian", ctx=ctx, alpha=complex(alpha),
                       sigma=float(sigma), k0=None if k0 is None else float(k0))


# ---------------------------------------------------------------------------
# spectral helpers


def thermal_radial_weight(x: np.ndarray) -> np.ndarray:
    """x^{5/2} / sqrt(e^x - 1), finite (zero) at x = 0."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 1e-12
    out[pos] = x[pos] ** 2.5 / np.sqrt(np.expm1(x[pos]))
    return out


def gaussian_angular_kernel(x: np.ndarray, xc: np.ndarray, s: float) -> np.ndarray:
    """Phi[x, xc] = int_{-1}^{1} (1+mu^2) exp(-(x^2+xc^2-2 x xc mu)/s^2) dmu,
    for carriers xc = k0 beta hbar c.

    Evaluated in factored form exp(-(x-xc)^2/s^2) * e^{-a} * raw(a) with
    a = 2 x xc / s^2, which stays finite for arbitrarily small s.
    """
    X, XC = np.meshgrid(np.asarray(x, float), np.asarray(xc, float), indexing="ij")
    a = 2.0 * X * XC / (s * s)
    out = np.empty_like(a)
    big = a >= 0.5
    ab = a[big]
    sh = 1.0 - np.exp(-2.0 * ab)
    ch = 1.0 + np.exp(-2.0 * ab)
    out[big] = sh / ab + ((ab * ab + 2.0) * sh - 2.0 * ab * ch) / ab**3
    if np.any(~big):
        xg, wg = _gauss_legendre(48)
        asm = a[~big]
        raw = np.empty_like(asm)
        for lo in range(0, asm.size, _KERNEL_BLOCK):
            ab = asm[lo:lo + _KERNEL_BLOCK, None]
            raw[lo:lo + _KERNEL_BLOCK] = np.sum(
                wg * (1.0 + xg**2) * np.exp(ab * xg), axis=1)
        out[~big] = np.exp(-asm) * raw
    return np.exp(-(X - XC) ** 2 / (s * s)) * out


def _spectral_weight(family: PulseFamily, x: np.ndarray, mu: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """w(x, mu) of T_y and T_z, written into out if given."""
    if family.kind == "thermal":
        return np.multiply(thermal_radial_weight(x), family.upsilon(mu), out=out)
    s, x0 = family.sigma_x(), family.x0()
    return np.multiply(x**3.5, np.exp(-(x**2 + x0**2 - 2.0 * x * x0 * mu)
                                      / (2.0 * s * s)), out=out)


def _support(family: PulseFamily) -> tuple[float, float]:
    """Band (lo, hi) outside which w is negligible: [0, 40] for the thermal
    kind, x0 -+ _GAUSS_BAND sigma for the gaussian kind.  Ranges of x clip
    lo at 0; the table's range of b = x mu takes it as it stands."""
    if family.kind == "thermal":
        return 0.0, 40.0
    s, x0 = family.sigma_x(), family.x0()
    return x0 - _GAUSS_BAND * s, x0 + _GAUSS_BAND * s


# ---------------------------------------------------------------------------
# table construction


def _build_table(family: PulseFamily, u_delay: float, reach: float
                 ) -> EnvelopeTable:
    """The envelope table: _grid's values of T_y, T_z, turned into B-spline
    coefficients in place in their frame by _prefilter.  The table keeps
    only the coefficients (34.8 MB for the default table)."""
    Pg, Zg, coef = _grid(family, u_delay, reach)
    _prefilter(coef)
    coef.flags.writeable = False                      # shared via the memo
    return EnvelopeTable(P_grid=Pg, Z_grid=Zg, coef=coef)


def _grid(family: PulseFamily, u_delay: float, reach: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hankel-then-FFT construction of T_y, T_z on a (P, Z) grid.

    Returns P_grid, Z_grid and the table's coefficient frame, a real
    (len(P) + _PAD + 3, len(Z) + 3, 4) array whose rows 1 + _PAD .. -3 and
    columns 1 .. -3 hold T_y and T_z as the complex channel pairs
    (Re T_y, Im T_y, Re T_z, Im T_z).  Every other entry is left unset for
    _prefilter to fill.

    With a = x st and b = x mu on uniform grids (trapezoid in a, plain sum
    in b), T_y(P, Z) = sum_b e^{i b Z} G_y(P, b) with
    G_y(P, b) = sum_a J0(P a) w_a W(a, b) mu, and T_z alike with J1 and st.
    Both sums are linear, so their order is free: the Hankel sums run first,
    as one real GEMM per _ROW_BLOCK rows of a and transform (on the complex
    weight's float view for a delayed table), accumulating G_y and G_z on
    the b-grid; then one zero-padded real FFT per row of P and transform,
    2 len(P) in all (twice that for a delayed table, whose rows have Re and
    Im halves), takes them to Z, written straight into the frame.  Summing
    Fourier-first, a-row by a-row, would take 2 len(a) FFTs and run the
    GEMM on the wider Z-grid; the tests keep that order as the oracle.

    reach sets the largest |Delta| that must be representable.  Against
    transforms_direct (converged to 1e-8 relative), the grid errs by at most
    about 9e-5 of the peak |T_y|.  Far out that is not small relative to the
    field itself: on the rings |Delta| = 8 and 14 (default thermal table,
    nine angles each) T_y is 0.4-3% off at 8 and 1-10% off at 14, most along
    the axis and at Z = 0, while T_z stays within 0.2% away from the axis.
    """
    xlo, xhi = _support(family)
    da = db = 0.025
    bfloor = -8.0
    if family.kind == "gaussian":
        s = family.sigma_x()
        da = db = min(0.025, s / 4.0)
        bfloor = -4.0 * s
    amax = min(40.0, xhi)
    bmin, bmax = min(bfloor, xlo), xhi

    a = np.arange(0.0, amax + da / 2, da)
    b = np.arange(bmin, bmax + db / 2, db)
    wa = np.full_like(a, da)
    wa[0] *= 0.5
    wa[-1] *= 0.5

    nfft = 16384
    while math.pi / db < 1.05 * reach * (16384.0 / nfft):
        nfft *= 2  # never triggers for the default grids; safety for big reach
    Zk = 2.0 * math.pi * np.fft.fftfreq(nfft, d=db)
    cols = np.flatnonzero(np.abs(Zk) <= reach)
    cols = cols[np.argsort(Zk[cols])]
    Zg = Zk[cols]
    phase = np.exp(1j * b[0] * Zg) * db               # shift to start at b[0]

    dP = _P_STEP
    Pg = np.arange(0.0, reach + dP / 2, dP)
    Gy = np.zeros((len(Pg), len(b)), float if u_delay == 0.0 else complex)
    Gz = np.zeros_like(Gy)
    # one GEMM's result, reused by every block: a fresh 8 MB result per GEMM
    # left freed copies on the heap that some processes still held at the
    # FFT stage, 10 MB more peak RSS
    prod = np.empty(Gy.view(float).shape)
    for lo in range(0, len(a), _ROW_BLOCK):
        ab = a[lo:lo + _ROW_BLOCK]
        A, B = np.meshgrid(ab, b, indexing="ij")
        X = np.hypot(A, B)
        MU = np.divide(B, X, out=np.zeros_like(B), where=X > 0)
        ST = np.divide(A, X, out=np.zeros_like(A), where=X > 0)
        jac = np.divide(A, X * X, out=np.zeros_like(A), where=X > 0)
        W = _spectral_weight(family, X, MU) * jac
        if u_delay != 0.0:
            W = W * np.exp(-1j * X * u_delay)
        Pa = np.outer(Pg, ab)
        wb = wa[lo:lo + _ROW_BLOCK]
        # real Bessel matrix times W as one real GEMM on W's float view
        np.matmul(special.j0(Pa) * wb, (W * MU).view(float), out=prod)
        Gy += prod.view(Gy.dtype)
        np.matmul(special.j1(Pa) * wb, (W * ST).view(float), out=prod)
        Gz += prod.view(Gz.dtype)
    del prod

    # T_y and T_z go straight into the coefficient frame's complex channels,
    # one accumulator at a time, so a delayed build peaks no higher than a
    # real one
    coef = np.empty((len(Pg) + _PAD + 3, len(Zg) + 3, 4))
    grid = coef[1 + _PAD:-2, 1:-2].view(complex)       # (P, Z, (T_y, T_z))
    _fourier_rows(Gy, nfft, cols, phase, out=grid[:, :, 0])
    del Gy
    _fourier_rows(Gz, nfft, cols, phase, out=grid[:, :, 1])
    del Gz
    return Pg, Zg, coef


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
    conjugation.  The FFTs run _FFT_LINES lines at a time; each block is
    finished in a contiguous buffer and then copied into out, which may be
    any complex (len(G), len(cols)) view, such as one channel of the
    coefficient frame.
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


def _prefilter(coef: np.ndarray) -> None:
    """Cubic B-spline coefficients, in place, of the grid values _grid left
    in the frame coef, each transform extended across P = 0 by _PAD rows of
    its parity (T_y even, T_z odd), as the channels
    (Re c_y, Im c_y, Re c_z, Im c_z).

    The filter is ndimage.spline_filter's with its "mirror" boundary (the
    tests keep that as the oracle), written out: per axis, the gain
    _SPLINE_GAIN and one causal and one anticausal recursion with pole
    _SPLINE_POLE.  Both axes' gains scale the grid rows at once; the _PAD
    rows below P = 0 take the scaled rows above it, times each channel's
    parity.  Each recursion then runs in place, one vector step per row of
    P across every column and channel, then one per column of Z across
    every row and channel.  No step allocates more than one row.  The frame
    of 1 row and column below and 2 above then takes the mirror boundary
    too (np.pad's "reflect"): it holds every tap lookup can reach.
    """
    inner = coef[1:-2, 1:-2]
    inner[_PAD:] *= _SPLINE_GAIN ** 2
    np.multiply(inner[2 * _PAD:_PAD:-1], _PARITY, out=inner[:_PAD])
    _spline_recursions(inner)                           # along P
    _spline_recursions(np.moveaxis(inner, 1, 0))        # along Z
    # mirror about the first and last node: index -1 reads 1, n reads n - 2
    # and n + 1 reads n - 3, as np.pad's "reflect" would fill them
    for axis in (0, 1):
        c = np.moveaxis(coef, axis, 0)
        c[0], c[-2], c[-1] = c[2], c[-4], c[-5]


def _spline_recursions(lines: np.ndarray) -> None:
    """The cubic B-spline recursions along axis 0 of lines, in place, with
    ndimage's "mirror" boundary; lines[i] is one vector step.

    Causal: c+[i] = c[i] + z c+[i-1], from ndimage's mirror sum
    c+[0] = sum_k z^k c[m(k)] over the mirror extension of period 2n - 2,
    summed in closed form over one period.  Its terms below float64
    rounding are left out: for a long line, those from k = 28 on.
    Anticausal: c[n-1] = z/(z^2 - 1) (c+[n-1] + z c+[n-2]) in closed form,
    then c[i] = z (c[i+1] - c+[i]).
    """
    z, n = _SPLINE_POLE, len(lines)
    k = np.arange(n)
    w = z ** k
    w[1:-1] += z ** (2 * n - 2 - k[1:-1])       # the period's mirrored half
    w /= 1.0 - z ** (2 * n - 2)
    step = np.empty_like(lines[0])
    lines[0] *= w[0]
    for i in 1 + np.flatnonzero(np.abs(w[1:]) >= np.finfo(float).eps):
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
    check used in the tests.

    The full nx x nmu rule is evaluated, folded on the parity of mu: the
    Gauss-Legendre nodes are exactly symmetric, mu and -mu share
    sqrt(1 - mu^2) and so both Bessel factors, and e^{-i x mu Z} is the
    conjugate of e^{i x mu Z}.  With w+- = w(x, +-mu) and c, s the cosine
    and sine of x mu Z, the sums run over mu >= 0 only,

        T_y = sum_x xv sum_mu W mu J0 [(w+ - w-) c + i (w+ + w-) s]
        T_z = sum_x xv sum_mu W st J1 [(w+ + w-) c + i (w+ - w-) s]

    with W the mu-weight (halved at mu = 0 for odd nmu) and
    xv = x-weight * e^{-i x u_delay}, in real blocks of _ROW_BLOCK rows of
    x.  This halves the Bessel and trigonometric work and matches the
    unfolded sum to about 1e-11 relative; on the axis (P = 0) T_z is
    exactly zero.
    """
    dist = math.hypot(P, Z)
    xlo, xhi = _support(family)
    if nx is None:
        nx = int(max(300, 12 * dist))
    if nmu is None:
        nmu = int(max(1600, 24 * dist))
    nx, nmu = check_count(nx, "nx"), check_count(nmu, "nmu")
    x, xw = _gauss_legendre(nx, max(0.0, xlo), xhi)
    mg, mw = _gauss_legendre(nmu)
    mu, wmu = mg[nmu // 2:], mw[nmu // 2:]
    if nmu % 2:
        wmu[0] *= 0.5                       # mu = 0 enters once, half per side
    st = np.sqrt(1.0 - mu**2)
    wy, wz = wmu * mu, wmu * st
    xv = xw * np.exp(-1j * x * u_delay)
    neg_mu = -mu
    # the block arrays, allocated once per call and written in place
    buf = np.empty((9, min(nx, _ROW_BLOCK), len(mu)))
    ty = tz = 0j
    for lo in range(0, nx, _ROW_BLOCK):
        xb = x[lo:lo + _ROW_BLOCK, None]
        w_pos, w_neg, even, odd, c, s, jy, jz, prod = buf[:, :len(xb)]
        _spectral_weight(family, xb, mu, out=w_pos)
        _spectral_weight(family, xb, neg_mu, out=w_neg)
        np.add(w_pos, w_neg, out=even)
        np.subtract(w_pos, w_neg, out=odd)
        np.multiply(xb, mu, out=c)              # the phase x mu Z
        c *= Z
        np.sin(c, out=s)
        np.cos(c, out=c)
        np.multiply(xb, st, out=jz)             # rho = x st P
        jz *= P
        special.j0(jz, out=jy)
        special.j1(jz, out=jz)
        xb_v = xv[lo:lo + _ROW_BLOCK]
        ty += xb_v @ (_product_sum(jy, odd, c, wy, prod)
                      + 1j * _product_sum(jy, even, s, wy, prod))
        tz += xb_v @ (_product_sum(jz, even, c, wz, prod)
                      + 1j * _product_sum(jz, odd, s, wz, prod))
    return complex(ty), complex(tz)


def _product_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(a * b * c) @ w, the product formed in out."""
    np.multiply(a, b, out=out)
    out *= c
    return out @ w


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

    Narrow gaussian lineshapes (sigma beta hbar c < 0.05) use the analytic
    carrier-times-ball form instead, with relative corrections O(sigma/k0)
    and no reach: such a pulse spans more length scales than any affordable
    table (see the module docstring).

    Before any table work, a non-finite delta, or a frame whose |m_hat|,
    |n_hat| or m_hat . n_hat is off from 1, 1, 0 by more than _FRAME_TOL,
    raises ValueError (the checks of _frame_coordinates).
    """
    ctx = family.ctx
    at = _frame_coordinates(family, m_hats, n_hats, [deltas])
    if family.kind == "gaussian" and family.sigma_x() < 0.05:
        x0, s, k0 = family.x0(), family.sigma_x(), family.k0
        pref = 1j * family.alpha * family.norm_N() * math.sqrt(
            ctx.hbar * ctx.c * k0 / (_SIXTEEN_PI3 * ctx.epsilon0)) * k0
        amp_si = (2.0 * math.pi * family.sigma**2) ** 1.5
        ct = ctx.c * t / ctx.length_scale
        moving = deltas / ctx.length_scale - ct * m_hats
        ball = np.exp(-s * s * np.einsum("ij,ij->i", moving, moving) / 2.0)
        phase = np.exp(1j * x0 * (at.Z[0] - ct))
        return (pref * amp_si) * (phase * ball)[:, None] * at.e2
    tab = family.table(t / ctx.time_scale, reach=reach)
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
    moment of the family's spectral density; for the thermal lineshape
    <k> = (pi^4/15) / (2 zeta3 beta hbar c).
    """
    ctx = family.ctx
    if family.kind == "thermal":
        kmean = PI4_OVER_15 / (2.0 * ZETA3 * ctx.length_scale)
    else:
        raise NotImplementedError("spectral total only used for the thermal kind")
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
    makes w complex and breaks it.  The grid itself is exactly symmetric:
    its Z-grid is, and _fourier_rows makes T(P, -Z) = conj(T(P, Z)) bit for
    bit.  Only the spline read (the prefilter's recursions run from -Z to
    +Z) is symmetric to rounding, so the fold moves the profile only at
    rounding level.
    """
    grid = np.linspace(1e-4, table.support_radius * 0.995, 3000)
    grid.flags.writeable = False                      # shared via the memo
    cg, cw = _gauss_legendre(200)
    cg, cw = cg[100:], cw[100:]
    st = np.sqrt(1.0 - cg**2)
    ty, tz = table.lookup(np.outer(grid, st), np.outer(grid, cg))
    return grid, (np.abs(ty) ** 2 + 0.5 * np.abs(tz) ** 2) @ cw


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
    if family.kind == "gaussian":
        family.x0()           # raises without k0, as every field path does
        if family.sigma_x() < 0.05:
            # |E|^2 ~ exp(-sigma^2 |r|^2) in the narrow limit
            return math.sqrt(special.gammaincinv(1.5, fraction)) / family.sigma
        raise NotImplementedError("extent for broad gaussian lineshapes is not needed")
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
    angles on each of the rings d = 18, 25 and 32 (thermal kind).  It is
    not a supremum: the coefficient keeps rising beyond the rings, to about
    7.63 at d = 1000 against c3 = 7.205, and the factor
    mcfield._TAIL_SAFETY = 3 covers that gap.
    """
    if family.kind != "thermal":
        raise NotImplementedError("tail coefficient implemented for the thermal kind")
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
    shape.  Exact for the face-cap band; the edge band uses a deterministic
    spherical average: the share of 20000 Fibonacci points whose largest
    coordinate is at most 1/d, counted in the points' sorted maxima.
    """
    d = np.asarray(d, dtype=float)
    out = np.where(d <= math.sqrt(2.0), 3.0 / np.maximum(d, 1.0) - 2.0, 0.0)
    edge = (d > math.sqrt(2.0)) & (d < math.sqrt(3.0))
    if np.any(edge):
        maxima = np.sort(np.max(np.abs(_fibonacci_sphere(20000)), axis=1))
        inside = np.searchsorted(maxima, 1.0 / d[edge], side="right")
        out[edge] = inside / maxima.size
    return out[()]


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    mu = 1.0 - 2.0 * i / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    st = np.sqrt(1.0 - mu**2)
    return np.stack([st * np.cos(phi), st * np.sin(phi), mu], axis=1)
