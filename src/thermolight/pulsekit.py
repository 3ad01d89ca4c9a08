"""Coherent pulse families and their classical field envelopes.

A pulse is labeled by a propagation direction m_hat, a transverse vector
n_hat (polarization reference, perpendicular to m_hat), a nominal position
r0, and for the Gaussian-lineshape kind a central wavenumber k0.  Its
momentum-space kernel is

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

Envelope evaluation is needed at millions of points by the Monte Carlo
estimators, so T_y and T_z are precomputed on a uniform (P, Z) grid:
substituting a = x st, b = x mu turns the mu-oscillation into a plain
Fourier transform over b (done by FFT, a block of a-rows at a time) and the
P-dependence into Hankel transforms over a (done by dense Bessel matrices).
Lookups evaluate a cubic B-spline through the grid values; its coefficients
come from the grid extended across P = 0 with the parity of each transform
(J0 makes T_y even in P, J1 makes T_z odd).  The tests check the table
against direct 2D Gauss-Legendre quadrature (transforms_direct) at listed
points, near the axis, at the grid edges, and for a delayed table.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy import integrate, linalg, ndimage, special

from .specfun import ZETA3, PI4_OVER_15
from .units import PhysicalContext

_SIXTEEN_PI3 = 16.0 * math.pi**3

# Envelope tables, radial profiles and tail coefficients depend only on a
# family's dimensionless shape and the call's dimensionless arguments: lengths
# scale with beta hbar c and amplitudes with alpha (see units.py), and both
# enter through the SI prefactor alone.  One memo keyed on those values serves
# every temperature and amplitude.  A default table (534 x 2087 grid values
# and 542 x 2087 B-spline coefficients for each of T_y, T_z) retains 68.6 MB,
# measured with tracemalloc, so only the most recently used few are kept.
_MEMO_SIZE = 8
_memo: OrderedDict = OrderedDict()

# Table layout: the FFT over b runs on _ROW_BLOCK rows of a at a time, and the
# B-spline prefilter sees the grid extended across P = 0 by _PAD rows, so its
# mirror boundary lies _PAD rows below P = 0 and its effect there has decayed
# by 0.268 per row (below 1e-7 of the peak).  Rows of P are _P_STEP apart.
_ROW_BLOCK = 64
_PAD = 8
_P_STEP = 0.03

# gaussian_angular_kernel sums its 48-node rule over _KERNEL_BLOCK small-a
# entries at a time, so each temporary holds 96 kB.
_KERNEL_BLOCK = 256

# Gauss-Legendre nodes of the gaussian-kind radial normalization, and nodes
# per unit length along each axis of mu_integral's position quadrature.
_RADIAL_NODES = 600
_MU_NODES_PER_UNIT = 6.0

# Largest |Delta| (dimensionless) of the default envelope table.  Envelopes
# beyond it read as zero, so samplers that skip draws there use it too.
_DEFAULT_REACH = 16.0

# Node counts whose raw Gauss-Legendre rules are kept.  _legendre_nodes builds
# leggauss's rule bit for bit from an O(n^2) tridiagonal eigen-solve; cold,
# the 3000-node rule of transforms_direct's far ring still takes about 0.3 s,
# as long as the quadrature itself.
_NODE_CACHE_SIZE = 32


def _node_count(n, name: str = "n") -> int:
    """n as a Python int, or ValueError unless it is an integer >= 1."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1:
        return int(n)
    raise ValueError(f"{name} must be an integer node count >= 1, got {n!r}")


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
    x, w = _legendre_nodes(_node_count(n))
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


def _transverse_frames(m_hat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """n_hat at angle psi in the plane normal to each m_hat (vectorized)."""
    n = len(m_hat)
    ref = np.zeros((n, 3))
    near_z = np.abs(m_hat[:, 2]) > 0.9
    ref[near_z, 0] = 1.0
    ref[~near_z, 2] = 1.0
    e1 = np.cross(ref, m_hat)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(m_hat, e1)
    return np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2


@dataclass(frozen=True)
class PulseParams:
    """Labels of one pulse: orientation frame, nominal position, optional k0."""

    m_hat: np.ndarray
    n_hat: np.ndarray
    psi: float
    r0: np.ndarray
    k0: float | None = None

    def __post_init__(self):
        m = np.asarray(self.m_hat, float)
        n = np.asarray(self.n_hat, float)
        if abs(np.linalg.norm(m) - 1.0) > 1e-12 or abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("m_hat and n_hat must be unit vectors")
        if abs(float(np.dot(m, n))) > 1e-12:
            raise ValueError("n_hat must be perpendicular to m_hat")


def make_pulse_params(m_hat, psi: float, r0, k0: float | None = None) -> PulseParams:
    """Construct PulseParams with n_hat at angle psi in the plane normal to m_hat."""
    m = np.asarray(m_hat, float)
    m = m / np.linalg.norm(m)
    n = _transverse_frames(m[None, :], np.array([float(psi)]))[0]
    return PulseParams(m_hat=m, n_hat=n, psi=float(psi),
                       r0=np.asarray(r0, float), k0=k0)


@dataclass(frozen=True)
class FieldEnvelope:
    """Complex field vector [V/m] of one pulse at a query point."""

    value: np.ndarray


@dataclass(frozen=True)
class EnvelopeTable:
    """The canonical-frame transforms T_y, T_z on a uniform (P, Z) grid.

    lookup evaluates the cubic B-spline through the grid values.  Its
    coefficients coef_y, coef_z are prefiltered over the grid extended across
    P = 0 by _PAD rows, evenly for T_y and oddly for T_z, so they start at
    P = -_PAD dP.
    """

    P_grid: np.ndarray
    Z_grid: np.ndarray
    Ty: np.ndarray
    Tz: np.ndarray
    coef_y: np.ndarray = field(repr=False, compare=False)
    coef_z: np.ndarray = field(repr=False, compare=False)

    @property
    def support_radius(self) -> float:
        """Largest |Delta| (dimensionless) the table can evaluate."""
        return min(float(self.P_grid[-1]), float(self.Z_grid[-1]),
                   float(-self.Z_grid[0]))

    def lookup(self, P: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T_y, T_z at arrays of cylindrical coordinates; zero outside range."""
        P = np.asarray(P, float)
        Z = np.asarray(Z, float)
        Pg, Zg = self.P_grid, self.Z_grid
        ok = (P >= 0.0) & (P <= Pg[-1]) & (Z >= Zg[0]) & (Z <= Zg[-1])
        ty = np.zeros(P.shape, complex)
        tz = np.zeros(P.shape, complex)
        if np.any(ok):
            dP = Pg[1] - Pg[0]
            dZ = (Zg[-1] - Zg[0]) / (len(Zg) - 1)
            at = np.stack([P[ok] / dP + _PAD, (Z[ok] - Zg[0]) / dZ])
            ty[ok] = ndimage.map_coordinates(self.coef_y, at, order=3,
                                             mode="mirror", prefilter=False)
            tz[ok] = ndimage.map_coordinates(self.coef_z, at, order=3,
                                             mode="mirror", prefilter=False)
        return ty, tz


@dataclass(frozen=True)
class PulseFamily:
    """A normalized family of coherent pulses sharing one spectral shape.

    kind 'thermal': radial lineshape 1/(k sqrt(e^x - 1)) with directional
    profile upsilon; norm_N is a single number.  kind 'gaussian': lineshape
    exp(-|k - k0 m_hat|^2/2 sigma^2); the normalization depends on k0 and is
    exposed through norm_N(k0).

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

    @property
    def shape(self) -> tuple:
        """Dimensionless parameters of the spectral shape: (kind, upsilon
        kind, upsilon parameter, sigma * beta hbar c); free of T and alpha."""
        s = None if self.sigma is None else self.sigma_x()
        return (self.kind, self.upsilon_kind, self.upsilon_param, s)

    # -- spectral weights (dimensionless) ------------------------------

    def upsilon(self, mu):
        return upsilon_function(self.upsilon_kind, self.upsilon_param)(mu)

    def sigma_x(self) -> float:
        """sigma in dimensionless units."""
        return self.sigma * self.ctx.length_scale

    def angular_second_moment(self) -> float:
        """J = int_{-1}^{1} upsilon(mu)^2 (1 + mu^2) dmu (thermal kind)."""
        ups = upsilon_function(self.upsilon_kind, self.upsilon_param)
        val, err = integrate.quad(lambda mu: ups(mu) ** 2 * (1.0 + mu * mu),
                                  -1.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
        return val

    def norm_N(self, k0: float | None = None) -> float:
        """Normalization constant N (SI, m^{3/2}) making sum_lambda int |K|^2 = 1."""
        bhc = self.ctx.length_scale
        if self.kind == "thermal":
            J = self.angular_second_moment()
            return math.sqrt(bhc**3 / (2.0 * ZETA3 * math.pi * J))
        if self.kind == "gaussian":
            if k0 is None:
                raise ValueError("gaussian kind needs k0")
            x0 = k0 * bhc
            lo, hi = _support(self, x0)
            xg, wg = _gauss_legendre(_RADIAL_NODES, max(0.0, lo), hi)
            phi = gaussian_angular_kernel(xg, np.array([x0]), self.sigma_x())[:, 0]
            denom = math.pi * float(np.sum(wg * xg**4 * phi))
            # the gaussian amplitude carries an extra factor k, so the
            # squared-norm integral scales as (beta hbar c)^{-5}
            return math.sqrt(bhc**5 / denom)
        raise ValueError(f"unknown family kind {self.kind!r}")

    def envelope_prefactor(self, k0: float | None = None) -> complex:
        """i N alpha sqrt(hbar c / 16 pi^3 eps0) (beta hbar c)^p, SI V/m.

        p is -3.5 for the thermal weight x^{5/2}/sqrt(e^x-1) and -4.5 for
        the gaussian weight x^{7/2} L(x), matching the dimensionless tables.
        """
        ctx = self.ctx
        base = 1j * self.alpha * math.sqrt(ctx.hbar * ctx.c / (_SIXTEEN_PI3 * ctx.epsilon0))
        if self.kind == "thermal":
            return base * self.norm_N() * ctx.length_scale ** (-3.5)
        return base * self.norm_N(k0) * ctx.length_scale ** (-4.5)

    # -- envelope tables ------------------------------------------------

    def table(self, u_delay: float = 0.0, reach: float = _DEFAULT_REACH,
              k0: float | None = None) -> EnvelopeTable:
        """T_y, T_z on a (P, Z) grid reaching |Delta| = reach, at delay u."""
        if not math.isfinite(u_delay):
            raise ValueError(f"delay u must be finite, got {u_delay}")
        check_reach(reach)
        x0 = None
        if self.kind == "gaussian":
            if k0 is None:
                raise ValueError("gaussian kind needs k0")
            x0 = k0 * self.ctx.length_scale
        return _memoized(("table", self.shape, u_delay, reach, x0),
                         lambda: _build_table(self, u_delay, reach, x0))


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
                         alpha: complex = 1.0 + 0.0j) -> PulseFamily:
    """Family of Gaussian-lineshape pulses with width sigma [1/m]."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return PulseFamily(kind="gaussian", ctx=ctx, alpha=complex(alpha),
                       sigma=float(sigma))


# ---------------------------------------------------------------------------
# spectral helpers


def thermal_radial_weight(x: np.ndarray) -> np.ndarray:
    """x^{5/2} / sqrt(e^x - 1), finite (zero) at x = 0."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 1e-12
    out[pos] = x[pos] ** 2.5 / np.sqrt(np.expm1(x[pos]))
    return out


def gaussian_angular_kernel(x: np.ndarray, x0: np.ndarray, s: float) -> np.ndarray:
    """Phi[x, x0] = int_{-1}^{1} (1+mu^2) exp(-(x^2+x0^2-2 x x0 mu)/s^2) dmu.

    Evaluated in factored form exp(-(x-x0)^2/s^2) * e^{-a} * raw(a) with
    a = 2 x x0 / s^2, which stays finite for arbitrarily small s.
    """
    X, X0 = np.meshgrid(np.asarray(x, float), np.asarray(x0, float), indexing="ij")
    a = 2.0 * X * X0 / (s * s)
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
    return np.exp(-(X - X0) ** 2 / (s * s)) * out


def _spectral_weight(family: PulseFamily, x: np.ndarray, mu: np.ndarray,
                     x0: float | None) -> np.ndarray:
    """w(x, mu) of T_y and T_z; x0 = k0 beta hbar c for the gaussian kind."""
    if family.kind == "thermal":
        return thermal_radial_weight(x) * family.upsilon(mu)
    s = family.sigma_x()
    return x**3.5 * np.exp(-(x**2 + x0**2 - 2.0 * x * x0 * mu) / (2.0 * s * s))


def _support(family: PulseFamily, x0: float | None) -> tuple[float, float]:
    """Band (lo, hi) outside which w is negligible: [0, 40] for the thermal
    kind, x0 -+ 10 sigma for the gaussian kind.  Ranges of x clip lo at 0;
    the table's range of b = x mu takes it as it stands."""
    if family.kind == "thermal":
        return 0.0, 40.0
    s = family.sigma_x()
    return x0 - 10.0 * s, x0 + 10.0 * s


# ---------------------------------------------------------------------------
# table construction


def _build_table(family: PulseFamily, u_delay: float, reach: float,
                 x0: float | None) -> EnvelopeTable:
    """FFT-Hankel construction of T_y, T_z on a (P, Z) grid.

    reach sets the largest |Delta| that must be representable.  Against
    transforms_direct (converged to 1e-8 relative), the grid errs by at most
    about 9e-5 of the peak |T_y|.  Far out that is not small relative to the
    field itself: on the rings |Delta| = 8 and 14 (default thermal table,
    nine angles each) T_y is 0.4-3% off at 8 and 1-10% off at 14, most along
    the axis and at Z = 0, while T_z stays within 0.2% away from the axis.
    """
    xlo, xhi = _support(family, x0)
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
    Ty = np.zeros((len(Pg), len(Zg)), complex)
    Tz = np.zeros_like(Ty)
    for lo in range(0, len(a), _ROW_BLOCK):
        ab = a[lo:lo + _ROW_BLOCK]
        A, B = np.meshgrid(ab, b, indexing="ij")
        X = np.hypot(A, B)
        MU = np.divide(B, X, out=np.zeros_like(B), where=X > 0)
        ST = np.divide(A, X, out=np.zeros_like(A), where=X > 0)
        jac = np.divide(A, X * X, out=np.zeros_like(A), where=X > 0)
        W = _spectral_weight(family, X, MU, x0) * jac
        if u_delay != 0.0:
            W = W * np.exp(-1j * X * u_delay)
        # e^{+i b Z} convention: ifft * nfft, kept at |Z| <= reach
        Hy = np.fft.ifft(W * MU, n=nfft, axis=1, norm="forward").take(cols, axis=1) * phase
        Hz = np.fft.ifft(W * ST, n=nfft, axis=1, norm="forward").take(cols, axis=1) * phase
        Pa = np.outer(Pg, ab)
        wb = wa[lo:lo + _ROW_BLOCK]
        # real Bessel matrix times complex H as one real GEMM on H's float view
        Ty += ((special.j0(Pa) * wb) @ Hy.view(float)).view(complex)
        Tz += ((special.j1(Pa) * wb) @ Hz.view(float)).view(complex)

    table = EnvelopeTable(P_grid=Pg, Z_grid=Zg, Ty=Ty, Tz=Tz,
                          coef_y=_prefilter(Ty, 1.0), coef_z=_prefilter(Tz, -1.0))
    for arr in (Ty, Tz, table.coef_y, table.coef_z):
        arr.flags.writeable = False                   # shared via the memo
    return table


def _prefilter(T: np.ndarray, parity: float) -> np.ndarray:
    """Cubic B-spline coefficients of T (rows P >= 0) extended across P = 0
    by _PAD rows of the given parity (+1 even, -1 odd)."""
    ext = np.concatenate([parity * T[_PAD:0:-1], T])
    return ndimage.spline_filter(ext, order=3, output=complex, mode="mirror")


def transforms_direct(family: PulseFamily, P: float, Z: float,
                      u_delay: float = 0.0, k0: float | None = None,
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
    x0 = None if k0 is None else k0 * family.ctx.length_scale
    xlo, xhi = _support(family, x0)
    if nx is None:
        nx = int(max(300, 12 * dist))
    if nmu is None:
        nmu = int(max(1600, 24 * dist))
    nx, nmu = _node_count(nx, "nx"), _node_count(nmu, "nmu")
    x, xw = _gauss_legendre(nx, max(0.0, xlo), xhi)
    mg, mw = _gauss_legendre(nmu)
    mu, wmu = mg[nmu // 2:], mw[nmu // 2:]
    if nmu % 2:
        wmu[0] *= 0.5                       # mu = 0 enters once, half per side
    st = np.sqrt(1.0 - mu**2)
    wy, wz = wmu * mu, wmu * st
    xv = xw * np.exp(-1j * x * u_delay)
    ty = tz = 0j
    for lo in range(0, nx, _ROW_BLOCK):
        xb = x[lo:lo + _ROW_BLOCK, None]
        w_pos = _spectral_weight(family, xb, mu, x0)
        w_neg = _spectral_weight(family, xb, -mu, x0)
        even, odd = w_pos + w_neg, w_pos - w_neg
        phase = xb * mu * Z
        c, s = np.cos(phase), np.sin(phase)
        rho = xb * st * P
        jy, jz = special.j0(rho), special.j1(rho)
        xb_v = xv[lo:lo + _ROW_BLOCK]
        ty += xb_v @ ((jy * odd * c) @ wy + 1j * ((jy * even * s) @ wy))
        tz += xb_v @ ((jz * even * c) @ wz + 1j * ((jz * odd * s) @ wz))
    return complex(ty), complex(tz)


# ---------------------------------------------------------------------------
# envelope evaluation


def field_envelope(family: PulseFamily, params: PulseParams,
                   r: np.ndarray, t: float = 0.0,
                   direct: bool = False) -> FieldEnvelope:
    """Classical field envelope of one pulse at the point r and time t.

    By construction the result depends on r and r0 only through r - r0, has
    no component along n_hat, and scales linearly in alpha.  The table reach
    grows with |r - r0| so the point is always covered.  direct=True
    evaluates the transforms by direct quadrature instead, for every kind
    (slow, used for validation).
    """
    delta = (np.asarray(r, float) - params.r0)[None, :]
    m_hats, n_hats = params.m_hat[None, :], params.n_hat[None, :]
    if direct:
        u = t / family.ctx.time_scale

        def lookup(P, Z):
            ty, tz = transforms_direct(family, float(P[0]), float(Z[0]), u, params.k0)
            return np.array([ty]), np.array([tz])

        value = _canonical_envelope(family, m_hats, n_hats, delta, params.k0, lookup)
    else:
        dist = float(np.linalg.norm(delta)) / family.ctx.length_scale
        reach = (_DEFAULT_REACH if dist <= _DEFAULT_REACH - 0.2
                 else dist * 1.05 + 2.0)
        value = envelope_batch(family, m_hats, n_hats, delta, t, reach, params.k0)
    return FieldEnvelope(value=value[0])


def envelope_batch(family: PulseFamily, m_hats: np.ndarray, n_hats: np.ndarray,
                   deltas: np.ndarray, t: float = 0.0,
                   reach: float = _DEFAULT_REACH, k0: float | None = None
                   ) -> np.ndarray:
    """Vectorized envelopes for many pulses at once.

    m_hats, n_hats, deltas: (N, 3) arrays, deltas in meters (already r - r0).
    Returns an (N, 3) complex array of lab-frame field vectors.  Narrow
    gaussian lineshapes (sigma * beta hbar c < 0.05) use the analytic
    carrier-times-ball form, whose relative corrections are O(sigma/k0);
    every other family goes through the interpolation table.
    """
    ctx = family.ctx
    if not (family.kind == "gaussian" and family.sigma_x() < 0.05):
        tab = family.table(t / ctx.time_scale, reach=reach, k0=k0)
        return _canonical_envelope(family, m_hats, n_hats, deltas, k0, tab.lookup)
    pref = 1j * family.alpha * family.norm_N(k0) * math.sqrt(
        ctx.hbar * ctx.c * k0 / (_SIXTEEN_PI3 * ctx.epsilon0)) * k0
    d = deltas / ctx.length_scale
    x0 = k0 * ctx.length_scale
    s = family.sigma_x()
    amp_si = (2.0 * math.pi * family.sigma**2) ** 1.5
    ct = ctx.c * t / ctx.length_scale
    dz = np.einsum("ij,ij->i", d, m_hats)
    moving = d - ct * m_hats
    ball = np.exp(-s * s * np.einsum("ij,ij->i", moving, moving) / 2.0)
    phase = np.exp(1j * x0 * (dz - ct))
    return (pref * amp_si) * (phase * ball)[:, None] * np.cross(m_hats, n_hats)


def _canonical_envelope(family: PulseFamily, m_hats: np.ndarray,
                        n_hats: np.ndarray, deltas: np.ndarray,
                        k0: float | None, lookup) -> np.ndarray:
    """E = pref 2 pi [T_y (m x n) - i sin(Phi) T_z m] with T_y, T_z from
    lookup(P, Z) at the canonical-frame coordinates of each delta."""
    pref = family.envelope_prefactor(k0) * 2.0 * math.pi
    d = deltas / family.ctx.length_scale
    e2 = np.cross(m_hats, n_hats)
    dx = np.einsum("ij,ij->i", d, n_hats)
    dy = np.einsum("ij,ij->i", d, e2)
    dz = np.einsum("ij,ij->i", d, m_hats)
    P = np.hypot(dx, dy)
    ty, tz = lookup(P, dz)
    sphi = np.divide(dy, P, out=np.zeros_like(dy), where=P > 1e-300)
    return pref * (ty[:, None] * e2 - 1j * (sphi * tz)[:, None] * m_hats)


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
    """|delta| grid, and (|T_y|^2 + |T_z|^2/2) averaged over cos(theta) on it."""
    grid = np.linspace(1e-4, table.support_radius * 0.995, 3000)
    grid.flags.writeable = False                      # shared via the memo
    cg, cw = _gauss_legendre(200)
    st = np.sqrt(1.0 - cg**2)
    ty, tz = table.lookup(np.outer(grid, st), np.outer(grid, cg))
    return grid, 0.5 * ((np.abs(ty) ** 2 + 0.5 * np.abs(tz) ** 2) @ cw)


def pulse_extent(family: PulseFamily, fraction: float = 0.99,
                 k0: float | None = None) -> float:
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
        if k0 is None:
            raise ValueError("gaussian kind needs k0")
        if family.sigma_x() < 0.05:
            # |E|^2 ~ exp(-sigma^2 |r|^2) in the narrow limit
            return math.sqrt(special.gammaincinv(1.5, fraction)) / family.sigma
        raise NotImplementedError("extent for broad gaussian lineshapes is not needed")
    grid, prof = radial_intensity_profile(family)
    cum = integrate.cumulative_trapezoid(grid**2 * prof, grid, initial=0.0)
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


def mu_integral(family: PulseFamily, m_hat, psi: float, r: np.ndarray,
                omega: float) -> np.ndarray:
    """Position integral of per-component envelope intensity over a cube.

    mu_i = int_Omega |E_i(r; r0)|^2 d3r0 over the cube of volume omega [m^3]
    centered at the origin, for a pulse of fixed orientation.  Coherent
    pulses factorize their correlation functions, so this is also the
    diagonal first-order function integrated over pulse positions.  Returns
    the three Cartesian components [V^2/m^2 * m^3].
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    ctx = family.ctx
    params = make_pulse_params(m_hat, psi, np.zeros(3))
    L = omega ** (1.0 / 3.0) / ctx.length_scale
    rd = np.asarray(r, float) / ctx.length_scale
    table = family.table(0.0)
    S = table.support_radius * 0.999

    axes = []
    for i in range(3):
        lo, hi = rd[i] - L / 2.0, rd[i] + L / 2.0
        lo, hi = max(lo, -S), min(hi, S)
        if lo >= hi:
            return np.zeros(3)
        n = int(max(32, _MU_NODES_PER_UNIT * (hi - lo)))
        axes.append(_gauss_legendre(n, lo, hi))
    (gx, wx), (gy, wy), (gz, wz) = axes
    DX, DY, DZ = np.meshgrid(gx, gy, gz, indexing="ij")
    delta = np.stack([DX.ravel(), DY.ravel(), DZ.ravel()], axis=1)
    comp = envelope_batch(family, np.broadcast_to(params.m_hat, delta.shape),
                          np.broadcast_to(params.n_hat, delta.shape),
                          delta * ctx.length_scale)
    w3 = (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).ravel()
    out = np.einsum("p,pi->i", w3, np.abs(comp) ** 2)
    return out * ctx.length_scale**3


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
