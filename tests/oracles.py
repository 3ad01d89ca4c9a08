"""Slow reference computations that only the tests call."""

import cmath
import math

import numpy as np
from scipy import integrate

from scipy import special

from thermolight import mcfield, pulsekit, specfun
from thermolight.mixturekit import WeightSpec
from thermolight.pulsekit import (PulseFamily, _cross, _gauss_legendre,
                                  envelope_batch, thermal_radial_weight)

# Nodes per unit length along each axis of mu_integral's position quadrature.
_MU_NODES_PER_UNIT = 6.0


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


def spectral_weight(family: PulseFamily, x: np.ndarray, mu: np.ndarray
                    ) -> np.ndarray:
    """w(x, mu) = R(x) upsilon(mu) of T_y and T_z."""
    return thermal_radial_weight(x) * family.upsilon(mu)


def weights_masked(family: PulseFamily, a: np.ndarray, b: np.ndarray,
                   u_delay: float) -> tuple[np.ndarray, np.ndarray]:
    """W mu and W st on the rows a of the (a, b) grid as the table build
    used to form them (oracle of pulsekit._weight_rows): from meshgrid
    copies, with every division masked where x = 0 and the radial weight
    through thermal_radial_weight's masked gather.  Complex for a delay."""
    A, B = np.meshgrid(a, b, indexing="ij")
    X = np.hypot(A, B)
    MU = np.divide(B, X, out=np.zeros_like(B), where=X > 0)
    ST = np.divide(A, X, out=np.zeros_like(A), where=X > 0)
    jac = np.divide(A, X * X, out=np.zeros_like(A), where=X > 0)
    W = spectral_weight(family, X, MU) * jac
    if u_delay != 0.0:
        W = W * np.exp(-1j * X * u_delay)
    return W * MU, W * ST


def grid_separate_accumulators(family: PulseFamily, u_delay: float,
                               reach: float) -> np.ndarray:
    """T_y and T_z on the columns Z >= 0 pulsekit._grid's frame holds,
    summed in its former order: the weights from meshgrid copies and masked
    divides, one whole (len(P), len(b)) GEMM product per block of
    _ROW_BLOCK rows of a added to separate G_y and G_z arrays, then every
    row of each through _fourier_rows.  One complex (len(P), columns,
    2 lines) array in the frame's channel order: (T_y, T_z) per real line
    of the weight, the Re and Im lines of a delayed one."""
    da = db = 0.025
    a = np.arange(0.0, pulsekit._X_MAX + da / 2, da)
    b = np.arange(pulsekit._B_FLOOR, pulsekit._X_MAX + db / 2, db)
    wa = np.full_like(a, da)
    wa[0] *= 0.5
    wa[-1] *= 0.5
    nfft = 16384
    while math.pi / db < 1.05 * reach * (16384.0 / nfft):
        nfft *= 2
    Zk = 2.0 * math.pi * np.fft.fftfreq(nfft, d=db)
    cols = np.flatnonzero(np.abs(Zk) <= reach)
    cols = cols[np.argsort(Zk[cols])]
    cols = cols[Zk[cols] >= 0.0]
    phase = np.exp(1j * b[0] * Zk[cols]) * db
    Pg = np.arange(0.0, reach + pulsekit._P_STEP / 2, pulsekit._P_STEP)
    lines = 1 if u_delay == 0.0 else 2
    Gy = np.zeros((len(Pg), len(b)), float if lines == 1 else complex)
    Gz = np.zeros_like(Gy)
    for lo in range(0, len(a), pulsekit._ROW_BLOCK):
        ab = a[lo:lo + pulsekit._ROW_BLOCK]
        wmu, wst = weights_masked(family, ab, b, u_delay)
        Pa = np.outer(Pg, ab)
        wb = wa[lo:lo + pulsekit._ROW_BLOCK]
        Gy += ((special.j0(Pa) * wb) @ wmu.view(float)).view(Gy.dtype)
        Gz += ((special.j1(Pa) * wb) @ wst.view(float)).view(Gz.dtype)
    out = np.empty((len(Pg), len(cols), 2 * lines), complex)
    for k, G in enumerate((Gy, Gz)):
        T = np.empty((len(Pg), len(cols), lines), complex)
        pulsekit._fourier_rows(G.view(float), nfft, cols, phase, out=T)
        out[:, :, k::2] = T
    return out


def full_frame_lookup(P_grid: np.ndarray, Z_grid: np.ndarray,
                      coef: np.ndarray, P: np.ndarray, Z: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """T_y, T_z read from a four-channel coefficient frame that holds the
    whole Z-grid, with the mirror boundary at both ends of Z (oracle):
    EnvelopeTable.lookup's read of such a frame, which delayed tables kept
    before every table stored Z >= 0 only.  The node below Z is
    floor(Z / dZ) plus the column of Z = 0, so the coordinate rounds like
    |Z| / dZ, not like (Z - Z_min) / dZ, which is off by up to 2.3e-13
    nodes everywhere.  Points outside the grid, NaN included, read exactly
    zero."""
    P = np.asarray(P, float)
    Z = np.asarray(Z, float)
    Pg, Zg = P_grid, Z_grid
    ok = (P >= 0.0) & (P <= Pg[-1]) & (Z >= Zg[0]) & (Z <= Zg[-1])
    ty = np.zeros(P.shape, complex)
    tz = np.zeros(P.shape, complex)
    dP = Pg[1] - Pg[0]
    dZ = (Zg[-1] - Zg[0]) / (len(Zg) - 1)
    z0 = (len(Zg) - 1) // 2                       # the node Z = 0
    ncol = coef.shape[1]
    flat = coef.reshape(-1, 4)
    taps = (np.arange(4)[:, None] * ncol + np.arange(4)).ravel()
    P, Z, ok = P.reshape(-1), Z.reshape(-1), ok.reshape(-1)
    ty_flat, tz_flat = ty.reshape(-1), tz.reshape(-1)
    for lo in range(0, P.size, pulsekit._LOOKUP_BLOCK):
        sel = lo + np.flatnonzero(ok[lo:lo + pulsekit._LOOKUP_BLOCK])
        z = Z[sel]
        wp, i = pulsekit._bspline_weights(P[sel] / dP + pulsekit._PAD)
        # the offset from Z = 0 in nodes, exact at the nodes near it,
        # clipped at the first node against its rounding there
        wz, j = pulsekit._bspline_weights(np.maximum(z / dZ, -z0))
        j += z0
        w = np.einsum("na,nb->nab", wp, wz).reshape(-1, 1, 16)
        nodes = flat.take((i * ncol + j)[:, None] + taps, axis=0)
        both = (w @ nodes).view(complex)              # (n, 1, 2)
        ty_flat[sel] = both[:, 0, 0]
        tz_flat[sel] = both[:, 0, 1]
    return ty, tz


def mu_integral(family: PulseFamily, m_hat, psi: float, r: np.ndarray,
                omega: float) -> np.ndarray:
    """Position integral of per-component envelope intensity over a cube.

    mu_i = int_Omega |E_i(r; r0)|^2 d3r0 over the cube of volume omega [m^3]
    centered at the origin, for a pulse of fixed orientation.  Coherent
    pulses factorize their correlation functions, so this is also the
    diagonal first-order function integrated over pulse positions.  Returns
    the three Cartesian components [V^2/m^2 * m^3].  Averaged over
    orientations, it is the oracle of mixturekit.unit_trace_scaling.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    ctx = family.ctx
    m_hat = np.asarray(m_hat, float)[None, :] / np.linalg.norm(m_hat)
    n_hat = transverse_frames(m_hat, np.array([float(psi)]))
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
    comp = envelope_batch(family, np.broadcast_to(m_hat, delta.shape),
                          np.broadcast_to(n_hat, delta.shape),
                          delta * ctx.length_scale)
    w3 = (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).ravel()
    out = np.einsum("p,pi->i", w3, np.abs(comp) ** 2)
    return out * ctx.length_scale**3


def g2_mix_two_envelope_calls(family: PulseFamily, weights: WeightSpec,
                              omega: float, R: float, n: int, seed: int,
                              n_strata: int, reach: float
                              ) -> mcfield.EstimateWithError:
    """mcfield.estimate_g2_mix composed from whole envelopes: the same
    strata and draws, but each detector's (N, 3) field from its own
    envelope_batch call on every draw, then |E_a,z|^2 |E_b,z|^2.  Inputs
    are not checked."""
    side = omega ** (1.0 / 3.0)
    ra = np.array([0.0, 0.0, -R / 2.0])
    rb = np.array([0.0, 0.0, +R / 2.0])
    edges = np.linspace(-side / 2.0, side / 2.0, n_strata + 1)
    per = mcfield._split_counts(n, n_strata)
    means = np.zeros(n_strata)
    variances = np.zeros(n_strata)
    for k in range(n_strata):
        batch = mcfield.draw_batch(omega, per[k], seed, stream=k,
                                   z_range=(float(edges[k]),
                                            float(edges[k + 1])))
        ea = envelope_batch(family, batch.m_hat, batch.n_hat,
                            ra[None, :] - batch.r0, 0.0, reach=reach)
        eb = envelope_batch(family, batch.m_hat, batch.n_hat,
                            rb[None, :] - batch.r0, 0.0, reach=reach)
        x = np.abs(ea[:, 2]) ** 2 * np.abs(eb[:, 2]) ** 2
        means[k] = float(x.mean())
        variances[k] = float(x.var(ddof=1)) / per[k]
    scale = mcfield._density_scale(weights, omega)
    std_error = math.sqrt(float(np.sum(variances)) / n_strata**2)
    return mcfield.EstimateWithError(mean=float(np.mean(means)) * scale,
                                     std_error=std_error * scale)


def bose_moment_quad(n: int, u: float) -> complex:
    """Quadrature oracle for bose_moment, accurate to 1e-11 relative.

    For u > 0 the integrand x^n e^{-iux} / (e^x - 1) is integrated along
    the ray x = t e^{-i pi/4} instead of the real axis (u = 0 stays on the
    real axis, and u < 0 is the conjugate).  Its poles 2 pi i k
    lie on the imaginary axis and it decays in the quadrant between the two
    paths, so by Cauchy's theorem the integrals agree, but on the ray
    e^{-iux} decays instead of oscillating: QUADPACK then reaches relative
    accuracy where the oscillatory cos/sin rules on the real axis stall at
    about 1e-14 absolute (1e-9 of the value at n = 4, u = 30).  Slower than
    the series but entirely independent of it.  Raises AccuracyError if
    QUADPACK's error estimate exceeds 1e-11 of the value.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if u < 0.0:
        return np.conj(bose_moment_quad(n, -u))
    rot = cmath.exp(-0.25j * math.pi) if u > 0.0 else 1.0

    def f(t):
        # x^n / (e^x - 1) -> x^(n-1) as x -> 0, finite for n >= 1; written
        # with e^{-x} so that nothing overflows on the way to t = inf
        if t == 0.0:
            return rot if n == 1 else 0.0
        x = t * rot
        return -rot * x**n * np.exp(-(1.0 + 1j * u) * x) / np.expm1(-x)

    value, err, _ = integrate.quad(f, 0.0, np.inf, complex_func=True,
                                   epsabs=0.0, epsrel=1e-12, limit=200,
                                   full_output=1)
    if abs(err) > 1e-11 * abs(value):
        raise specfun.AccuracyError(
            f"quadrature not converged for n={n}, u={u}; "
            f"error estimate {abs(err):.3e} of {abs(value):.3e}", value)
    return complex(value)
