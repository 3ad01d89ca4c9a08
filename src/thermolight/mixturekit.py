"""First-order coherence of pulse mixtures and weight feasibility solvers.

A mixture rho = int p(s) |{alpha_s}><{alpha_s}| ds keeps its two parts
apart: the pulse, amplitude alpha included, is a PulseFamily, and the
density p over pulse labels s = (r0, m_hat, Psi) is a WeightSpec.  Every
reader takes |alpha|^2 from the family.  Two label densities appear:

  * UnitTrace: a proper probability density over a quantization volume
    Omega (uniform positions, isotropic directions, uniform polarization
    angle), p_const = 1/(8 pi^2 Omega).
  * TraceImproper: positions range over all space with a constant density
    p_const per unit volume per unit label measure.

For the occupation-matched pulse family the improper mixture reproduces
the blackbody first-order function exactly when the product p |alpha|^2
equals matched_product(ctx).  The position integral collapses the double
k-integral onto the diagonal, leaving a radial transform times an
orientation average.  The average over the polarization angle Psi and the
azimuth of m_hat is closed-form, <1 - n_z^2> = (1 + mu^2)/2, and what is
left of the integral over mu = cos(theta) of m_hat (_angular_trace) is the
integral J of upsilon^2 (1 + mu^2) that also normalizes the family.  Both
take J in closed form from pulsekit.upsilon_norm_integral, so the
directional profile upsilon cancels between them to rounding, for every
profile.

Gaussian-lineshape pulses live only here, on the spectral side: the weight
solver asks how well such pulses can mimic the blackbody spectrum, and
g1_improper_gaussian reads the fit it returns to give the first-order
function of that mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pulsekit
from .pulsekit import PulseFamily, _gauss_legendre, upsilon_norm_integral
from .specfun import ZETA3, bose_moment
from .thermal import g1_temporal
from .units import PhysicalContext

_LABEL_MEASURE = 8.0 * math.pi**2  # int dm_hat dPsi = 4pi * 2pi

# Upper end of the x grid of the gaussian mixture spectral density, and the
# grid the weight solver uses both for its k0 nodes and for the x points it
# fits at; all in units of 1/(beta hbar c).
_SPECTRAL_X_MAX = 25.0
_FIT_GRID = np.geomspace(0.01, 20.0, 200)
_FIT_GRID.flags.writeable = False

# gaussian_angular_kernel sums its 48-node rule over _KERNEL_BLOCK small-a
# entries at a time, so each temporary holds 96 kB.
_KERNEL_BLOCK = 256


def matched_product(ctx: PhysicalContext) -> float:
    """The product p |alpha|^2 [1/m^3] matching the improper mixture to
    the blackbody first-order function.

    Fixed by equating the mixture value at tau = 0 with the blackbody one;
    the result is zeta(3)/(4 pi^4 (beta hbar c)^3).
    """
    return ZETA3 / (4.0 * math.pi**4 * ctx.length_scale**3)


@dataclass(frozen=True)
class WeightSpec:
    """The density p(s) of a mixture over pulse labels s = (r0, m_hat, Psi).

    p_const [1/m^3 per unit dm_hat dPsi measure] is constant over labels.
    For UnitTrace it integrates to one over a quantization volume Omega,
    p_const = 1/(8 pi^2 Omega); for TraceImproper positions range over all
    space.  The Monte Carlo estimators scale by p_const for either kind, so
    UnitTrace weights made for another volume than the one estimated give
    correlations scaled by the ratio of the two volumes.  The pulse
    amplitude alpha belongs to the PulseFamily, not here: each reader takes
    |alpha|^2 from the family.  Making one raises ValueError unless the
    kind is known and p_const positive and finite.
    """

    kind: str                      # "UnitTrace" | "TraceImproper"
    p_const: float

    def __post_init__(self):
        if self.kind not in ("UnitTrace", "TraceImproper"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not 0.0 < self.p_const < math.inf:
            raise ValueError(f"p_const must be positive and finite, "
                             f"got {self.p_const}")


def make_matched_improper_weights(ctx: PhysicalContext,
                                  alpha_sq: float = 1.0,
                                  product: float | None = None) -> WeightSpec:
    """TraceImproper weights p = product / alpha_sq, for a family with
    |alpha|^2 = alpha_sq, so that p |alpha|^2 = product (matched by
    default)."""
    if product is None:
        product = matched_product(ctx)
    if not (0.0 < alpha_sq < math.inf and 0.0 < product < math.inf):
        raise ValueError(f"alpha_sq and product must be positive and finite, "
                         f"got {alpha_sq} and {product}")
    return WeightSpec(kind="TraceImproper", p_const=product / alpha_sq)


def make_unit_trace_weights(omega: float) -> WeightSpec:
    """Proper mixture weights, normalized over the volume omega [m^3]."""
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return WeightSpec(kind="UnitTrace", p_const=1.0 / (omega * _LABEL_MEASURE))


# ---------------------------------------------------------------------------
# improper-mixture first-order function


def _angular_trace(family: PulseFamily) -> float:
    """int dm_hat dPsi upsilon^2(mu) |z_hat x n_hat|^2.

    The propagation direction of the surviving wave is pinned to z_hat by
    the position integral.  Averaging |z_hat x n_hat|^2 = 1 - n_z^2 over Psi
    and the azimuth of m_hat gives (1 + mu^2)/2, which leaves
    2 pi^2 int upsilon^2(mu) (1 + mu^2) dmu = 2 pi^2 J.
    """
    return 2.0 * math.pi**2 * upsilon_norm_integral(family.upsilon_kind,
                                                     family.upsilon_param)


def g1_improper(family: PulseFamily, weights: WeightSpec,
                tau: float | np.ndarray) -> complex | np.ndarray:
    """Equal-point diagonal element of the improper mixture's first-order
    function at time delay tau [s], SI (V/m)^2.

    tau is a number or an array; the result is complex or a complex array of
    the same shape.  The all-space position integral forces k' = k, after
    which the label average factorizes into the orientation trace and a
    radial occupation transform; the result is linear in
    p_const |alpha|^2, with alpha the family's amplitude.
    """
    if weights.kind != "TraceImproper":
        raise ValueError("an improper mixture requires TraceImproper weights")
    ctx = family.ctx
    u = np.asarray(tau, float) / ctx.time_scale
    pa2 = weights.p_const * abs(family.alpha) ** 2
    tr_ang = _angular_trace(family)
    n_sq = family.norm_N() ** 2
    pref = (pa2 * n_sq * (2.0 * math.pi) ** 3 * 4.0 * math.pi
            * ctx.hbar * ctx.c / (16.0 * math.pi**3 * ctx.epsilon0)
            * (tr_ang / 3.0) / ctx.length_scale**4)
    out = pref * bose_moment(3, u)
    return out if np.ndim(out) else complex(out)


def g1_improper_gaussian(ctx: PhysicalContext, sigma: float,
                         fit: GaussianWeightFit, tau: float | np.ndarray
                         ) -> complex | np.ndarray:
    """g1_improper for the mixture of gaussian-lineshape pulses of width
    sigma [1/m] that solve_gaussian_weights found: carriers fit.k0_grid
    holding the dimensionless masses fit.weights = p(k0) |alpha|^2
    (beta hbar c)^3.

    The mixture spectral density M @ fit.weights is formed on a uniform x
    grid whose step resolves the kernel columns, of width s = sigma beta
    hbar c, and G1 = (hbar c / eps0 (bhc)^4) int density(x) e^{-i x u} dx.
    A sigma that is not positive and finite raises ValueError.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    u = np.asarray(tau, float) / ctx.time_scale
    s = sigma * ctx.length_scale
    dx = min(0.01, s / 4.0)
    x = np.arange(dx, _SPECTRAL_X_MAX, dx)
    dens = _weight_kernel(x, fit.k0_grid * ctx.length_scale, s) @ fit.weights
    out = (np.sum(dens * np.exp(-1j * x * u[..., None]), axis=-1) * dx
           * ctx.hbar * ctx.c / (ctx.epsilon0 * ctx.length_scale**4))
    return out if np.ndim(out) else complex(out)


# ---------------------------------------------------------------------------
# simulation condition


@dataclass(frozen=True)
class SimulationReport:
    residual: float
    g1_imp: np.ndarray
    g1_th: np.ndarray


def simulation_residual(family: PulseFamily, weights: WeightSpec,
                        tau_grid: Sequence[float]) -> SimulationReport:
    """Relative L2 mismatch between the mixture and blackbody first-order
    functions over a grid of time delays."""
    taus = np.asarray(tau_grid, float)
    if taus.size == 0:
        raise ValueError("tau_grid must be non-empty")
    ctx = family.ctx
    imp = g1_improper(family, weights, taus)
    th = g1_temporal(ctx, taus)
    resid = float(np.linalg.norm(imp - th) / np.linalg.norm(th))
    return SimulationReport(residual=resid, g1_imp=imp, g1_th=th)


# ---------------------------------------------------------------------------
# gaussian-lineshape weight solver


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


def _weight_kernel(x: np.ndarray, x0: np.ndarray, s: float) -> np.ndarray:
    """Kernel M[x, x0] mapping k0 node masses to the spectral density.

    Row x of M times a nonnegative mass vector gives the mixture's
    dimensionless spectral density at x; the blackbody target is
    t(x) = x^3 / (6 pi^2 (e^x - 1)).  Columns are per-pulse densities
    x^5 Phi(x, x0) normalized by the family normalization pi int x^4 Phi.
    A lineshape so narrow that a column's normalization is not positive
    (it vanishes on every node of x) raises ValueError naming s.
    """
    phi = gaussian_angular_kernel(x, x0, s)
    denom = math.pi * np.trapezoid(x[:, None] ** 4 * phi, x, axis=0)
    if not np.all(denom > 0.0):
        bad = x0[np.flatnonzero(~(denom > 0.0))[0]]
        raise ValueError(f"the lineshape of width s = {s:.6g} around "
                         f"x0 = {bad:.6g} vanishes on every node of the "
                         f"grid x, so its column cannot be normalized")
    return (math.pi**2 / 3.0) * x[:, None] ** 5 * phi / denom[None, :]


def blackbody_spectral_target(x: np.ndarray) -> np.ndarray:
    """t(x) = x^3/(6 pi^2 (e^x - 1)), the per-component blackbody density."""
    x = np.asarray(x, float)
    return x**3 / (6.0 * math.pi**2 * np.expm1(x))


@dataclass(frozen=True)
class GaussianWeightFit:
    k0_grid: np.ndarray
    weights: np.ndarray        # node masses of p(k0) |alpha|^2 (beta hbar c)^3
    residual: float
    kkt_violation: float


def solve_gaussian_weights(ctx: PhysicalContext, sigma: float) -> GaussianWeightFit:
    """Best nonnegative k0 weights for a Gaussian-lineshape mixture.

    sigma [1/m] is the lineshape width.  Solves min ||M w - t||_2, w >= 0
    with columns rescaled to unit norm for conditioning, and reports the
    relative residual; residual below ~1e-3 marks a feasible (physical)
    weight assignment, above ~0.1 an infeasible one.  A sigma so small that
    some carrier's lineshape vanishes on every fit node raises ValueError
    naming sigma and its duration 1/(c sigma), before the solve.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    # imported here: scipy.optimize (with scipy.sparse) costs a process
    # about 0.13 s and 16 MB to load
    from scipy.optimize import nnls
    bhc = ctx.length_scale
    k0_grid = _FIT_GRID / bhc
    try:
        M = _weight_kernel(_FIT_GRID, k0_grid * bhc, sigma * bhc)
    except ValueError as exc:
        raise ValueError(f"sigma = {sigma:.6g} 1/m (a pulse duration "
                         f"1/(c sigma) = {1.0 / (ctx.c * sigma):.6g} s) is "
                         f"too narrow for the weight fit: {exc}") from None
    t = blackbody_spectral_target(_FIT_GRID)
    col = np.linalg.norm(M, axis=0)
    col[col == 0.0] = 1.0
    y, _ = nnls(M / col[None, :], t)
    w = y / col
    r = M @ w - t
    residual = float(np.linalg.norm(r) / np.linalg.norm(t))
    grad = M.T @ r
    active = w > 0
    kkt = max(float(np.abs(grad[active]).max(initial=0.0)),
              float(-grad[~active].min(initial=0.0)))
    return GaussianWeightFit(k0_grid=k0_grid, weights=w, residual=residual,
                             kkt_violation=kkt)


# ---------------------------------------------------------------------------
# 1/Omega scaling of proper mixtures


@dataclass(frozen=True)
class ScalingCurve:
    omegas: np.ndarray
    g1: np.ndarray
    g1_compensated: np.ndarray   # with |alpha|^2 rescaled proportional to Omega

    def loglog_slope(self) -> float:
        return float(np.polyfit(np.log(self.omegas), np.log(self.g1), 1)[0])


def unit_trace_scaling(family: PulseFamily,
                       omega_list: Sequence[float]) -> ScalingCurve:
    """G1 of the proper mixture at the origin versus quantization volume.

    Each volume Omega in omega_list gets its own UnitTrace density,
    1/(8 pi^2 Omega), which the formula carries, so no WeightSpec is taken.
    Integrates the orientation-isotropized intensity profile against the
    exact in-cube sphere fraction: the full orientation average of the
    per-component position integral reduces to this, since averaging a
    fixed Cartesian component over all pulse orientations at fixed |delta|
    gives one third of the radial total-intensity profile.  The tests check
    it against an explicit orientation quadrature of the per-component
    position integral (mu_integral in tests/oracles.py).  Every volume must
    be positive and finite, and the list increasing, or ValueError is raised
    before the radial profile is read.
    """
    omegas = np.asarray(omega_list, float)
    if not np.all((omegas > 0.0) & (omegas < math.inf)):
        raise ValueError(f"omega_list must hold volumes with 0 < Omega < inf, "
                         f"got {omega_list!r}")
    if np.any(np.diff(omegas) <= 0.0):
        raise ValueError("omega_list must be increasing")
    ctx = family.ctx
    vals = np.empty(len(omegas))
    grid, prof = pulsekit.radial_intensity_profile(family)
    base = grid**2 * prof
    for i, om in enumerate(omegas):
        L = om ** (1.0 / 3.0) / ctx.length_scale
        frac = pulsekit.sphere_in_cube_fraction(2.0 * grid / L)
        inner = 4.0 * math.pi * np.trapezoid(base * frac, grid)
        vals[i] = inner * ctx.length_scale**3 / (3.0 * om)
    comp = vals * omegas / omegas[0]
    return ScalingCurve(omegas=omegas, g1=vals, g1_compensated=comp)
