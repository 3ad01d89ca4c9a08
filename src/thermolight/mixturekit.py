"""First-order coherence of pulse mixtures and weight feasibility solvers.

Two mixture normalizations appear throughout:

  * UnitTrace: pulse labels s = (r0, m_hat, Psi) are drawn from a proper
    probability density over a quantization volume Omega (uniform positions,
    isotropic directions, uniform polarization angle).
  * TraceImproper: positions range over all space with a constant density
    p_const per unit volume per unit label measure; the trace scale is
    calV = 1/(8 pi^2 p_const), so the label integral equals 1/calV per the
    mixture's bookkeeping convention.

For the occupation-matched (thermal-kind) family the improper mixture
reproduces the blackbody first-order function exactly when the product
p |alpha|^2 equals matched_product(ctx).  The position integral collapses
the double k-integral onto the diagonal, leaving a radial transform times
an orientation average.  The average over the polarization angle Psi and the
azimuth of m_hat is closed-form, <1 - n_z^2> = (1 + mu^2)/2, while the
integral over mu = cos(theta) of m_hat is Gauss-Legendre quadrature
(_angular_trace); the normalization takes the same integral of
upsilon^2 (1 + mu^2) in closed form (pulsekit.upsilon_norm_integral), so
the cancellation of the directional profile upsilon between the two is a
numerical outcome (to about 1e-13), not an identity wired in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pulsekit
from .pulsekit import PulseFamily, _gauss_legendre, gaussian_angular_kernel
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


def matched_product(ctx: PhysicalContext) -> float:
    """The product p |alpha|^2 [1/m^3] matching the improper mixture to
    the blackbody first-order function.

    Fixed by equating the mixture value at tau = 0 with the blackbody one;
    the result is zeta(3)/(4 pi^4 (beta hbar c)^3).
    """
    return ZETA3 / (4.0 * math.pi**4 * ctx.length_scale**3)


@dataclass(frozen=True)
class WeightSpec:
    """Weight assignment over pulse labels.

    p_const [1/m^3 per unit dm_hat dPsi measure] is the label density for
    both kinds; for UnitTrace it must integrate to one over the quantization
    volume (stored in quant_volume), for TraceImproper over all space it
    integrates to 1/calV per unit volume convention.  Gaussian-lineshape
    mixtures carry their k0 distribution as node masses on k0_grid.
    """

    kind: str                      # "UnitTrace" | "TraceImproper"
    alpha_sq: float
    p_const: float | None = None
    calV: float | None = None
    quant_volume: float | None = None
    k0_grid: np.ndarray | None = None
    p_of_k0: np.ndarray | None = None

    def validate(self) -> None:
        if self.kind not in ("UnitTrace", "TraceImproper"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not 0.0 <= self.alpha_sq < math.inf:
            raise ValueError(f"alpha_sq must be nonnegative and finite, "
                             f"got {self.alpha_sq}")
        if self.p_of_k0 is not None and np.any(np.asarray(self.p_of_k0) < 0):
            raise ValueError("k0 weights must be nonnegative")
        if self.kind == "TraceImproper":
            if self.p_const is None or self.calV is None:
                raise ValueError("TraceImproper needs p_const and calV")
            target = 1.0 / self.calV
            if not abs(self.p_const * _LABEL_MEASURE - target) <= 1e-10 * abs(target):
                raise ValueError("p_const and calV are inconsistent")
        else:
            if self.p_const is None or self.quant_volume is None:
                raise ValueError("UnitTrace needs p_const and quant_volume")
            total = self.p_const * self.quant_volume * _LABEL_MEASURE
            if not abs(total - 1.0) <= 1e-10:
                raise ValueError(f"UnitTrace weights integrate to {total}, not 1")


def make_matched_improper_weights(ctx: PhysicalContext,
                                  alpha_sq: float = 1.0,
                                  product: float | None = None) -> WeightSpec:
    """TraceImproper weights with p |alpha|^2 = product (matched by default)."""
    if product is None:
        product = matched_product(ctx)
    if not (0.0 < alpha_sq < math.inf and 0.0 < product < math.inf):
        raise ValueError(f"alpha_sq and product must be positive and finite, "
                         f"got {alpha_sq} and {product}")
    p = product / alpha_sq
    spec = WeightSpec(kind="TraceImproper", alpha_sq=alpha_sq, p_const=p,
                      calV=1.0 / (_LABEL_MEASURE * p))
    spec.validate()
    return spec


def make_unit_trace_weights(omega: float, alpha_sq: float = 1.0) -> WeightSpec:
    """Proper mixture weights, normalized over the volume omega [m^3]."""
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    spec = WeightSpec(kind="UnitTrace", alpha_sq=alpha_sq,
                      p_const=1.0 / (omega * _LABEL_MEASURE), quant_volume=omega)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# improper-mixture first-order function


def _angular_trace(family: PulseFamily) -> float:
    """int dm_hat dPsi upsilon^2(mu) |z_hat x n_hat|^2.

    The propagation direction of the surviving wave is pinned to z_hat by
    the position integral.  Averaging |z_hat x n_hat|^2 = 1 - n_z^2 over Psi
    and the azimuth of m_hat gives (1 + mu^2)/2, which leaves
    2 pi^2 int upsilon^2(mu) (1 + mu^2) dmu, done by Gauss-Legendre in mu.
    """
    mu, w = _gauss_legendre(200)
    return 2.0 * math.pi**2 * float(np.sum(w * family.upsilon(mu) ** 2 * (1.0 + mu * mu)))


def g1_improper(family: PulseFamily, weights: WeightSpec,
                tau: float | np.ndarray) -> complex | np.ndarray:
    """Equal-point diagonal element of the improper mixture's first-order
    function at time delay tau [s], SI (V/m)^2.

    tau is a number or an array; the result is complex or a complex array of
    the same shape.  The all-space position integral forces k' = k, after
    which the label average factorizes into the numeric orientation trace and
    a radial occupation transform; the result is linear in p_const * alpha_sq.
    """
    if weights.kind != "TraceImproper":
        raise ValueError("g1_improper requires TraceImproper weights")
    weights.validate()
    ctx = family.ctx
    u = np.asarray(tau, float) / ctx.time_scale
    pa2 = weights.p_const * weights.alpha_sq
    if family.kind == "thermal":
        tr_ang = _angular_trace(family)
        n_sq = family.norm_N() ** 2
        pref = (pa2 * n_sq * (2.0 * math.pi) ** 3 * 4.0 * math.pi
                * ctx.hbar * ctx.c / (16.0 * math.pi**3 * ctx.epsilon0)
                * (tr_ang / 3.0) / ctx.length_scale**4)
        out = pref * bose_moment(3, u)
    elif family.kind == "gaussian":
        if weights.k0_grid is None or weights.p_of_k0 is None:
            raise ValueError("gaussian kind needs k0_grid and p_of_k0 masses")
        dens, x = _gaussian_spectral_density(family, weights)
        du = x[1] - x[0]
        out = (np.sum(dens * np.exp(-1j * x * u[..., None]), axis=-1) * du
               * ctx.hbar * ctx.c / (ctx.epsilon0 * ctx.length_scale**4))
    else:
        raise ValueError(f"unknown family kind {family.kind!r}")
    return out if np.ndim(out) else complex(out)


def _gaussian_spectral_density(family: PulseFamily, weights: WeightSpec
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Mixture spectral density (dimensionless) on a uniform x grid.

    Returns (density, x) with G1_imp(tau) = (hbar c / eps0 (bhc)^4) *
    int density(x) e^{-i x u} dx; the same kernel feeds the weight solver.
    The step must resolve the kernel columns, whose width is sigma_x.
    """
    ctx = family.ctx
    dx = min(0.01, family.sigma_x() / 4.0)
    x = np.arange(dx, _SPECTRAL_X_MAX, dx)
    x0 = np.asarray(weights.k0_grid, float) * ctx.length_scale
    M = _weight_kernel(x, x0, family.sigma_x())
    masses = np.asarray(weights.p_of_k0, float) * weights.alpha_sq \
        * ctx.length_scale**3
    return M @ masses, x


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


def _weight_kernel(x: np.ndarray, x0: np.ndarray, s: float) -> np.ndarray:
    """Kernel M[x, x0] mapping k0 node masses to the spectral density.

    Row x of M times a nonnegative mass vector gives the mixture's
    dimensionless spectral density at x; the blackbody target is
    t(x) = x^3 / (6 pi^2 (e^x - 1)).  Columns are per-pulse densities
    x^5 Phi(x, x0) normalized by the family normalization pi int x^4 Phi.
    """
    phi = gaussian_angular_kernel(x, x0, s)
    denom = math.pi * np.trapezoid(x[:, None] ** 4 * phi, x, axis=0)
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
    weight assignment, above ~0.1 an infeasible one.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    # imported here: scipy.optimize (with scipy.sparse) costs a process
    # about 0.13 s and 16 MB to load
    from scipy.optimize import nnls
    bhc = ctx.length_scale
    k0_grid = _FIT_GRID / bhc
    M = _weight_kernel(_FIT_GRID, k0_grid * bhc, sigma * bhc)
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


def gaussian_weights_to_spec(ctx: PhysicalContext, fit: GaussianWeightFit,
                             alpha_sq: float = 1.0) -> WeightSpec:
    """Package solver masses as TraceImproper weights for g1_improper.

    The solver works with the dimensionless combination
    w = p(k0) |alpha|^2 (beta hbar c)^3 dk0-mass; undoing it gives the
    physical node masses of p(k0).
    """
    masses = fit.weights / (alpha_sq * ctx.length_scale**3)
    p_eff = float(np.sum(masses))  # all-space density per unit label measure
    return WeightSpec(kind="TraceImproper", alpha_sq=alpha_sq,
                      p_const=p_eff, calV=1.0 / (_LABEL_MEASURE * p_eff),
                      k0_grid=fit.k0_grid, p_of_k0=masses)


# ---------------------------------------------------------------------------
# 1/Omega scaling of proper mixtures


@dataclass(frozen=True)
class ScalingCurve:
    omegas: np.ndarray
    g1: np.ndarray
    g1_compensated: np.ndarray   # with alpha_sq rescaled proportional to Omega

    def loglog_slope(self) -> float:
        return float(np.polyfit(np.log(self.omegas), np.log(self.g1), 1)[0])


def unit_trace_scaling(family: PulseFamily, weights: WeightSpec,
                       omega_list: Sequence[float]) -> ScalingCurve:
    """G1 of the proper mixture at the origin versus quantization volume.

    Integrates the orientation-isotropized intensity profile against the
    exact in-cube sphere fraction: the full orientation average of the
    per-component position integral reduces to this, since averaging a
    fixed Cartesian component over all pulse orientations at fixed |delta|
    gives one third of the radial total-intensity profile.  The tests check
    it against an explicit orientation quadrature of the per-component
    position integral (mu_integral in tests/oracles.py).
    """
    omegas = np.asarray(omega_list, float)
    if np.any(np.diff(omegas) <= 0.0):
        raise ValueError("omega_list must be increasing")
    if weights.kind != "UnitTrace":
        raise ValueError("unit_trace_scaling requires UnitTrace weights")
    ctx = family.ctx
    vals = np.empty(len(omegas))
    grid, prof = pulsekit.radial_intensity_profile(family)
    base = grid**2 * prof
    for i, om in enumerate(omegas):
        L = om ** (1.0 / 3.0) / ctx.length_scale
        frac = pulsekit.sphere_in_cube_fraction(2.0 * grid / L)
        inner = 4.0 * math.pi * np.trapezoid(base * frac, grid)
        vals[i] = inner * ctx.length_scale**3 / (3.0 * om)
    vals = vals * weights.alpha_sq
    comp = vals * omegas / omegas[0]
    return ScalingCurve(omegas=omegas, g1=vals, g1_compensated=comp)
