"""Correlation functions of blackbody radiation.

The field is a zero-mean Gaussian state with Bose-Einstein occupation
1/(e^{beta hbar c k} - 1) per plane-wave mode, so the first-order function
G1 fixes everything; the second-order function follows from the Gaussian
moment factorization

    G2(R) = G1(0)^2 + |G1(R)|^2

for equal times and a single Cartesian component at both detectors.

The spatial tensor reduces, for R along z, to two scalar functions: the
component parallel to R (longitudinal) and the components perpendicular to
it (transverse).  Expanding the occupation in powers of e^{-x} gives fast
exact series,

    G_long(rho)  proportional to  sum_m 1/(m^2 + rho^2)^2
    G_trans(rho) proportional to  sum_m (m^2 - rho^2)/(m^2 + rho^2)^3

with rho = R/(beta hbar c), truncated at _SPATIAL_TERMS terms.  The
truncation error is small relative to the rho = 0 value, not to the value
at rho, so the relative accuracy degrades at large rho (1.8e-4 at
rho = 300, 10% at 3000).  The tests check the sums against frozen
brute-force values at rho <= 2 and G2 against a frozen value at R = 5 um.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .specfun import PI4_OVER_15, bose_moment
from .units import PhysicalContext

# Series length for the spatial sums.  Tail ~ 1/(3 M^3) relative to the
# rho=0 value, i.e. ~5e-12 at M=4000.
_SPATIAL_TERMS = 4000
# Separations summed at once, so each temporary holds 125 kB however many
# separations a call asks for (four times that raised peak RSS by 2 MB).
_ROW_BLOCK = 4

_ZETA4 = math.pi**4 / 90.0


@dataclass(frozen=True)
class G2Value:
    value: float | np.ndarray   # (V/m)^4, in the shape of the separations
    asymptote: float            # large-R limit, (V/m)^4


def _g1_prefactor(ctx: PhysicalContext) -> float:
    """hbar c / (6 pi^2 eps0 (beta hbar c)^4), the scale of g1_temporal."""
    return ctx.hbar * ctx.c / (6.0 * math.pi**2 * ctx.epsilon0 * ctx.length_scale**4)


def g1_temporal(ctx: PhysicalContext, tau: float | np.ndarray
                ) -> complex | np.ndarray:
    """Single-component thermal G1 at equal positions and delay tau [s].

    Returns int_0^inf (hbar c k^3 / 6 pi^2 eps0) e^{-i c k tau}/(e^{beta hbar c k}-1) dk,
    complex for a number tau, a complex array of tau's shape for an array.
    Real and positive at tau = 0; obeys g1(-tau) = conj(g1(tau)).
    """
    u = tau / ctx.time_scale
    return _g1_prefactor(ctx) * bose_moment(3, u)


def g1_zero(ctx: PhysicalContext) -> float:
    """g1_temporal at tau = 0, which is pi^2/(90 eps0 beta^4 (hbar c)^3)."""
    return _g1_prefactor(ctx) * PI4_OVER_15


def _spatial_sums(rho: float | np.ndarray) -> tuple:
    """The long and trans sums at each rho, each in rho's shape."""
    rho = np.asarray(rho, dtype=float)
    r2 = (rho * rho).reshape(-1, 1)
    m = np.arange(1, _SPATIAL_TERMS + 1, dtype=float)
    m2 = m * m
    s_long, s_trans = np.empty(r2.size), np.empty(r2.size)
    for lo in range(0, r2.size, _ROW_BLOCK):
        rb = r2[lo:lo + _ROW_BLOCK]
        d = m2 + rb
        s_long[lo:lo + _ROW_BLOCK] = (1.0 / (d * d)).sum(axis=1)
        s_trans[lo:lo + _ROW_BLOCK] = ((m2 - rb) / (d * d * d)).sum(axis=1)
    return s_long.reshape(rho.shape)[()], s_trans.reshape(rho.shape)[()]


def g2_asymptote(ctx: PhysicalContext) -> float:
    """Large-separation limit of the equal-time G2, equal to g1_zero squared."""
    return g1_zero(ctx) ** 2


def g2_equal_time(ctx: PhysicalContext, R: float | np.ndarray,
                  orientation: str = "parallel") -> G2Value:
    """Equal-time two-detector G2 for one Cartesian field component.

    Parameters
    ----------
    R : float or array
        Detector separation in meters; the value has R's shape.
    orientation : str
        'parallel' measures the field component along the separation axis
        (both detectors on that axis); 'perpendicular' measures a component
        at right angles to it.  The asymptote is the same either way, the
        approach to it is not.

    Notes
    -----
    Gaussian factorization: G2 = G1(0)^2 + |G1(R)|^2, so the value is never
    below the asymptote (thermal bunching) and equals twice the asymptote
    at R = 0.
    """
    R = np.asarray(R, dtype=float)
    if not np.all(R >= 0.0):
        raise ValueError(f"separation must be nonnegative, got {R}")
    if orientation not in ("parallel", "perpendicular"):
        raise ValueError(f"unknown orientation {orientation!r}")
    rho = R / ctx.length_scale
    s_long, s_trans = _spatial_sums(rho)
    s = s_long if orientation == "parallel" else s_trans
    g0 = g1_zero(ctx)
    g_r = g0 * s / _ZETA4
    value = g0 * g0 + g_r * g_r
    return G2Value(value=value, asymptote=g0 * g0)


def g2_curve(ctx: PhysicalContext, R_values: np.ndarray,
             orientation: str = "parallel") -> np.ndarray:
    """G2/asymptote at each separation [m] of R_values, in its shape."""
    g2 = g2_equal_time(ctx, R_values, orientation)
    return g2.value / g2.asymptote


def coherence_time(ctx: PhysicalContext) -> float:
    """Equivalent-width coherence time: int |g1(tau)/g1(0)|^2 dtau.

    The normalized integrand depends on tau only through u = tau/(beta hbar),
    so the result is a universal dimensionless width times beta*hbar.  The
    integrand falls off like 1/u^8, hence the modest cutoff.
    """
    m3 = PI4_OVER_15

    def f(u):
        return abs(bose_moment(3, u)) ** 2 / m3**2

    width, err = integrate.quad(f, 0.0, 200.0, epsabs=1e-12, epsrel=1e-9, limit=400)
    if err > 1e-6 * width:
        raise RuntimeError(f"coherence-time quadrature error {err:.2e} too large")
    return 2.0 * width * ctx.time_scale
