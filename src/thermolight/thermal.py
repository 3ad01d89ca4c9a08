"""Correlation functions of blackbody radiation.

The field is a zero-mean Gaussian state with Bose-Einstein occupation
1/(e^{beta hbar c k} - 1) per plane-wave mode, so the first-order function
G1 fixes everything; the second-order function follows from the Gaussian
moment factorization

    G2(R) = G1(0)^2 + |G1(R)|^2

for equal times and a single Cartesian component at both detectors.

The spatial tensor reduces, for R along z, to two scalar functions: the
component parallel to R (longitudinal) and the components perpendicular to
it (transverse).  Expanding the occupation in powers of e^{-x} gives

    G_long(rho)  proportional to  s_long  = sum_{m>=1} 1/(m^2 + rho^2)^2
    G_trans(rho) proportional to  s_trans = sum_{m>=1} (m^2 - rho^2)/(m^2 + rho^2)^3

with rho = R/(beta hbar c), the coth series of the blackbody correlation
tensor (Mehta & Wolf, Phys. Rev. 134, A1143, 1964).  Both sums are taken in
closed form: from sum_{m in Z} 1/(m^2 + a^2) = (pi/a) coth(pi a) by
differentiating in a^2, and below rho = 0.6, where those closed forms cancel
as rho^-6, from their zeta(2k) Taylor series.  Against mpmath the error of
either sum is at most 2.6e-15 of s_long(rho) for rho from 0 to 1e8 (the
tests hold it to 1e-14), and both stay finite up to the largest float.
The coherence time is a zeta-function closed form as well (coherence_time),
so nothing here calls a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .specfun import PI4_OVER_15, bose_moment
from .units import PhysicalContext

# Below this rho the spatial sums come from their Taylor series in rho^2,
# whose radius of convergence is 1; the first term left out is below 1e-23.
_TAYLOR_BELOW = 0.6
_TAYLOR_TERMS = 60
# Coefficients of x^j, x = rho^2: s_long = sum_j (-1)^j (j+1) zeta(2j+4) x^j
# in column 0, and s_trans = d(x s_long)/dx, with (j+1)^2, in column 1.
_J = np.arange(_TAYLOR_TERMS)[:, None]
_TAYLOR = (-1.0) ** _J * (_J + 1) ** np.array([1, 2]) * special.zeta(2.0 * _J + 4.0)

# zeta(4), correctly rounded (math.pi**4 / 90 is one ulp low), so that
# s_long(0) / _ZETA4 is exactly 1.
_ZETA4 = float(_TAYLOR[0, 0])


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
    """s_long and s_trans at each rho >= 0, each in rho's shape.

    With S_k(a) = sum_{m>=1} (m^2 + a^2)^-k, s_long = S_2 and
    s_trans = S_2 - 2 a^2 S_3, where, with c = coth(pi a) and
    h = csch(pi a)^2,

        S_2 = [pi c/(2 a^3) + pi^2 h/(2 a^2) - a^-4] / 2
        S_3 = [3 pi c/(8 a^5) + 3 pi^2 h/(8 a^4) + pi^3 h c/(4 a^3) - a^-6] / 2

    Below _TAYLOR_BELOW the _TAYLOR series in a^2 takes their place.  Every
    element is computed on its own, so it has the bits of the scalar call.
    """
    rho = np.asarray(rho, dtype=float)
    s_long, s_trans = np.empty(rho.shape), np.empty(rho.shape)
    small = rho < _TAYLOR_BELOW
    s_long[small], s_trans[small] = np.polynomial.polynomial.polyval(
        rho[small] ** 2, _TAYLOR)

    a = rho[~small]
    ia = 1.0 / a
    ia2 = ia * ia
    # c and h from q = e^{-2 pi a}, which only underflows; 2 pi a overflows
    # only where q is 0 anyway.
    with np.errstate(over="ignore"):
        q = np.exp(-2.0 * math.pi * a)
    c = (1.0 + q) / (1.0 - q)
    h = 4.0 * q / (1.0 - q) ** 2
    p = math.pi * c * ia + math.pi**2 * h
    s_long[~small] = 0.25 * ia2 * (p - 2.0 * ia2)
    s_trans[~small] = (0.125 * ia2 * (4.0 * ia2 - p)
                       - 0.25 * math.pi**3 * h * c * ia)
    return s_long[()], s_trans[()]


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
    so the result is a universal dimensionless width kappa_c times beta*hbar.
    g1 is the Fourier transform of x^3/(e^x - 1), so by Parseval kappa_c is
    2 pi int x^6/(e^x - 1)^2 dx / (pi^4/15)^2, and with
    1/(e^x - 1)^2 = sum_{n>=1} (n - 1) e^{-n x} the integral is
    6! (zeta(6) - zeta(7)): kappa_c = 0.96480241865902595... .
    """
    kappa_c = (2.0 * math.pi * 720.0 * float(special.zeta(6.0) - special.zeta(7.0))
               / PI4_OVER_15**2)
    return kappa_c * ctx.time_scale
