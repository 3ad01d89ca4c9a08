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

# Geometric-series terms bose_moment sums before the Euler-Maclaurin tail
# takes over, at least; the count grows with |u| so the tail stays sharp when
# phase cancellation shrinks the result.
_M_EXPLICIT = 64


class AccuracyError(RuntimeError):
    """Raised when a result cannot be certified to the requested accuracy.

    The partial result is attached as the ``value`` attribute so callers can
    still inspect what was computed.
    """

    def __init__(self, message: str, value: complex):
        super().__init__(message)
        self.value = value


def bose_moment(n: int, u: float | np.ndarray) -> complex | np.ndarray:
    """Evaluate int_0^inf x^n e^{-ixu}/(e^x - 1) dx.

    Parameters
    ----------
    n : int
        Power of x in the integrand, n >= 1.
    u : float or array
        Dimensionless conjugate variable (delay in units of beta*hbar).

    Returns
    -------
    complex or complex array
        The integral at each u, in u's shape (complex for a scalar u),
        accurate to ~1e-14 relative (validated against the quadrature oracle
        and a high-precision Hurwitz-zeta reference).  Each element is the
        scalar call at that u.

    Raises
    ------
    ValueError
        If n < 1, or any u is NaN or infinite.

    Notes
    -----
    bose_moment(n, -u) = conj(bose_moment(n, u)) holds exactly because the
    series is summed at |u| and conjugated for negative u.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if np.ndim(u) == 0:
        return _moment_at(n, float(u))
    u = np.asarray(u, dtype=float)
    return np.array([_moment_at(n, v) for v in u.ravel()],
                    complex).reshape(u.shape)


def _moment_at(n: int, u: float) -> complex:
    """bose_moment at one u."""
    if not math.isfinite(u):
        raise ValueError(f"delay u must be finite, got {u}")
    a = abs(u)
    m_explicit = max(_M_EXPLICIT, int(2.0 * a) + 1)

    s = n + 1
    fact = float(math.factorial(n))
    m = np.arange(1, m_explicit)
    direct = ((m + 1j * a) ** (-s)).sum()

    # Euler-Maclaurin tail from m_explicit:
    #   int_M^inf f + f(M)/2 - f'(M)/12 + f'''(M)/720 - f^(5)(M)/30240
    # for f(m) = (m+iu)^(-s).
    w = m_explicit + 1j * a
    t1 = w ** (1 - s) / (s - 1)
    t2 = 0.5 * w ** (-s)
    t3 = (s / 12.0) * w ** (-s - 1)
    t4 = -(s * (s + 1) * (s + 2) / 720.0) * w ** (-s - 3)
    t5 = (s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0) * w ** (-s - 5)
    value = fact * (direct + t1 + t2 + t3 + t4 + t5)

    # The expansion is asymptotic; for it to be trustworthy the retained
    # terms must be decreasing sharply.  With m_explicit >= _M_EXPLICIT and
    # real u this never triggers, but guard anyway.
    if abs(t5) > 1e-12 * max(abs(value) / fact, 1e-300):
        raise AccuracyError(
            f"Euler-Maclaurin tail not converged for n={n}, u={u}; "
            f"last term {abs(t5):.3e}",
            value,
        )
    value = complex(value)
    return value.conjugate() if u < 0.0 else value


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
