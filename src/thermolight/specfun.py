"""Bose-Einstein moment integrals.

The single kernel

    bose_moment(n, u) = int_0^inf x^n e^{-i x u} / (e^x - 1) dx

carries every radial integral in this package: n=3 gives the temporal field
correlation, n=2 the occupation normalization, and the u-dependence the
delay/separation structure.  Expanding 1/(e^x - 1) as a geometric series in
e^{-x} turns the integral into sum_{m>=1} n!/(m+iu)^{n+1}, which is the
Hurwitz zeta n! zeta(n+1, 1+iu).  That sum converges only polynomially, so
63 terms are summed explicitly and the rest is replaced by its
Euler-Maclaurin expansion at w = 64 + i|u|.  The cost is the same at every
u.  Against mpmath's Hurwitz zeta the relative error is at most 1.1e-15 for
n = 1..5 and |u| from 0 to 1e8 (the tests hold it to 1e-14), and the
result stays finite up to the largest float.

The tests check it against an independent adaptive quadrature
(tests/oracles.py: bose_moment_quad, QUADPACK along a ray into the lower
right quadrant for u != 0), so this module imports no scipy.
"""

from __future__ import annotations

import math

import numpy as np

#: Apery's constant zeta(3), full double precision.
ZETA3 = 1.2020569031595943

#: int_0^inf x^3/(e^x - 1) dx = pi^4 / 15.
PI4_OVER_15 = math.pi**4 / 15.0

# The geometric-series term where the Euler-Maclaurin tail takes over, at
# every u: the terms before it are summed explicitly.
_M_EXPLICIT = 64
_M_TERMS = np.arange(1.0, _M_EXPLICIT)


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
        accurate to ~1e-14 relative (validated in the tests against a
        quadrature oracle and a high-precision Hurwitz-zeta reference).
        Each element is the scalar call at that u.

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
    s = n + 1
    fact = float(math.factorial(n))
    # Every power of m + i|u| is taken of (m + i|u|)/2^e, with |u|/2^e below
    # 128 (e = 0 for |u| < 64), and scaled back by 2^(e k).  Scaling by a
    # power of two is exact, and no power overflows at any u for n < 130.
    scale = 2.0 ** -max(math.frexp(a)[1] - 7, 0)
    direct = ((_M_TERMS * scale + 1j * (a * scale)) ** (-s)).sum() * scale**s

    # Euler-Maclaurin tail from M = _M_EXPLICIT:
    #   int_M^inf f + f(M)/2 - f'(M)/12 + f'''(M)/720 - f^(5)(M)/30240
    # for f(m) = (m+iu)^(-s).
    w = complex(_M_EXPLICIT * scale, a * scale)

    def w_pow(k: int) -> complex:
        # k < 0, so scale ** -k can only underflow
        return w ** k * scale ** -k

    t1 = w_pow(1 - s) / (s - 1)
    t2 = 0.5 * w_pow(-s)
    t3 = (s / 12.0) * w_pow(-s - 1)
    t4 = -(s * (s + 1) * (s + 2) / 720.0) * w_pow(-s - 3)
    t5 = (s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0) * w_pow(-s - 5)
    value = fact * (direct + t1 + t2 + t3 + t4 + t5)

    # The expansion is asymptotic, so its error is about the first omitted
    # term, B_8/8! f^(7)(M).  For n <= 5 that stays below 1e-15 of the
    # value at every u, but guard anyway.
    omitted = math.prod(range(s, s + 7)) / 1209600.0 * abs(w_pow(-s - 7))
    if omitted > 1e-14 * max(abs(value) / fact, 1e-300):
        raise AccuracyError(
            f"Euler-Maclaurin tail not converged for n={n}, u={u}; "
            f"first omitted term {omitted:.3e}",
            value,
        )
    value = complex(value)
    return value.conjugate() if u < 0.0 else value
