"""Series evaluator for the occupation-weighted moments, against quadrature.

The evaluator computes int_0^inf x^n e^{-i x u} / (e^x - 1) dx.  Exact
anchor values, mpmath's Hurwitz zeta and an adaptive-quadrature oracle pin
it down; the symmetry and smoothness properties are sampled with hypothesis.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermolight import specfun


ZETA3 = 1.2020569031595943


def test_exact_third_moment_at_zero_delay():
    val = specfun.bose_moment(3, 0.0)
    assert abs(val.imag) == 0.0
    assert math.isclose(val.real, math.pi**4 / 15.0, rel_tol=1e-12)


def test_exact_second_moment_at_zero_delay():
    val = specfun.bose_moment(2, 0.0)
    assert math.isclose(val.real, 2.0 * ZETA3, rel_tol=1e-12)
    assert abs(val.imag) == 0.0


def test_frozen_values():
    # pinned against the quadrature oracle
    cases = {
        (3, 1.0): -1.5228744489534962 - 0.31728657866196064j,
        (2, 5.0): -0.03918887182635747 - 0.007999999997183265j,
        (1, 0.5): 1.0681978909500611 - 0.8250419724337907j,
        (1, 10.0): 0.004999999999999999 - 0.09983299758493017j,
    }
    for (n, u), want in cases.items():
        got = specfun.bose_moment(n, u)
        assert abs(got - want) <= 1e-12 * abs(want), (n, u, got)


def test_order_zero_rejected():
    # the integrand ~ 1/x at the origin, so n = 0 has no finite value
    with pytest.raises(ValueError):
        specfun.bose_moment(0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_delay_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        specfun.bose_moment(3, bad)
    with pytest.raises(ValueError, match="finite"):
        specfun.bose_moment(3, np.array([0.5, bad, 2.0]))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_array_matches_scalar_calls(n):
    """An array call has the shape of u and, element by element, the bits of
    the scalar call, for a 2-D array of delays and for a wide 1-D one."""
    rng = np.random.default_rng(11)
    shared = rng.uniform(-31.4, 31.4, (9, 11))
    mixed = np.concatenate([rng.uniform(-300.0, 300.0, 40),
                            [0.0, -0.0, 31.5, -31.5, 64.25]])
    for us in (shared, mixed, np.array([2.5])):
        got = specfun.bose_moment(n, us)
        assert got.shape == us.shape and got.dtype == complex
        want = [specfun.bose_moment(n, float(u)) for u in us.ravel()]
        np.testing.assert_array_equal(got.ravel(), want)
    assert specfun.bose_moment(n, np.empty((0, 3))).shape == (0, 3)
    assert specfun.bose_moment(n, np.array(1.5)) == specfun.bose_moment(n, 1.5)


@given(n=st.integers(min_value=1, max_value=5),
       u=st.floats(min_value=-40.0, max_value=40.0,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=120, deadline=None)
def test_negative_delay_conjugates(n, u):
    a = specfun.bose_moment(n, u)
    b = specfun.bose_moment(n, -u)
    assert abs(b - np.conj(a)) <= 1e-13 * max(abs(a), 1.0)


@given(n=st.integers(min_value=1, max_value=4),
       u=st.floats(min_value=0.0, max_value=30.0,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_series_matches_quadrature(n, u):
    series = specfun.bose_moment(n, u)
    quad = specfun.bose_moment_quad(n, u)
    assert abs(series - quad) <= 1e-9 * max(abs(quad), 1e-3)


@pytest.mark.parametrize("n, u", [(1, 30.0), (2, 0.0), (3, 1e-3), (4, 29.9),
                                  (4, 30.0), (5, 100.0)])
def test_quadrature_matches_hurwitz_zeta(n, u):
    """The oracle's own 1e-11 claim.  On the real axis QUADPACK's oscillatory
    rules were 1e-9 off at n = 4 near u = 30."""
    with mpmath.workdps(30):
        want = complex(math.factorial(n) * mpmath.zeta(n + 1, 1 + 1j * u))
    assert abs(specfun.bose_moment_quad(n, u) - want) <= 1e-11 * abs(want)


def test_quadrature_raises_when_not_converged(monkeypatch):
    def loose_quad(f, a, b, **kwargs):
        return 2.0 + 0j, 1e-9 + 0j, {}

    monkeypatch.setattr(specfun.integrate, "quad", loose_quad)
    with pytest.raises(specfun.AccuracyError, match="not converged") as info:
        specfun.bose_moment_quad(3, 1.0)
    assert info.value.value == 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matches_hurwitz_zeta(n):
    """bose_moment(n, u) = n! zeta(n+1, 1+iu), from u = 0 to 1e8, densely
    where the explicit terms and the Euler-Maclaurin tail are of one size."""
    us = np.concatenate([np.arange(0.0, 100.0, 0.5),
                         np.geomspace(100.0, 1e8, 60)])
    got = specfun.bose_moment(n, us)
    with mpmath.workdps(30):
        for u, g in zip(us, got):
            want = math.factorial(n) * mpmath.zeta(n + 1, 1 + 1j * u)
            assert abs(g - want) <= 1e-14 * abs(want), u


@pytest.mark.parametrize("n", [1, 3, 5, 40])
def test_finite_at_extreme_delay(n):
    # RuntimeWarnings are errors under pytest, so this is also warning-free
    us = np.array([2.0**64, 1e12, 1e300, -1e300, np.finfo(float).max])
    got = specfun.bose_moment(n, us)
    assert np.all(np.isfinite(got))
    # leading behaviour (n-1)!/(iu)^n; the next term is n/(2u) of it
    for u, g in zip(us[:2], got):
        want = math.factorial(n - 1) * (-1j / u) ** n
        assert abs(g - want) <= n / u * abs(want), u
    if n == 1:
        assert got[2] == -1e-300j and got[3] == 1e-300j


def test_accuracy_guard_still_raises():
    # at n = 20 the five Euler-Maclaurin tail terms are not enough near u = 60
    with pytest.raises(specfun.AccuracyError) as info:
        specfun.bose_moment(20, 60.0)
    assert np.isfinite(info.value.value)


def test_modulus_decays_with_delay():
    us = np.linspace(0.0, 12.0, 25)
    mags = [abs(specfun.bose_moment(3, float(u))) for u in us]
    assert all(a >= b for a, b in zip(mags, mags[1:]))


def test_accuracy_error_carries_value():
    err = specfun.AccuracyError("late", value=1.5)
    assert err.value == 1.5
