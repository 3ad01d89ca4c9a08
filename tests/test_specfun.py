"""Series evaluator for the occupation-weighted moments, against quadrature.

The evaluator computes int_0^inf x^n e^{-i x u} / (e^x - 1) dx.  Exact
anchor values and an adaptive-quadrature oracle pin it down; the symmetry
and smoothness properties are sampled with hypothesis.
"""

import math

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
    the scalar call, for delays that sum the minimum number of terms
    (|u| < 31.5) and for delays that each sum more."""
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


def test_modulus_decays_with_delay():
    us = np.linspace(0.0, 12.0, 25)
    mags = [abs(specfun.bose_moment(3, float(u))) for u in us]
    assert all(a >= b for a, b in zip(mags, mags[1:]))


def test_accuracy_error_carries_value():
    err = specfun.AccuracyError("late", value=1.5)
    assert err.value == 1.5
