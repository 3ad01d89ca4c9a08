"""Acceptance gate: one test per top-level criterion.

Each test prints a single [CRITERION nn] PASS/FAIL line before asserting,
so the gate's verdict survives in captured output either way.  Two checks
fail by design of the underlying physics at 5777 K; see the test bodies.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from thermolight import fockdis, mcfield, mixturekit, pulsekit, specfun, thermal
from thermolight.units import EPSILON_0, HBAR, C_LIGHT, K_BOLTZMANN, make_context

C1_TOL_REL = 1e-3
C1_TOL_IDENTITY = 1e-10
C2_TOL_START = 1e-6
C2_TOL_FLAT = 0.01
C3_RANGE_FS = (1.0, 1.6)
C4_TOL = 1e-6
C5_FEASIBLE = 1e-3
C5_INFEASIBLE = 0.1
C6_TOL_SLOPE = 0.01
C6_TOL_FLAT = 0.01
C7_G1_TOL = 0.05
C7_FRAC = 0.01
C8_TOL_PROP = 1e-9
C8_TOL_ANCHOR = 1e-12
C9_TOL = 1e-10
C10_TOL = 1e-9


def _verdict(num: int, passed: bool, detail: str) -> None:
    print(f"[CRITERION {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_01(ctx):
    t0 = time.perf_counter()
    beta = 1.0 / (K_BOLTZMANN * 5777.0)
    formula = (math.pi**2 / (90.0 * EPSILON_0 * beta**4 * (HBAR * C_LIGHT) ** 3)) ** 2
    g2 = thermal.g2_equal_time(ctx, 5e-6).value
    rel = abs(g2 / formula - 1.0)
    ident = abs(formula / thermal.g1_temporal(ctx, 0.0).real ** 2 - 1.0)
    elapsed = time.perf_counter() - t0
    ok = rel <= C1_TOL_REL and ident <= C1_TOL_IDENTITY and elapsed < 10.0
    _verdict(1, ok, f"g2(5um)/formula-1 = {rel:.3e}, "
                    f"formula/g1(0)^2-1 = {ident:.3e}, {elapsed:.1f} s")
    assert rel <= C1_TOL_REL
    assert ident <= C1_TOL_IDENTITY
    assert elapsed < 10.0


def test_criterion_02(ctx):
    """Flatness at the micron scale.

    The ratio provably starts at 2 and decays toward 1, but at 0.4 um the
    parallel-orientation deviation is still about 7.6e-2, an order above
    the 1% band; the curve only enters the band near 0.65 um.  The check
    is implemented as stated and fails.
    """
    t0 = time.perf_counter()
    rs = np.linspace(0.0, 2e-6, 200)
    ratio = thermal.g2_curve(ctx, rs, orientation="parallel")
    start_ok = abs(float(ratio[0]) - 2.0) <= C2_TOL_START
    dev = float(np.max(np.abs(ratio[rs >= 0.4e-6] - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = start_ok and dev <= C2_TOL_FLAT and elapsed < 60.0
    _verdict(2, ok, f"start = {float(ratio[0]):.8f}, "
                    f"max |ratio-1| beyond 0.4 um = {dev:.4e}, {elapsed:.1f} s")
    assert start_ok
    assert elapsed < 60.0
    assert dev <= C2_TOL_FLAT


def test_criterion_03(ctx):
    t0 = time.perf_counter()
    tau_fs = thermal.coherence_time(ctx) * 1e15
    elapsed = time.perf_counter() - t0
    ok = C3_RANGE_FS[0] <= tau_fs <= C3_RANGE_FS[1] and elapsed < 5.0
    _verdict(3, ok, f"tau_c = {tau_fs:.4f} fs, {elapsed:.1f} s")
    assert C3_RANGE_FS[0] <= tau_fs <= C3_RANGE_FS[1]
    assert elapsed < 5.0


def test_criterion_04(ctx, thermal_family, matched_weights):
    t0 = time.perf_counter()
    taus = np.linspace(0.0, 10e-15, 50)
    power = pulsekit.make_thermal_family(ctx, upsilon_kind="power",
                                         upsilon_param=7.0)
    re_ = mixturekit.simulation_residual(thermal_family, matched_weights, taus)
    rp = mixturekit.simulation_residual(power, matched_weights, taus)
    agree = float(np.linalg.norm(re_.g1_imp - rp.g1_imp)
                  / np.linalg.norm(re_.g1_th))
    elapsed = time.perf_counter() - t0
    ok = re_.residual < C4_TOL and rp.residual < C4_TOL and agree < C4_TOL \
        and elapsed < 120.0
    _verdict(4, ok, f"residuals {re_.residual:.2e} / {rp.residual:.2e}, "
                    f"kind agreement {agree:.2e}, {elapsed:.1f} s")
    assert re_.residual < C4_TOL
    assert rp.residual < C4_TOL
    assert agree < C4_TOL
    assert elapsed < 120.0


def test_criterion_05(ctx):
    """Feasibility dichotomy of the nonnegative weight solver.

    Long pulses are solvable to well below 1e-3.  At 10 fs the residual has
    grown three orders of magnitude to 2.6e-3, but that is still far from
    the 0.1 level demanded here; the fitted residual only crosses 0.1 for
    durations near the coherence time (about 1.3 fs).  The check is
    implemented as stated and its second half fails.
    """
    residuals = {}
    slowest = 0.0
    for dur in (10e-12, 1e-12, 10e-15):
        t0 = time.perf_counter()
        fit = mixturekit.solve_gaussian_weights(ctx, 1.0 / (C_LIGHT * dur))
        slowest = max(slowest, time.perf_counter() - t0)
        residuals[dur] = fit.residual
    feas_ok = all(residuals[d] < C5_FEASIBLE for d in (10e-12, 1e-12))
    infeas_ok = residuals[10e-15] > C5_INFEASIBLE
    ok = feas_ok and infeas_ok and slowest < 120.0
    _verdict(5, ok, "residuals " + ", ".join(
        f"{d:.0e}s: {residuals[d]:.3e}" for d in sorted(residuals))
        + f", slowest solve {slowest:.1f} s")
    assert feas_ok
    assert slowest < 120.0
    assert infeas_ok


def test_criterion_06(ctx, thermal_family):
    t0 = time.perf_counter()
    extent = pulsekit.pulse_extent(thermal_family, 0.99)
    omegas = (np.geomspace(10.0, 100.0, 7) * extent) ** 3
    curve = mixturekit.unit_trace_scaling(thermal_family, omegas)
    slope = curve.loglog_slope()
    spread = float(np.max(curve.g1_compensated)
                   / np.min(curve.g1_compensated) - 1.0)
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 1.0) <= C6_TOL_SLOPE and spread <= C6_TOL_FLAT \
        and elapsed < 300.0
    _verdict(6, ok, f"slope = {slope:.6f}, compensated spread = {spread:.2e}, "
                    f"{elapsed:.1f} s")
    assert abs(slope + 1.0) <= C6_TOL_SLOPE
    assert spread <= C6_TOL_FLAT
    assert elapsed < 300.0


def test_criterion_07(ctx, thermal_family, matched_weights):
    t0 = time.perf_counter()
    seed = 12345
    g1_th = thermal.g1_zero(ctx)
    est1 = mcfield.estimate_g1_mix(thermal_family, matched_weights,
                                   (36.0 * ctx.length_scale) ** 3,
                                   np.zeros(3), 0.0, 200_000, seed)
    g1_rel = abs(est1.mean.real / g1_th - 1.0)

    extent = pulsekit.pulse_extent(thermal_family, 0.99)
    R = 5.0 * extent
    r_units = R / ctx.length_scale
    reach = r_units / 2.0 + 1.0
    side = 2.0 * (R / 2.0 + (reach + 1.0) * ctx.length_scale)
    est2 = mcfield.estimate_g2_mix(thermal_family, matched_weights, side**3,
                                   R, 100_000, seed, reach=reach)
    bias = mcfield.g2_truncation_bias_bound(thermal_family, R, reach, g1_th)
    bound = (est2.mean + 2.0 * est2.std_error + bias) / thermal.g2_asymptote(ctx)
    elapsed = time.perf_counter() - t0
    ok = g1_rel <= C7_G1_TOL and bound < C7_FRAC and elapsed < 600.0
    _verdict(7, ok, f"G1 mismatch = {g1_rel:.4f}, "
                    f"95% G2 bound / asymptote = {bound:.3e}, {elapsed:.1f} s")
    assert g1_rel <= C7_G1_TOL
    assert bound < C7_FRAC
    assert elapsed < 600.0


def test_criterion_08():
    t0 = time.perf_counter()
    a1 = abs(specfun.bose_moment(3, 0.0).real - math.pi**4 / 15.0)
    a2 = abs(specfun.bose_moment(2, 0.0).real - 2.0 * specfun.ZETA3)
    worst = [0.0]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=1, max_value=4),
           u=st.floats(min_value=0.0, max_value=30.0))
    def compare(n, u):
        s = specfun.bose_moment(n, u)
        q = oracles.bose_moment_quad(n, u)
        worst[0] = max(worst[0], abs(s - q) / abs(q))

    compare()
    elapsed = time.perf_counter() - t0
    ok = worst[0] <= C8_TOL_PROP and a1 <= C8_TOL_ANCHOR \
        and a2 <= C8_TOL_ANCHOR and elapsed < 5.0
    _verdict(8, ok, f"series-vs-quadrature worst = {worst[0]:.2e}, "
                    f"anchors {a1:.1e} / {a2:.1e}, {elapsed:.1f} s")
    assert worst[0] <= C8_TOL_PROP
    assert a1 <= C8_TOL_ANCHOR and a2 <= C8_TOL_ANCHOR
    assert elapsed < 5.0


def test_criterion_09(ctx):
    t0 = time.perf_counter()
    modes = fockdis.three_mode_example(cutoff=3)
    linear = fockdis.linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0)
    rho = fockdis.build_rho_mixture(linear)
    n, m = (1, 0, 1), (0, 2, 0)
    bsum = fockdis.b_coefficient_sum(linear, n, m)
    elem_err = abs(rho.element(n, m) - bsum)

    free = fockdis.free_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0,
                                       10_000, 11)
    free_elem = abs(fockdis.build_rho_mixture(free).element(n, m))
    free_ok = free_elem < 3.0 * bsum / math.sqrt(10_000)

    th = fockdis.thermal_rho_dis(
        fockdis.ModeSet(n_int=modes.n_int, lambdas=modes.lambdas,
                        quant_volume_V=(2e-6) ** 3, cutoff=10), ctx)
    scan_empty = fockdis.coherence_scan(th, 1e-14) == []
    elapsed = time.perf_counter() - t0
    ok = bsum > 0.0 and elem_err <= C9_TOL and free_ok and scan_empty \
        and elapsed < 60.0
    _verdict(9, ok, f"survivor error = {elem_err:.1e}, b_sum = {bsum:.4f}, "
                    f"free-phase element = {free_elem:.2e}, "
                    f"thermal scan empty = {scan_empty}, {elapsed:.1f} s")
    assert bsum > 0.0
    assert elem_err <= C9_TOL
    assert free_ok
    assert scan_empty
    assert elapsed < 60.0


def test_criterion_10():
    temps = (3000.0, 5777.0, 10000.0)
    g1_over_t4 = []
    tau_times_t = []
    for T in temps:
        c = make_context(T)
        g1_over_t4.append(thermal.g1_zero(c) / T**4)
        tau_times_t.append(thermal.coherence_time(c) * T)
    s1 = max(g1_over_t4) / min(g1_over_t4) - 1.0
    s2 = max(tau_times_t) / min(tau_times_t) - 1.0
    ok = s1 <= C10_TOL and s2 <= C10_TOL
    _verdict(10, ok, f"g1(0)/T^4 spread = {s1:.2e}, "
                     f"tau_c*T spread = {s2:.2e}")
    assert s1 <= C10_TOL
    assert s2 <= C10_TOL
