import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from oracles import g2_mix_two_envelope_calls
from thermolight import mcfield, mixturekit, pulsekit
from thermolight.mcfield import (estimate_g1_mix, estimate_g2_mix,
                                 tail_intensity_bound,
                                 g2_truncation_bias_bound)
from thermolight.mixturekit import g1_improper, make_unit_trace_weights
from thermolight.thermal import g1_zero


def _cube(ctx, side_units):
    return (side_units * ctx.length_scale) ** 3


def test_g1_seed_determinism(ctx, thermal_family, matched_weights):
    om = _cube(ctx, 40.0)
    args = (thermal_family, matched_weights, om, np.zeros(3), 0.0, 2000)
    a = estimate_g1_mix(*args, seed=12)
    b = estimate_g1_mix(*args, seed=12)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = estimate_g1_mix(*args, seed=13)
    assert c.mean != a.mean


def _g1_hex(*args):
    est = estimate_g1_mix(*args)
    return est.mean.real.hex(), est.mean.imag.hex(), est.std_error.hex()


def test_g1_slices_leave_estimate_unchanged(ctx, thermal_family,
                                            matched_weights, monkeypatch):
    """Each shell is drawn whole and its envelopes read _G1_ROWS draws at a
    time: with one slice per shell (25000 draws at n = 2e5) the estimate
    is the same bit for bit."""
    args = (thermal_family, matched_weights, _cube(ctx, 36.0), np.zeros(3),
            0.0, 200_000, 78)
    want = _g1_hex(*args)
    monkeypatch.setattr(mcfield, "_G1_ROWS", args[5])
    assert _g1_hex(*args) == want


def test_g1_transient_memory(ctx, thermal_family, matched_weights,
                             traced_peak):
    """At n = 2e5, with the table built, the G1 estimate holds one shell's
    draws and one slice's envelopes: it peaks below 8 MB of traced
    allocations (6.1 MB; 10.9 MB when each shell's 25000 envelopes were
    read at once)."""
    thermal_family.table()
    _, peak, _ = traced_peak(estimate_g1_mix, thermal_family,
                             matched_weights, _cube(ctx, 36.0), np.zeros(3),
                             0.0, 200_000, 78)
    assert peak <= 8 * 2**20, peak / 2**20


def test_draws_equal_for_numpy_integer_seed(ctx):
    om = _cube(ctx, 40.0)
    a = mcfield.draw_batch(om, 50, 9, stream=2)
    b = mcfield.draw_batch(om, 50, np.int64(9), stream=2)
    for name in ("r0", "m_hat", "n_hat"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_sampled_frames_keep_directions_and_are_isotropic(ctx):
    """draw_batch's m_hat is the direction drawn before n_hat was built
    from the drawn angles, bit for bit; every frame is orthonormal to the
    library's tolerance; and n_hat has the in-plane isotropic law, within
    5 standard errors: <n n^T> = I/3, and <n_z^2> = (1 - m_z^2)/2 given
    m_z, checked in ten bins of m_z."""
    n, seed, stream = 200_000, 4242, 3
    batch = mcfield.draw_batch(_cube(ctx, 40.0), n, seed, stream=stream)
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    rng.random((n, 3))                                  # the positions
    mu = 2.0 * rng.random(n) - 1.0
    phi = 2.0 * math.pi * rng.random(n)
    st = np.sqrt(1.0 - mu**2)
    want = np.stack([st * np.cos(phi), st * np.sin(phi), mu], axis=1)
    np.testing.assert_array_equal(batch.m_hat, want)

    m, nh = batch.m_hat, batch.n_hat
    pulsekit._check_frames(*pulsekit._row_dots((m, m), (nh, nh), (m, nh)))

    def within_5_se(samples, expected):
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - expected) <= 5.0 * se, \
            (samples.mean(), expected, se)

    for i in range(3):
        for j in range(i, 3):
            within_5_se(nh[:, i] * nh[:, j], 1.0 / 3.0 if i == j else 0.0)
    resid = nh[:, 2] ** 2 - (1.0 - m[:, 2] ** 2) / 2.0
    bins = np.minimum(((m[:, 2] + 1.0) * 5.0).astype(int), 9)
    for b in range(10):
        within_5_se(resid[bins == b], 0.0)


def test_g1_uniform_path_determinism(ctx, thermal_family):
    """A cube too small for the support ball, which once took a uniform
    sampler of its own, clips the shells to the cube and repeats for a
    seed."""
    om = _cube(ctx, 10.0)
    w = make_unit_trace_weights(om)
    args = (thermal_family, w, om, np.zeros(3), 0.0, 2000)
    a = estimate_g1_mix(*args, seed=12)
    b = estimate_g1_mix(*args, seed=12)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_estimators_reject_tiny_samples(ctx, thermal_family, matched_weights):
    om = _cube(ctx, 40.0)
    with pytest.raises(ValueError):
        estimate_g1_mix(thermal_family, matched_weights, om, np.zeros(3),
                        0.0, 99, seed=1)
    with pytest.raises(ValueError):
        estimate_g2_mix(thermal_family, matched_weights, om, 0.0, 99, seed=1)
    with pytest.raises(ValueError):
        estimate_g2_mix(thermal_family, matched_weights, om, -1.0, 1000,
                        seed=1)


def test_g2_rejects_inputs_it_cannot_estimate(ctx, thermal_family,
                                              matched_weights):
    om = _cube(ctx, 40.0)
    # a stratum needs two draws for an error bar: with n = n_strata the
    # estimator used to return nonzero means with std_error 0.0
    mcfield.check_sample_counts(128, 64)
    for n, n_strata in ((100, 200), (100, 100), (127, 64)):
        with pytest.raises(ValueError,
                           match=f"n = {n} .*n_strata = {n_strata}"):
            estimate_g2_mix(thermal_family, matched_weights, om, 0.0, n,
                            seed=1, n_strata=n_strata)
    with pytest.raises(ValueError):
        estimate_g2_mix(thermal_family, matched_weights, om, float("nan"),
                        1000, seed=1)


@pytest.mark.parametrize("case", [
    "g1-omega-zero", "g1-omega-negative", "g1-omega-nan", "g1-tau-nan",
    "g1-tau-nonzero", "g1-r-nan", "g2-omega-negative", "g2-R-inf",
    "g2-reach-zero", "g2-reach-nan", "g2-one-draw-per-stratum",
    "table-reach-nan", "table-reach-zero",
    "table-reach-short", "g2-reach-short", "g1-n-fraction",
    "g2-n-strata-fraction",
    "g1-seed-fraction", "g1-seed-bool", "g2-seed-negative", "g2-seed-huge",
    "draw-seed-fraction", "draw-seed-negative"])
def test_bad_geometry_rejected_before_any_work(ctx, thermal_family,
                                               matched_weights, monkeypatch,
                                               case):
    """Each of these used to raise a stray TypeError, build (and keep) a NaN
    table or one too short to read, or return a NaN or zero estimate.  A
    nonzero tau names the closed form that gives G1 at a delay."""
    def no_work(*args, **kwargs):
        raise AssertionError("drew labels or built a table before checking")

    draw = mcfield.draw_batch
    monkeypatch.setattr(mcfield, "draw_batch", no_work)
    monkeypatch.setattr(mcfield, "_draw_shell", no_work)
    monkeypatch.setattr(pulsekit, "_build_table", no_work)
    fam, w, nan, origin = thermal_family, matched_weights, math.nan, np.zeros(3)
    om = _cube(ctx, 40.0)
    calls = {
        "g1-omega-zero": lambda: estimate_g1_mix(fam, w, 0.0, origin, 0.0,
                                                 1000, 1),
        "g1-omega-negative": lambda: estimate_g1_mix(fam, w, -om, origin,
                                                     0.0, 1000, 1),
        "g1-omega-nan": lambda: estimate_g1_mix(fam, w, nan, origin, 0.0,
                                                1000, 1),
        "g1-tau-nan": lambda: estimate_g1_mix(fam, w, om, origin, nan,
                                              1000, 1),
        "g1-tau-nonzero": lambda: estimate_g1_mix(fam, w, om, origin, 1e-15,
                                                  1000, 1),
        "g1-r-nan": lambda: estimate_g1_mix(fam, w, om, np.array(
            [0.0, nan, 0.0]), 0.0, 1000, 1),
        "g2-omega-negative": lambda: estimate_g2_mix(fam, w, -om, 0.0,
                                                     1000, 1),
        "g2-R-inf": lambda: estimate_g2_mix(fam, w, om, math.inf, 1000, 1),
        "g2-reach-zero": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, 1,
                                                 reach=0.0),
        "g2-reach-nan": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, 1,
                                                reach=nan),
        "g2-one-draw-per-stratum": lambda: estimate_g2_mix(
            fam, w, om, 0.0, 100, 1, n_strata=100),
        "table-reach-nan": lambda: fam.table(reach=nan),
        "table-reach-zero": lambda: fam.table(reach=0.0),
        "table-reach-short": lambda: fam.table(reach=0.2),
        "table-reach-huge": lambda: fam.table(reach=401.7),
        "g2-reach-short": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, 1,
                                                  reach=0.2),
        "g1-n-fraction": lambda: estimate_g1_mix(fam, w, om, origin, 0.0,
                                                 1000.5, 1),
        "g2-n-strata-fraction": lambda: estimate_g2_mix(
            fam, w, om, 0.0, 1000, 1, n_strata=2.5),
        # Philox took these silently, or raised OverflowError for 2**64
        "g1-seed-fraction": lambda: estimate_g1_mix(fam, w, om, origin, 0.0,
                                                    1000, 2.5),
        "g1-seed-bool": lambda: estimate_g1_mix(fam, w, om, origin, 0.0,
                                                1000, True),
        "g2-seed-negative": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, -1),
        "g2-seed-huge": lambda: estimate_g2_mix(fam, w, om, 0.0, 1000, 2**64),
        "draw-seed-fraction": lambda: draw(om, 100, 2.5),
        "draw-seed-negative": lambda: draw(om, 100, -1, stream=3),
    }
    names = {"g1-tau-nonzero": "mixturekit.g1_improper",
             "g1-n-fraction": "n must be an integer",
             "g2-n-strata-fraction": "n_strata must be an integer",
             **{c: "seed must be an integer" for c in calls if "seed" in c}}
    with pytest.raises(ValueError, match=names.get(case)):
        calls[case]()


def test_zero_amplitude_gives_exact_zero(ctx):
    fam = pulsekit.make_thermal_family(ctx, alpha=0.0)
    om = _cube(ctx, 40.0)
    w = make_unit_trace_weights(om)
    est = estimate_g1_mix(fam, w, om, np.zeros(3), 0.0, 1000, seed=4)
    assert est.mean == 0.0 + 0.0j
    assert est.std_error == 0.0


@pytest.mark.parametrize("side", [3.0, 10.0, 31.9])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_g1_uniform_path_matches_unit_trace_scaling(ctx, alpha, side):
    """In these cubes the 16-unit support ball does not fit, so the shells
    are clipped to the cube: draws outside it count as zero.  Their mean is
    the orientation-averaged intensity over the cube, which
    unit_trace_scaling integrates from the same table with the exact
    sphere-in-cube fraction.  At side 3 the clip decides the value; at
    31.9 the uniform draws over the cube that these cubes once took left a
    relative error bar of 18% at n = 2e5, and the shells leave under 1%.
    Both read |alpha|^2 from the family alone: at alpha = 2,
    unit_trace_scaling used to count it twice and miss by 4x."""
    fam = pulsekit.make_thermal_family(ctx, alpha=alpha)
    om = _cube(ctx, side)
    w = make_unit_trace_weights(om)
    est = estimate_g1_mix(fam, w, om, np.zeros(3), 0.0, 200_000, 99)
    want = mixturekit.unit_trace_scaling(fam, [om]).g1[0]
    assert est.std_error < 0.05 * want
    assert abs(est.mean - want) <= 4.0 * est.std_error, (est, want)


def test_estimators_scale_with_unit_trace_density(ctx, thermal_family):
    """UnitTrace weights made for 1000 times the cube hold 1/1000 of the
    density, and both estimators scale by it.  They used to read 1.0 for
    any UnitTrace spec and return the same values for both."""
    om = _cube(ctx, 40.0)
    near, far = make_unit_trace_weights(om), make_unit_trace_weights(1000 * om)
    for est in (
            lambda w: estimate_g1_mix(thermal_family, w, om, np.zeros(3),
                                      0.0, 2000, 7),
            lambda w: estimate_g2_mix(thermal_family, w, om, 0.0, 2000, 7)):
        a, b = est(near), est(far)
        assert abs(b.mean * 1000.0 - a.mean) <= 1e-12 * abs(a.mean)
        assert abs(b.std_error * 1000.0 - a.std_error) \
            <= 1e-12 * a.std_error


def test_g1_halves_when_volume_doubles(ctx, thermal_family):
    om = _cube(ctx, 40.0)
    a = estimate_g1_mix(thermal_family, make_unit_trace_weights(om), om,
                        np.zeros(3), 0.0, 100_000, 5)
    b = estimate_g1_mix(thermal_family, make_unit_trace_weights(2 * om),
                        2 * om, np.zeros(3), 0.0, 100_000, 6)
    ratio = a.mean.real / b.mean.real
    sig = abs(ratio) * math.hypot(a.std_error / abs(a.mean),
                                  b.std_error / abs(b.mean))
    assert abs(ratio - 2.0) <= 3.0 * sig, (ratio, sig)


def test_g1_estimator_matches_label_average(ctx, thermal_family,
                                            matched_weights):
    """MC versus the deterministic mixture transform at tau = 0.

    The stratified sampler only reaches the envelope table, which holds
    about 99.77% of the pulse intensity, so a small one-sided truncation
    allowance rides on top of the statistical band.
    """
    om = _cube(ctx, 40.0)
    allowance = 3e-3 * g1_zero(ctx)
    est = estimate_g1_mix(thermal_family, matched_weights, om, np.zeros(3),
                          0.0, 40_000, 101)
    ref = g1_improper(thermal_family, matched_weights, 0.0)
    assert abs(est.mean - ref) <= 3.0 * est.std_error + allowance


def test_g2_overlap_term_against_moment_quadrature(ctx, thermal_family,
                                                   matched_weights):
    """Coincident detectors: the pulse-overlap average has a deterministic
    form after doing the orientation average analytically.

    For a uniformly rotated orthonormal pair (e2, m) the z-component
    moments are <e2_z^4> = <m_z^4> = 1/5 and <e2_z^2 m_z^2> = 1/15, which
    turns <|E_z|^4> into an explicit functional of the canonical-frame
    transforms; what remains is a 3D quadrature over the relative geometry.
    """
    tab = thermal_family.table()
    pref4 = abs(thermal_family.envelope_prefactor() * 2.0 * math.pi) ** 4
    dg = np.linspace(1e-3, 15.98, 600)
    cg, cw = leggauss(96)
    st = np.sqrt(1.0 - cg**2)
    s2 = np.sin(2.0 * math.pi * (np.arange(32) + 0.5) / 32) ** 2
    qbar = np.empty(len(dg))
    for i, d in enumerate(dg):
        ty, tz = tab.lookup(d * st, d * cg)
        ty2 = np.abs(ty) ** 2
        tz2 = np.abs(tz) ** 2
        imtc = np.imag(ty * np.conj(tz))
        q = (0.2 * (ty2[None, :] ** 2 + (tz2[None, :] * s2[:, None]) ** 2)
             + (2.0 * ty2[None, :] * tz2[None, :] * s2[:, None]
                + 4.0 * imtc[None, :] ** 2 * s2[:, None]) / 15.0)
        qbar[i] = 0.5 * float(np.sum(cw[None, :] * q) / len(s2))
    oracle = (8.0 * math.pi**2 * matched_weights.p_const * pref4
              * 4.0 * math.pi * np.trapezoid(dg**2 * qbar, dg)
              * ctx.length_scale**3)

    est = estimate_g2_mix(thermal_family, matched_weights, _cube(ctx, 40.0),
                          0.0, 400_000, 17)
    # the integrand is heavy-tailed, so the estimate is order-of-magnitude
    ratio = est.mean / oracle
    assert 0.25 < ratio < 4.0, (est.mean, oracle)


@pytest.mark.parametrize("extents", [1.0, 3.0])
def test_g2_equals_two_envelope_calls(ctx, thermal_family, matched_weights,
                                      extents):
    """One frame pass for both detectors, reading the table only where both
    reach it, gives the bits of two whole envelope_batch calls per stratum.
    With detectors 1 pulse extent apart on the default table, 23% of draws
    have both detectors on it; 3 extents apart, 1.8%."""
    R = extents * pulsekit.pulse_extent(thermal_family, 0.99)
    om = (2.0 * (R / 2.0 + 17.0 * ctx.length_scale)) ** 3
    for seed in (3, 11, 29):
        est = estimate_g2_mix(thermal_family, matched_weights, om, R, 20_000,
                              seed, n_strata=64, reach=16.0)
        ref = g2_mix_two_envelope_calls(thermal_family, matched_weights, om,
                                        R, 20_000, seed, 64, 16.0)
        assert est.mean > 0.0
        assert est.mean == ref.mean and est.std_error == ref.std_error, seed


@pytest.mark.parametrize("row", ["z-beyond", "p-beyond"])
@pytest.mark.parametrize("case", ["frame", "delta-nan", "delta-inf"])
def test_g2_samples_check_rows_they_do_not_read(ctx, thermal_family, row,
                                                case):
    """A draw with both detectors off the table is checked all the same: a
    non-finite delta raises, and so does a frame that is not orthonormal
    on a draw that falls out on Z (screened first) or only on P."""
    ls = ctx.length_scale
    table = thermal_family.table()
    ra, rb = np.array([0.0, 0.0, -ls]), np.array([0.0, 0.0, ls])
    m = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.0, 1.0]])
    n = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    # row 1 lies 60 units off both detectors along its m_hat, row 2 100
    # units across its m_hat; row 0 sits between the detectors
    r0 = np.array([[0.2, 0.1, 0.0], [100.0, 0.0, 0.0], [100.0, 0.0, 0.0]]) * ls
    x = mcfield._g2_samples(thermal_family, table,
                            mcfield.SampleBatch(r0, m, n), ra, rb)
    assert x[0] > 0.0 and x[1] == 0.0 and x[2] == 0.0
    i = {"z-beyond": 1, "p-beyond": 2}[row]
    if case == "frame":
        n = n.copy()
        n[i] *= 1.0 - 1e-11
    else:
        r0 = r0.copy()
        r0[i, 1] = {"delta-nan": math.nan, "delta-inf": math.inf}[case]
    with pytest.raises(ValueError, match="orthonormal" if case == "frame"
                       else "deltas"):
        mcfield._g2_samples(thermal_family, table,
                            mcfield.SampleBatch(r0, m, n), ra, rb)


def test_g2_decays_beyond_pulse_extent(ctx, thermal_family, matched_weights):
    ext = pulsekit.pulse_extent(thermal_family, 0.99)
    om = _cube(ctx, 40.0)
    vals = [estimate_g2_mix(thermal_family, matched_weights, om,
                            mult * ext, 20_000, 31).mean
            for mult in (1.2, 2.0, 3.5)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_tail_bound_dominates_far_field(thermal_family):
    pref2 = abs(thermal_family.envelope_prefactor() * 2.0 * math.pi) ** 2
    bound = tail_intensity_bound(thermal_family, 21.0)
    for P, Z in [(21.0, 0.0), (14.849, 14.849), (0.0, 21.0)]:
        ty, tz = pulsekit.transforms_direct(thermal_family, P, Z)
        assert pref2 * (abs(ty) + abs(tz)) ** 2 <= bound
    assert tail_intensity_bound(thermal_family, 18.0) \
        > tail_intensity_bound(thermal_family, 25.0) \
        > tail_intensity_bound(thermal_family, 32.0)


@pytest.mark.parametrize("dist", [-21.0, 0.0, 1e-60, 1e-200, 1e300, math.inf,
                                  math.nan])
def test_tail_bound_rejects_distance_out_of_range(thermal_family, dist):
    """-21 once returned the bound at +21, 0 and 1e-200 raised
    ZeroDivisionError, 1e-60 and 1e300 OverflowError, nan returned nan."""
    with pytest.raises(ValueError, match="dist"):
        tail_intensity_bound(thermal_family, dist)


def test_truncation_bias_bound_properties(ctx, thermal_family):
    R = 30.0 * ctx.length_scale
    g1m = g1_zero(ctx)
    b = g2_truncation_bias_bound(thermal_family, R, 16.0, g1m)
    assert b > 0.0
    sym = g2_truncation_bias_bound(thermal_family, R, 30.0 - 16.0, g1m)
    assert math.isclose(b, sym, rel_tol=1e-12)
    with pytest.raises(ValueError):
        g2_truncation_bias_bound(thermal_family, R, 30.0, g1m)
    with pytest.raises(ValueError):
        g2_truncation_bias_bound(thermal_family, R, 0.0, g1m)
