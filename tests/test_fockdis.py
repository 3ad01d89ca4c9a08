import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermolight import fockdis
from thermolight.fockdis import (ModeSet, PulseMixture, build_rho_mixture,
                                 b_coefficient_sum, coherence_scan,
                                 thermal_rho_dis, mean_photon_numbers,
                                 linear_phase_ensemble, free_phase_ensemble,
                                 linear_phase_selection_rules,
                                 three_mode_example)


@pytest.fixture(scope="module")
def grid_ensemble():
    modes = three_mode_example(cutoff=3)
    pulses = linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0)
    return pulses, build_rho_mixture(pulses)


def _textbook_vector(gam_abs, cutoff):
    """|<n|coherent>| for independent modes, no phases."""
    ns = np.arange(cutoff + 1)
    lg = np.array([math.lgamma(k + 1) for k in ns])
    v = None
    for g in gam_abs:
        col = np.exp(ns * np.log(g) - 0.5 * lg)
        v = col if v is None else np.kron(v, col)
    return v * math.exp(-0.5 * float(np.sum(np.asarray(gam_abs) ** 2)))


def _outer_sum_reference(pulses):
    """Reference mixture: one np.outer per pulse of Fock vectors built mode by
    mode with np.kron."""
    modes = pulses.modes
    ns = np.arange(modes.cutoff + 1)
    lg = np.array([math.lgamma(k + 1) for k in ns])
    acc = np.zeros((modes.dimension, modes.dimension), complex)
    for alpha, spectrum, prob in zip(pulses.alpha, pulses.F, pulses.probs):
        gam = alpha * spectrum
        psi = None
        for g in gam:
            v = np.zeros(modes.cutoff + 1, complex)
            v[0] = 1.0
            if g != 0.0:
                v = np.exp(ns * np.log(abs(g)) - 0.5 * lg) \
                    * np.exp(1j * ns * np.angle(g))
            psi = v if psi is None else np.kron(psi, v)
        psi = psi * math.exp(-0.5 * float(np.sum(np.abs(gam) ** 2)))
        acc += prob * np.outer(psi, np.conj(psi))
    return acc


def _oracle_case(name):
    if name == "linear-grid":
        modes = three_mode_example(cutoff=3)
        return linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0, n_a=16,
                                     n_b=64)
    if name == "free-block-edge":
        modes = three_mode_example(cutoff=3)
        n = 2 * fockdis._ROW_BLOCK + 37
        return free_phase_ensemble(modes, (1.0, 2.0, 0.5), 0.9, n, 4)
    modes = ModeSet(n_int=((1, 0, 0),), lambdas=(1,), quant_volume_V=1.0,
                    cutoff=12)
    return free_phase_ensemble(modes, (1.0,), 1.3, 300, 9)


@pytest.mark.parametrize("name", ["linear-grid", "free-block-edge",
                                  "single-mode"])
def test_build_matches_outer_product_oracle(name):
    pulses = _oracle_case(name)
    want = _outer_sum_reference(pulses)
    got = build_rho_mixture(pulses).dense()
    assert float(np.max(np.abs(got - want))) < 1e-14


def test_b_sum_matches_exact_sum():
    """b_coefficient_sum equals the exactly rounded sum of its terms."""
    modes = three_mode_example(cutoff=3)
    for pulses in (linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 0.8),
                   free_phase_ensemble(modes, (1.0, 2.0, 0.5), 0.9, 3000, 4)):
        for n, m in [((1, 0, 1), (0, 2, 0)), ((0, 0, 0), (0, 0, 0)),
                     ((3, 3, 3), (2, 1, 0))]:
            terms = []
            for gam, prob in zip(pulses.gammas, pulses.probs):
                g = np.abs(gam)
                log_b = sum((nj + mj) * math.log(gj)
                            - 0.5 * (math.lgamma(nj + 1) + math.lgamma(mj + 1))
                            for gj, nj, mj in zip(g, n, m))
                terms.append(prob * math.exp(log_b - float(np.sum(g**2))))
            want = math.fsum(terms)
            got = b_coefficient_sum(pulses, n, m)
            assert abs(got - want) <= 2e-15 * want


@pytest.mark.parametrize("n, m", [((5, 0, 4), (6, 1, 0)),
                                  ((9, 2, 7), (8, 0, 6)),
                                  ((40, 0, 0), (0, 3, 30))])
def test_b_sum_above_cutoff_matches_mpmath(n, m):
    """Counts above the cutoff read the same one-mode logs.  A log-space
    sum is as exact as its logarithm, so the bound is a few ulps of
    |log B| relative (|log B| is 20 to 181 here)."""
    modes = three_mode_example(cutoff=3)
    for pulses in (linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 0.8,
                                         n_a=4, n_b=8),
                   free_phase_ensemble(modes, (1.0, 2.0, 0.5), 0.9, 40, 4)):
        with mpmath.workdps(40):
            want = mpmath.mpf(0)
            for gam, prob in zip(pulses.gammas, pulses.probs):
                g = [mpmath.mpf(float(x)) for x in np.abs(gam)]
                b = mpmath.mpf(float(prob)) * mpmath.exp(-mpmath.fsum(
                    x**2 for x in g))
                for x, nj, mj in zip(g, n, m):
                    b *= x ** (nj + mj) / mpmath.sqrt(
                        mpmath.factorial(nj) * mpmath.factorial(mj))
                want += b
            log_b = abs(float(mpmath.log(want)))
            want = float(want)
        got = b_coefficient_sum(pulses, n, m)
        assert abs(got - want) <= 4.0 * np.finfo(float).eps * log_b * want


@st.composite
def _extreme_mixtures(draw):
    """1-4 modes, dimension <= 256, exact zeros among the mode amplitudes
    and |gamma|^2 up to 2000."""
    n_modes = draw(st.integers(1, 4))
    top = round(256 ** (1.0 / n_modes)) - 1
    modes = ModeSet(n_int=tuple((j + 1, 0, 0) for j in range(n_modes)),
                    lambdas=(1,) * n_modes, quant_volume_V=1.0,
                    cutoff=draw(st.integers(1, top)))
    n_pulses = draw(st.integers(1, 4))
    alpha, spectra = [], []
    for _ in range(n_pulses):
        mags = np.array(draw(st.lists(st.sampled_from([0.0, 1e-300])
                                      | st.floats(0.0, 1.0),
                                      min_size=n_modes, max_size=n_modes)))
        if not np.any(mags >= 1e-3):
            mags[draw(st.integers(0, n_modes - 1))] = 1.0
        phases = draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                               min_size=n_modes, max_size=n_modes))
        spectra.append(mags / np.linalg.norm(mags) * np.exp(1j * np.array(phases)))
        alpha.append(math.sqrt(draw(st.sampled_from([0.0, 2000.0])
                                    | st.floats(0.0, 2000.0)))
                     * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
    return PulseMixture(modes, alpha, spectra,
                        np.full(n_pulses, 1.0 / n_pulses), None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pulses=_extreme_mixtures())
def test_extreme_amplitudes_match_outer_product_oracle(pulses):
    """Zero and huge mode amplitudes give finite Fock amplitudes equal to
    the per-pulse np.kron oracle, without a floating-point warning."""
    want = _outer_sum_reference(pulses)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = build_rho_mixture(pulses)
        got = rho.dense()
    assert not np.any(np.isnan(got))
    assert float(np.max(np.abs(got - want))) < 1e-14
    assert 0.0 <= rho.truncation_mass <= 1.0


def _mpmath_truncation_mass(pulses):
    """sum_s p_s (1 - prod_j P(Poisson(|gamma_sj|^2) <= cutoff)), at 60
    digits."""
    c = pulses.modes.cutoff
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for gam, prob in zip(pulses.gammas, pulses.probs):
            kept = mpmath.mpf(1)
            for g in gam:
                x = mpmath.mpf(float(abs(g))) ** 2
                kept *= mpmath.exp(-x) * mpmath.fsum(
                    x**k / mpmath.factorial(k) for k in range(c + 1))
            total += mpmath.mpf(float(prob)) * (1 - kept)
        return float(total)


@pytest.mark.parametrize("alpha_abs", [0.8, 1e-3, 60.0])
def test_truncation_mass_matches_mpmath(alpha_abs):
    """The probability the pulses put beyond the cutoff, at fock-demo's
    default |alpha|, at a tiny one (about 1e-26 dropped) and at a huge one
    (all of it dropped)."""
    modes = three_mode_example(cutoff=3)
    pulses = free_phase_ensemble(modes, (1.0, 2.0, 0.5), alpha_abs, 8, 5)
    mixed = PulseMixture(modes, pulses.alpha * [1.0, 0.5, 1.3, 0.0, 1.0,
                                                 0.9, 0.2, 1.1],
                         pulses.F, pulses.probs, None)
    for mix in (pulses, mixed):
        want = _mpmath_truncation_mass(mix)
        got = build_rho_mixture(mix).truncation_mass
        assert abs(got - want) <= 1e-13 * want


def test_truncation_mass_of_fock_demo_mixture():
    """fock-demo's mixtures drop 2.1840392845079897e-4 (mpmath) beyond
    cutoff 3; when every amplitude underflows, all the mass is dropped."""
    modes = three_mode_example((2e-6) ** 3, cutoff=3)
    linear = linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 0.8)
    rho = build_rho_mixture(linear)
    got = rho.truncation_mass
    assert abs(got - 2.1840392845079897e-4) <= 1e-13 * 2.1840392845079897e-4
    assert abs(rho.trace() + got - 1.0) < 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lost = build_rho_mixture(linear_phase_ensemble(modes, (1.0, 1.0, 1.0),
                                                       1e3, n_a=4, n_b=8))
    assert lost.elements == {} and lost.truncation_mass == 1.0


def test_free_phase_ensemble_draws_frozen():
    """The array draw reproduces the recorded per-pulse Philox sequence, bit
    for bit."""
    modes = three_mode_example(cutoff=2)
    ens = free_phase_ensemble(modes, (1.0, 2.0, 3.0), 0.8, 5, 7)
    recorded = {
        0: (-0.6627706762129666 + 0.4480346311974187j,
            (0.18547547372455792 - 0.19242510250802067j,
             -0.15030503513452267 + 0.5129548538882303j,
             -0.7028453640435016 + 0.38583096959640306j)),
        4: (-0.7448508240153888 + 0.2918856796137768j,
            (0.24746651238799375 + 0.10094006476664437j,
             -0.5279579837696402 - 0.08351438850989694j,
             -0.3263775940059948 - 0.7323488301267375j)),
    }
    assert len(ens) == 5 and ens.law is None
    for i, (alpha, spectrum) in recorded.items():
        assert ens.alpha[i].item() == alpha
        assert tuple(ens.F[i].tolist()) == spectrum
        assert ens.probs[i] == 0.2


_FLAT = (1.0 / math.sqrt(3.0),) * 3


def _pulse(alpha=1.0, spectrum=_FLAT, prob=1.0, law=None):
    """One pulse on three_mode_example(cutoff=2), as a one-row mixture."""
    return PulseMixture(three_mode_example(cutoff=2), [alpha], [spectrum],
                        [prob], law)


@pytest.mark.parametrize("case", [
    "nan-probability", "nan-spectrum", "nan-alpha", "inf-alpha",
    "zero-magnitudes-free", "zero-magnitudes-linear",
    "zero-magnitudes-pulse", "zero-free-samples", "negative-free-samples",
    "fraction-free-samples", "bool-free-samples", "zero-linear-a",
    "zero-linear-b", "fraction-linear-a", "fraction-linear-b",
    "negative-alpha-abs-linear",
    "negative-alpha-abs-free", "nan-alpha-abs-linear", "inf-alpha-abs-free",
    "fraction-free-seed", "negative-free-seed", "bool-free-seed",
    "huge-free-seed"])
def test_invalid_fock_inputs_rejected(case):
    """Each of these used to give an empty rho with trace 0, NaN spectra, an
    empty ensemble, a grid whose phases no longer wrap, or numpy's
    negative-dimension or TypeError."""
    modes = three_mode_example(cutoff=2)
    s = 1.0 / math.sqrt(3.0)
    calls = {
        "nan-probability": lambda: _pulse(prob=math.nan),
        "nan-spectrum": lambda: _pulse(spectrum=(math.nan, s, s)),
        "nan-alpha": lambda: _pulse(alpha=complex(math.nan, 0.0)),
        "inf-alpha": lambda: _pulse(alpha=complex(math.inf, 0.0)),
        "zero-magnitudes-free": lambda: free_phase_ensemble(
            modes, (0.0, 0.0, 0.0), 1.0, 8, 1),
        "zero-magnitudes-linear": lambda: linear_phase_ensemble(
            modes, (0.0, 0.0, 0.0), 1.0, n_a=4, n_b=8),
        "zero-magnitudes-pulse": lambda: _pulse(
            spectrum=(0.0, 0.0, 0.0), law=([0.0], [(0.0, 0.0, 0.0)])),
        "zero-free-samples": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, 0, 1),
        "negative-free-samples": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, -3, 1),
        "fraction-free-samples": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, 2.5, 1),
        "bool-free-samples": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, True, 1),
        "zero-linear-a": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, n_a=0, n_b=8),
        "zero-linear-b": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, n_a=4, n_b=0),
        "fraction-linear-a": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, n_a=2.5, n_b=8),
        "fraction-linear-b": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, n_a=4, n_b=2.5),
        "negative-alpha-abs-linear": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), -0.8, n_a=4, n_b=8),
        "negative-alpha-abs-free": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), -0.8, 8, 1),
        "nan-alpha-abs-linear": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), math.nan, n_a=4, n_b=8),
        "inf-alpha-abs-free": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), math.inf, 8, 1),
        # Philox took the first three silently and raised OverflowError on
        # the last
        "fraction-free-seed": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, 8, 2.5),
        "negative-free-seed": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, 8, -1),
        "bool-free-seed": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, 8, True),
        "huge-free-seed": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, 8, 2**64),
    }
    names = {**{c: "n_samples" for c in calls if c.endswith("free-samples")},
             **{c: "n_a" for c in calls if c.endswith("linear-a")},
             **{c: "n_b" for c in calls if c.endswith("linear-b")},
             **{c: "alpha_abs" for c in calls if "alpha-abs" in c},
             **{c: "seed" for c in calls if c.endswith("free-seed")}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=names.get(case)):
            calls[case]()


def test_single_mode_coherent_state_elements():
    modes = ModeSet(n_int=((1, 0, 0),), lambdas=(1,), quant_volume_V=1.0,
                    cutoff=12)
    alpha = 0.6 + 0.3j
    rho = build_rho_mixture(PulseMixture(modes, [alpha], [(1.0,)], [1.0],
                                         None))
    pre = math.exp(-abs(alpha) ** 2)
    for n, m in [((0,), (0,)), ((3,), (1,)), ((5,), (5,)), ((2,), (6,))]:
        want = pre * alpha ** n[0] * np.conj(alpha) ** m[0] \
            / math.sqrt(math.factorial(n[0]) * math.factorial(m[0]))
        assert abs(rho.element(n, m) - want) < 1e-12


def test_mixture_trace_and_positivity(grid_ensemble):
    pulses, rho = grid_ensemble
    assert 0.998 < rho.trace() < 1.0
    d = rho.dense()
    assert float(np.max(np.abs(d - d.conj().T))) < 1e-14
    assert float(np.linalg.eigvalsh(d).min()) > -1e-10
    modes8 = three_mode_example(cutoff=8)
    p8 = linear_phase_ensemble(modes8, (1.0, 1.0, 1.0), 1.0, n_a=4, n_b=8)
    assert abs(build_rho_mixture(p8).trace() - 1.0) < 1e-9


def test_survivor_equals_b_sum(grid_ensemble):
    """The element allowed by both phase sum rules keeps its full positive
    magnitude through the average."""
    pulses, rho = grid_ensemble
    n, m = (1, 0, 1), (0, 2, 0)
    surv = rho.element(n, m)
    assert surv.real > 0.01
    assert abs(surv.imag) < 1e-15
    assert abs(surv - b_coefficient_sum(pulses, n, m)) < 1e-12


def test_selection_rules_exact_on_grid(grid_ensemble):
    pulses, rho = grid_ensemble
    summary = linear_phase_selection_rules(pulses, rho)
    assert summary.all_clean
    assert summary.max_violating_magnitude == 0.0
    assert len(summary.satisfying) > 0
    # photon-number rule: total occupation differs by one
    assert rho.element((1, 0, 0), (0, 0, 0)) == 0.0
    # momentum rule: equal totals but k1 != k2
    assert rho.element((1, 0, 0), (0, 1, 0)) == 0.0


def test_selection_rules_reject_free_ensembles():
    modes = three_mode_example(cutoff=2)
    ens = free_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0, 16, 3)
    with pytest.raises(ValueError):
        linear_phase_selection_rules(ens, build_rho_mixture(ens))


def test_free_phases_suppress_all_coherences():
    """Independent phases shrink every off-diagonal element to a random
    walk of length B_nm / sqrt(N); B_nm itself is a hard ceiling."""
    cutoff = 3
    modes = three_mode_example(cutoff=cutoff)
    B = np.outer(*(2 * [_textbook_vector([1.0 / math.sqrt(3.0)] * 3,
                                         cutoff)]))
    off = ~np.eye(B.shape[0], dtype=bool)
    for n_samples in (4096, 10_000):
        ens = free_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0, n_samples, 11)
        dd = np.abs(build_rho_mixture(ens).dense())
        assert np.all(dd[off] <= B[off] * (1.0 + 1e-12))
        assert float(np.max(dd[off] / B[off])) <= 3.0 / math.sqrt(n_samples)


def test_free_phase_decay_rate():
    """Frobenius norm of the off-diagonal part falls as 1/sqrt(N)."""
    modes = three_mode_example(cutoff=2)
    sizes = [256, 2048, 16384]
    norms = np.zeros(len(sizes))
    for seed in range(2000, 2012):
        for i, n_samples in enumerate(sizes):
            ens = free_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0,
                                      n_samples, seed)
            d = build_rho_mixture(ens).dense()
            norms[i] += np.linalg.norm(d - np.diag(np.diag(d)))
    slope = np.polyfit(np.log(sizes), np.log(norms / 12.0), 1)[0]
    assert -0.6 < slope < -0.4, slope


def test_thermal_occupations_and_diagonality(ctx):
    modes = ModeSet(n_int=((1, 0, 0), (2, 0, 0), (3, 0, 0)),
                    lambdas=(1, 1, 1), quant_volume_V=(2e-6) ** 3, cutoff=14)
    rho = thermal_rho_dis(modes, ctx)
    assert rho.truncation_mass < 1e-8
    assert math.isclose(rho.truncation_mass, 7.723910622203789e-09,
                        rel_tol=1e-6)
    kmag = np.linalg.norm(modes.k_vectors, axis=1)
    exact = 1.0 / np.expm1(ctx.beta * ctx.hbar * ctx.c * kmag)
    np.testing.assert_allclose(mean_photon_numbers(rho), exact, rtol=1e-5)
    assert coherence_scan(rho, 0.0) == []
    assert abs(rho.trace() + rho.truncation_mass - 1.0) <= 1e-15


def test_thermal_cutoff_override_keeps_all_tuples(ctx):
    """A cutoff above the ModeSet's describes the whole truncated state."""
    small = three_mode_example((2e-6) ** 3, cutoff=3)
    rho = thermal_rho_dis(small, ctx, cutoff=14)
    full = thermal_rho_dis(ModeSet(n_int=small.n_int, lambdas=small.lambdas,
                                   quant_volume_V=small.quant_volume_V,
                                   cutoff=14), ctx)
    assert rho.modes.cutoff == 14
    assert rho.elements == full.elements
    assert abs(rho.trace() + rho.truncation_mass - 1.0) <= 1e-15
    np.testing.assert_array_equal(mean_photon_numbers(rho),
                                  mean_photon_numbers(full))


def _mpmath_thermal_mass(modes, ctx):
    """1 - prod_j (1 - q_j^{cutoff + 1}), q_j = e^{-beta hbar c |k_j|}, at
    60 digits."""
    kmag = np.linalg.norm(modes.k_vectors, axis=1)
    with mpmath.workdps(60):
        kept = mpmath.mpf(1)
        for k in kmag:
            x = (mpmath.mpf(ctx.beta) * mpmath.mpf(ctx.hbar)
                 * mpmath.mpf(ctx.c) * mpmath.mpf(float(k)))
            kept *= 1 - mpmath.exp(-(modes.cutoff + 1) * x)
        return float(1 - kept)


@pytest.mark.parametrize("side, cutoff", [(2e-6, 14), (2e-6, 3), (2e-5, 6)])
def test_thermal_truncation_mass_matches_mpmath(ctx, side, cutoff):
    """fock-demo's thermal state (2 um, cutoff 14) drops 7.72391037683e-9;
    1 - kept read 7.723910622e-9 there, 3.2e-8 relative off.  The trace is
    what the cutoff keeps."""
    rho = thermal_rho_dis(three_mode_example(side**3, cutoff), ctx)
    want = _mpmath_thermal_mass(rho.modes, ctx)
    assert abs(rho.truncation_mass - want) <= 1e-14 * want
    assert abs(rho.trace() + rho.truncation_mass - 1.0) <= 1e-15


def test_thermal_vacuum_limit(ctx):
    modes = ModeSet(n_int=((1, 0, 0),), lambdas=(1,),
                    quant_volume_V=(1e-9) ** 3, cutoff=2)
    rho = thermal_rho_dis(modes, ctx)
    assert rho.element((0,), (0,)) == 1.0 + 0.0j
    assert mean_photon_numbers(rho)[0] == 0.0
    assert rho.truncation_mass == 0.0


def test_thermal_rejects_zero_wavevector(ctx):
    modes = ModeSet(n_int=((0, 0, 0),), lambdas=(1,), quant_volume_V=1.0,
                    cutoff=2)
    with pytest.raises(ValueError):
        thermal_rho_dis(modes, ctx)


def test_mode_set_validation():
    with pytest.raises(ValueError):
        ModeSet(n_int=((1, 0, 0),), lambdas=(1,), quant_volume_V=1.0,
                cutoff=0)
    with pytest.raises(ValueError):
        ModeSet(n_int=((1, 0, 0),), lambdas=(2,), quant_volume_V=1.0,
                cutoff=2)
    with pytest.raises(ValueError):
        ModeSet(n_int=((1, 0, 0), (1, 0, 0)), lambdas=(1, 1),
                quant_volume_V=1.0, cutoff=2)
    with pytest.raises(ValueError):
        ModeSet(n_int=((1, 0, 0),), lambdas=(1, -1), quant_volume_V=1.0,
                cutoff=2)
    with pytest.raises(ValueError):
        ModeSet(n_int=((1, 0, 0),), lambdas=(1,), quant_volume_V=0.0,
                cutoff=2)
    # these used to give dimension 3.5, a mode off the lattice, or a failure
    # only later with RuntimeWarnings
    ok = dict(n_int=((1, 0, 0),), lambdas=(1,), quant_volume_V=1.0, cutoff=2)
    for name, bad in (("cutoff", 2.5), ("n_int", ((1.5, 0, 0),)),
                      ("quant_volume_V", math.inf)):
        with pytest.raises(ValueError, match=name):
            ModeSet(**{**ok, name: bad})
    # lists used to raise "unhashable type" from the distinct-modes check
    listed = ModeSet(n_int=[[1, 0, 0], np.array([2, 0, 0])], lambdas=[1, -1],
                     quant_volume_V=1.0, cutoff=2)
    assert listed == ModeSet(n_int=((1, 0, 0), (2, 0, 0)), lambdas=(1, -1),
                             quant_volume_V=1.0, cutoff=2)
    assert type(listed.n_int[1][0]) is int and type(listed.lambdas) is tuple
    with pytest.raises(ValueError, match="distinct"):
        ModeSet(n_int=[[1, 0, 0], [1, 0, 0]], lambdas=[1, 1],
                quant_volume_V=1.0, cutoff=2)


def test_dimension_caps(ctx):
    big = ModeSet(n_int=tuple((i, 0, 0) for i in range(1, 8)),
                  lambdas=(1,) * 7, quant_volume_V=1.0, cutoff=7)
    with pytest.raises(ValueError, match="4096"):
        build_rho_mixture(PulseMixture(big, [1.0], [np.eye(7)[0]], [1.0],
                                       None))
    # the thermal builder had no cap: 17^3 = 4913 tuples used to be built
    with pytest.raises(ValueError, match="4096"):
        thermal_rho_dis(three_mode_example(cutoff=2), ctx, cutoff=16)
    mid = ModeSet(n_int=((1, 0, 0), (2, 0, 0)), lambdas=(1, 1),
                  quant_volume_V=1.0, cutoff=99)
    with pytest.raises(ValueError, match="4096"):
        build_rho_mixture(PulseMixture(mid, [1.0], [(1.0, 0.0)], [1.0], None))


def test_pulse_validation():
    """A mixture checks its arrays once, when it is made, and keeps
    read-only copies of them."""
    modes = three_mode_example(cutoff=2)
    s = 1.0 / math.sqrt(3.0)
    b0 = [(0.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="normalized"):
        _pulse(spectrum=(1.0, 1.0, 1.0))
    assert _pulse(law=([0.0], b0)).law[0].tolist() == [0.0]
    with pytest.raises(ValueError, match="linear law"):
        _pulse(spectrum=(s, s * 1.0j, s), law=([0.0], b0))
    with pytest.raises(ValueError, match="probabilities"):
        _pulse(prob=0.7)
    with pytest.raises(ValueError, match="probabilities"):
        PulseMixture(modes, [1.0, 1.0], [_FLAT, _FLAT], [-0.5, 1.5], None)
    for shapes in (dict(alpha=[1.0, 1.0]), dict(spectrum=(1.0, 0.0)),
                   dict(prob=[1.0]), dict(law=([0.0, 0.0], b0)),
                   dict(law=([0.0], [(0.0, 0.0)]))):
        with pytest.raises(ValueError, match="N pulses"):
            _pulse(**shapes)
    F = np.array([_FLAT])
    mix = PulseMixture(modes, [1.0], F, [1.0], None)
    F[0, 0] = 2.0
    assert mix.F[0, 0] == s
    for arr in (mix.alpha, mix.F, mix.probs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_b_sum_positive_and_zero_mode_rule():
    modes = three_mode_example(cutoff=3)
    pulses = linear_phase_ensemble(modes, (1.0, 1.0, 0.0), 1.0, n_a=4,
                                   n_b=8)
    assert b_coefficient_sum(pulses, (1, 1, 0), (2, 0, 0)) > 0.0
    assert b_coefficient_sum(pulses, (0, 0, 1), (0, 0, 1)) == 0.0
