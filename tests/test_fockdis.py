import math
import warnings

import numpy as np
import pytest

from thermolight import fockdis
from thermolight.fockdis import (ModeSet, DiscretePulse, build_rho_mixture,
                                 b_coefficient_sum, coherence_scan,
                                 thermal_rho_dis, mean_photon_numbers,
                                 linear_phase_ensemble, free_phase_ensemble,
                                 make_linear_phase_pulse,
                                 linear_phase_selection_rules,
                                 three_mode_example)


@pytest.fixture(scope="module")
def grid_ensemble():
    modes = three_mode_example(cutoff=3)
    pulses = linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0)
    return modes, pulses, build_rho_mixture(modes, pulses)


def _textbook_vector(gam_abs, cutoff):
    """|<n|coherent>| for independent modes, no phases."""
    ns = np.arange(cutoff + 1)
    lg = np.array([math.lgamma(k + 1) for k in ns])
    v = None
    for g in gam_abs:
        col = np.exp(ns * np.log(g) - 0.5 * lg)
        v = col if v is None else np.kron(v, col)
    return v * math.exp(-0.5 * float(np.sum(np.asarray(gam_abs) ** 2)))


def _outer_sum_reference(modes, pulses):
    """Reference mixture: one np.outer per pulse of Fock vectors built mode by
    mode with np.kron."""
    ns = np.arange(modes.cutoff + 1)
    lg = np.array([math.lgamma(k + 1) for k in ns])
    acc = np.zeros((modes.dimension, modes.dimension), complex)
    for pulse, prob in pulses:
        gam = pulse.gammas()
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
        return modes, linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 1.0,
                                            n_a=16, n_b=64)
    if name == "free-block-edge":
        modes = three_mode_example(cutoff=3)
        n = 2 * fockdis._ROW_BLOCK + 37
        return modes, free_phase_ensemble(modes, (1.0, 2.0, 0.5), 0.9, n, 4)
    modes = ModeSet(n_int=((1, 0, 0),), lambdas=(1,), quant_volume_V=1.0,
                    cutoff=12)
    return modes, free_phase_ensemble(modes, (1.0,), 1.3, 300, 9)


@pytest.mark.parametrize("name", ["linear-grid", "free-block-edge",
                                  "single-mode"])
def test_build_matches_outer_product_oracle(name):
    modes, pulses = _oracle_case(name)
    want = _outer_sum_reference(modes, pulses)
    got = build_rho_mixture(modes, pulses).dense()
    assert float(np.max(np.abs(got - want))) < 1e-14


def test_b_sum_matches_exact_sum():
    """b_coefficient_sum equals the exactly rounded sum of its terms."""
    modes = three_mode_example(cutoff=3)
    for pulses in (linear_phase_ensemble(modes, (1.0, 1.0, 1.0), 0.8),
                   free_phase_ensemble(modes, (1.0, 2.0, 0.5), 0.9, 3000, 4)):
        for n, m in [((1, 0, 1), (0, 2, 0)), ((0, 0, 0), (0, 0, 0)),
                     ((3, 3, 3), (2, 1, 0))]:
            terms = []
            for pulse, prob in pulses:
                g = np.abs(pulse.gammas())
                log_b = sum((nj + mj) * math.log(gj)
                            - 0.5 * (math.lgamma(nj + 1) + math.lgamma(mj + 1))
                            for gj, nj, mj in zip(g, n, m))
                terms.append(prob * math.exp(log_b - float(np.sum(g**2))))
            want = math.fsum(terms)
            got = b_coefficient_sum(modes, pulses, n, m)
            assert abs(got - want) <= 2e-15 * want


def test_free_phase_ensemble_draws_frozen():
    """The array draw reproduces the recorded per-pulse Philox sequence."""
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
    for i, (alpha, spectrum) in recorded.items():
        pulse, prob = ens[i]
        assert pulse.amplitude_alpha == alpha
        assert pulse.spectrum_F == spectrum
        assert pulse.phase_law == "free" and prob == 0.2


def _ok_pulse():
    s = 1.0 / math.sqrt(3.0)
    return DiscretePulse(amplitude_alpha=1.0 + 0.0j, spectrum_F=(s, s, s))


def _build_with(pulse, prob=1.0):
    return build_rho_mixture(three_mode_example(cutoff=2), [(pulse, prob)])


@pytest.mark.parametrize("case", [
    "nan-probability", "nan-spectrum", "nan-alpha", "inf-alpha",
    "zero-magnitudes-free", "zero-magnitudes-linear",
    "zero-magnitudes-pulse", "zero-free-samples", "negative-free-samples",
    "zero-linear-a", "zero-linear-b"])
def test_invalid_fock_inputs_rejected(case):
    """Each of these used to give an empty rho with trace 0, NaN spectra, an
    empty ensemble or numpy's negative-dimension error."""
    modes = three_mode_example(cutoff=2)
    s = 1.0 / math.sqrt(3.0)
    calls = {
        "nan-probability": lambda: _build_with(_ok_pulse(), math.nan),
        "nan-spectrum": lambda: _build_with(DiscretePulse(
            amplitude_alpha=1.0 + 0.0j, spectrum_F=(math.nan, s, s))),
        "nan-alpha": lambda: _build_with(DiscretePulse(
            amplitude_alpha=complex(math.nan, 0.0), spectrum_F=(s, s, s))),
        "inf-alpha": lambda: _build_with(DiscretePulse(
            amplitude_alpha=complex(math.inf, 0.0), spectrum_F=(s, s, s))),
        "zero-magnitudes-free": lambda: free_phase_ensemble(
            modes, (0.0, 0.0, 0.0), 1.0, 8, 1),
        "zero-magnitudes-linear": lambda: linear_phase_ensemble(
            modes, (0.0, 0.0, 0.0), 1.0, n_a=4, n_b=8),
        "zero-magnitudes-pulse": lambda: make_linear_phase_pulse(
            modes, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0),
        "zero-free-samples": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, 0, 1),
        "negative-free-samples": lambda: free_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, -3, 1),
        "zero-linear-a": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, n_a=0, n_b=8),
        "zero-linear-b": lambda: linear_phase_ensemble(
            modes, (1.0, 2.0, 3.0), 1.0, n_a=4, n_b=0),
    }
    names = {"zero-free-samples": "n_samples", "negative-free-samples":
             "n_samples", "zero-linear-a": "n_a", "zero-linear-b": "n_b"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=names.get(case)):
            calls[case]()


def test_single_mode_coherent_state_elements():
    modes = ModeSet(n_int=((1, 0, 0),), lambdas=(1,), quant_volume_V=1.0,
                    cutoff=12)
    alpha = 0.6 + 0.3j
    pulse = DiscretePulse(amplitude_alpha=alpha, spectrum_F=(1.0 + 0.0j,))
    rho = build_rho_mixture(modes, [(pulse, 1.0)])
    pre = math.exp(-abs(alpha) ** 2)
    for n, m in [((0,), (0,)), ((3,), (1,)), ((5,), (5,)), ((2,), (6,))]:
        want = pre * alpha ** n[0] * np.conj(alpha) ** m[0] \
            / math.sqrt(math.factorial(n[0]) * math.factorial(m[0]))
        assert abs(rho.element(n, m) - want) < 1e-12


def test_mixture_trace_and_positivity(grid_ensemble):
    modes, pulses, rho = grid_ensemble
    assert 0.998 < rho.trace() < 1.0
    d = rho.dense()
    assert float(np.max(np.abs(d - d.conj().T))) < 1e-14
    assert float(np.linalg.eigvalsh(d).min()) > -1e-10
    modes8 = three_mode_example(cutoff=8)
    p8 = linear_phase_ensemble(modes8, (1.0, 1.0, 1.0), 1.0, n_a=4, n_b=8)
    assert abs(build_rho_mixture(modes8, p8).trace() - 1.0) < 1e-9


def test_survivor_equals_b_sum(grid_ensemble):
    """The element allowed by both phase sum rules keeps its full positive
    magnitude through the average."""
    modes, pulses, rho = grid_ensemble
    n, m = (1, 0, 1), (0, 2, 0)
    surv = rho.element(n, m)
    assert surv.real > 0.01
    assert abs(surv.imag) < 1e-15
    assert abs(surv - b_coefficient_sum(modes, pulses, n, m)) < 1e-12


def test_selection_rules_exact_on_grid(grid_ensemble):
    modes, pulses, rho = grid_ensemble
    summary = linear_phase_selection_rules(modes, pulses)
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
        linear_phase_selection_rules(modes, ens)


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
        dd = np.abs(build_rho_mixture(modes, ens).dense())
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
            d = build_rho_mixture(modes, ens).dense()
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
    assert math.isclose(rho.trace(), 1.0, rel_tol=1e-12)


def test_thermal_cutoff_override_keeps_all_tuples(ctx):
    """A cutoff above the ModeSet's describes the whole truncated state."""
    small = three_mode_example((2e-6) ** 3, cutoff=3)
    rho = thermal_rho_dis(small, ctx, cutoff=14)
    full = thermal_rho_dis(ModeSet(n_int=small.n_int, lambdas=small.lambdas,
                                   quant_volume_V=small.quant_volume_V,
                                   cutoff=14), ctx)
    assert rho.modes.cutoff == 14
    assert rho.elements == full.elements
    assert math.isclose(rho.trace(), 1.0, rel_tol=1e-12)
    np.testing.assert_array_equal(mean_photon_numbers(rho),
                                  mean_photon_numbers(full))


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


def test_dimension_caps():
    big = ModeSet(n_int=tuple((i, 0, 0) for i in range(1, 8)),
                  lambdas=(1,) * 7, quant_volume_V=1.0, cutoff=7)
    with pytest.raises(ValueError, match="10\\^6"):
        build_rho_mixture(big, [])
    mid = ModeSet(n_int=((1, 0, 0), (2, 0, 0)), lambdas=(1, 1),
                  quant_volume_V=1.0, cutoff=99)
    with pytest.raises(ValueError, match="4096"):
        build_rho_mixture(mid, [])


def test_pulse_validation():
    modes = three_mode_example(cutoff=2)
    bad_norm = DiscretePulse(amplitude_alpha=1.0 + 0.0j,
                             spectrum_F=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        bad_norm.validate(modes)
    s = 1.0 / math.sqrt(3.0)
    bad_law = DiscretePulse(amplitude_alpha=1.0 + 0.0j,
                            spectrum_F=(s, s * 1.0j, s),
                            phase_law=("linear", 0.0, (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        bad_law.validate(modes)
    ok = DiscretePulse(amplitude_alpha=1.0 + 0.0j, spectrum_F=(s, s, s))
    with pytest.raises(ValueError):
        build_rho_mixture(modes, [(ok, 0.7)])
    with pytest.raises(ValueError):
        build_rho_mixture(modes, [(ok, -0.5), (ok, 1.5)])


def test_b_sum_positive_and_zero_mode_rule():
    modes = three_mode_example(cutoff=3)
    pulses = linear_phase_ensemble(modes, (1.0, 1.0, 0.0), 1.0, n_a=4,
                                   n_b=8)
    assert b_coefficient_sum(modes, pulses, (1, 1, 0), (2, 0, 0)) > 0.0
    assert b_coefficient_sum(modes, pulses, (0, 0, 1), (0, 0, 1)) == 0.0
