"""Monte Carlo estimators for correlation functions of pulse mixtures.

All mixture members are coherent states, so their correlation functions
factorize into products of classical envelopes and the quantum expectation
is exactly a classical average over pulse labels: positions uniform in the
quantization cube, directions isotropic, polarization angle uniform.

Draws come from serial counter-based Philox streams keyed by (seed, stream
index): the uniform sampler splits its draws over a fixed number of streams
and every stratum has a stream of its own, so results are deterministic for
a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixturekit import WeightSpec, _LABEL_MEASURE
# transforms_direct stays importable here: perfbench/tracing.py traces it
# through this module as well as through pulsekit.
from .pulsekit import (_DEFAULT_REACH, PulseFamily, _transverse_frames,  # noqa: F401
                       check_reach, envelope_batch, tail_coefficient,
                       transforms_direct)

# streams the uniform G1 sampler splits its draws over
_N_STREAMS = 8
# the Cartesian field component both estimators correlate: z, along which
# the G2 detectors sit
_COMPONENT = 2
# factor inflating the calibrated tail coefficient in tail_intensity_bound
_TAIL_SAFETY = 3.0


@dataclass(frozen=True)
class EstimateWithError:
    mean: complex
    std_error: float


@dataclass(frozen=True)
class SampleBatch:
    """Pulse-label draws: positions in the cube, isotropic frames."""

    r0: np.ndarray       # (n, 3) meters
    m_hat: np.ndarray    # (n, 3)
    n_hat: np.ndarray    # (n, 3)


def _isotropic_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit vectors, uniform on the sphere (cos(theta), then azimuth)."""
    mu = 2.0 * rng.random(n) - 1.0
    phi = 2.0 * math.pi * rng.random(n)
    st = np.sqrt(1.0 - mu**2)
    return np.stack([st * np.cos(phi), st * np.sin(phi), mu], axis=1)


def _isotropic_frames(rng: np.random.Generator, n: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic m_hat and a uniform polarization angle for n_hat."""
    m_hat = _isotropic_directions(rng, n)
    psi = 2.0 * math.pi * rng.random(n)
    return m_hat, _transverse_frames(m_hat, psi)


def draw_batch(omega: float, n: int, seed: int, stream: int = 0,
               z_range: tuple[float, float] | None = None) -> SampleBatch:
    """Draw n pulse labels from the uniform-isotropic law over the cube.

    omega [m^3] is the cube volume (centered at the origin).  z_range
    optionally restricts the z coordinate to a sub-interval (stratified
    sampling); x and y stay uniform over the full side.
    """
    side = omega ** (1.0 / 3.0)
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    r0 = (rng.random((n, 3)) - 0.5) * side
    if z_range is not None:
        lo, hi = z_range
        r0[:, 2] = lo + rng.random(n) * (hi - lo)
    m_hat, n_hat = _isotropic_frames(rng, n)
    return SampleBatch(r0=r0, m_hat=m_hat, n_hat=n_hat)


def _density_scale(weights: WeightSpec, omega: float) -> float:
    """Factor converting a per-draw average into the mixture correlation."""
    weights.validate()
    if weights.kind == "TraceImproper":
        return omega * _LABEL_MEASURE * weights.p_const
    return 1.0


def check_sample_counts(n: int, n_strata: int = 1) -> None:
    """Raise ValueError unless n draws fill an estimator's n_strata strata.

    Both estimators call it first; callers that build tables before
    estimating call it sooner, so that bad counts fail before that work.
    """
    if n < 100:
        raise ValueError("n must be at least 100")
    if n_strata < 1:
        raise ValueError(f"n_strata must be at least 1, got {n_strata}")
    if n < n_strata:
        raise ValueError(f"n = {n} leaves strata empty: need n >= n_strata "
                         f"= {n_strata}")


def _check_amplitude(family: PulseFamily, weights: WeightSpec) -> None:
    if abs(abs(family.alpha) ** 2 - weights.alpha_sq) > 1e-12 * weights.alpha_sq:
        raise ValueError("family amplitude inconsistent with weights.alpha_sq")


def _draw_shell(n: int, seed: int, stream: int, r: np.ndarray,
                a: float, b: float) -> SampleBatch:
    """Labels with |r0 - r| uniform-in-volume over the shell [a, b] meters."""
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    rad = (a**3 + rng.random(n) * (b**3 - a**3)) ** (1.0 / 3.0)
    r0 = r[None, :] - rad[:, None] * _isotropic_directions(rng, n)
    m_hat, n_hat = _isotropic_frames(rng, n)
    return SampleBatch(r0=r0, m_hat=m_hat, n_hat=n_hat)


def estimate_g1_mix(family: PulseFamily, weights: WeightSpec, omega: float,
                    r: np.ndarray, tau: float, n: int, seed: int,
                    k0: float | None = None) -> EstimateWithError:
    """MC estimate of the mixture first-order function G1_ii(r, r; tau).

    Averages conj(E_i(r, 0)) * E_i(r, tau) over pulse draws and applies the
    density scale of the weight kind.  When the envelope support ball
    around the detector fits inside the cube, positions are stratified in
    radial shells around r: the intensity concentrates as 1/|delta|^6, so
    uniform cube sampling would spend almost every draw where the product
    vanishes.  Draws outside the support ball contribute exactly zero and
    are accounted for deterministically.  Accumulation is chunked per
    stratum or stream.
    """
    check_sample_counts(n)
    _check_amplitude(family, weights)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    r = np.asarray(r, float)
    if not (math.isfinite(tau) and np.isfinite(r).all()):
        raise ValueError(f"tau and r must be finite, got {tau} and {r}")
    ctx = family.ctx
    scale = _density_scale(weights, omega)
    side = omega ** (1.0 / 3.0)
    support = _DEFAULT_REACH * ctx.length_scale
    stratified = (family.kind == "thermal"
                  and float(np.max(np.abs(r))) + support <= side / 2.0)

    if not stratified:
        per = _split_counts(n, _N_STREAMS)
        tot = 0.0 + 0.0j
        m2 = 0.0
        for w, n_w in enumerate(per):
            if n_w == 0:
                continue
            batch = draw_batch(omega, n_w, seed, stream=w)
            x = _g1_samples(family, batch, r, tau, k0)
            tot += x.sum()
            m2 += float(np.sum(np.abs(x) ** 2))
        mean = tot / n
        var = max(m2 / n - abs(mean) ** 2, 0.0)
        return EstimateWithError(mean=complex(mean) * scale,
                                 std_error=math.sqrt(var / n) * scale)

    # the last edge is the support radius, beyond which envelopes read zero
    edges = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, _DEFAULT_REACH]) \
        * ctx.length_scale
    n_sh = len(edges) - 1
    per = _split_counts(n, n_sh)
    mean = 0.0 + 0.0j
    var = 0.0
    for k in range(n_sh):
        n_k = per[k]
        batch = _draw_shell(n_k, seed, k, r, float(edges[k]), float(edges[k + 1]))
        x = _g1_samples(family, batch, r, tau, k0)
        w_k = 4.0 * math.pi / 3.0 * (edges[k + 1] ** 3 - edges[k] ** 3) / omega
        mean += w_k * x.mean()
        var += w_k**2 * float(np.var(x)) / n_k
    return EstimateWithError(mean=complex(mean) * scale,
                             std_error=math.sqrt(var) * scale)


def _g1_samples(family: PulseFamily, batch: SampleBatch, r: np.ndarray,
                tau: float, k0: float | None) -> np.ndarray:
    deltas = r[None, :] - batch.r0
    a = envelope_batch(family, batch.m_hat, batch.n_hat, deltas, 0.0, k0=k0)
    b = a if tau == 0.0 else envelope_batch(family, batch.m_hat,
                                            batch.n_hat, deltas, tau, k0=k0)
    return np.conj(a[:, _COMPONENT]) * b[:, _COMPONENT]


def _split_counts(n: int, parts: int) -> list[int]:
    base = n // parts
    counts = [base] * parts
    for i in range(n - base * parts):
        counts[i] += 1
    return counts


def estimate_g2_mix(family: PulseFamily, weights: WeightSpec, omega: float,
                    R: float, n: int, seed: int,
                    n_strata: int = 64, reach: float | None = None
                    ) -> EstimateWithError:
    """Stratified MC estimate of the mixture G2 for detectors R apart.

    Detectors sit at -+ (R/2) z_hat; pulse positions are stratified along z
    (the detector axis), which is where the rare both-detector overlaps
    live, so the error bar at large R is a genuine upper bound instead of
    a noisy zero.  Equal-probability strata make the merge a plain average.
    """
    check_sample_counts(n, n_strata)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not 0.0 <= R < math.inf:
        raise ValueError(f"R must be nonnegative and finite, got {R}")
    if reach is not None:
        check_reach(reach)
    if family.kind != "thermal":
        raise ValueError(f"estimate_g2_mix supports the thermal kind only, "
                         f"not {family.kind!r}")
    _check_amplitude(family, weights)
    ctx = family.ctx
    side = omega ** (1.0 / 3.0)
    ra = np.array([0.0, 0.0, -R / 2.0])
    rb = np.array([0.0, 0.0, +R / 2.0])
    if reach is None:
        reach = max(_DEFAULT_REACH, R / (2.0 * ctx.length_scale) + 1.0)
    edges = np.linspace(-side / 2.0, side / 2.0, n_strata + 1)
    per = _split_counts(n, n_strata)
    means = np.zeros(n_strata)
    variances = np.zeros(n_strata)
    for k in range(n_strata):
        n_k = per[k]
        batch = draw_batch(omega, n_k, seed, stream=k,
                           z_range=(float(edges[k]), float(edges[k + 1])))
        ea = envelope_batch(family, batch.m_hat, batch.n_hat,
                            ra[None, :] - batch.r0, 0.0, reach=reach)
        eb = envelope_batch(family, batch.m_hat, batch.n_hat,
                            rb[None, :] - batch.r0, 0.0, reach=reach)
        x = np.abs(ea[:, _COMPONENT]) ** 2 * np.abs(eb[:, _COMPONENT]) ** 2
        means[k] = float(x.mean())
        variances[k] = float(x.var(ddof=1)) / n_k if n_k > 1 else 0.0
    scale = _density_scale(weights, omega)
    mean = float(np.mean(means))
    std_error = math.sqrt(float(np.sum(variances)) / n_strata**2)
    return EstimateWithError(mean=mean * scale, std_error=std_error * scale)


def tail_intensity_bound(family: PulseFamily, dist: float) -> float:
    """Upper bound on the single-pulse intensity at dimensionless distance
    `dist` from the pulse center, SI (V/m)^2.

    The position-space field falls off as 1/|delta|^3 (see
    pulsekit.tail_coefficient); the calibrated coefficient is inflated by
    _TAIL_SAFETY.
    """
    c3 = tail_coefficient(family)
    pref = abs(family.envelope_prefactor() * 2.0 * math.pi)
    return (pref * _TAIL_SAFETY * c3 / dist**3) ** 2


def g2_truncation_bias_bound(family: PulseFamily, weights: WeightSpec,
                             R: float, reach: float,
                             g1_match: float) -> float:
    """Bound on the G2 estimator bias from zeroing envelopes beyond `reach`.

    A configuration missed by the table has a detector beyond `reach`; the
    near detector is then either inside the table, with the companion at
    distance >= R_units - reach, or itself beyond reach.  Averaging the
    near-detector intensity gives the matched first-order value g1_match,
    so the bias is at most g1_match times the sum of the two tail bounds.
    Returns an absolute bound in the units of the G2 estimate.
    """
    r_units = R / family.ctx.length_scale
    if not 0.0 < reach < r_units:
        raise ValueError("need 0 < reach < R in envelope units")
    return g1_match * (tail_intensity_bound(family, r_units - reach)
                       + tail_intensity_bound(family, reach))
