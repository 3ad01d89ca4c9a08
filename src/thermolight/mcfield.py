"""Monte Carlo estimators for correlation functions of pulse mixtures.

All mixture members are coherent states, so their correlation functions
factorize into products of classical envelopes and the quantum expectation
is exactly a classical average over pulse labels: positions uniform in the
quantization cube, directions isotropic, polarization angle uniform.

Draws come from serial counter-based Philox streams keyed by (seed, stream
index): every stratum has a stream of its own, so results are
deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixturekit import WeightSpec, _LABEL_MEASURE
# transforms_direct stays importable here: perfbench/tracing.py traces it
# through this module as well as through pulsekit.
from .pulsekit import (_DEFAULT_REACH, EnvelopeTable,  # noqa: F401
                       PulseFamily, _frame_coordinates, _table_fields,
                       check_reach, envelope_batch, tail_coefficient,
                       transforms_direct)
from .units import check_count, check_seed

# the Cartesian field component both estimators correlate: z, along which
# the G2 detectors sit
_COMPONENT = 2
# factor inflating the calibrated tail coefficient in tail_intensity_bound
_TAIL_SAFETY = 3.0
# estimate_g1_mix evaluates the envelopes of _G1_ROWS draws at a time
_G1_ROWS = 4096


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


def _polar_angles(rng: np.random.Generator, n: int
                  ) -> tuple[np.ndarray, ...]:
    """Angles of n directions uniform on the sphere: mu = cos(theta) uniform
    on [-1, 1], then the azimuth phi uniform on [0, 2 pi).  Returns mu,
    sin(theta), cos(phi) and sin(phi)."""
    mu = 2.0 * rng.random(n) - 1.0
    phi = 2.0 * math.pi * rng.random(n)
    return mu, np.sqrt(1.0 - mu**2), np.cos(phi), np.sin(phi)


def _isotropic_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit vectors, uniform on the sphere (see _polar_angles)."""
    mu, st, cp, sp = _polar_angles(rng, n)
    return np.stack([st * cp, st * sp, mu], axis=1)


def _isotropic_frames(rng: np.random.Generator, n: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic m_hat and n_hat at a uniform polarization angle psi.

    m_hat = (st cos phi, st sin phi, mu) from _polar_angles, then psi is
    drawn, and n_hat = cos psi e_theta + sin psi e_phi in the plane normal
    to m_hat, with the spherical unit vectors
    e_theta = (mu cos phi, mu sin phi, -st) and e_phi = (-sin phi, cos phi, 0).
    They are orthonormal at every angle, the poles included, so n_hat is
    built from the drawn angles without cross products or a reference
    axis.  Given m_hat, a uniform psi makes n_hat uniform on that circle,
    the law of tests/oracles.py's transverse_frames at a uniform angle.
    """
    mu, st, cp, sp = _polar_angles(rng, n)
    m_hat = np.stack([st * cp, st * sp, mu], axis=1)
    psi = 2.0 * math.pi * rng.random(n)
    cs, sn = np.cos(psi), np.sin(psi)
    a = cs * mu
    n_hat = np.stack([a * cp - sn * sp, a * sp + sn * cp, -cs * st], axis=1)
    return m_hat, n_hat


def draw_batch(omega: float, n: int, seed: int, stream: int = 0,
               z_range: tuple[float, float] | None = None) -> SampleBatch:
    """Draw n pulse labels from the uniform-isotropic law over the cube.

    omega [m^3] is the cube volume (centered at the origin).  z_range
    optionally restricts the z coordinate to a sub-interval (stratified
    sampling); x and y stay uniform over the full side.
    """
    side = omega ** (1.0 / 3.0)
    rng = np.random.Generator(np.random.Philox(key=[check_seed(seed), stream]))
    r0 = (rng.random((n, 3)) - 0.5) * side
    if z_range is not None:
        lo, hi = z_range
        r0[:, 2] = lo + rng.random(n) * (hi - lo)
    m_hat, n_hat = _isotropic_frames(rng, n)
    return SampleBatch(r0=r0, m_hat=m_hat, n_hat=n_hat)


def _density_scale(weights: WeightSpec, omega: float) -> float:
    """Factor converting a per-draw average into the mixture correlation;
    1 for UnitTrace weights made for this omega."""
    return omega * _LABEL_MEASURE * weights.p_const


def check_sample_counts(n: int, n_strata: int = 1) -> None:
    """Raise ValueError unless n draws give each of an estimator's n_strata
    strata at least two, the fewest a sample variance needs.

    Both estimators call it first; callers that build tables before
    estimating call it sooner, so that bad counts fail before that work.
    """
    n, n_strata = check_count(n, "n"), check_count(n_strata, "n_strata")
    if n < 100:
        raise ValueError("n must be at least 100")
    if n < 2 * n_strata:
        raise ValueError(f"n = {n} leaves some of n_strata = {n_strata} "
                         f"strata with fewer than 2 draws, too few for an "
                         f"error bar: need n >= 2 n_strata = {2 * n_strata}")


def _draw_shell(n: int, seed: int, stream: int, r: np.ndarray,
                a: float, b: float) -> SampleBatch:
    """Labels with |r0 - r| uniform-in-volume over the shell [a, b] meters."""
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    rad = (a**3 + rng.random(n) * (b**3 - a**3)) ** (1.0 / 3.0)
    r0 = r[None, :] - rad[:, None] * _isotropic_directions(rng, n)
    m_hat, n_hat = _isotropic_frames(rng, n)
    return SampleBatch(r0=r0, m_hat=m_hat, n_hat=n_hat)


def estimate_g1_mix(family: PulseFamily, weights: WeightSpec, omega: float,
                    r: np.ndarray, tau: float, n: int, seed: int
                    ) -> EstimateWithError:
    """MC estimate of the mixture first-order function G1_ii(r, r; tau).

    Averages conj(E_i(r, 0)) * E_i(r, tau) over pulse draws and applies the
    density scale of the weight kind.  Positions are stratified in radial
    shells around r: the intensity concentrates as 1/|delta|^6, so uniform
    cube sampling would spend almost every draw where the product vanishes.
    Draws outside the cube count as zero, so one sampler serves any cube and
    r; only in cubes much smaller than the shells does it waste draws (at a
    side of 2 envelope units its error bar is about twice a uniform one's).
    Positions beyond the support ball, _DEFAULT_REACH envelope units around
    r, are not sampled and count as zero.  The intensity there is not zero:
    the default table holds 99.77% of the Parseval total within that
    radius, so the mean sits low by about 0.23% of G1.

    Each shell is drawn whole, in one Philox stream, and its envelopes are
    read _G1_ROWS draws at a time into one sample array, so the estimate
    is the same bit for bit as from one read per shell while holding a few
    MB (a 25000-draw shell read at once held about 11).
    """
    check_sample_counts(n)
    check_seed(seed)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    r = np.asarray(r, float)
    if not (math.isfinite(tau) and np.isfinite(r).all()):
        raise ValueError(f"tau and r must be finite, got {tau} and {r}")
    half = omega ** (1.0 / 3.0) / 2.0
    # the last edge is the support radius, beyond which envelopes read zero
    edges = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, _DEFAULT_REACH]) \
        * family.ctx.length_scale
    n_sh = len(edges) - 1
    per = _split_counts(n, n_sh)
    mean = 0.0 + 0.0j
    var = 0.0
    for k in range(n_sh):
        n_k = per[k]
        batch = _draw_shell(n_k, seed, k, r, float(edges[k]), float(edges[k + 1]))
        x = np.empty(n_k, complex)
        for lo in range(0, n_k, _G1_ROWS):
            rows = slice(lo, lo + _G1_ROWS)
            x[rows] = _g1_samples(family, SampleBatch(
                batch.r0[rows], batch.m_hat[rows], batch.n_hat[rows]), r, tau)
        x[np.any(np.abs(batch.r0) > half, axis=1)] = 0.0
        w_k = 4.0 * math.pi / 3.0 * (edges[k + 1] ** 3 - edges[k] ** 3) / omega
        mean += w_k * x.mean()
        var += w_k**2 * float(np.var(x)) / n_k
    scale = _density_scale(weights, omega)
    return EstimateWithError(mean=complex(mean) * scale,
                             std_error=math.sqrt(var) * scale)


def _g1_samples(family: PulseFamily, batch: SampleBatch, r: np.ndarray,
                tau: float) -> np.ndarray:
    deltas = r[None, :] - batch.r0
    a = envelope_batch(family, batch.m_hat, batch.n_hat, deltas, 0.0)
    b = a if tau == 0.0 else envelope_batch(family, batch.m_hat,
                                            batch.n_hat, deltas, tau)
    return np.conj(a[:, _COMPONENT]) * b[:, _COMPONENT]


def _g2_samples(family: PulseFamily, table: EnvelopeTable,
                batch: SampleBatch, ra: np.ndarray, rb: np.ndarray
                ) -> np.ndarray:
    """|E_a,z|^2 |E_b,z|^2 per draw, detectors at ra and rb, from table.

    One frame pass serves both detectors: every draw is checked, then only
    the draws with both detectors on the table are read; the rest are
    exactly 0, as the table would read them (see
    pulsekit._frame_coordinates).
    """
    at = _frame_coordinates(family, batch.m_hat, batch.n_hat,
                            [ra[None, :] - batch.r0, rb[None, :] - batch.r0],
                            table)
    ea, eb = _table_fields(family, table, at, _COMPONENT)
    x = np.zeros(len(batch.r0))
    x[at.rows] = np.abs(ea) ** 2 * np.abs(eb) ** 2
    return x


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

    The envelopes come from the family's table reaching `reach` (by
    default 16 envelope units, or R/2 + 1 when that is farther), which
    reads exactly zero beyond it: a draw with either detector off the
    table contributes exactly 0 and is not read, only checked (see
    _g2_samples).
    """
    check_sample_counts(n, n_strata)
    check_seed(seed)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not 0.0 <= R < math.inf:
        raise ValueError(f"R must be nonnegative and finite, got {R}")
    if reach is not None:
        check_reach(reach)
    ctx = family.ctx
    side = omega ** (1.0 / 3.0)
    ra = np.array([0.0, 0.0, -R / 2.0])
    rb = np.array([0.0, 0.0, +R / 2.0])
    if reach is None:
        reach = max(_DEFAULT_REACH, R / (2.0 * ctx.length_scale) + 1.0)
    table = family.table(0.0, reach=reach)
    edges = np.linspace(-side / 2.0, side / 2.0, n_strata + 1)
    per = _split_counts(n, n_strata)
    means = np.zeros(n_strata)
    variances = np.zeros(n_strata)
    for k in range(n_strata):
        n_k = per[k]
        batch = draw_batch(omega, n_k, seed, stream=k,
                           z_range=(float(edges[k]), float(edges[k + 1])))
        x = _g2_samples(family, table, batch, ra, rb)
        means[k] = float(x.mean())
        variances[k] = float(x.var(ddof=1)) / n_k
    scale = _density_scale(weights, omega)
    mean = float(np.mean(means))
    std_error = math.sqrt(float(np.sum(variances)) / n_strata**2)
    return EstimateWithError(mean=mean * scale, std_error=std_error * scale)


def tail_intensity_bound(family: PulseFamily, dist: float) -> float:
    """Upper bound on the single-pulse intensity at dimensionless distance
    `dist` from the pulse center, SI (V/m)^2.

    The position-space field falls off as 1/|delta|^3 (see
    pulsekit.tail_coefficient); the calibrated coefficient is inflated by
    _TAIL_SAFETY.  A dist that is not positive and finite raises ValueError
    before c3 is calibrated, and so does one so large or so small that the
    bound overflows or the cube underflows to zero.
    """
    dist = float(dist)          # Python float arithmetic raises on overflow
    if not 0.0 < dist < math.inf:
        raise ValueError(f"dist must be positive and finite, got {dist!r}")
    c3 = tail_coefficient(family)
    pref = abs(family.envelope_prefactor() * 2.0 * math.pi)
    try:
        return (pref * _TAIL_SAFETY * c3 / dist**3) ** 2
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"dist {dist!r} is too large or too small for a "
                         f"finite bound") from None


def g2_truncation_bias_bound(family: PulseFamily, R: float, reach: float,
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
