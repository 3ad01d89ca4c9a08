"""Discrete-mode density matrices for mixtures of multimode coherent states.

Modes live on the reciprocal lattice of a cubic quantization volume V:
k = (2 pi / V^{1/3}) * n_int with integer 3-vectors n_int.  A pulse is a
multimode coherent state with per-mode amplitudes gamma_j = alpha * F_j,
sum_j |F_j|^2 = 1.  Mixing pulses whose per-mode phases follow a linear law
arg(gamma_j) = a + b . k_j and averaging a over [0, 2 pi) and b over the
reciprocal unit cell kills every matrix element except those with

    sum_j (n_j - m_j) = 0      and      sum_j k_j (n_j - m_j) = 0,

and on the survivors the phase factors drop out entirely, leaving the
positive sum of B coefficients.  The averages are realized here as exact
finite grids (phases wrap exactly on the lattice), so the cancellation is
exact rather than statistical; a free-phase Monte Carlo ensemble shows the
complementary 1/sqrt(N) decay toward a fully diagonal matrix.

A mixture is built from amplitude matrices.  The gammas of its N pulses
stack into an N x M array, and the Fock amplitudes of all product coherent
states follow at once in log space,

    log <n|psi> = sum_j [n_j log gamma_j - log(n_j!) / 2 - |gamma_j|^2 / 2],

one exponential per amplitude.  rho = Psi^T diag(p) Psi* then accumulates
as one GEMM per block of _ROW_BLOCK pulses, so no N x dim matrix is ever
held.  b_coefficient_sum takes the moduli of the same logs.  Ensembles draw
their phases as arrays, and every pulse, from an ensemble, a mixture or
DiscretePulse.validate, passes the same array check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from .units import PhysicalContext

# A mixture accumulates rho over _ROW_BLOCK pulses at a time, each block a
# _ROW_BLOCK x dim amplitude matrix; entries below _DROP_TOL times the
# largest are not stored.  Spectra must be normalized, and linear phase laws
# hold, to _PULSE_TOL.  linear_phase_selection_rules sorts the coherences
# above _SCAN_TOL.
_ROW_BLOCK = 256
_DROP_TOL = 1e-16
_PULSE_TOL = 1e-12
_SCAN_TOL = 1e-12


@dataclass(frozen=True)
class ModeSet:
    """Discrete modes: integer lattice vectors, helicities, volume, cutoff."""

    n_int: tuple[tuple[int, int, int], ...]
    lambdas: tuple[int, ...]
    quant_volume_V: float
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if len(self.n_int) != len(self.lambdas):
            raise ValueError("n_int and lambdas must have equal length")
        if any(lam not in (-1, 1) for lam in self.lambdas):
            raise ValueError("helicities must be +-1")
        if len(set(zip(self.n_int, self.lambdas))) != len(self.n_int):
            raise ValueError("modes must be distinct")
        if not self.quant_volume_V > 0.0:
            raise ValueError("quantization volume must be positive")

    @property
    def n_modes(self) -> int:
        return len(self.n_int)

    @property
    def k_vectors(self) -> np.ndarray:
        scale = 2.0 * math.pi / self.quant_volume_V ** (1.0 / 3.0)
        return scale * np.asarray(self.n_int, float)

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.n_modes

    def fock_tuples(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.cutoff + 1),
                                      repeat=self.n_modes))

    def fock_array(self) -> np.ndarray:
        """fock_tuples() as a dimension x n_modes integer array."""
        shape = (self.cutoff + 1,) * self.n_modes
        return np.indices(shape).reshape(self.n_modes, -1).T


@dataclass(frozen=True)
class DiscretePulse:
    """One multimode coherent state: amplitude, normalized spectrum, phase law.

    phase_law is "free" or ("linear", a, b) with b a 3-vector; the linear
    law constrains arg(alpha F_j) = a + b . k_j per mode.
    """

    amplitude_alpha: complex
    spectrum_F: tuple[complex, ...]
    phase_law: object = "free"

    def validate(self, modes: ModeSet) -> None:
        _pulse_gammas(modes, [self])

    def gammas(self) -> np.ndarray:
        return self.amplitude_alpha * np.asarray(self.spectrum_F, complex)


def _check_pulses(modes: ModeSet, alpha: np.ndarray, F: np.ndarray,
                  law: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Raise ValueError unless every row (alpha_s, F_s) is a pulse on modes.

    alpha holds N amplitudes and F the N x M spectra.  With law = (a, b),
    a of length N and b of shape N x 3, row s must also satisfy
    arg(alpha_s F_sj) = a_s + b_s . k_j wherever F_sj != 0.
    """
    if not np.all(np.isfinite(alpha)):
        raise ValueError("pulse amplitudes must be finite")
    norm = np.sum(np.abs(F) ** 2, axis=1)
    if not np.all(np.abs(norm - 1.0) <= _PULSE_TOL):
        raise ValueError("spectrum must be normalized to 1")
    if law is not None:
        a, b = law
        gam = alpha[:, None] * F
        expect = a[:, None] + b @ modes.k_vectors.T
        mism = np.angle(gam * np.exp(-1j * expect))[np.abs(gam) > 0]
        if not np.all(np.abs(mism) <= _PULSE_TOL):
            raise ValueError("phases do not follow the declared linear law")


def _pulse_gammas(modes: ModeSet, pulses: list[DiscretePulse]) -> np.ndarray:
    """N x M mode amplitudes alpha F of the pulses, checked in one pass."""
    if any(len(p.spectrum_F) != modes.n_modes for p in pulses):
        raise ValueError("spectrum length must match the mode count")
    alpha = np.array([p.amplitude_alpha for p in pulses], complex)
    F = np.array([p.spectrum_F for p in pulses], complex)
    F = F.reshape(len(pulses), modes.n_modes)
    _check_pulses(modes, alpha, F)
    linear = [i for i, p in enumerate(pulses) if p.phase_law != "free"]
    for i in linear:
        law = pulses[i].phase_law
        if not (isinstance(law, tuple) and len(law) == 3
                and law[0] == "linear"):
            raise ValueError(f"unknown phase law {law!r}")
    if linear:
        a = np.array([pulses[i].phase_law[1] for i in linear], float)
        b = np.array([pulses[i].phase_law[2] for i in linear], float)
        _check_pulses(modes, alpha[linear], F[linear], (a, b.reshape(-1, 3)))
    return alpha[:, None] * F


def _mixture_arrays(modes: ModeSet, pulses: list[tuple[DiscretePulse, float]]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Checked N x M mode amplitudes and N probabilities of a mixture."""
    probs = np.array([p for _, p in pulses], float)
    if not (np.all(probs >= 0.0) and abs(float(probs.sum()) - 1.0) <= 1e-12):
        raise ValueError("pulse probabilities must be finite, nonnegative "
                         "and sum to 1")
    return _pulse_gammas(modes, [pulse for pulse, _ in pulses]), probs


def _log_amplitudes(gammas: np.ndarray, fock: np.ndarray) -> np.ndarray:
    """N x K logs of <n|psi_s>: psi_s the product coherent state of row s of
    gammas (N x M), n row k of fock (K x M).

    The real part is -inf where some gamma_j = 0 < n_j, so that exp gives an
    exact 0 there.
    """
    mag = np.abs(gammas)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        n_log = np.where(fock > 0, fock * np.log(mag), 0.0)
    re = (n_log.sum(axis=2) - 0.5 * gammaln(fock + 1.0).sum(axis=1)
          - 0.5 * (mag**2).sum(axis=2))
    im = (fock * np.angle(gammas)[:, None, :]).sum(axis=2)
    return re + 1j * im


@dataclass(frozen=True)
class DenseDensityMatrix:
    """Sparse-keyed density matrix over Fock tuples, dense on demand."""

    modes: ModeSet
    elements: dict = field(repr=False)
    truncation_mass: float = 0.0

    def element(self, n: tuple[int, ...], m: tuple[int, ...]) -> complex:
        return self.elements.get((tuple(n), tuple(m)), 0.0 + 0.0j)

    def diagonal(self) -> np.ndarray:
        """Real parts of rho_nn in modes.fock_tuples() order."""
        get = self.elements.get
        return np.fromiter((get((n, n), 0.0).real
                            for n in self.modes.fock_tuples()),
                           float, count=self.modes.dimension)

    def trace(self) -> float:
        return float(self.diagonal().sum())

    def dense(self) -> np.ndarray:
        tuples = self.modes.fock_tuples()
        index = {t: i for i, t in enumerate(tuples)}
        out = np.zeros((len(tuples), len(tuples)), complex)
        for (n, m), v in self.elements.items():
            out[index[n], index[m]] = v
        return out


def build_rho_mixture(modes: ModeSet,
                      pulses: list[tuple[DiscretePulse, float]]
                      ) -> DenseDensityMatrix:
    """Density matrix of a probabilistic mixture of coherent pulses.

    rho = Psi^T diag(p) Psi*, where row s of Psi holds the Fock amplitudes
    of pulse s; it accumulates over blocks of _ROW_BLOCK pulses.  Entries
    below _DROP_TOL times the largest are not stored.  The probabilities
    must be nonnegative and sum to 1.
    """
    dim = modes.dimension
    if dim > 10**6:
        raise ValueError("Hilbert dimension exceeds 10^6; reduce cutoff or modes")
    if dim > 4096:
        raise ValueError("dense accumulation capped at dimension 4096")
    gammas, probs = _mixture_arrays(modes, pulses)
    fock = modes.fock_array()
    acc = np.zeros((dim, dim), complex)
    for lo in range(0, len(probs), _ROW_BLOCK):
        psi = np.exp(_log_amplitudes(gammas[lo:lo + _ROW_BLOCK], fock))
        acc += (psi * probs[lo:lo + _ROW_BLOCK, None]).T @ psi.conj()
    mag = np.abs(acc)
    rows, cols = np.nonzero(mag > _DROP_TOL * float(mag.max()))
    tuples = modes.fock_tuples()
    elements = {(tuples[i], tuples[j]): v for i, j, v in
                zip(rows.tolist(), cols.tolist(), acc[rows, cols].tolist())}
    return DenseDensityMatrix(modes=modes, elements=elements)


def b_coefficient_sum(modes: ModeSet,
                      pulses: list[tuple[DiscretePulse, float]],
                      n: tuple[int, ...], m: tuple[int, ...]) -> float:
    """sum_sigma B_{nm;sigma}: the positive magnitude part of rho_nm.

    B = p |<n|psi>| |<m|psi>| = p e^{-|alpha|^2}
    prod_j |gamma_j|^{n_j + m_j} / sqrt(n_j! m_j!), from the same log
    amplitudes as build_rho_mixture.
    """
    fock = np.array([n, m])
    if fock.shape != (2, modes.n_modes) or np.any(fock < 0):
        raise ValueError("n and m must be Fock tuples with one count per mode")
    gammas, probs = _mixture_arrays(modes, pulses)
    logs = _log_amplitudes(gammas, fock).real
    return float(np.sum(probs * np.exp(logs[:, 0] + logs[:, 1])))


def coherence_scan(rho: DenseDensityMatrix, tolerance: float
                   ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (n, m) pairs with n != m somewhere and |rho_nm| > tolerance."""
    out = [(n, m) for (n, m), v in rho.elements.items()
           if n != m and abs(v) > tolerance]
    return sorted(out)


def thermal_rho_dis(modes: ModeSet, ctx: PhysicalContext,
                    cutoff: int | None = None) -> DenseDensityMatrix:
    """Product of per-mode occupation-weighted diagonals, renormalized.

    Per mode, p(n) = nbar^n / (1 + nbar)^{n+1} with
    nbar = 1/(e^{beta hbar c |k|} - 1); the discarded tail mass is reported
    as truncation_mass.
    """
    if cutoff is None:
        cutoff = modes.cutoff
    modes = replace(modes, cutoff=cutoff)
    kmag = np.linalg.norm(modes.k_vectors, axis=1)
    if np.any(kmag == 0.0):
        raise ValueError("zero wavevector has no occupation weight")
    ns = np.arange(cutoff + 1)
    per_mode = []
    kept = 1.0
    for k in kmag:
        x = ctx.beta * ctx.hbar * ctx.c * k
        nbar = 1.0 / math.expm1(x) if x < 700.0 else 0.0
        if nbar == 0.0:
            p = np.zeros(cutoff + 1)
            p[0] = 1.0
        else:
            p = nbar**ns / (1.0 + nbar) ** (ns + 1)
        kept *= float(p.sum())
        per_mode.append(p)
    diag = per_mode[0]
    for p in per_mode[1:]:
        diag = np.kron(diag, p)
    diag = diag / diag.sum()
    tuples = modes.fock_tuples()
    elements = {(n, n): complex(diag[i]) for i, n in enumerate(tuples)
                if diag[i] > 0.0}
    return DenseDensityMatrix(modes=modes, elements=elements,
                              truncation_mass=1.0 - kept)


def mean_photon_numbers(rho: DenseDensityMatrix) -> np.ndarray:
    """Per-mode <n> of a density matrix (diagonal part only)."""
    return rho.modes.fock_array().T @ rho.diagonal()


# ---------------------------------------------------------------------------
# ensembles


def _unit_magnitudes(modes: ModeSet, magnitudes) -> np.ndarray:
    """Per-mode spectral magnitudes scaled to unit norm."""
    mags = np.asarray(magnitudes, float)
    norm2 = float(np.sum(mags**2))
    if mags.shape != (modes.n_modes,) or not 0.0 < norm2 < math.inf:
        raise ValueError("magnitudes must be finite, one per mode and not "
                         "all zero")
    return mags / math.sqrt(norm2)


def _linear_pulses(modes: ModeSet, a: np.ndarray, b: np.ndarray,
                   mags: np.ndarray, alpha_abs: float) -> list[DiscretePulse]:
    """Pulses s with arg(gamma_j) = a_s + b_s . k_j for a (N,), b (N x 3)."""
    F = mags * np.exp(1j * (b @ modes.k_vectors.T))
    alpha = alpha_abs * np.exp(1j * a)
    _check_pulses(modes, alpha, F, (a, b))
    return [DiscretePulse(amplitude_alpha=al, spectrum_F=tuple(f),
                          phase_law=("linear", ai, tuple(bi)))
            for al, f, ai, bi in zip(alpha.tolist(), F.tolist(),
                                     a.tolist(), b.tolist())]


def make_linear_phase_pulse(modes: ModeSet, a: float, b, magnitudes,
                            alpha_abs: float) -> DiscretePulse:
    """Pulse whose mode phases follow arg(gamma_j) = a + b . k_j exactly."""
    return _linear_pulses(modes, np.array([float(a)]),
                          np.asarray(b, float).reshape(1, 3),
                          _unit_magnitudes(modes, magnitudes), alpha_abs)[0]


def linear_phase_ensemble(modes: ModeSet, magnitudes, alpha_abs: float,
                          n_a: int = 16, n_b: int = 64
                          ) -> list[tuple[DiscretePulse, float]]:
    """Deterministic grid over the phase parameters a and b.

    a runs over n_a points of [0, 2 pi); b over n_b points per lattice axis
    actually used by the modes, spanning the reciprocal unit cell so that
    every b . k phase wraps exactly.  Grid sizes must exceed the largest
    possible photon-number imbalance for the modular sums to be exact.
    Pulses run over a slowest, then b_x, b_y, b_z.
    """
    for name, count in (("n_a", n_a), ("n_b", n_b)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    side = modes.quant_volume_V ** (1.0 / 3.0)
    used_axes = [ax for ax in range(3)
                 if any(v[ax] != 0 for v in modes.n_int)]
    a_vals = 2.0 * math.pi * np.arange(n_a) / n_a
    b_axis = side * np.arange(n_b) / n_b
    b_grids = [b_axis if ax in used_axes else np.array([0.0]) for ax in range(3)]
    grid = np.meshgrid(a_vals, *b_grids, indexing="ij")
    b = np.stack([g.ravel() for g in grid[1:]], axis=1)
    pulses = _linear_pulses(modes, grid[0].ravel(), b,
                            _unit_magnitudes(modes, magnitudes), alpha_abs)
    return [(pulse, 1.0 / len(pulses)) for pulse in pulses]


def free_phase_ensemble(modes: ModeSet, magnitudes, alpha_abs: float,
                        n_samples: int, seed: int
                        ) -> list[tuple[DiscretePulse, float]]:
    """Independent uniform phases on every mode (and on alpha).

    Pulse s takes row s of the draws: its n_modes mode phases, then the
    phase of alpha.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    mags = _unit_magnitudes(modes, magnitudes)
    phases = 2.0 * math.pi * rng.random((n_samples, modes.n_modes + 1))
    F = mags * np.exp(1j * phases[:, :-1])
    alpha = alpha_abs * np.exp(1j * phases[:, -1])
    _check_pulses(modes, alpha, F)
    return [(DiscretePulse(amplitude_alpha=al, spectrum_F=tuple(f),
                           phase_law="free"), 1.0 / n_samples)
            for al, f in zip(alpha.tolist(), F.tolist())]


# ---------------------------------------------------------------------------
# selection rules


@dataclass(frozen=True)
class SelectionRuleSummary:
    satisfying: list
    violating: list
    max_violating_magnitude: float
    all_clean: bool


def linear_phase_selection_rules(modes: ModeSet,
                                 pulses: list[tuple[DiscretePulse, float]]
                                 ) -> SelectionRuleSummary:
    """Check which off-diagonal survivors obey both phase sum rules.

    Builds the mixture, scans coherences above _SCAN_TOL, and sorts them
    by whether sum(n - m) = 0 and sum n_int (n - m) = 0 hold.  For exact
    grid ensembles the violating list must be empty and at least one
    satisfying element nonzero.
    """
    for pulse, _ in pulses:
        if pulse.phase_law == "free" or pulse.phase_law[0] != "linear":
            raise ValueError("selection rules apply to linear-phase ensembles")
    rho = build_rho_mixture(modes, pulses)
    lattice = np.asarray(modes.n_int, int)
    satisfying = []
    violating = []
    worst = 0.0
    for (n, m) in coherence_scan(rho, _SCAN_TOL):
        dn = np.asarray(n, int) - np.asarray(m, int)
        rule_tot = int(dn.sum()) == 0
        rule_k = bool(np.all(lattice.T @ dn == 0))
        entry = (n, m, abs(rho.element(n, m)))
        if rule_tot and rule_k:
            satisfying.append(entry)
        else:
            violating.append(entry)
            worst = max(worst, abs(rho.element(n, m)))
    return SelectionRuleSummary(satisfying=satisfying, violating=violating,
                                max_violating_magnitude=worst,
                                all_clean=(not violating) and bool(satisfying))


def three_mode_example(quant_volume_V: float = 1.0, cutoff: int = 3
                       ) -> ModeSet:
    """Collinear lattice modes (1, 2, 3) * (2 pi / V^{1/3}) x_hat.

    These satisfy k1 - 2 k2 + k3 = 0, so the element
    <(1,0,1)| rho |(0,2,0)> passes both sum rules and survives the linear
    phase average.
    """
    return ModeSet(n_int=((1, 0, 0), (2, 0, 0), (3, 0, 0)),
                   lambdas=(1, 1, 1), quant_volume_V=quant_volume_V,
                   cutoff=cutoff)
