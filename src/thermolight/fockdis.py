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

A mixture is one PulseMixture: the amplitudes alpha (N,), spectra F
(N x M) and probabilities p (N,) of its N pulses on one ModeSet, with the
linear law of their phases when they follow one.  It checks them once,
when it is made, and keeps read-only copies, so what reads it checks
nothing again.  The gammas alpha_s F_sj form an N x M array.  A product
coherent state's Fock amplitudes factor over modes,

    <n|psi> = prod_j a_j(n_j),
    log a_j(n) = n log gamma_j - log(n!) / 2 - |gamma_j|^2 / 2,

so a block of pulses takes one table of M (cutoff + 1) one-mode logs per
pulse and one exponential per entry, and each pulse's Kronecker product
of its M one-mode vectors gives its amplitudes in fock_tuples() order.
rho = Psi^T diag(p) Psi* then accumulates as one GEMM per block of
_ROW_BLOCK pulses, so no N x dim matrix is ever held.  b_coefficient_sum
reads the moduli of the same one-mode logs.  The mass a cutoff drops is in
closed form: a pulse keeps prod_j P(Poisson(|gamma_j|^2) <= cutoff).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammainc, gammaln

from .units import PhysicalContext, check_count, check_seed

# A mixture accumulates rho over _ROW_BLOCK pulses at a time, each block a
# _ROW_BLOCK x dim amplitude matrix; entries below _DROP_TOL times the
# largest are not stored.  Spectra must be normalized, linear phase laws
# hold and probabilities sum to 1, to _PULSE_TOL.
# linear_phase_selection_rules sorts the coherences above _SCAN_TOL.
# Neither builder allocates for more than _MAX_DIMENSION Fock tuples.
_ROW_BLOCK = 256
_DROP_TOL = 1e-16
_PULSE_TOL = 1e-12
_SCAN_TOL = 1e-12
_MAX_DIMENSION = 4096


@dataclass(frozen=True)
class ModeSet:
    """Discrete modes: integer lattice vectors, helicities, volume, cutoff."""

    n_int: tuple[tuple[int, int, int], ...]
    lambdas: tuple[int, ...]
    quant_volume_V: float
    cutoff: int

    def __post_init__(self):
        check_count(self.cutoff, "cutoff")
        if not all(len(v) == 3 and all(isinstance(c, (int, np.integer))
                                       for c in v) for v in self.n_int):
            raise ValueError("n_int must hold integer lattice 3-vectors")
        if len(self.n_int) != len(self.lambdas):
            raise ValueError("n_int and lambdas must have equal length")
        if any(lam not in (-1, 1) for lam in self.lambdas):
            raise ValueError("helicities must be +-1")
        # kept as tuples of ints, so that lists are accepted and hashable
        object.__setattr__(self, "n_int",
                           tuple(tuple(int(c) for c in v) for v in self.n_int))
        object.__setattr__(self, "lambdas",
                           tuple(int(lam) for lam in self.lambdas))
        if len(set(zip(self.n_int, self.lambdas))) != len(self.n_int):
            raise ValueError("modes must be distinct")
        if not 0.0 < self.quant_volume_V < math.inf:
            raise ValueError(f"quant_volume_V must be positive and finite, "
                             f"got {self.quant_volume_V}")

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


def _check_dimension(modes: ModeSet) -> None:
    if modes.dimension > _MAX_DIMENSION:
        raise ValueError(f"Hilbert dimension {modes.dimension} exceeds "
                         f"{_MAX_DIMENSION}; reduce cutoff or modes")


def _frozen(value, dtype) -> np.ndarray:
    """A read-only copy of value as a dtype array."""
    arr = np.array(value, dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PulseMixture:
    """N multimode coherent pulses on modes, with their probabilities.

    Pulse s has amplitude alpha[s] and spectrum F[s] (one entry per mode,
    sum_j |F_sj|^2 = 1), so its mode amplitudes are gamma_sj = alpha_s
    F_sj, and it enters with probability probs[s].  law is None for free
    phases, or (a, b) with a of length N and b of shape N x 3 when
    arg(gamma_sj) = a_s + b_s . k_j wherever gamma_sj != 0.  Making one
    raises ValueError unless all of this holds; the arrays are read-only
    copies, so it keeps holding.
    """

    modes: ModeSet
    alpha: np.ndarray
    F: np.ndarray
    probs: np.ndarray
    law: tuple[np.ndarray, np.ndarray] | None

    def __post_init__(self):
        for name, dtype in (("alpha", complex), ("F", complex),
                            ("probs", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        if self.law is not None:
            a, b = self.law
            object.__setattr__(self, "law", (_frozen(a, float),
                                             _frozen(b, float)))
        alpha, F, probs, law = self.alpha, self.F, self.probs, self.law
        n = probs.size
        if (probs.shape != (n,) or alpha.shape != (n,)
                or F.shape != (n, self.modes.n_modes)
                or law is not None and (law[0].shape != (n,)
                                        or law[1].shape != (n, 3))):
            raise ValueError("a mixture of N pulses needs alpha and probs of "
                             "length N, F of shape N x n_modes and a law of "
                             "a (N,) and b (N x 3)")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("pulse amplitudes must be finite")
        norm = np.sum(np.abs(F) ** 2, axis=1)
        if not np.all(np.abs(norm - 1.0) <= _PULSE_TOL):
            raise ValueError("spectrum must be normalized to 1")
        if law is not None:
            gam = self.gammas
            expect = law[0][:, None] + law[1] @ self.modes.k_vectors.T
            mism = np.angle(gam * np.exp(-1j * expect))[np.abs(gam) > 0]
            if not np.all(np.abs(mism) <= _PULSE_TOL):
                raise ValueError("phases do not follow the declared linear "
                                 "law")
        if not (np.all(probs >= 0.0)
                and abs(float(probs.sum()) - 1.0) <= _PULSE_TOL):
            raise ValueError("pulse probabilities must be finite, nonnegative "
                             "and sum to 1")

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def gammas(self) -> np.ndarray:
        """N x M mode amplitudes alpha_s F_sj."""
        return self.alpha[:, None] * self.F


def _mode_logs(gammas: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """M x len(ns) x N logs of the one-mode amplitudes a_j(n) of each row of
    gammas (N x M), for the counts n in ns; pulses run along the last axis.

    The real part is -inf where gamma_j = 0 < n, so that exp gives an exact
    0 there.
    """
    mag = np.abs(gammas.T)[:, None, :]
    ns = ns[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        n_log = np.where(ns > 0, ns * np.log(mag), 0.0)
    re = n_log - 0.5 * gammaln(ns + 1.0) - 0.5 * mag**2
    return re + 1j * (ns * np.angle(gammas.T)[:, None, :])


def _amplitudes(gammas: np.ndarray, cutoff: int) -> np.ndarray:
    """(cutoff + 1)^M x N Fock amplitudes <n|psi_s>, n in fock_tuples()
    order: the Kronecker product of each pulse's one-mode vectors."""
    per_mode = np.exp(_mode_logs(gammas, np.arange(cutoff + 1)))
    psi = per_mode[0]
    for a in per_mode[1:]:
        psi = (psi[:, None, :] * a).reshape(-1, psi.shape[1])
    return psi


def _dropped_mass(pulses: PulseMixture) -> float:
    """Probability mass of the mixture beyond the cutoff of any mode.

    Pulse s keeps prod_j P(Poisson(|gamma_sj|^2) <= cutoff), one minus the
    regularized gamma P(cutoff + 1, |gamma_sj|^2); the sum of logs and
    expm1 keep the dropped share accurate when it is tiny, and it is 1 when
    a mode keeps nothing.
    """
    tail = gammainc(pulses.modes.cutoff + 1.0, np.abs(pulses.gammas) ** 2)
    with np.errstate(divide="ignore"):
        kept_log = np.log1p(-tail).sum(axis=1)
    return float(pulses.probs @ -np.expm1(kept_log))


@dataclass(frozen=True)
class DenseDensityMatrix:
    """Sparse-keyed density matrix over Fock tuples, dense on demand.

    truncation_mass is the probability the state puts beyond the cutoff;
    the elements are not renormalized, so trace + truncation_mass = 1.
    """

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


def build_rho_mixture(pulses: PulseMixture) -> DenseDensityMatrix:
    """Density matrix of a probabilistic mixture of coherent pulses.

    rho = Psi^T diag(p) Psi*, where row s of Psi holds the Fock amplitudes
    of pulse s; it accumulates over blocks of _ROW_BLOCK pulses.  Entries
    below _DROP_TOL times the largest are not stored.  truncation_mass is
    the probability the pulses put beyond the cutoff.
    """
    modes = pulses.modes
    _check_dimension(modes)
    dim = modes.dimension
    gammas, probs = pulses.gammas, pulses.probs
    acc = np.zeros((dim, dim), complex)
    for lo in range(0, len(probs), _ROW_BLOCK):
        psi = _amplitudes(gammas[lo:lo + _ROW_BLOCK], modes.cutoff)
        acc += (psi * probs[lo:lo + _ROW_BLOCK]) @ psi.conj().T
    mag = np.abs(acc)
    rows, cols = np.nonzero(mag > _DROP_TOL * float(mag.max()))
    tuples = modes.fock_tuples()
    elements = {(tuples[i], tuples[j]): v for i, j, v in
                zip(rows.tolist(), cols.tolist(), acc[rows, cols].tolist())}
    return DenseDensityMatrix(modes=modes, elements=elements,
                              truncation_mass=_dropped_mass(pulses))


def b_coefficient_sum(pulses: PulseMixture, n: tuple[int, ...],
                      m: tuple[int, ...]) -> float:
    """sum_sigma B_{nm;sigma}: the positive magnitude part of rho_nm.

    B = p |<n|psi>| |<m|psi>| = p e^{-|alpha|^2}
    prod_j |gamma_j|^{n_j + m_j} / sqrt(n_j! m_j!), from the same one-mode
    logs as build_rho_mixture, taken at the counts of n and m, which may
    exceed the cutoff.
    """
    fock = np.array([n, m])
    if fock.shape != (2, pulses.modes.n_modes) or np.any(fock < 0):
        raise ValueError("n and m must be Fock tuples with one count per mode")
    logs = _mode_logs(pulses.gammas, fock.ravel()).real
    j = np.arange(fock.shape[1])
    log_b = (logs[j, j] + logs[j, j + len(j)]).sum(axis=0)
    return float(np.sum(pulses.probs * np.exp(log_b)))


def coherence_scan(rho: DenseDensityMatrix, tolerance: float
                   ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (n, m) pairs with n != m somewhere and |rho_nm| > tolerance."""
    out = [(n, m) for (n, m), v in rho.elements.items()
           if n != m and abs(v) > tolerance]
    return sorted(out)


def thermal_rho_dis(modes: ModeSet, ctx: PhysicalContext,
                    cutoff: int | None = None) -> DenseDensityMatrix:
    """Product of per-mode thermal diagonals, truncated at the cutoff.

    Per mode, p(n) = (1 - q) q^n with q = e^{-beta hbar c |k|}.  The
    diagonal is not renormalized: as for build_rho_mixture, trace +
    truncation_mass = 1, the mass being 1 - prod_j (1 - q_j^{cutoff + 1})
    formed from logs so that it stays accurate when tiny.
    """
    if cutoff is None:
        cutoff = modes.cutoff
    modes = replace(modes, cutoff=cutoff)
    _check_dimension(modes)
    kmag = np.linalg.norm(modes.k_vectors, axis=1)
    if np.any(kmag == 0.0):
        raise ValueError("zero wavevector has no occupation weight")
    x = ctx.beta * ctx.hbar * ctx.c * kmag
    q = np.exp(-x)
    per_mode = -np.expm1(-x)[:, None] * q[:, None] ** np.arange(cutoff + 1)
    diag = per_mode[0]
    for p in per_mode[1:]:
        diag = np.kron(diag, p)
    tuples = modes.fock_tuples()
    elements = {(n, n): complex(diag[i]) for i, n in enumerate(tuples)
                if diag[i] > 0.0}
    kept_log = float(np.sum(np.log1p(-np.exp(-(cutoff + 1) * x))))
    # 0.0 - rather than unary minus, so that the vacuum limit reads +0.0
    return DenseDensityMatrix(modes=modes, elements=elements,
                              truncation_mass=0.0 - math.expm1(kept_log))


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


def linear_phase_ensemble(modes: ModeSet, magnitudes, alpha_abs: float,
                          n_a: int = 16, n_b: int = 64) -> PulseMixture:
    """Deterministic grid over the phase parameters a and b.

    a runs over n_a points of [0, 2 pi); b over n_b points per lattice axis
    actually used by the modes, spanning the reciprocal unit cell so that
    every b . k phase wraps exactly.  Grid sizes must exceed the largest
    possible photon-number imbalance for the modular sums to be exact.
    Pulses run over a slowest, then b_x, b_y, b_z.
    """
    if not 0.0 <= alpha_abs < math.inf:
        raise ValueError(f"alpha_abs must be nonnegative and finite, got {alpha_abs}")
    n_a, n_b = check_count(n_a, "n_a"), check_count(n_b, "n_b")
    side = modes.quant_volume_V ** (1.0 / 3.0)
    used_axes = [ax for ax in range(3)
                 if any(v[ax] != 0 for v in modes.n_int)]
    a_vals = 2.0 * math.pi * np.arange(n_a) / n_a
    b_axis = side * np.arange(n_b) / n_b
    b_grids = [b_axis if ax in used_axes else np.array([0.0]) for ax in range(3)]
    grid = np.meshgrid(a_vals, *b_grids, indexing="ij")
    a = grid[0].ravel()
    b = np.stack([g.ravel() for g in grid[1:]], axis=1)
    mags = _unit_magnitudes(modes, magnitudes)
    return PulseMixture(modes, alpha_abs * np.exp(1j * a),
                        mags * np.exp(1j * (b @ modes.k_vectors.T)),
                        np.full(len(a), 1.0 / len(a)), (a, b))


def free_phase_ensemble(modes: ModeSet, magnitudes, alpha_abs: float,
                        n_samples: int, seed: int) -> PulseMixture:
    """Independent uniform phases on every mode (and on alpha).

    Pulse s takes row s of the draws: its n_modes mode phases, then the
    phase of alpha.
    """
    if not 0.0 <= alpha_abs < math.inf:
        raise ValueError(f"alpha_abs must be nonnegative and finite, got {alpha_abs}")
    n_samples = check_count(n_samples, "n_samples")
    rng = np.random.Generator(np.random.Philox(key=[check_seed(seed), 0]))
    mags = _unit_magnitudes(modes, magnitudes)
    phases = 2.0 * math.pi * rng.random((n_samples, modes.n_modes + 1))
    return PulseMixture(modes, alpha_abs * np.exp(1j * phases[:, -1]),
                        mags * np.exp(1j * phases[:, :-1]),
                        np.full(n_samples, 1.0 / n_samples), None)


# ---------------------------------------------------------------------------
# selection rules


@dataclass(frozen=True)
class SelectionRuleSummary:
    satisfying: list
    violating: list
    max_violating_magnitude: float
    all_clean: bool


def linear_phase_selection_rules(pulses: PulseMixture,
                                 rho: DenseDensityMatrix
                                 ) -> SelectionRuleSummary:
    """Check which off-diagonal survivors obey both phase sum rules.

    rho is build_rho_mixture(pulses), which must follow a linear law.  Its
    coherences above _SCAN_TOL sort by whether sum(n - m) = 0 and
    sum n_int (n - m) = 0 hold.  For exact grid ensembles the violating
    list must be empty and at least one satisfying element nonzero.
    """
    if pulses.law is None:
        raise ValueError("selection rules apply to linear-phase ensembles")
    lattice = np.asarray(pulses.modes.n_int, int)
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
