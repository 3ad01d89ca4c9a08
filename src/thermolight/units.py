"""Physical constants, the temperature context and the rules for counts
and seeds.

Everything downstream works in the dimensionless wavenumber x = beta*hbar*c*k
and the dimensionless delay u = tau/(beta*hbar).  SI values enter and leave
through the context's length_scale (beta*hbar*c) and time_scale (beta*hbar)
alone, so the integrand tables computed at one temperature are exact at
every other temperature and the T-scaling laws of the correlation functions
become testable statements instead of numerical coincidences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# CODATA-2018.  hbar, c and k_B are exact by SI definition; epsilon_0 is the
# 2018 recommended value.
HBAR = 1.054571817e-34        # J s
C_LIGHT = 299792458.0         # m / s
K_BOLTZMANN = 1.380649e-23    # J / K
EPSILON_0 = 8.8541878128e-12  # F / m

# The library forms powers of beta hbar c up to the fourth (the G1 scale
# hbar c / (6 pi^2 eps0 (beta hbar c)^4)), and G2 is a product of two G1s,
# so its SI values carry (beta hbar c)^(-8).  make_context keeps
# beta hbar c within 10^(+-_SCALE_DECADES) m, so those eighth powers stay
# within 10^(+-184) and leave over 120 decades of float range to the SI
# constants, volumes and counts they are multiplied with.  Outside it
# fig1 returned NaN (T = 1e-40 K) or overflowed (1e40 K).  These are the
# temperatures hbar c / (k_B 10^(+-_SCALE_DECADES) m), 2.29e-26 to 2.29e20 K.
_SCALE_DECADES = 23
T_MIN_K = HBAR * C_LIGHT / K_BOLTZMANN / 10.0**_SCALE_DECADES
T_MAX_K = HBAR * C_LIGHT / K_BOLTZMANN * 10.0**_SCALE_DECADES


@dataclass(frozen=True)
class PhysicalContext:
    """Temperature plus the constants every correlation integral needs.

    length_scale and time_scale are recomputed from beta on each access so
    they can never drift out of sync with it.
    """

    temperature_K: float
    beta: float                 # 1 / (k_B T), in 1/J
    hbar: float = HBAR
    c: float = C_LIGHT
    epsilon0: float = EPSILON_0

    @property
    def length_scale(self) -> float:
        """beta * hbar * c, in meters."""
        return self.beta * self.hbar * self.c

    @property
    def time_scale(self) -> float:
        """beta * hbar, in seconds."""
        return self.beta * self.hbar


def make_context(temperature_K: float) -> PhysicalContext:
    """Build a PhysicalContext for a blackbody at the given temperature.

    Raises
    ------
    ValueError
        Unless T_MIN_K <= T <= T_MAX_K (so for NaN and inf too): the
        temperatures whose beta hbar c keeps every SI value the library
        forms inside float range.
    """
    if not T_MIN_K <= temperature_K <= T_MAX_K:
        raise ValueError(f"temperature T must lie in [{T_MIN_K:.3g}, "
                         f"{T_MAX_K:.3g}] K, where beta hbar c lies in "
                         f"[1e-{_SCALE_DECADES}, 1e{_SCALE_DECADES}] m, "
                         f"got {temperature_K!r}")
    beta = 1.0 / (K_BOLTZMANN * temperature_K)
    return PhysicalContext(temperature_K=float(temperature_K), beta=beta)


def check_count(n, name: str) -> int:
    """n as a Python int, or ValueError naming it unless it is an integer
    >= 1 (a bool is not a count)."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1:
        return int(n)
    raise ValueError(f"{name} must be an integer count >= 1, got {n!r}")


def check_seed(seed) -> int:
    """seed as a Python int, or ValueError naming it unless it is an integer
    in [0, 2**63) (a bool is not a seed)."""
    if (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and 0 <= seed < 2**63):
        return int(seed)
    raise ValueError(f"seed must be an integer in [0, 2**63), got {seed!r}")
