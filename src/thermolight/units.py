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

import math
from dataclasses import dataclass

import numpy as np

# CODATA-2018.  hbar, c and k_B are exact by SI definition; epsilon_0 is the
# 2018 recommended value.
HBAR = 1.054571817e-34        # J s
C_LIGHT = 299792458.0         # m / s
K_BOLTZMANN = 1.380649e-23    # J / K
EPSILON_0 = 8.8541878128e-12  # F / m


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
        If the temperature is not strictly positive and finite (T = inf
        would give beta = 0 and zero length and time scales).
    """
    if not 0.0 < temperature_K < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature_K}")
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
