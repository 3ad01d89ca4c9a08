"""Physical constants and the temperature context.

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
