"""Unit system: every energy in the model is a multiple of hbar*omega."""

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Units:
    """Planck constant and base mode frequency, finite normal floats; natural units by default."""

    hbar: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name, value in (("hbar", self.hbar), ("omega", self.omega)):
            if not (math.isfinite(value) and value >= sys.float_info.min):
                raise ValueError(
                    f"{name} must be finite and positive, not subnormal (got {value})")

    @property
    def energy_scale(self) -> float:
        return self.hbar * self.omega
