"""Unit system: every energy in the model is a multiple of hbar*omega."""

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Units:
    """Planck constant and base mode frequency, finite normal floats, as is their product;
    natural units by default."""

    hbar: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name, value in (("hbar", self.hbar), ("omega", self.omega)):
            if not (math.isfinite(value) and value >= sys.float_info.min):
                raise ValueError(
                    f"{name} must be finite and positive, not subnormal (got {value})")
        if self.energy_scale < sys.float_info.min:
            raise ValueError(f"hbar={self.hbar:g} and omega={self.omega:g} are too small: "
                             f"hbar*omega={self.energy_scale:g} is below the smallest normal float")

    @property
    def energy_scale(self) -> float:
        return self.hbar * self.omega
