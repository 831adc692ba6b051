"""Truncated state space, diagonal Hamiltonian, and vacuum-coupling operators.

The basis holds one label per integer 1..n_max; the Hamiltonian is diagonal
with entries hbar*omega*log(N). The drive operators are "star" shaped: only
vacuum <-> excited matrix elements are nonzero, which is the minimal operator
reaching every level from the vacuum. Excited-excited couplings and diagonal
shifts are deliberately absent (a diagonal part would only shift levels at
second order and muddy the first-order comparison).

Everything here is immutable after construction and safe to share across
threads; construction itself is single-threaded.
"""

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .units import Units

COUPLING_MODELS = ("star-uniform", "star-decay")


@dataclass(frozen=True)
class CavityBasis:
    """Labels 1..n_max with their level energies.

    energy_vector is the Hamiltonian's diagonal, read-only, with position i
    holding E_{i+1} = hbar*omega*log(i+1): the vacuum sits exactly at zero and
    the ladder is strictly increasing by unique factorization.
    """

    n_max: int
    units: Units
    energy_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if operator.index(self.n_max) < 2:
            raise ValueError(f"need the vacuum plus one excited level (got n_max={self.n_max})")
        if not math.isfinite(self.units.energy_scale * math.log(self.n_max)):
            raise ValueError(f"hbar*omega={self.units.energy_scale:g} is too large: "
                             f"the energy of level {self.n_max} overflows")
        if self.n_max > np.iinfo(np.intp).max // 8:  # numpy refuses these sizes outright
            raise MemoryError(f"numpy cannot hold a basis of {self.n_max} levels")
        e = self.units.energy_scale * np.log(np.arange(1, self.n_max + 1, dtype=float))
        e.setflags(write=False)
        object.__setattr__(self, "energy_vector", e)

    @property
    def labels(self) -> range:
        return range(1, self.n_max + 1)


def build_basis(n_max: int, units: Units = Units()) -> CavityBasis:
    """Basis over 1..n_max. Pick n_max >= 2*target for dynamics: off-resonant
    amplitudes fall as 1/detuning^2, so that margin controls truncation error.
    """
    return CavityBasis(n_max, units)


@dataclass(frozen=True, init=False, eq=False)
class CouplingOperator:
    """Star-shaped Hermitian transition operator, stored as its vacuum row.

    vacuum_row[i] = <vacuum|W|label i+1>; position 0 is the zero diagonal and the
    excited -> vacuum column is its conjugate. A dense matrix is validated and
    reduced to row 0. Reachability is checked apart (verify_reachability), so
    that deliberately broken operators can be built and then rejected.
    """

    model: str
    strength: float
    vacuum_row: np.ndarray

    def __init__(self, model: str, strength: float, vacuum_row=None, *, matrix=None):
        if not (math.isfinite(strength) and strength >= 0):
            raise ValueError(f"coupling strength must be finite and non-negative (got {strength})")
        if (vacuum_row is None) == (matrix is None):
            raise ValueError("give the coupling as exactly one of vacuum_row or matrix")
        if matrix is not None:
            m = np.asarray(matrix)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"coupling matrix must be square, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError("coupling entries must be finite")
            if not np.array_equal(m, m.conj().T):
                raise ValueError("coupling matrix must be exactly Hermitian")
            if np.any(m.diagonal() != 0):
                raise ValueError("coupling diagonal must vanish (pure transition operator)")
            if np.any(m[1:, 1:]):
                raise ConfigurationError("not a star coupling: nonzero excited-excited elements")
            vacuum_row = m[0]
        row = np.array(vacuum_row, dtype=complex)  # a private copy: the caller keeps its array
        if row.ndim != 1 or not row.size or row[0] != 0 or not np.all(np.isfinite(row)):
            raise ValueError("the vacuum row must be 1-d and finite, with a zero diagonal entry")
        row.setflags(write=False)
        for name, value in (("model", model), ("strength", strength), ("vacuum_row", row)):
            object.__setattr__(self, name, value)

    @property
    def n_max(self) -> int:
        return self.vacuum_row.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense n_max x n_max form, built on every access (small-n debugging)."""
        m = np.zeros((self.n_max, self.n_max), dtype=complex)
        m[0] = self.vacuum_row
        m[1:, 0] = np.conj(self.vacuum_row[1:])
        m.setflags(write=False)
        return m


def build_coupling(basis: CavityBasis, model: str, strength: float) -> CouplingOperator:
    """Star coupling of the given model and strength.

    star-uniform: <1|W|N> = strength for every N >= 2, so the first-order
    prefactor is level-independent and the sinc resonance shape is isolated.
    star-decay: <1|W|N> = strength/sqrt(N), a robustness variant probing
    whether a falling coupling changes the scaling conclusions.
    """
    if not (math.isfinite(strength) and strength > 0):
        raise ValueError(f"coupling strength must be finite and positive (got {strength})")
    n = basis.n_max
    row = np.zeros(n, dtype=complex)
    if model == "star-uniform":
        row[1:] = strength
    elif model == "star-decay":
        row[1:] = strength / np.sqrt(np.arange(2, n + 1, dtype=float))
    else:
        raise ConfigurationError(
            f"unknown coupling model {model!r}; choose one of {COUPLING_MODELS}"
        )
    if abs(row[-1]) < sys.float_info.min:  # the smallest entry in either model
        raise ValueError(f"lambda={strength:g} is too small: the coupling to level {n} is "
                         f"{abs(row[-1]):.3g}, below the smallest normal float")
    return CouplingOperator(model, strength, row)


def verify_reachability(coupling: CouplingOperator) -> bool:
    """True iff the vacuum couples to every excited level in the basis."""
    return bool(np.all(coupling.vacuum_row[1:] != 0))


@dataclass(frozen=True)
class DriveConfig:
    """Periodic drive at frequency Omega."""

    frequency: float

    def __post_init__(self):
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(f"drive frequency must be finite and positive (got {self.frequency})")

    @classmethod
    def resonant(cls, basis: CavityBasis, target: int) -> "DriveConfig":
        """Tune the drive onto the vacuum -> target transition, Omega = omega*log(target)."""
        if not 2 <= target <= basis.n_max:
            raise ValueError(f"target {target} outside excited range 2..{basis.n_max}")
        return cls(frequency=basis.units.omega * math.log(target))

