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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .encoding import OccupationVector, SpectrumTable, factorize
from .errors import ConfigurationError
from .units import Units

COUPLING_MODELS = ("star-uniform", "star-decay")


@dataclass(frozen=True)
class CavityBasis:
    """Labels 1..n_max with their level energies; occupations are factored on demand."""

    n_max: int
    units: Units
    spectrum: SpectrumTable

    @property
    def dimension(self) -> int:
        return self.n_max

    @property
    def labels(self) -> range:
        return range(1, self.n_max + 1)

    def occupation(self, label: int) -> OccupationVector:
        if not 1 <= label <= self.n_max:
            raise ValueError(f"label {label} outside 1..{self.n_max}")
        return factorize(label)

    def energy(self, label: int) -> float:
        return self.spectrum.energy(label)

    @property
    def energy_vector(self) -> np.ndarray:
        """Diagonal of the Hamiltonian; position i holds E_{i+1}."""
        return self.spectrum.energies[1:]


def build_basis(n_max: int, units: Units = Units()) -> CavityBasis:
    """Basis over 1..n_max. Pick n_max >= 2*target for dynamics: off-resonant
    amplitudes fall as 1/detuning^2, so that margin controls truncation error.
    """
    if n_max < 2:
        raise ValueError(f"need the vacuum plus one excited level (got n_max={n_max})")
    return CavityBasis(n_max=n_max, units=units, spectrum=SpectrumTable.build(n_max, units))


@dataclass(frozen=True, init=False)
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
            vacuum_row = m[0].copy()  # a view would keep the whole matrix alive
        row = np.asarray(vacuum_row, dtype=complex)
        if row.ndim != 1 or not row.size or row[0] != 0 or not np.all(np.isfinite(row)):
            raise ValueError("the vacuum row must be 1-d and finite, with a zero diagonal entry")
        row.setflags(write=False)
        for name, value in (("model", model), ("strength", strength), ("vacuum_row", row)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, CouplingOperator):
            return NotImplemented
        return (self.model, self.strength) == (other.model, other.strength) and np.array_equal(
            self.vacuum_row, other.vacuum_row
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which array_equal already counts as equal
        return hash((self.model, self.strength, (self.vacuum_row + 0.0).tobytes()))

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

    def vacuum_coupling(self, label: int) -> complex:
        if not 2 <= label <= self.n_max:
            raise ValueError(f"excited labels run 2..{self.n_max}, got {label}")
        return complex(self.vacuum_row[label - 1])


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
    return CouplingOperator(model=model, strength=strength, vacuum_row=row)


def verify_reachability(coupling: CouplingOperator) -> bool:
    """True iff the vacuum couples to every excited level in the basis."""
    return bool(np.all(coupling.vacuum_row[1:] != 0))


@dataclass(frozen=True)
class DriveConfig:
    """Periodic drive: frequency Omega and the level it is meant to prepare."""

    frequency: float
    target: int

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("drive frequency must be positive")
        if self.target < 2:
            raise ValueError("the drive targets an excited level (label >= 2)")

    @classmethod
    def resonant(cls, basis: CavityBasis, target: int) -> "DriveConfig":
        """Tune the drive onto the vacuum -> target transition, Omega = omega*log(target)."""
        if not 2 <= target <= basis.n_max:
            raise ValueError(f"target {target} outside excited range 2..{basis.n_max}")
        return cls(frequency=basis.units.omega * math.log(target), target=target)


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    """Dense row-major debug dump; each complex entry becomes adjacent re,im fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(matrix):
            flat = []
            for z in row:
                z = complex(z)
                flat.append(format(z.real, ".17g"))
                flat.append(format(z.imag, ".17g"))
            writer.writerow(flat)
