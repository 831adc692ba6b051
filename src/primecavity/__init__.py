"""Simulator of a cavity whose mode frequencies are the logs of the primes.

Integers map to photon occupations (one mode per prime), a weak periodic
drive prepares the level encoding a chosen number, and photon counting reads
its factorization back out. The package also measures how the preparation
time and energy scale with the target.
"""

__version__ = "0.1.0"

from .cavity import (
    COUPLING_MODELS,
    CavityBasis,
    CouplingOperator,
    DriveConfig,
    build_basis,
    build_coupling,
    verify_reachability,
)
from .dynamics import (
    MeasurementResult,
    Trajectory,
    max_stable_dt,
    occupation_probabilities,
    propagate,
    sample_measurement,
    vacuum_state,
)
from .encoding import (
    MAX_COMPOSED,
    OccupationVector,
    compose,
    factorize,
    format_occupation,
    is_prime,
    level_energy,
    occupation_strings,
    upper_gap,
)
from .errors import ConfigurationError, PropagationError
from .experiments import (
    FitResult,
    PrepareReport,
    ScalingRecord,
    ScalingStudy,
    SpectrumColumns,
    fit_loglog,
    run_invariant_checks,
    run_prepare,
    run_scaling,
    run_spectrum,
)
from .perturbation import (
    FIRST_ORDER_LIMIT,
    detuning,
    discrimination_time,
    excitation_probability,
    offresonant_envelope,
)
from .units import Units

__all__ = [
    "COUPLING_MODELS",
    "CavityBasis",
    "ConfigurationError",
    "CouplingOperator",
    "DriveConfig",
    "FIRST_ORDER_LIMIT",
    "FitResult",
    "MAX_COMPOSED",
    "MeasurementResult",
    "OccupationVector",
    "PrepareReport",
    "PropagationError",
    "ScalingRecord",
    "ScalingStudy",
    "SpectrumColumns",
    "Trajectory",
    "Units",
    "build_basis",
    "build_coupling",
    "compose",
    "detuning",
    "discrimination_time",
    "excitation_probability",
    "factorize",
    "fit_loglog",
    "format_occupation",
    "is_prime",
    "level_energy",
    "max_stable_dt",
    "occupation_probabilities",
    "occupation_strings",
    "offresonant_envelope",
    "propagate",
    "run_invariant_checks",
    "run_prepare",
    "run_scaling",
    "run_spectrum",
    "sample_measurement",
    "upper_gap",
    "vacuum_state",
    "verify_reachability",
]
