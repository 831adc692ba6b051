"""Exact propagation of the driven cavity and simulated photon counting.

Integrates i*hbar dpsi/dt = (H0 + W cos(Omega t)) psi on the truncated basis
with Lawson's integrating-factor RK4 (Lawson 1967, SIAM J. Numer. Anal. 4:372;
Hochbruck & Ostermann, Exponential integrators, Acta Numerica 2010): classic
RK4 on the interaction-picture state a = exp(i H0 t/hbar) psi. The diagonal
H0 = hbar*omega*log N is applied exactly, so RK4 only follows the weak O(lambda)
drive. The full cosine drive is kept (no rotating-wave approximation) so the
closed-form first-order results are genuinely tested instead of assumed. The
kernel is specialised to the star couplings every model uses: vacuum <->
excited elements only, the one shape CouplingOperator stores. Norm drift is a
measured error signal: the state is never renormalized, and drift past
tolerance raises instead of being hidden.

Measurement draws multinomial photon-count shots from the Born weights.
First-order driving leaves most of the population in the vacuum, so readout
post-selects on non-vacuum shots; an all-vacuum record is reported as
inconclusive rather than raised.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityBasis, CouplingOperator, DriveConfig
from .encoding import OccupationVector, factorize
from .errors import ConfigurationError, PropagationError

STABILITY_NUMBER = 0.05  # max admissible dt * (max|E| + lambda) / hbar
NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes over basis labels; position i holds label i+1."""

    amplitudes: np.ndarray

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def vacuum_state(basis: CavityBasis) -> WaveFunction:
    amp = np.zeros(basis.n_max, dtype=complex)
    amp[0] = 1.0
    return WaveFunction(amp)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one propagation run; states[k] belongs to times[k]."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> WaveFunction:
        return WaveFunction(self.states[-1])

    @property
    def norm_drift(self) -> float:
        """Worst deviation of any sampled norm from one."""
        return float(np.abs(np.linalg.norm(self.states, axis=1) - 1.0).max())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.states) ** 2


def max_stable_dt(basis: CavityBasis, coupling: CouplingOperator) -> float:
    """Largest step admitted by the gate dt*(max|E| + lambda)/hbar <= 0.05.

    The gate bounds the step against the fastest phase in the problem; it is
    a stability/accuracy floor, not a drift guarantee. run_prepare steps at
    half of it, where norm drift stays near 1e-12.
    """
    scale = float(basis.energy_vector[-1]) + coupling.strength
    return STABILITY_NUMBER * basis.units.hbar / scale


def step_count(t_final: float, dt: float) -> int:
    """Number of fixed steps propagate takes: dt shrinks to divide t_final, never grows.

    Raises ValueError naming the argument when t_final is not finite and
    non-negative or dt is not finite and positive.
    """
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and non-negative (got {t_final})")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive (got {dt})")
    return max(1, math.ceil(t_final / dt - 1e-12))


def propagate(
    psi0: WaveFunction,
    basis: CavityBasis,
    coupling: CouplingOperator,
    drive: DriveConfig,
    t_final: float,
    dt: float,
    sample_stride: int = 1,
    norm_tol: float = NORM_TOLERANCE,
) -> Trajectory:
    """Fixed-step Lawson RK4 run from t=0 to t_final; deterministic.

    Stores every sample_stride-th step plus the final state. The step count
    comes from step_count, which also rejects a non-finite or out-of-range
    t_final or dt. Raises ConfigurationError for a dt that violates the step
    gate (the message names the maximum admissible dt), and PropagationError
    when the sampled norm drifts past norm_tol.
    """
    steps = step_count(t_final, dt)
    if psi0.dimension != basis.n_max or coupling.n_max != basis.n_max:
        raise ValueError("state, coupling, and basis dimensions must agree")
    if not 2 <= drive.target <= basis.n_max:
        raise ValueError(f"drive target {drive.target} outside basis 1..{basis.n_max}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")

    if t_final == 0:
        times = np.array([0.0])
        states = psi0.amplitudes[None, :].copy()
        return Trajectory(times=times, states=states)

    gate = max_stable_dt(basis, coupling)
    if dt > gate * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} violates the step gate; maximum admissible dt is {gate:.9g}"
        )

    h = t_final / steps

    # Lawson RK4 in lab-frame form, with N(t, y) = -i cos(Omega t) W y / hbar:
    #   k1 = N(t, psi)              k2 = N(t + h/2, P (psi + h/2 k1))
    #   k3 = N(t + h/2, P psi + h/2 k2)   k4 = N(t + h, F psi + h P k3)
    #   psi' = F psi + h/6 (F k1 + 2 P (k2 + k3) + k4)
    # with P = exp(-i E h / 2hbar) and F = P^2 applying H0 exactly. The star
    # W y = y[0] col + (w.y) e0, with col = conj(w) and w[0] = 0, makes every
    # stage k_j = a_j col + b_j e0. So one product gives the four scalars a
    # step reads, (w.psi, w.(P psi), w.(F psi), psi[0]); the stage scalars
    # follow from them with sum|w|^2 and sum|w|^2 P, and P[0] = F[0] = 1
    # because the vacuum energy is exactly zero; one combination of the rows
    # of `spread` adds the stages back.
    w = coupling.vacuum_row
    col = np.conj(w)
    p = np.exp((-0.5j * h / basis.units.hbar) * np.asarray(basis.energy_vector, dtype=float))
    f = p * p
    e0 = np.zeros(basis.n_max, dtype=complex)
    e0[0] = 1.0
    gather = np.array([w, w * p, w * f, e0])
    spread = np.array([f * col, p * col, col, e0])
    s_ww = complex(np.vdot(w, w))
    s_wpw = complex(w @ (p * col))
    rate = -1j / basis.units.hbar
    omega_drive = drive.frequency
    half, sixth, third = 0.5 * h, h / 6.0, h / 3.0

    # each step builds a new psi, so samples can hold it without a copy
    psi = psi0.amplitudes.astype(complex, copy=True)
    sample_times = [0.0]
    sample_states = [psi]
    s_end = rate  # cos(0) at the start of the first step
    for k in range(1, steps + 1):
        s_start = s_end
        s_mid = rate * math.cos(omega_drive * ((k - 0.5) * h))
        s_end = rate * math.cos(omega_drive * (k * h))
        w_psi, w_ppsi, w_fpsi, psi_0 = gather.dot(psi).tolist()
        a1 = s_start * psi_0
        b1 = s_start * w_psi
        a2 = s_mid * (psi_0 + half * b1)
        b2 = s_mid * (w_ppsi + half * a1 * s_wpw)
        a3 = s_mid * (psi_0 + half * b2)
        b3 = s_mid * (w_ppsi + half * a2 * s_ww)
        a4 = s_end * (psi_0 + h * b3)
        b4 = s_end * (w_fpsi + h * a3 * s_wpw)
        coef = [sixth * a1, third * (a2 + a3), sixth * a4,
                sixth * (b1 + 2.0 * (b2 + b3) + b4)]
        psi = f * psi + np.dot(coef, spread)
        if k % sample_stride == 0 or k == steps:
            sample_times.append(k * h)
            sample_states.append(psi)

    trajectory = Trajectory(times=np.array(sample_times), states=np.array(sample_states))
    drift = trajectory.norm_drift
    if drift > norm_tol:
        raise PropagationError(
            f"norm drift {drift:.3e} exceeds tolerance {norm_tol:g}; reduce dt below {h:.3e}"
        )
    return trajectory


def occupation_probabilities(psi: WaveFunction) -> np.ndarray:
    """Born weights |c_N|^2 by position N-1; requires a normalized state."""
    if abs(psi.norm() - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"state norm {psi.norm():.12f} is not 1 within {NORM_TOLERANCE:g}")
    return np.abs(psi.amplitudes) ** 2


@dataclass(frozen=True)
class MeasurementResult:
    """Photon-count record of repeated shots on one prepared state.

    counts maps label -> shots that read that label (zero entries omitted).
    readout is the occupation of the most frequent non-vacuum label, None when
    every shot landed on the vacuum (inconclusive, by post-selection).
    """

    shots: int
    counts: dict[int, int]
    readout: OccupationVector | None
    conditional_target_probability: float | None

    @property
    def inconclusive(self) -> bool:
        return self.readout is None


def sample_measurement(
    psi: WaveFunction, shots: int, seed: int, target: int | None = None
) -> MeasurementResult:
    """Draw multinomial shots from the Born weights; bit-reproducible per seed.

    Ties in the modal non-vacuum label resolve to the smallest label. When a
    target label is given, conditional_target_probability is its share of the
    non-vacuum shots.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    p = occupation_probabilities(psi)
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p / p.sum())  # normalize away float residue
    counts = {i + 1: int(c) for i, c in enumerate(draws) if c}

    excited_total = shots - int(draws[0])
    if excited_total == 0:
        return MeasurementResult(
            shots=shots, counts=counts, readout=None, conditional_target_probability=None
        )
    modal_label = int(np.argmax(draws[1:])) + 2
    conditional = None
    if target is not None:
        conditional = counts.get(target, 0) / excited_total
    return MeasurementResult(
        shots=shots,
        counts=counts,
        readout=factorize(modal_label),
        conditional_target_probability=conditional,
    )

