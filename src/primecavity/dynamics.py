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
tolerance raises instead of being hidden. Whole drive periods without a sample
are jumped with one low-rank Floquet period map.

Measurement draws multinomial photon-count shots from the Born weights.
First-order driving leaves most of the population in the vacuum, so readout
post-selects on non-vacuum shots; an all-vacuum record is reported as
inconclusive rather than raised.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cavity import CavityBasis, CouplingOperator, DriveConfig
from .encoding import OccupationVector, factorize
from .errors import ConfigurationError, PropagationError

STABILITY_NUMBER = 0.05  # max admissible dt * (max|E| + lambda) / hbar
NORM_TOLERANCE = 1e-9
_CHUNK = 8  # Lawson steps fused into one kernel call (a power of two)
_TABLE_BYTES = 1 << 20  # chunk matrices (16 KB each at _CHUNK = 8) built and cached at once
_MAX_STEPS = 2**53  # beyond this, step times k*h are no longer distinct floats


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

    @cached_property
    def norm_drift(self) -> float:
        """Worst deviation of any sampled norm from one (computed once)."""
        return float(np.abs(np.linalg.norm(self.states, axis=1) - 1.0).max())


def max_stable_dt(basis: CavityBasis, coupling: CouplingOperator) -> float:
    """Largest step admitted by the gate dt*(max|E| + lambda)/hbar <= 0.05.

    The gate bounds the step against the fastest phase in the problem; it is
    a stability/accuracy floor, not a drift guarantee. run_prepare steps at
    half of it, where norm drift stays near 1e-12.
    """
    scale = float(basis.energy_vector[-1]) + coupling.strength
    return STABILITY_NUMBER * basis.units.hbar / scale


def step_grid(t_final: float, dt: float, frequency: float) -> tuple[float, int]:
    """(h, K): propagate's step h = T/K and steps per drive period K = ceil(T/h0).

    T = 2*pi/frequency and h0 = t_final/ceil(t_final/dt) is the plain grid (dt
    shrinks to divide t_final, never grows), so h <= h0 <= dt; (h0, 0) when T is
    not finite, shorter than h0 or longer than the run. Raises ValueError naming
    the argument when t_final is not finite and non-negative, dt is not finite
    and positive, or t_final/dt exceeds _MAX_STEPS.
    """
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and non-negative (got {t_final})")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive (got {dt})")
    if t_final / dt > _MAX_STEPS:
        raise ValueError(
            f"dt={dt:g} is too small: {t_final / dt:.3g} steps exceed 2**53, "
            f"past which step times k*h are no longer distinct"
        )
    h0 = t_final / max(1, math.ceil(t_final / dt - 1e-12))
    period = 2.0 * math.pi / frequency
    if not h0 <= period <= t_final:  # no whole period in the run, or not one step
        return h0, 0
    return period / math.ceil(period / h0), math.ceil(period / h0)


def _lawson_steps(basis: CavityBasis, coupling: CouplingOperator, frequency: float, h: float):
    """(stages, chunks, run, fused) for Lawson RK4 steps of length h.

    stages(starts) stacks the 4x4 stage matrices A_k of the steps from each
    time in starts; chunks(a) fuses each _CHUNK consecutive ones into a chunk
    matrix; run(x, table) takes the steps (4x4) or chunks of a table in order;
    fused(J) is (F^J, H_J, S_J), F^J being the factor run applies per row.

    With N(t, y) = -i cos(Omega t) W y / hbar, P = exp(-i E h / 2hbar), F = P^2:
      k1 = N(t, x)              k2 = N(t + h/2, P (x + h/2 k1))
      k3 = N(t + h/2, P x + h/2 k2)   k4 = N(t + h, F x + h P k3)
      x' = F x + h/6 (F k1 + 2 P (k2 + k3) + k4)
    The star W y = y[0] col + (w.y) e0 (col = conj(w), w[0] = 0) makes each
    k_j = a_j col + b_j e0, linear in g = (w.x, w.(P x), w.(F x), x[0]) since
    P[0] = F[0] = 1 (zero vacuum energy). So x' = F x + S (A_k G x) with G the
    4-row gather, S the 4-column spread, and the stage formulas evaluated on
    unit inputs g as the 4x4 matrix A_k.

    J = _CHUNK steps are one exact update x <- F^J x + S_J (T (H_J x)), where
    H_J stacks G F^i (i < J, 4J x n) and S_J = [F^(J-1) S, ..., F S, S]
    (n x 4J). The 4J x 4J chunk matrix T is built by doubling from T = A_k for
    one step: after an m-step chunk T_a, H_m x' = H_m F^m x + Phi_m T_a H_m x
    with Phi_m = H_m S_m, so T_a followed by T_b is [[T_a, 0], [T_b Phi_m T_a,
    T_b]]. (Row block i of T is A_i (E_i + sum_{l<i} G F^(i-1-l) S T_l), the
    forward substitution of the J steps.) A single step is the same kernel with
    J = 1. x is n x m, a state (m = 1) or a basis (m = r) to build the period
    map; run overwrites it and holds one more n x m buffer. The operators of each J
    are built on first use, so a run that takes no chunk builds none.
    """
    w, col = coupling.vacuum_row, np.conj(coupling.vacuum_row)
    p = np.exp((-0.5j * h / basis.units.hbar) * np.asarray(basis.energy_vector, dtype=float))
    e0 = np.eye(1, basis.n_max, dtype=complex)[0]
    gather = np.array([w, w * p, w * p * p, e0])
    spread_t = np.array([p * p * col, p * col, col, e0]).T.copy()
    f = p * p
    s_ww, s_wpw = complex(np.vdot(w, w)), complex(w @ (p * col))
    rate, half, sixth, third = -1j / basis.units.hbar, 0.5 * h, h / 6.0, h / 3.0

    def stages(starts: np.ndarray) -> np.ndarray:
        w_x, w_px, w_fx, x_0 = np.eye(4)  # row j is the unit input g = e_j
        s_start, s_mid, s_end = (
            rate * np.cos(frequency * t)[:, None] for t in (starts, starts + half, starts + h)
        )
        a1, b1 = s_start * x_0, s_start * w_x
        a2, b2 = s_mid * (x_0 + half * b1), s_mid * (w_px + half * a1 * s_wpw)
        a3, b3 = s_mid * (x_0 + half * b2), s_mid * (w_px + half * a2 * s_ww)
        a4, b4 = s_end * (x_0 + h * b3), s_end * (w_fx + h * a3 * s_wpw)
        return np.stack([sixth * a1, third * (a2 + a3), sixth * a4,
                         sixth * (b1 + 2.0 * (b2 + b3) + b4)], axis=1)

    @lru_cache(maxsize=None)
    def fused(j):  # F^J (n x 1), H_J and S_J
        powers = np.cumprod([np.ones_like(f), *[f] * j], axis=0)  # F^0 .. F^J
        h_op = (gather * powers[:j, None, :]).reshape(4 * j, -1)
        s_op = (powers[j - 1 :: -1, :, None] * spread_t[None]).transpose(1, 0, 2).reshape(-1, 4 * j)
        return powers[j][:, None].copy(), h_op, s_op

    def chunks(a: np.ndarray) -> np.ndarray:
        _, h_op, s_op = fused(_CHUNK)
        t, m = a, 1
        while m < _CHUNK:  # pair consecutive m-step chunks, every pair at once
            t_a, t_b = t[0::2], t[1::2]
            t = np.zeros((len(t_a), 8 * m, 8 * m), dtype=complex)
            t[:, : 4 * m, : 4 * m], t[:, 4 * m :, 4 * m :] = t_a, t_b
            phi = h_op[: 4 * m] @ s_op[:, -4 * m :]  # H_m S_m
            np.matmul(t_b, phi @ t_a, out=t[:, 4 * m :, : 4 * m])
            m *= 2
        return t

    def run(x: np.ndarray, table: np.ndarray) -> np.ndarray:
        f_j, h_op, s_op = fused(table.shape[-1] // 4)
        buf = np.empty(x.shape, dtype=complex)  # C order, as np.dot(out=) requires
        for t in table:
            np.dot(s_op, t.dot(h_op.dot(x)), out=buf)  # dot: less call overhead than @
            x *= f_j
            x += buf
        return x

    return stages, chunks, run, fused


def _map_basis(basis: CavityBasis, coupling: CouplingOperator, period: float) -> np.ndarray:
    """Orthonormal n x r basis V of all that one drive period reads of a state.

    A period reads x only through e0 and conj(w) exp(iE tau/hbar), tau in
    [0, period] (_lawson_steps). Chebyshev interpolation of exp(i a s), s in
    [-1, 1], a = E_max period/(2 hbar), on m nodes errs by at most twice its
    coefficient tail, 4 sum_{k>=m} |J_k(a)| <= 4 sum_{k>=m} (a/2)^k/k!
    (Bernstein; Trefethen, Approximation Theory and Approximation Practice,
    Thm 4.2); m is the least count that bounds this by the float epsilon.
    V is the QR of [e0, conj(w) exp(iE tau_c/hbar)] at those nodes tau_c;
    it is unitary when m + 1 >= n.
    """
    e, hbar, n = np.asarray(basis.energy_vector, dtype=float), basis.units.hbar, basis.n_max
    a = float(e[-1]) * period / (2.0 * hbar)
    m = min(n - 1, math.floor(a / 2) + 1)  # from here on the tail ratio a/(2m + 2) is below 1
    log_term, log_tol = m * math.log(a / 2) - math.lgamma(m + 1), math.log(np.finfo(float).eps / 4)
    while m + 1 < n and log_term > log_tol + math.log1p(-a / (2 * m + 2)):
        m += 1
        log_term += math.log(a / (2 * m))
    tau = 0.5 * period * (1 + np.cos(np.pi * (np.arange(m) + 0.5) / m))
    columns = np.conj(coupling.vacuum_row)[:, None] * np.exp((1j / hbar) * np.outer(e, tau))
    return np.linalg.qr(np.column_stack([np.eye(n, 1), columns]))[0]


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

    Steps are h = T/K, K per drive period T (step_grid). A period goes _CHUNK
    steps at a time as one fused update (_lawson_steps), on chunks from its
    start; a chunk holding a sample, and steps left at a period end or the end
    of the run, go singly, so sample_stride changes the final state only by
    rounding. Each period applies one map U (Floquet; Shirley 1965, Phys. Rev.
    138:B979). If a whole period holds no sample (sample_stride >= K), U is
    built once as D + A V^H from V (n x r, _map_basis), D (the diagonal the
    kernel applies) and A = U V - D V (V stepped one period), and each
    sample-free period is x <- D x + A (V^H x), in O(n r) work and memory.
    One step shorter than h ends the run at t_final. Samples: t = 0,
    multiples of sample_stride*h more than h/2 before t_final, and t_final.
    A dt past the step gate is a ConfigurationError naming the maximum
    admissible dt; sampled norm drift past norm_tol is a PropagationError.
    """
    h, per_period = step_grid(t_final, dt, drive.frequency)  # rejects a bad t_final or dt
    if psi0.dimension != basis.n_max or coupling.n_max != basis.n_max:
        raise ValueError("state, coupling, and basis dimensions must agree")
    if not 2 <= drive.target <= basis.n_max:
        raise ValueError(f"drive target {drive.target} outside basis 1..{basis.n_max}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")

    if t_final == 0:
        return Trajectory(times=np.array([0.0]), states=psi0.amplitudes[None, :].copy())

    gate = max_stable_dt(basis, coupling)
    if dt > gate * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} violates the step gate; maximum admissible dt is {gate:.9g}"
        )

    whole, grid = int(t_final // h), round(t_final / h)
    jump = per_period and min(sample_stride, whole) >= per_period  # a sample-free whole period
    per_period = per_period or grid  # no whole period: one table over the run
    chunk = _CHUNK
    rows = chunk * max(1, _TABLE_BYTES // (16 * (4 * chunk) ** 2))  # in-period steps a block holds
    stages, chunks, run, fused = _lawson_steps(basis, coupling, drive.frequency, h)

    @lru_cache(maxsize=1)
    def block(b):  # stage matrices of the b-th block of in-period steps
        return stages(np.arange(b * rows, min((b + 1) * rows, per_period)) * h)

    @lru_cache(maxsize=1)
    def chunk_block(b):  # chunk matrices of the whole chunks in block b
        a = block(b)
        return chunks(a[: len(a) - len(a) % chunk])

    def advance(x, k, stop, period_map=None):  # steps k -> stop: map, whole chunks, single steps
        while k < stop:
            j = k % per_period
            b, i = divmod(j, rows)
            if period_map is not None and j == 0 and stop - k >= per_period:
                x, k = period_map(x), k + per_period
            elif j % chunk == 0 and min(per_period - j, stop - k) >= chunk:
                count = min(per_period - j, rows - i, stop - k) // chunk
                x, k = run(x, chunk_block(b)[i // chunk : i // chunk + count]), k + count * chunk
            else:
                count = min(chunk - j % chunk, per_period - j, stop - k)
                x, k = run(x, block(b)[i : i + count]), k + count
        return x

    def build_map():  # U = D + A V^H, D the diagonal the kernel applies in a period
        v = _map_basis(basis, coupling, per_period * h)
        d = np.ones((basis.n_max, 1), dtype=complex)
        for j in [chunk] * (per_period // chunk) + [1] * (per_period % chunk):
            d *= fused(j)[0]
        vh = v.conj().T
        a = advance(v, 0, per_period)  # U V: V stepped in place through one period
        dv = vh.T.conj()  # V again, from V^H
        dv *= d
        a -= dv  # A = (U - D) V
        return lambda x: d * x + a.dot(vh.dot(x))

    period_map = build_map() if jump else None
    x = psi0.amplitudes.astype(complex)[:, None]
    samples = range(sample_stride, grid, sample_stride)
    states = np.empty((len(samples) + 2, basis.n_max), dtype=complex)
    states[0] = x[:, 0]
    for row, (start, stop) in enumerate(itertools.pairwise([0, *samples, whole]), 1):
        x = advance(x, start, stop, period_map)
        states[row] = x[:, 0]  # the last row is overwritten with the state at t_final
    if (rest := t_final - whole * h) > 0:  # one closing step shorter than h
        last_stages, _, last_run, _ = _lawson_steps(basis, coupling, drive.frequency, rest)
        x = last_run(x, last_stages(np.array([(whole % per_period) * h])))
    states[-1] = x[:, 0]

    trajectory = Trajectory(times=np.array([0.0, *(s * h for s in samples), t_final]),
                            states=states)
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

