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
_TABLE_BYTES = 1 << 20  # chunk matrices (5 KB each at _CHUNK = 8) built and cached at once
_MAX_STEPS = 2**53  # beyond this, step times k*h are no longer distinct floats


def vacuum_state(basis: CavityBasis) -> np.ndarray:
    """The empty cavity: amplitude 1 at label 1. A state is an array whose position i
    holds the amplitude of label i+1."""
    amp = np.zeros(basis.n_max, dtype=complex)
    amp[0] = 1.0
    return amp


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one propagation run; states[k] belongs to times[k]."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

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
    """(h, K): propagate's step h = T/K and the even steps per drive period K.

    T = 2*pi/frequency, h0 = t_final/ceil(t_final/dt) is the plain grid (dt
    shrinks to divide t_final, never grows) and K = 2*ceil(T/(2*h0)), so h <=
    h0 <= dt and half periods mirror (propagate); (h0, 0) when T is
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
    steps = 2 * math.ceil(period / (2.0 * h0))
    return period / steps, steps


def _lawson_steps(basis: CavityBasis, coupling: CouplingOperator, frequency: float, h: float):
    """(stages, chunks, run, powers) for Lawson RK4 steps of length h.

    stages(starts) stacks the 4x4 stage matrices A_k of the steps from each
    time in starts; chunks(a) fuses each _CHUNK consecutive ones into a chunk
    matrix; run(x, table) takes the steps (4x4) or chunks of a table in order;
    powers stacks P^0 .. P^2J, and a j-step update scales x by F^j = powers[2j].

    With N(t, y) = -i cos(Omega t) W y / hbar, P = exp(-i E h / 2hbar), F = P^2:
      k1 = N(t, x)              k2 = N(t + h/2, P (x + h/2 k1))
      k3 = N(t + h/2, P x + h/2 k2)   k4 = N(t + h, F x + h P k3)
      x' = F x + h/6 (F k1 + 2 P (k2 + k3) + k4)
    The star W y = y[0] col + (w.y) e0 (col = conj(w), w[0] = 0) makes each
    k_j = a_j col + b_j e0, linear in g = (w.x, w.(P x), w.(F x), x[0]) since
    P[0] = F[0] = 1 (zero vacuum energy). So x' = F x + S (A_k G x) with G the
    4-row gather, S = [F col, P col, col, e0], and A_k the stage formulas on
    unit inputs g: polynomials in the drive samples cos(Omega t) at t, t + h/2
    and t + h, so nine monomials times a constant 9 x 16 table. An entry of
    degree d is c x^(d-2k) s^k (-i)^d/6, with x = h/hbar and s = x^2 (w.w) or
    x^2 (w.(P col)): the gate keeps x times every energy small, where h^3 or
    1/hbar^4 overflow.

    J = _CHUNK steps are one exact update x <- F^J x + S_J (T (H_J x)). The
    gathers G F^i (i < J) hold 2J + 2 distinct rows, w P^k (k <= 2J) and e0,
    stacked in H_J; the spreads F^i S hold col P^k (S_J, k falling) and e0,
    last in both. T is built by doubling from T = A_k for one step: with lo
    and hi the rows of H_2m with k <= 2m and with k >= 2m, each with e0, an
    m-step chunk T_a followed by T_b is T[lo, lo] = T_a, T[hi, hi] += T_b,
    T[hi, lo] += T_b Phi_m T_a, Phi_m = H_m S_m. A single step is the same kernel
    on rows 0..2 and e0 of H_J and the last 4 columns of S_J. x is n x m, a state
    (m = 1) or a basis (m = r); run overwrites it and holds one more n x m buffer.
    """
    w, col = coupling.vacuum_row, np.conj(coupling.vacuum_row)
    e0 = np.eye(1, basis.n_max, dtype=complex)[0]
    x = h / basis.units.hbar
    p = np.exp((-0.5j * x) * np.asarray(basis.energy_vector, dtype=float))
    s_ww, s_wpw = (x * (x * complex(s)) for s in (np.vdot(w, w), w @ (p * col)))
    # A_k[row, column] = sum of table[monomial, row, column] * monomial: row is
    # a1, a2 + a3, a4 or the e0 sum of b; column is the unit input g
    table = np.zeros((9, 4, 4), dtype=complex)
    for monomial, row, column, value in [
        (0, 0, 3, x), (0, 3, 0, x), (1, 1, 3, 4 * x), (1, 3, 1, 4 * x),  # c1, c2
        (2, 2, 3, x), (2, 3, 2, x), (3, 1, 0, x * x), (3, 3, 3, s_wpw),  # c3, c1 c2
        (4, 1, 1, x * x), (4, 3, 3, s_ww), (5, 2, 1, x * x), (5, 3, 3, s_wpw),  # c2^2, c2 c3
        (6, 1, 3, x * s_wpw / 2), (6, 3, 0, x * s_ww / 2),  # c1 c2^2
        (7, 2, 3, x * s_ww / 2), (7, 3, 1, x * s_wpw / 2),  # c2^2 c3
        (8, 2, 0, x * (x * s_ww) / 4), (8, 3, 3, s_wpw**2 / 4),  # c1 c2^2 c3
    ]:
        table[monomial, row, column] = value
    degree = np.array([1, 1, 1, 2, 2, 2, 3, 3, 4])
    table = ((-1j) ** degree[:, None, None] / 6 * table).reshape(9, 16)

    def stages(starts: np.ndarray) -> np.ndarray:
        c1, c2, c3 = (np.cos(frequency * t) for t in (starts, starts + 0.5 * h, starts + h))
        c22 = c2 * c2
        monomials = np.stack([c1, c2, c3, c1 * c2, c22, c2 * c3, c1 * c22, c22 * c3,
                              c1 * c22 * c3], axis=1)
        return (monomials @ table).reshape(-1, 4, 4)

    powers = np.cumprod([np.ones_like(p), *[p] * (2 * _CHUNK)], axis=0)  # P^0 .. P^2J
    h_op = np.vstack([w * powers, e0])
    s_op = np.column_stack([(powers[::-1] * col).T, e0])
    fused = powers[-1][:, None], h_op, s_op  # F^J, H_J, S_J
    single = powers[2][:, None], h_op[[0, 1, 2, -1]], s_op[:, -4:]  # F, G, S

    def chunks(a: np.ndarray) -> np.ndarray:
        t, m = a, 1
        while m < _CHUNK:  # pair consecutive m-step chunks, every pair at once
            t_a, t_b = t[0::2], t[1::2]
            lo, hi = np.array([*range(2 * m + 1), -1]), np.arange(2 * m, 4 * m + 2)  # -1: e0
            phi = h_op[lo] @ s_op[:, -2 * m - 2 :]  # H_m S_m
            t = np.zeros((len(t_a), 4 * m + 2, 4 * m + 2), dtype=complex)
            t[:, lo[:, None], lo] = t_a
            t[:, 2 * m :, 2 * m :] += t_b  # T[hi, hi]
            t[:, hi[:, None], lo] += t_b @ (phi @ t_a)
            m *= 2
        return t

    def run(x: np.ndarray, table: np.ndarray) -> np.ndarray:
        f_j, h_j, s_j = single if table.shape[-1] == 4 else fused
        buf = np.empty(x.shape, dtype=complex)  # C order, as np.dot(out=) requires
        for t in table:
            np.dot(s_j, t.dot(h_j.dot(x)), out=buf)  # dot: less call overhead than @
            x *= f_j
            x += buf
        return x

    return stages, chunks, run, powers


def _map_basis(basis: CavityBasis, coupling: CouplingOperator, period: float) -> np.ndarray:
    """Orthonormal n x r basis V of all that one drive period reads of a state.

    A period reads x only through e0 and conj(w) exp(iE tau/hbar), tau in
    [0, period] (_lawson_steps). Chebyshev interpolation of exp(i a s), s in
    [-1, 1], a = E_max period/(2 hbar), on m nodes errs by at most twice its
    coefficient tail, 4 sum_{k>=m} |J_k(a)| <= 4 sum_{k>=m} (a/2)^k/k!
    (Bernstein; Trefethen, Approximation Theory and Approximation Practice,
    Thm 4.2); m is the least count that bounds this by the float epsilon.
    V is the QR of [e0, conj(w) exp(iE tau_c/hbar)] at those nodes tau_c, or
    the n x n identity, exact and free, once m + 1 >= n.
    """
    e, hbar, n = np.asarray(basis.energy_vector, dtype=float), basis.units.hbar, basis.n_max
    a = float(e[-1]) * period / (2.0 * hbar)
    m = min(n - 1, math.floor(a / 2) + 1)  # from here on the tail ratio a/(2m + 2) is below 1
    log_term, log_tol = m * math.log(a / 2) - math.lgamma(m + 1), math.log(np.finfo(float).eps / 4)
    while m + 1 < n and log_term > log_tol + math.log1p(-a / (2 * m + 2)):
        m += 1
        log_term += math.log(a / (2 * m))
    if m + 1 >= n:
        return np.eye(n, dtype=complex)
    tau = 0.5 * period * (1 + np.cos(np.pi * (np.arange(m) + 0.5) / m))
    columns = np.conj(coupling.vacuum_row)[:, None] * np.exp((1j / hbar) * np.outer(e, tau))
    return np.linalg.qr(np.column_stack([np.eye(n, 1), columns]))[0]


def propagate(
    psi0: np.ndarray,
    basis: CavityBasis,
    coupling: CouplingOperator,
    drive: DriveConfig,
    t_final: float,
    dt: float,
    sample_stride: int = 1,
) -> Trajectory:
    """Fixed-step Lawson RK4 run from t=0 to t_final; deterministic.

    Steps are h = T/K, K per drive period T, K even (step_grid). The star
    couples only the vacuum, so Pi = diag(1, -1, ..., -1) gives Pi W Pi = -W
    and commutes with H0, and cos(Omega (t + T/2)) = -cos(Omega t): the step
    T/2 later is Pi M Pi, M the step from t. So tables cover the first K/2
    steps of a period, and second-half steps flip the sign of x[1:] before and
    after. A half period goes _CHUNK steps at a time as one fused update
    (_lawson_steps), on chunks from its start; a chunk holding a sample, and
    steps left at a half-period end or the end of the run, go singly, so
    sample_stride changes the final state only by rounding. Each period applies
    one map U (Floquet; Shirley 1965, Phys. Rev. 138:B979). If a whole period
    holds no sample (sample_stride >= K), U = D + A V^H is built once from V
    (n x r, _map_basis) stepped half a period, and each sample-free period is
    x <- D x + A (V^H x), in O(n r) work and memory.
    One single step shorter than h, the same kernel built for its length,
    ends the run at t_final. Samples: t = 0,
    multiples of sample_stride*h more than h/2 before t_final, and t_final.
    A dt past the step gate is a ConfigurationError naming the maximum
    admissible dt, and so is a coupling whose w.w overflows; a psi0 whose norm is
    off 1 by more than NORM_TOLERANCE is a ValueError, and sampled norm drift
    past it (NaN included) a PropagationError.
    """
    h, per_period = step_grid(t_final, dt, drive.frequency)  # rejects a bad t_final or dt
    x = np.array(psi0, dtype=complex)  # a copy: the run steps it in place
    if x.shape != (basis.n_max,) or coupling.n_max != basis.n_max:
        raise ValueError(f"the state must have shape ({basis.n_max},), the basis and coupling "
                         f"size (got state {x.shape}, coupling {coupling.n_max})")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    norm = float(np.linalg.norm(x))
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise ValueError(f"psi0 norm {norm:.12f} is not 1 within {NORM_TOLERANCE:g}")
    # the kernel sums w.w, which must stay finite (vdot warns of no overflow)
    if not math.isfinite(np.vdot(coupling.vacuum_row, coupling.vacuum_row).real):
        raise ConfigurationError(f"lambda={coupling.strength:g} is too large for "
                                 f"{coupling.n_max} levels: the coupling's w.w overflows")

    if t_final == 0:
        return Trajectory(times=np.array([0.0]), states=x[None, :])

    gate = max_stable_dt(basis, coupling)
    if dt > gate * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} violates the step gate; maximum admissible dt is {gate:.9g}"
        )

    whole, grid = int(t_final // h), round(t_final / h)
    jump = per_period and min(sample_stride, whole) >= per_period  # a sample-free whole period
    half = per_period // 2 or grid  # tables span half a period, or the run if it has none
    chunk = _CHUNK
    rows = chunk * max(1, _TABLE_BYTES // (16 * (2 * chunk + 2) ** 2))  # steps a block holds
    stages, chunks, run, powers = _lawson_steps(basis, coupling, drive.frequency, h)

    @lru_cache(maxsize=1)
    def block(b):  # stage matrices of the b-th block of first-half steps
        return stages(np.arange(b * rows, min((b + 1) * rows, half)) * h)

    @lru_cache(maxsize=1)
    def chunk_block(b):  # chunk matrices of the whole chunks in block b
        a = block(b)
        return chunks(a[: len(a) - len(a) % chunk])

    def advance(x, k, stop, period_map=None):  # steps k -> stop: map, whole chunks, single steps
        while k < stop:
            if period_map is not None and k % per_period == 0 and stop - k >= per_period:
                x, k = period_map(x), k + per_period
                continue
            mirrored, j = divmod(k % (2 * half), half)
            b, i = divmod(j, rows)
            if j % chunk == 0 and min(half - j, stop - k) >= chunk:
                count = min(half - j, rows - i, stop - k) // chunk
                table, taken = chunk_block(b)[i // chunk : i // chunk + count], count * chunk
            else:
                count = min(chunk - j % chunk, half - j, stop - k)
                table, taken = block(b)[i : i + count], count
            if mirrored:  # a second-half run is Pi (the first-half run) Pi
                x[1:] *= -1
            x, k = run(x, table), k + taken
            if mirrored:
                x[1:] *= -1
        return x

    def build_map():  # U = Pi U_h Pi U_h, U_h = D_h + A_h V^H the first half period
        v = _map_basis(basis, coupling, per_period * h)
        d = np.ones((basis.n_max, 1), dtype=complex)  # D_h, the diagonal the kernel applies
        for j in [chunk] * (half // chunk) + [1] * (half % chunk):
            d *= powers[2 * j][:, None]
        vh = v.conj().T
        s = advance(v, 0, half)  # S = U_h V: V stepped in place through half a period
        # A = U V - D V = D_h A_h + Pi A_h (V^H Pi S), A_h = S - D_h V, D = D_h^2 (Pi V spans V)
        s[0] *= -1  # Pi' = -Pi flips only the vacuum row
        m = vh.dot(s)  # V^H Pi' S
        s[0] *= -1
        width = max(1, _TABLE_BYTES // (16 * m.shape[0]))
        buf = np.empty((min(width, basis.n_max), m.shape[0]), dtype=complex)
        for top in range(0, basis.n_max, width):  # A over S in row blocks, no n x r temporary
            a_h, d_h = s[top : top + width], d[top : top + width]
            t = np.conjugate(vh[:, top : top + width].T, out=buf[: len(a_h)])
            t *= d_h
            a_h -= t  # A_h = S - D_h V
            np.dot(a_h, m, out=t)  # Pi A_h (V^H Pi S) = Pi' A_h (V^H Pi' S)
            t[0] *= -1 if top == 0 else 1
            a_h *= d_h
            a_h += t
        d *= d
        return lambda x: d * x + s.dot(vh.dot(x))

    period_map = build_map() if jump else None
    x = x[:, None]
    samples = range(sample_stride, grid, sample_stride)
    states = np.empty((len(samples) + 2, basis.n_max), dtype=complex)
    states[0] = x[:, 0]
    for row, (start, stop) in enumerate(itertools.pairwise([0, *samples, whole]), 1):
        x = advance(x, start, stop, period_map)
        states[row] = x[:, 0]  # the last row is overwritten with the state at t_final
    if (rest := t_final - whole * h) > 0:  # one closing step shorter than h
        stages, _, run, _ = _lawson_steps(basis, coupling, drive.frequency, rest)
        states[-1] = run(x, stages(np.array([(whole % (2 * half)) * h])))[:, 0]

    trajectory = Trajectory(times=np.array([0.0, *(s * h for s in samples), t_final]),
                            states=states)
    drift = trajectory.norm_drift
    if not drift <= NORM_TOLERANCE:  # a NaN drift fails too
        raise PropagationError(
            f"norm drift {drift:.3e} exceeds tolerance {NORM_TOLERANCE:g}; reduce dt below {h:.3e}"
        )
    return trajectory


def occupation_probabilities(psi: np.ndarray) -> np.ndarray:
    """Born weights |c_N|^2 by position N-1; requires a normalized state."""
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise ValueError(f"state norm {norm:.12f} is not 1 within {NORM_TOLERANCE:g}")
    return np.abs(psi) ** 2


@dataclass(frozen=True)
class MeasurementResult:
    """Photon-count record of repeated shots on one prepared state.

    counts maps label -> shots that read that label (zero entries omitted).
    readout is the occupation of the most frequent non-vacuum label, None when
    every shot landed on the vacuum (inconclusive, by post-selection).
    """

    counts: dict[int, int]
    readout: OccupationVector | None
    conditional_target_probability: float | None


def sample_measurement(
    psi: np.ndarray, shots: int, seed: int, target: int | None = None
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
        return MeasurementResult(counts=counts, readout=None, conditional_target_probability=None)
    modal_label = int(np.argmax(draws[1:])) + 2
    conditional = None
    if target is not None:
        conditional = counts.get(target, 0) / excited_total
    return MeasurementResult(
        counts=counts,
        readout=factorize(modal_label),
        conditional_target_probability=conditional,
    )

