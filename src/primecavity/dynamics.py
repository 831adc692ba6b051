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
from functools import cached_property

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


class _Kernel:
    """Lawson RK4 steps of length h, the tables they run on, and the period map.

    stages(starts) stacks the 4x4 stage matrices A_k of the steps from each
    time in starts; chunks(a) fuses each _CHUNK consecutive ones into a chunk
    matrix; run(x, table) takes the steps (4x4) or chunks of a table in order;
    operators(j), the (F^j, H_j, S_j) of a j-step update, is built on first use.

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

    j steps are one exact update x <- F^j x + S_j (T (H_j x)). The gathers
    G F^i (i < j) hold 2j + 2 distinct rows, w P^k (k <= 2j) and e0, stacked in
    H_j; the spreads F^i S hold col P^k (S_j, k falling) and e0, last in both,
    so G = H_1 and S = S_1. For J = _CHUNK, T is built by doubling from T = A_k:
    with lo and hi the rows of H_2m with k <= 2m and with k >= 2m, each with e0,
    an m-step chunk T_a followed by T_b is T[lo, lo] = T_a, T[hi, hi] += T_b,
    T[hi, lo] += T_b Phi_m T_a, Phi_m = H_m S_m (rows lo of H_J, the last 2m + 2
    columns of S_J). x is n x m, a state (m = 1) or a basis (m = r); run
    overwrites it and holds one more n x m buffer.

    The product of the F^j a half period applies repeats P's rounding in every
    step, so it drifts from D_h = exp(-iE (K/2) h/hbar) in proportion to K, and
    the drift would repeat every half period. On a periodic kernel (half = K/2)
    advance multiplies x by fix = D_h/(that product) at every half-period end,
    so only the rounding of one half period's steps is ever in flight, and the
    period map takes the exact D_h.
    """

    def __init__(self, basis: CavityBasis, coupling: CouplingOperator, frequency: float,
                 h: float, half: int = 1, periodic: bool = False):
        self.frequency, self.h, self.half = frequency, h, half  # half: steps a table spans
        self.block_steps = _CHUNK * max(1, _TABLE_BYTES // (16 * (2 * _CHUNK + 2) ** 2))
        self.w, self.col = coupling.vacuum_row, np.conj(coupling.vacuum_row)
        self.e0 = np.eye(1, basis.n_max, dtype=complex)[0]
        x, e = h / basis.units.hbar, np.asarray(basis.energy_vector, dtype=float)
        self.p = np.exp((-0.5j * x) * e)
        s_ww, s_wpw = (x * (x * complex(s)) for s in (np.vdot(self.w, self.w),
                                                      self.w @ (self.p * self.col)))
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
        self.stage_table = ((-1j) ** degree[:, None, None] / 6 * table).reshape(9, 16)
        self.built = {}  # j -> operators(j)
        self.block = None, None, None  # b, its stage matrices, their chunk matrices
        self.d_h = self.fix = None
        if periodic:
            self.d_h = np.exp((-1j * (half * x)) * e)[:, None]
            product = np.ones((basis.n_max, 1), dtype=complex)  # the F^j of half a period
            for j in [_CHUNK] * (half // _CHUNK) + [1] * (half % _CHUNK):
                product *= self.operators(j)[0]
            self.fix = self.d_h / product

    def stages(self, starts: np.ndarray) -> np.ndarray:
        h = self.h
        c1, c2, c3 = (np.cos(self.frequency * t) for t in (starts, starts + 0.5 * h, starts + h))
        c22 = c2 * c2
        monomials = np.stack([c1, c2, c3, c1 * c2, c22, c2 * c3, c1 * c22, c22 * c3,
                              c1 * c22 * c3], axis=1)
        return (monomials @ self.stage_table).reshape(-1, 4, 4)

    def operators(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if j not in self.built:
            powers = np.cumprod([np.ones_like(self.p), *[self.p] * (2 * j)], axis=0)  # P^0 .. P^2j
            h_op = np.vstack([self.w * powers, self.e0])
            s_op = np.column_stack([(powers[::-1] * self.col).T, self.e0])
            self.built[j] = powers[-1][:, None], h_op, s_op  # F^j, H_j, S_j
        return self.built[j]

    def chunks(self, a: np.ndarray) -> np.ndarray:
        _, h_op, s_op = self.operators(_CHUNK)
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

    def run(self, x: np.ndarray, table: np.ndarray) -> np.ndarray:
        f_j, h_j, s_j = self.operators(table.shape[-1] // 2 - 1)  # j-step tables are 2j + 2 wide
        buf = np.empty(x.shape, dtype=complex)  # C order, as np.dot(out=) requires
        for t in table:
            np.dot(s_j, t.dot(h_j.dot(x)), out=buf)  # dot: less call overhead than @
            x *= f_j
            x += buf
        return x

    def tables(self, b: int, chunked: bool) -> np.ndarray:  # block b's stage or chunk matrices
        if self.block[0] != b:
            steps = np.arange(b * self.block_steps, min((b + 1) * self.block_steps, self.half))
            self.block = b, self.stages(steps * self.h), None
        if chunked and self.block[2] is None:
            a = self.block[1]
            self.block = b, a, self.chunks(a[: len(a) - len(a) % _CHUNK])
        return self.block[2 if chunked else 1]

    def advance(self, x, k, stop, period_map=None):  # steps k -> stop: maps, chunks, steps
        half, rows = self.half, self.block_steps
        while k < stop:
            if period_map is not None and k % (2 * half) == 0 and stop - k >= 2 * half:
                d, a, vh = period_map
                x, k = d * x + a.dot(vh.dot(x)), k + 2 * half
                continue
            mirrored, j = divmod(k % (2 * half), half)
            b, i = divmod(j, rows)
            if j % _CHUNK == 0 and min(half - j, stop - k) >= _CHUNK:
                count = min(half - j, rows - i, stop - k) // _CHUNK
                table = self.tables(b, True)[i // _CHUNK : i // _CHUNK + count]
                taken = count * _CHUNK
            else:
                count = min(_CHUNK - j % _CHUNK, half - j, stop - k)
                table, taken = self.tables(b, False)[i : i + count], count
            if mirrored:  # a second-half run is Pi (the first-half run) Pi
                x[1:] *= -1
            x, k = self.run(x, table), k + taken
            if mirrored:
                x[1:] *= -1
            if self.fix is not None and k % half == 0:
                x *= self.fix
        return x

    def build_map(self, v):  # (D, A, V^H) of a period U = Pi U_h Pi U_h, U_h a half, from V
        d, vh = self.d_h, v.conj().T
        s = self.advance(v, 0, self.half)  # S = U_h V: V stepped in place through half a period
        # A = U V - D V = D_h A_h + Pi A_h (V^H Pi S), A_h = S - D_h V, D = D_h^2 (Pi V spans V)
        s[0] *= -1  # Pi' = -Pi flips only the vacuum row
        m = vh.dot(s)  # V^H Pi' S
        s[0] *= -1
        width = max(1, _TABLE_BYTES // (16 * m.shape[0]))
        buf = np.empty((min(width, v.shape[0]), m.shape[0]), dtype=complex)
        for top in range(0, v.shape[0], width):  # A over S in row blocks, no n x r temporary
            a_h, d_h = s[top : top + width], d[top : top + width]
            t = np.conjugate(vh[:, top : top + width].T, out=buf[: len(a_h)])
            t *= d_h
            a_h -= t  # A_h = S - D_h V
            np.dot(a_h, m, out=t)  # Pi A_h (V^H Pi S) = Pi' A_h (V^H Pi' S)
            t[0] *= -1 if top == 0 else 1
            a_h *= d_h
            a_h += t
        return d * d, s, vh


def _map_basis(basis: CavityBasis, coupling: CouplingOperator, period: float) -> np.ndarray:
    """Orthonormal n x r basis V of all that one drive period reads of a state.

    A period reads x only through e0 and conj(w) exp(iE tau/hbar), tau in
    [0, period] (_Kernel). Chebyshev interpolation of exp(i a s), s in
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
    after. A half period goes _CHUNK steps at a time as one fused update, on
    chunks from its start; a chunk holding a sample, and steps left at a
    half-period end or the end of the run, go singly, so sample_stride changes
    the final state only by rounding (_Kernel); every half-period end corrects
    the free phases the steps applied to the exact exp(-iE T/(2 hbar)), so their
    rounding does not add up over periods. Each period applies one map U
    (Floquet; Shirley 1965, Phys. Rev. 138:B979). If a whole period holds no
    sample (sample_stride >= K), U = D + A V^H is built once from V (n x r,
    _map_basis) stepped half a period, and each sample-free period is
    x <- D x + A (V^H x), in O(n r) work and memory. One single step shorter
    than h, on a kernel built for its length with one-step operators only,
    ends the run at t_final. Samples: t = 0, multiples of sample_stride*h
    more than h/2 before t_final, and t_final.
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
    kernel = _Kernel(basis, coupling, drive.frequency, h, half, periodic=per_period > 0)
    period_map = kernel.build_map(_map_basis(basis, coupling, per_period * h)) if jump else None
    x = x[:, None]
    samples = range(sample_stride, grid, sample_stride)
    states = np.empty((len(samples) + 2, basis.n_max), dtype=complex)
    states[0] = x[:, 0]
    for row, (start, stop) in enumerate(itertools.pairwise([0, *samples, whole]), 1):
        x = kernel.advance(x, start, stop, period_map)
        states[row] = x[:, 0]  # the last row is overwritten with the state at t_final
    if (rest := t_final - whole * h) > 0:  # one closing step shorter than h
        closing = _Kernel(basis, coupling, drive.frequency, rest)
        states[-1] = closing.run(x, closing.stages(np.array([(whole % (2 * half)) * h])))[:, 0]

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

