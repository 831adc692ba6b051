"""Leading-order response of the driven cavity, in closed form.

With the drive tuned to level N, the detuning of level M is
Delta = omega*(log M - log N) and first-order theory for a cosine drive of
element magnitude w gives the familiar sinc-squared profile

    p_M(t) = (w/hbar)^2 * sin^2(Delta*t/2) / Delta^2,

with removable limit (w*t/(2*hbar))^2 on resonance, handled analytically.
The anti-resonant half of the cosine adds a second amplitude at detuning
Sigma = omega*(log M + log N); it is negligible against a healthy resonant
term but dominates wherever sin(Delta*t/2) passes through zero, so the
validation path can include it via counter_rotating=True.

These are leading-order results: past p ~ 0.1 (FIRST_ORDER_LIMIT) they stop
being trustworthy and callers should shrink the coupling.
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cavity import CavityBasis, CouplingOperator
from .errors import ConfigurationError
from .units import Units

FIRST_ORDER_LIMIT = 0.1

# grid resolution for the instantaneous-mode scan: the nearest-neighbor beat
# period must be resolved
_SCAN_POINTS_PER_PERIOD = 64
# competitors per block of that scan, which bounds its memory at O(block x grid)
_SCAN_BLOCK_ROWS = 1024
# discrimination_time's first competitor window N-32..N+32, the labels its search
# holds at once, and the relative slack on its bound for the levels outside
_WINDOW, _WINDOW_CELLS, _BOUND_MARGIN = 32, 1 << 16, 1e-9


def _detunings(labels, target: int, units: Units):
    """omega*log(M/N) as +-omega*log1p(|M-N|/min(M, N)); labels: an int or an array.

    Subtracting log(M) - log(N) cancels for the nearest neighbours, which set
    the discrimination time; log1p of the exact integer gap does not. Taking
    the sign apart keeps Delta(M, N) = -Delta(N, M) exact.
    """
    gap = np.asarray(labels) - target
    return units.omega * np.sign(gap) * np.log1p(np.abs(gap) / np.minimum(labels, target))


def detuning(m: int, target: int, units: Units = Units()) -> float:
    """Drive detuning of level M when the drive sits on level N."""
    if m < 2 or target < 2:
        raise ValueError("excited labels start at 2")
    return float(_detunings(m, target, units)) if m != target else 0.0


def excitation_probability(
    m: int,
    target: int,
    t: float,
    w: float,
    units: Units = Units(),
    counter_rotating: bool = False,
) -> float:
    """First-order probability of finding level M after driving for time t.

    w is the coupling magnitude |<vacuum|W|M>|. With counter_rotating=True the
    anti-resonant amplitude is added coherently before squaring.
    """
    if t < 0:
        raise ValueError("drive time must be non-negative")
    delta = detuning(m, target, units)
    hbar = units.hbar
    if not counter_rotating:
        if m == target:
            return (w * t / (2.0 * hbar)) ** 2
        return (w / hbar) ** 2 * math.sin(0.5 * delta * t) ** 2 / delta**2
    sigma = units.omega * (math.log(m) + math.log(target))
    if m == target:
        resonant = complex(t)
    else:
        resonant = (cmath.exp(1j * delta * t) - 1.0) / (1j * delta)
    anti = (cmath.exp(1j * sigma * t) - 1.0) / (1j * sigma)
    return abs(w / (2.0 * hbar) * (resonant + anti)) ** 2


def offresonant_envelope(m: int, target: int, w: float, units: Units = Units()) -> float:
    """Upper bound (w/(hbar*Delta))^2 on p_M(t) for all t; sin^2 <= 1."""
    delta = detuning(m, target, units)
    if m == target:
        raise ValueError("the resonant level grows without bound; no envelope exists")
    return (w / (units.hbar * delta)) ** 2


@dataclass(frozen=True)
class ExcitationProfile:
    """Per-label first-order probabilities at one instant; position = label - 1.

    The vacuum slot stays zero (it is the source level, not an excitation).
    """

    target: int
    time: float
    probabilities: np.ndarray

    @property
    def first_order_valid(self) -> bool:
        """False once any level exceeds FIRST_ORDER_LIMIT and the result is suspect."""
        return bool(self.probabilities.max() <= FIRST_ORDER_LIMIT)


def excitation_profile(
    basis: CavityBasis,
    coupling: CouplingOperator,
    target: int,
    t: float,
    counter_rotating: bool = False,
) -> ExcitationProfile:
    if coupling.n_max != basis.n_max:
        raise ValueError("coupling and basis dimensions differ")
    p = np.zeros(basis.n_max)
    mags = np.abs(coupling.vacuum_row)
    for i in range(1, basis.n_max):
        if mags[i]:
            p[i] = excitation_probability(
                i + 1, target, t, float(mags[i]), basis.units, counter_rotating
            )
    return ExcitationProfile(target=target, time=t, probabilities=p)


def discrimination_time(
    target: int,
    basis: CavityBasis,
    coupling: CouplingOperator,
    kappa: float = 10.0,
    mode: str = "envelope",
) -> float:
    """Drive duration after which the target beats every competitor by kappa.

    envelope mode (default, deterministic): smallest t with
    p_target(t) >= kappa * max over excited M != target of the off-resonant
    envelope. Closed form

        t = (2*sqrt(kappa)/w_target) * max_M (w_M / |Delta_M|),

    which for the uniform star reduces to 2*sqrt(kappa)/(omega*log((N+1)/N)),
    i.e. growth like 2*sqrt(kappa)*N/omega since the upper neighbor always
    sets the smallest detuning.

    instantaneous mode: first grid time from which p_target >= kappa * max_M
    p_M(t) holds throughout one full nearest-neighbor beat period, with the
    grid resolving that period to 1/64. Never later than the envelope answer.
    The scan never returns a time before half a nearest-neighbor beat,
    t >= pi/(omega*log1p(1/N)): the nearest competitor cannot be told apart
    from the target sooner (the time-energy limit), and for small kappa the
    first-order dominance would otherwise hold from the first grid point.
    With that floor t_disc*E_N stays above hbar*N*log(N) for every kappa.

    Competitors whose kappa-scaled envelope (w_M/hbar)^2/Delta_M^2 is below
    p_target at the floor are dropped first (at most 4 stay at kappa = 10):
    past the floor p_target only grows, a grid value never exceeds its envelope
    (sin^2 <= 1, rounding is monotone) and kappa*max(a, b) = max(kappa*a,
    kappa*b), so they decide no point and the result is the same to the bit.

    Only the labels N-h..N+h are read, h = 32 and then 4x wider while needed.
    A level outside has w_M/|Delta_M| <= max|w|/|Delta_edge|, Delta_edge being
    the detuning of the nearest outside label (the upper one where it exists).
    With a 1e-9 margin for rounding, the window is done once that bound is at
    most the worst ratio inside and, in instantaneous mode, its kappa-scaled
    envelope is below p_target at the floor. Values inside are computed as over
    the whole basis and a maximum is exact, so t_disc is the same to the bit.

    A ConfigurationError names kappa for a grid past memory (~64*(sqrt(kappa)/pi
    + 1) points), omega for a subnormal nearest detuning or an infinite t_disc,
    lambda for an overflowing w_M/Delta_M, and lambda and hbar for probabilities
    past the float range (both cancel from t_disc, but not from its rounding).
    """
    return _discrimination_times([target], basis, coupling, kappa, mode)[0]


def _discrimination_times(targets, basis, coupling, kappa, mode) -> list[float]:
    """discrimination_time of each target, from one windowed competitor search."""
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"kappa must be finite and >= 1 (got {kappa})")
    if mode not in ("envelope", "instantaneous"):
        raise ConfigurationError(f"unknown discrimination mode {mode!r}")
    n_max, units = basis.n_max, basis.units
    for target in targets:
        if not 2 <= target <= n_max - 1:
            raise ValueError(f"target and its upper neighbor must both fit the basis "
                             f"(target={target}, n_max={n_max})")
    if coupling.n_max != n_max:
        raise ValueError("coupling and basis dimensions differ")
    n, mags = np.array(targets, dtype=np.int64), np.abs(coupling.vacuum_row)
    w_max = np.maximum.reduce(mags)
    worst, lo, hi = np.empty(len(n)), np.empty_like(n), np.empty_like(n)
    todo, h, out = np.arange(len(n)), _WINDOW, []
    with np.errstate(all="ignore"):  # overflow and underflow are reported by name, not warned
        while todo.size:  # widen the windows of the targets not yet done, block by block
            width, left = min(2 * h, n_max - 2), []  # competitors a window holds
            for start in range(0, todo.size, rows := max(1, _WINDOW_CELLS // width)):
                i = todo[start : start + rows]
                m = n[i]
                lo[i] = np.minimum(np.maximum(m - h, 2), n_max - width)  # N-h..N+h inside 2..n_max
                hi[i] = lo[i] + width
                labels = lo[i, None] + np.arange(width)
                labels += labels >= m[:, None]  # skip the target
                delta = np.abs(_detunings(labels, m[:, None], units))
                worst[i] = np.maximum.reduce(mags[labels - 1] / delta, axis=1)
                if width == n_max - 2:  # the whole basis: nothing lies outside
                    continue
                # nearest label outside: the upper one where it exists, as the lower gap is larger
                edge = np.where(hi[i] < n_max, hi[i] + 1, lo[i] - 1)
                bound = w_max / np.abs(_detunings(edge, m, units)) * (1.0 + _BOUND_MARGIN)
                done = bound <= worst[i]
                if mode == "instantaneous":  # p_target at the half-beat floor pi/(omega*log1p(1/N))
                    p_floor = (mags[m - 1] * math.pi / (units.omega * np.log1p(1.0 / m))
                               / (2.0 * units.hbar)) ** 2
                    done &= kappa * (bound / units.hbar) ** 2 <= p_floor
                left.append(i[~done])
            todo, h = np.concatenate(left) if left else todo[:0], 4 * h

        for target, w_worst, first, last in zip(targets, worst.tolist(), lo.tolist(), hi.tolist()):
            w_target = abs(coupling.vacuum_coupling(target))  # np.abs can differ in the last bit
            if w_target == 0:
                raise ValueError("the drive cannot reach a target with zero vacuum coupling")
            # hbar cancels between the resonant growth and the envelope
            t_envelope = 2.0 * math.sqrt(kappa) * w_worst / w_target
            nearest = units.omega * math.log1p(1.0 / target)  # the detuning of M = N + 1
            if nearest >= sys.float_info.min and math.isinf(w_worst):
                raise ConfigurationError(f"lambda={coupling.strength:g} is too large for target "
                                         f"{target}: its w_M/Delta_M overflows")
            if not (nearest >= sys.float_info.min and math.isfinite(t_envelope)):
                raise ConfigurationError(f"omega={units.omega:g} is too small for target {target}: "
                                         f"its detunings underflow or t_disc is {t_envelope:.3g}")
            if mode == "instantaneous":  # over the target's final window
                labels = np.concatenate((np.arange(first, target), np.arange(target + 1, last + 1)))
                t_envelope = _scan(target, labels, mags[labels - 1], coupling, t_envelope,
                                   kappa, units)
            out.append(t_envelope)
    return out


def _scan(target, labels, mags, coupling, t_envelope, kappa, units) -> float:
    """The instantaneous-mode grid scan over the competitors with these labels."""
    w_target = abs(coupling.vacuum_coupling(target))
    period = 2.0 * math.pi / (units.omega * math.log1p(1.0 / target))
    step = period / _SCAN_POINTS_PER_PERIOD
    floor = _SCAN_POINTS_PER_PERIOD // 2  # the half-beat floor; the grid spans > 1 period

    def out_of_range():  # lambda cancels from t_disc, but not once a probability overflows
        return ConfigurationError(
            f"lambda={coupling.strength:g} with hbar={units.hbar:g} puts the first-order "
            f"probabilities of target {target} past the float range")

    try:
        times = np.arange(0.0, t_envelope + period + 2 * step, step)
        p_target = (w_target * times / (2.0 * units.hbar)) ** 2
        if not (p_target[floor] >= kappa * sys.float_info.min and math.isfinite(p_target[-1])):
            raise out_of_range()
        delta = _detunings(labels, target, units)
        # keep if not below, so that a NaN envelope keeps its row
        decisive = ~(kappa * ((mags / units.hbar) ** 2 / delta**2) < p_target[floor])
        delta, mags = delta[decisive], mags[decisive]
        # largest first-order p_M(t) over the competitors on the grid, one block
        # of levels (rows) at a time; max is exact, so blocking changes no bit
        worst_p = np.zeros_like(times)  # probabilities are non-negative
        for lo in range(0, len(delta), _SCAN_BLOCK_ROWS):
            d = delta[lo : lo + _SCAN_BLOCK_ROWS, None]
            w = mags[lo : lo + _SCAN_BLOCK_ROWS, None]
            comp = (w / units.hbar) ** 2 * np.sin(0.5 * (d * times)) ** 2 / d**2
            np.maximum(worst_p, comp.max(axis=0), out=worst_p)
    except (MemoryError, ValueError):  # ValueError: longer than a numpy array can be
        size = (t_envelope + period) / step + 2
        raise ConfigurationError(
            f"kappa={kappa:g} needs a scan grid of {size:.3g} points, more than memory holds"
        ) from None
    if not np.isfinite(worst_p).all():
        raise out_of_range()
    ok = (p_target >= kappa * worst_p) & (p_target > 0.0)
    ok[:floor] = False
    # the first i with ok[i : i + window] all true: no failure counted in between
    fails, window = np.concatenate(([0], np.cumsum(~ok))), _SCAN_POINTS_PER_PERIOD + 1
    starts = np.flatnonzero(fails[window:] == fails[:-window])
    # the envelope criterion guarantees permanence from t_envelope on
    return float(times[starts[0]]) if starts.size else t_envelope
