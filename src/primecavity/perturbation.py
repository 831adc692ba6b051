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

import numpy as np

from .cavity import CavityBasis, CouplingOperator
from .errors import ConfigurationError
from .units import Units

FIRST_ORDER_LIMIT = 0.1
DISCRIMINATION_MODES = ("envelope", "instantaneous")  # discrimination_time's criteria

# grid resolution for the instantaneous-mode scan: the nearest-neighbor beat
# period must be resolved
_SCAN_POINTS_PER_PERIOD = 64
# discrimination_time's first competitor window N-32..N+32, the labels (or scan grid
# cells) its search holds at once, and the relative slack on its bound for the levels outside
_WINDOW, _WINDOW_CELLS, _BOUND_MARGIN = 32, 1 << 16, 1e-9


def _detunings(labels, target: int, units: Units):
    """|omega*log(M/N)| as omega*log1p(|M-N|/min(M, N)); labels: an int or an array.

    Subtracting log(M) - log(N) cancels for the nearest neighbours, which set
    the discrimination time; log1p of the exact integer gap does not. detuning
    puts the sign back, which keeps Delta(M, N) = -Delta(N, M) exact.
    """
    return units.omega * np.log1p(np.abs(np.asarray(labels) - target) / np.minimum(labels, target))


def detuning(m: int, target: int, units: Units = Units()) -> float:
    """Drive detuning of level M when the drive sits on level N."""
    if m < 2 or target < 2:
        raise ValueError("excited labels start at 2")
    return math.copysign(float(_detunings(m, target, units)), m - target) if m != target else 0.0


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

    Each competitor is evaluated only on the grid prefix where it can decide:
    from the floor up to its cutoff, the first grid index where its
    kappa-scaled envelope (w_M/hbar)^2/Delta_M^2 is at most p_target (at most
    4 competitors reach past the floor at kappa = 10). p_target does not
    decrease along the grid, a grid value never exceeds its envelope (sin^2 <=
    1, rounding is monotone) and kappa*max(a, b) = max(kappa*a, kappa*b), so a
    competitor decides no point past its cutoff and the result is the same to
    the bit. A NaN envelope keeps the whole grid. The scan costs the sum of
    the competitors' prefixes, not competitors x grid.

    Only the labels N-h..N+h are read, h = 32 and then 4x wider while needed.
    A level outside has w_M/|Delta_M| <= max|w|/|Delta_edge|, Delta_edge being
    the detuning of the nearest outside label (the upper one where it exists).
    With a 1e-9 margin for rounding, the window is done once that bound is at
    most the worst ratio inside and, in instantaneous mode, its kappa-scaled
    envelope is below p_target at the floor. Values inside are computed as over
    the whole basis and a maximum is exact, so t_disc is the same to the bit.

    A ConfigurationError names kappa for a grid past memory (~64*(sqrt(kappa)/pi
    + 1) points), omega for a subnormal nearest detuning or an infinite t_disc,
    lambda for an overflowing w_M/Delta_M, lambda and omega for one that
    underflows, and lambda and hbar for probabilities past the float range
    (both cancel from t_disc, but not from its rounding).
    """
    return _discrimination_times([target], basis, coupling, kappa, mode)[0]


def _discrimination_times(targets, basis, coupling, kappa, mode) -> list[float]:
    """discrimination_time of each target, from one windowed search and one batched scan."""
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"kappa must be finite and >= 1 (got {kappa})")
    if mode not in DISCRIMINATION_MODES:
        raise ConfigurationError(f"unknown discrimination mode {mode!r}")
    n_max, units = basis.n_max, basis.units
    for target in targets:
        if not 2 <= target <= n_max - 1:
            raise ValueError(f"target and its upper neighbor must both fit the basis "
                             f"(target={target}, n_max={n_max})")
    if coupling.n_max != n_max:
        raise ValueError("coupling and basis dimensions differ")
    n, mags, w_max = np.array(targets, dtype=np.int64), np.abs(coupling.vacuum_row), None
    worst, lo, hi = np.empty(len(n)), np.empty_like(n), np.empty_like(n)
    todo, h = np.arange(len(n)), _WINDOW
    with np.errstate(all="ignore"):  # overflow and underflow are reported by name, not warned
        while todo.size:  # widen the windows of the targets not yet done, block by block
            width, left = min(2 * h, n_max - 2), []  # competitors a window holds
            for start in range(0, todo.size, rows := max(1, _WINDOW_CELLS // width)):
                i = todo[start : start + rows]
                m = n[i]
                first = np.minimum(np.maximum(m - h, 2), n_max - width)  # N-h..N+h inside 2..n_max
                lo[i], hi[i] = first, first + width
                labels = first[:, None] + np.arange(width)
                labels += labels >= m[:, None]  # skip the target
                delta = _detunings(labels, m[:, None], units)
                worst[i] = np.maximum.reduce(mags[labels - 1] / delta, axis=1)
                if width == n_max - 2:  # the whole basis: nothing lies outside
                    continue
                w_max = np.maximum.reduce(mags) if w_max is None else w_max  # on first need
                # nearest label outside: the upper one where it exists, as the lower gap is larger
                edge = np.where(first + width < n_max, first + width + 1, first - 1)
                bound = w_max / _detunings(edge, m, units) * (1.0 + _BOUND_MARGIN)
                done = bound <= worst[i]
                if mode == "instantaneous":  # p_target at the half-beat floor pi/(omega*log1p(1/N))
                    p_floor = (mags[m - 1] * math.pi / (units.omega * np.log1p(1.0 / m))
                               / (2.0 * units.hbar)) ** 2
                    done &= kappa * (bound / units.hbar) ** 2 <= p_floor
                left.append(i[~done])
            todo, h = np.concatenate(left) if left else todo[:0], 4 * h

        # Python's abs and math.log1p, as np.abs and np.log1p can differ in the last bit;
        # nearest is the detuning of M = N + 1, and hbar cancels from t_envelope
        w_target = np.array([abs(coupling.vacuum_row.item(t - 1)) for t in targets])
        nearest = [units.omega * math.log1p(1.0 / t) for t in targets]
        times = 2.0 * math.sqrt(kappa) * worst / w_target  # not finite for w_target = 0
        stop, tiny = len(targets), sys.float_info.min  # the targets before the first error
        if not (min(nearest) >= tiny and math.isfinite(times.max()) and worst.min() >= tiny):
            good = (np.array(nearest) >= tiny) & np.isfinite(times) & (worst >= tiny)
            stop = int(np.argmin(good))
        if mode == "instantaneous" and stop:
            times[:stop] = _batched_scan(n[:stop], w_target[:stop], np.array(nearest[:stop]),
                                         times[:stop], lo[:stop], hi[:stop], mags, coupling,
                                         kappa, units)
        if stop < len(targets):
            target, w_worst, t_envelope = targets[stop], worst[stop], float(times[stop])
            if w_target[stop] == 0:
                raise ValueError("the drive cannot reach a target with zero vacuum coupling")
            if nearest[stop] >= tiny and math.isinf(w_worst):
                raise ConfigurationError(f"lambda={coupling.strength:g} is too large for target "
                                         f"{target}: its w_M/Delta_M overflows")
            if not (nearest[stop] >= tiny and math.isfinite(t_envelope)):
                raise ConfigurationError(f"omega={units.omega:g} is too small for target "
                                         f"{target}: its detunings underflow or t_disc is "
                                         f"{t_envelope:.3g}")
            raise ConfigurationError(f"lambda={coupling.strength:g} is too small for target "
                                     f"{target} at omega={units.omega:g}: its w_M/Delta_M "
                                     f"underflows")
    return times.tolist()


def _batched_scan(n, w_target, nearest, t_envelope, lo, hi, mags, coupling, kappa, units):
    """Instantaneous-mode times of targets n over the competitors of windows lo..hi.

    Grid row i is k*step_i, k < ceil(stop_i/step_i): np.arange(0.0, stop_i, step_i) to the bit,
    as arange fills start + k*step. Targets and competitors go in blocks of _WINDOW_CELLS cells.
    """
    hbar, floor = units.hbar, _SCAN_POINTS_PER_PERIOD // 2  # the half-beat floor
    period = 2.0 * math.pi / nearest
    step = period / _SCAN_POINTS_PER_PERIOD
    length = np.ceil((t_envelope + period + 2 * step) / step)  # the grid spans > 1 period
    count, out = hi - lo, t_envelope.copy()  # competitors of each target
    # targets a block holds: its grid rows and its competitors stay within the budget
    per_block = int(max(1, _WINDOW_CELLS // max(length.max(), count.max())))  # 1 for nan
    for start in range(0, len(n), per_block):
        i = np.arange(start, min(start + per_block, len(n)))
        # every competitor of the block: the labels of each window but its target, row by row
        row = np.repeat(np.arange(len(i)), count[i])
        labels = np.arange(row.size) + np.repeat(lo[i] - np.cumsum(count[i]) + count[i], count[i])
        labels += labels >= n[i][row]
        delta, w = _detunings(labels, n[i][row], units), mags[labels - 1]
        q = kappa * ((w / hbar) ** 2 / delta**2)
        try:
            k = np.arange(int(length[i].max()))
            grid = k * step[i, None]
            p_target = (w_target[i, None] * grid / (2.0 * hbar)) ** 2
            size, rows = length[i].astype(np.int64), np.arange(len(i))
            inside = k < size[:, None]
            # the others decide no grid time the scan reads (a nan envelope stays)
            keep = np.flatnonzero(~(q <= p_target[row, floor]))
            row, delta, w, q = row[keep], delta[keep], w[keep], q[keep]
            # cutoffs, the first k with kappa*env <= p_target[k], from one search: complex
            # numbers sort by (real, imag) and a nan imaginary part last, so the grid as
            # row + 1j*p_target is sorted and row + 1j*nan lands past every row
            grid_keys, keys = np.empty(grid.shape, complex), np.empty(row.size, complex)
            grid_keys.real, grid_keys.imag, keys.real, keys.imag = rows[:, None], p_target, row, q
            cut = np.searchsorted(grid_keys.ravel(), keys) - row * grid.shape[1]
            cut = np.minimum(cut, size[row])
            order = np.argsort(-cut, kind="stable")
            # largest p_M(t) over the competitors, in blocks of similar cutoff; max is exact
            worst_p, s, steps = np.zeros_like(grid), 0, step[i]  # probabilities are >= 0
            while s < order.size:
                c = order[s : s + max(1, _WINDOW_CELLS // (cut[order[s]] - floor))]
                s, r, d = s + c.size, row[c], delta[c, None]
                # c[0] has the largest cutoff; a block with a non-finite envelope is read from
                # 0, as the check for probabilities past the float range reads the whole grid
                cols = np.arange(floor if np.isfinite(q[c]).all() else 0, cut[c[0]])
                times = cols * steps[r, None]
                comp = (w[c, None] / hbar) ** 2 * np.sin(0.5 * (d * times)) ** 2 / d**2
                np.maximum.at(worst_p.ravel(), (r[:, None] * len(k) + cols).ravel(), comp.ravel())
        except (MemoryError, ValueError, OverflowError):  # ValueError: longer than numpy holds
            grid_size = float(((t_envelope[i] + period[i]) / step[i] + 2).max())
            raise ConfigurationError(f"kappa={kappa:g} needs a scan grid of {grid_size:.3g} "
                                     f"points, more than memory holds") from None
        # lambda cancels from t_disc, but not once a probability leaves the float range
        bad = ~((p_target[:, floor] >= kappa * sys.float_info.min)
                & np.isfinite(p_target[rows, size - 1]) & (np.isfinite(worst_p) | ~inside).all(1))
        if bad.any():
            raise ConfigurationError(
                f"lambda={coupling.strength:g} with hbar={units.hbar:g} puts the first-order "
                f"probabilities of target {n[i][bad][0]} past the float range")
        ok = (p_target >= kappa * worst_p) & inside  # p_target > 0 from the floor on
        ok[:, :floor] = False
        # the first k with ok[k : k + window] all true: no failure counted in between
        fails, window = np.zeros((len(i), ok.shape[1] + 1), np.int64), _SCAN_POINTS_PER_PERIOD + 1
        np.cumsum(~ok, axis=1, out=fails[:, 1:])
        starts = fails[:, window:] == fails[:, :-window]
        first = starts.argmax(axis=1)
        # the envelope criterion guarantees permanence from t_envelope on
        out[i] = np.where(starts[rows, first], grid[rows, first], t_envelope[i])
    return out
