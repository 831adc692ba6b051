"""Batch experiment drivers: spectrum tables, preparation runs, scaling sweeps.

Reported times cover the drive (preparation) stage only; the duration of the
measurement stage is not modeled and never enters a time column. Every output
file embeds a manifest echoing the full configuration, and all runs are
deterministic given that configuration (fixed seeds, fixed-step integration,
no clocks). CSV floats use 17 significant digits so re-import is bit-exact.
"""

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cavity import (
    COUPLING_MODELS,
    CouplingOperator,
    DriveConfig,
    build_basis,
    build_coupling,
    verify_reachability,
)
from .dynamics import (
    _map_basis,
    max_stable_dt,
    propagate,
    sample_measurement,
    step_grid,
    vacuum_state,
)
from .encoding import (
    _as_label,
    compose,
    factorize,
    format_occupation,
    occupation_strings,
    upper_gap,
)
from .errors import ConfigurationError
from .perturbation import (
    FIRST_ORDER_LIMIT,
    _discrimination_times,
    discrimination_time,
    excitation_probability,
)
from .units import Units

SCHEMA_VERSION = 1

CURVE_POINTS = 9  # drive times at which a prepare report samples the target probability
_CSV_BLOCK_ROWS = 2048  # table rows per string _csv_lines yields
# _format_17g's vector path takes v in [1e-250, 1e250]: there Dekker's split of v and of
# 10**(16 - e) (up to ~1e267) neither overflows nor loses bits to underflow
_VECTOR_RANGE = (1e-250, 1e250)
_TIE_MARGIN = 1e-9  # >> the 1e-14 error of p + r: past it, r rounds as the exact sum does
# _csv_lines formats a shorter block per row. On a 4-column level-table block "%" per row
# wins below ~160 rows (x86-64, 1 thread: 192 rows 100-102 us per row, 89-91 us vectorised)
_VECTOR_MIN = 256


@functools.cache
def _format_tables():
    """_format_17g's tables, built on first use: 10**(16 - e) as a double-double and the
    exponent suffix ("" in fixed notation) for e = -251..250, the row head, the digits of
    0..9999 (_format_ints' too), and the layouts. A row holds 24 code points: ".", "0", NUL,
    NUL, "000" and the 17 digits (4-23). A layout, one per exponent class, lists the row
    positions of a string padded with NUL to 22: "0." and -e - 1 zeros before the digits
    for e = -4..-1, the point after digit e for e = 0..16, and d.ddd otherwise.
    """
    hi, lo, suffix = [], [], []
    for e in range(-251, 251):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den  # int true division rounds correctly, and so does lo's
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
        suffix.append("" if -4 <= e < 17 else f"e{e:+03d}")
    layouts = [[1, 0, *[1] * (-e - 1), *range(7, 24)] for e in range(-4, 0)]
    layouts += [[*range(7, 8 + e), 0, *range(8 + e, 24)] for e in range(17)]
    layouts.append([7, 0, *range(8, 24)])
    quads = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    units = np.concatenate([[[46, 48, 0, 0]], quads + 48]).astype(np.uint32)
    units = units.view(np.complex128).ravel()  # an element moves four code points at once
    return (np.array(hi), np.array(lo), units[0], units[1:], np.array(suffix),
            np.array([row + [2] * (22 - len(row)) for row in layouts]))


def _block_buffers(rows: int):
    """The code points of a block of up to rows rows, as flat arrays for the formatters to
    reshape: a row of 24 (a float's) or 16 (an int's), and a laid-out string of 22 a row.
    _csv_lines allocates them once per table, so no block waits on the heap to hand back
    and fault in ~0.3 MB; the string steps after them allocate their results per call.
    """
    return np.empty(rows * 6, np.complex128), np.empty(rows * 22, np.uint32)


def _gather(rows, layouts, layout, text) -> np.ndarray:
    """Row i of code points laid out by layouts[layout[i]] into text, viewed as strings:
    every row by the block's most common layout in one take, then the rows laid out
    otherwise again, so no index as large as text is built."""
    common = np.bincount(layout).argmax()
    np.take(rows, layouts[common], axis=1, out=text, mode="clip")  # "raise" copies text
    other = np.flatnonzero(layout != common)
    text[other] = rows[other[:, None], layouts[layout[other]]]
    return text.view(f"U{text.shape[1]}").ravel()


def _format_ints(cells, end: str, buffers) -> list[str]:
    """["%d" % n + end for n in cells] for a range or a sequence of ints, exactly.

    n in [1, 10**12) is three zero-padded four-digit groups (_format_tables' digits) and
    end in a row of buffers, its leading zeros stripped; "%d" per value takes the rest.
    """
    fmt, n, quad_t = "%d" + end, len(cells), _format_tables()[3]
    if isinstance(cells, range):  # np.asarray iterates a range one int at a time
        ints = np.arange(cells.start, cells.stop, cells.step)
    else:
        ints = np.array(cells, np.int64)
    slow = np.flatnonzero((ints < 1) | (ints >= 10**12))
    ints[slow] = 0
    row = buffers[0][: 4 * n].reshape(n, 4)
    high, low = np.divmod(ints, 10**4)
    for i, group in enumerate([*np.divmod(high, 10**4), low]):
        row[:, i] = quad_t[group]
    row[:, 3] = np.array([*map(ord, end), 0, 0, 0, 0][:4], np.uint32).view(np.complex128)
    strings = np.char.lstrip(row.view("U16").ravel(), "0").tolist()
    for i in slow.tolist():
        strings[i] = fmt % cells[i]
    return strings


def _format_17g(values, end: str = "", buffers=None) -> list[str]:
    """["%.17g" % v + end for v in values] for float64 values, exactly.

    Vector path, for v in _VECTOR_RANGE: e = floor(log10(v)), (hi, lo) is 10**(16 - e) as a
    double-double, Dekker's split gives v*hi = p + err exactly, and r = err + v*lo, so
    |v*10**(16 - e) - (p + r)| < 1e-14. p >= 1e16 > 2**53 is an integer, and d = p + round(r)
    is the 17-digit significand. "%.17g" per value takes the rest: zero, negatives,
    subnormals, inf and nan, |v| outside the range, r within _TIE_MARGIN of a half (ties
    and near-ties), and d not strictly inside (10**16, 10**17) (a wrong e, or a carry).
    The 17 digits, in a row of code points in buffers (_block_buffers, fresh ones without
    it), are laid out by exponent class (_gather); then, as C's %g rule says, trailing
    zeros and a bare point go, and the exponent suffix and end (at most two characters)
    follow. _csv_lines calls it with one block, _VECTOR_MIN to _CSV_BLOCK_ROWS values, and
    the table's buffers.
    """
    fmt, n, values = "%.17g" + end, len(values), np.asarray(values, dtype=float)
    hi_t, lo_t, head, quad_t, suffix_t, layouts = _format_tables()
    codes, text = buffers or _block_buffers(n)
    slow = ~((values >= _VECTOR_RANGE[0]) & (values <= _VECTOR_RANGE[1]))
    v = np.where(slow, 1.5, values)  # any value in the range: the reference path redoes it
    e = np.floor(np.log10(v)).astype(np.intp)
    hi, lo = hi_t[e + 251], lo_t[e + 251]
    pair = np.stack([v, hi])
    c = pair * 134217729.0  # 2**27 + 1: Dekker's split into halves of at most 26 bits
    vh, hh = upper = c - (c - pair)
    vl, hl = pair - upper
    p = v * hi
    r = (((vh * hh - p) + vh * hl + vl * hh) + vl * hl) + v * lo
    rounded = np.rint(r)
    d = p.astype(np.int64) + rounded.astype(np.int64)
    slow |= (np.abs(r - rounded) > 0.5 - _TIE_MARGIN) | (d <= 10**16) | (d >= 10**17)
    d[slow] = 10**16 + 1
    high, low = np.divmod(d, 10**8)
    first, high = np.divmod(high, 10**8)
    quads = [first, *np.divmod(high, 10**4), *np.divmod(low, 10**4)]  # 1, 4, 4, 4, 4 digits
    row = codes[: 6 * n].reshape(n, 6)
    row[:, 0] = head
    for i, quad in enumerate(quads):
        row[:, 1 + i] = quad_t[quad]
    layout = np.where((e >= -4) & (e < 17), e + 4, 21)
    digits = _gather(row.view(np.uint32), layouts, layout, text[: 22 * n].reshape(n, 22))
    digits = np.char.rstrip(np.char.rstrip(digits, "0"), ".")
    strings = np.char.add(digits, np.char.add(suffix_t, end)[e + 251]).tolist()
    for i in np.flatnonzero(slow).tolist():
        strings[i] = fmt % values[i]
    return strings


def _manifest(command: str, units: Units, config: dict, timed: bool = True) -> dict:
    """The config echo of every report: version, command, its own keys, then the units."""
    manifest = {"schema_version": SCHEMA_VERSION, "command": command, **config,
                "hbar": units.hbar, "omega": units.omega}
    if timed:
        manifest["time_scope"] = "preparation only; measurement duration not modeled"
    return manifest


def _envelope(manifest: dict, **payload) -> dict:
    """A JSON report: the schema version, the config echo, then the payload's keys."""
    return {"schema_version": SCHEMA_VERSION, "config": manifest, **payload}


def _csv_lines(manifest: dict, header: str, columns, end: str = "\n"):
    """CSV pieces a writer can stream: the manifest line, the header, then the rows of the
    equal-length columns, _CSV_BLOCK_ROWS rows a piece. The header and each row end in end.

    Float cells render as "%.17g", strings as they are, and ints as "%d". A block of at least
    _VECTOR_MIN rows goes column by column: floats through _format_17g and ints through
    _format_ints, both on code-point buffers the table allocates once (_block_buffers),
    each separator folded into the cell before it or, after a string, a piece of its own,
    and the pieces laid out row by row by slice assignment for one join. A shorter block,
    where "%.17g" per value is the faster, is one % per row; a table of such blocks alone
    allocates no buffers.
    """
    yield f"# manifest: {json.dumps(manifest)}\n"
    yield header + end
    seps, rows = [","] * (len(columns) - 1) + [end], len(columns[0])
    # allocated before the first block: allocated at it, they cost an in-process spectrum
    # --nmax 50000 operation ~250 more minor page faults (measured with ru_minflt)
    buffers = _block_buffers(min(rows, _CSV_BLOCK_ROWS)) if rows >= _VECTOR_MIN else None
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        block = [column[start : start + _CSV_BLOCK_ROWS] for column in columns]
        kinds = ["%.17g" if isinstance(cells[0], float)  # a float64 array's cells are floats
                 else "%s" if isinstance(cells[0], str) else "%d" for cells in block]
        if len(block[0]) < _VECTOR_MIN:
            yield "".join(map((",".join(kinds) + end).__mod__, zip(*block)))
            continue
        pieces = []
        for cells, kind, sep in zip(block, kinds, seps):
            if kind == "%.17g":
                pieces.append(_format_17g(cells, sep, buffers))
            elif kind == "%s":
                pieces += [cells, [sep] * len(cells)]
            else:
                pieces.append(_format_ints(cells, sep, buffers))
        text = [""] * (len(pieces) * len(pieces[0]))
        for j, cells in enumerate(pieces):  # row-major: cell j of each row
            text[j :: len(pieces)] = cells
        yield "".join(text)


# ---------------------------------------------------------------------------
# spectrum


class SpectrumColumns(NamedTuple):
    """The level table as equal-length columns; position n - 1 holds label n.

    energies (the basis's energy_vector itself) and gaps are read-only float64 arrays.
    """

    labels: range
    factors: list[str]
    energies: np.ndarray
    gaps: np.ndarray


def run_spectrum(n_max: int, units: Units = Units()) -> SpectrumColumns:
    """Label, factorization string, E_N and the gap to the next level, per level.

    Factorizations come from one smallest-prime-factor table; the gap is
    upper_gap's expression (IEEE division and product, and math.log1p, which np.log1p
    rounds apart from at some labels), so every entry matches the per-label functions.
    The smallest gap, label n_max's, must be a normal float, which makes every printed
    float but E_1 = 0 normal (E_N >= E_2 = gap(1) >= gap(n_max)). That check and the
    strings come first, so a subnormal gap and a label past the sieve's int32 range are
    refused before the basis allocates.
    """
    if _as_label(n_max) >= 2 and upper_gap(n_max, units) < sys.float_info.min:
        raise ConfigurationError(f"hbar={units.hbar:g} and omega={units.omega:g} put the gap "
                                 f"of label {n_max} below the smallest normal float")
    factors = occupation_strings(n_max)
    basis = build_basis(n_max, units)
    inverse = (1.0 / np.arange(1, n_max + 1)).tolist()
    gaps = units.energy_scale * np.fromiter(map(math.log1p, inverse), float, n_max)
    gaps.setflags(write=False)
    return SpectrumColumns(labels=basis.labels, factors=factors,
                           energies=basis.energy_vector, gaps=gaps)


def spectrum_manifest(n_max: int, units: Units) -> dict:
    return _manifest("spectrum", units, {"n_max": n_max}, timed=False)


def spectrum_csv_lines(columns: SpectrumColumns, manifest: dict):
    """The level table as CSV pieces (_csv_lines)."""
    return _csv_lines(manifest, "N,factors,energy,gap", columns)


def spectrum_dict(columns: SpectrumColumns, manifest: dict) -> dict:
    labels, factors, energies, gaps = columns
    rows = [{"N": n, "factors": f, "energy": e, "gap": g}
            for n, f, e, g in zip(labels, factors, energies.tolist(), gaps.tolist())]
    return _envelope(manifest, rows=rows)


# ---------------------------------------------------------------------------
# preparation runs


@dataclass(frozen=True)
class PrepareReport:
    """Everything one preparation-and-readout run produced."""

    manifest: dict
    t_disc: float
    curve_times: tuple[float, ...]
    curve_exact: tuple[float, ...]
    curve_first_order: tuple[float, ...]
    norm_drift: float
    counts: dict[int, int]
    readout: str | None
    readout_value: int | None
    conditional_target_probability: float | None
    expected: str
    status: str  # "pass" | "mismatch" | "inconclusive"


def run_prepare(
    target: int,
    n_max: int | None = None,
    strength: float = 1e-3,
    kappa: float = 10.0,
    model: str = "star-uniform",
    shots: int = 10_000,
    seed: int = 0,
    dt: float | None = None,
    mode: str = "envelope",
    units: Units = Units(),
) -> PrepareReport:
    """Drive the empty cavity for the discrimination time, then count photons.

    n_max defaults to 2*target + 2 and may never fall below 2*target (the
    truncation rule). The first-order guard rejects couplings whose predicted
    target probability at t_disc exceeds FIRST_ORDER_LIMIT, before any
    integration. dt defaults to half the step gate, where the sampled norm
    drift stayed below 2e-12 for targets 6 to 400 at ~8% target weight, far
    inside NORM_TOLERANCE. The stride is a whole number of drive periods (at
    most 512 samples), so propagate jumps every period with its one-period map.
    """
    if target < 2:
        raise ConfigurationError(f"target must be an excited label (got {target})")
    if n_max is None:
        n_max = 2 * target + 2
    if n_max < 2 * target:
        raise ConfigurationError(
            f"truncation rule requires n_max >= 2*target ({2 * target}), got {n_max}"
        )
    if not 1 <= shots <= 2**63 - 1:
        raise ConfigurationError(f"shots must be in 1..2**63-1 (got {shots})")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative (got {seed})")

    basis = build_basis(n_max, units)
    coupling = build_coupling(basis, model, strength)
    drive = DriveConfig.resonant(basis, target)

    t_disc = discrimination_time(target, basis, coupling, kappa=kappa, mode=mode)

    w_target = abs(coupling.vacuum_row.item(target - 1))
    try:
        predicted = excitation_probability(target, target, t_disc, w_target, units)
    except OverflowError:  # a prediction past the float range fails the guard
        predicted = math.inf
    if predicted > FIRST_ORDER_LIMIT:
        lam_max = 2.0 * units.hbar * math.sqrt(FIRST_ORDER_LIMIT) / t_disc
        raise ConfigurationError(
            f"first-order guard: predicted target probability {predicted:.3g} exceeds "
            f"{FIRST_ORDER_LIMIT}; shrink the coupling so that "
            f"|<1|W|{target}>| <= {lam_max:.3g}"
        )

    if dt is None:
        dt = max_stable_dt(basis, coupling) / 2.0

    h, per_period = step_grid(t_disc, dt, drive.frequency)
    unit = per_period or 1  # whole periods apart, at most 512 samples
    stride = unit * max(1, math.ceil(t_disc / h / unit / 512))
    trajectory = propagate(
        vacuum_state(basis), basis, coupling, drive, t_disc, dt, sample_stride=stride
    )

    idx = np.unique(np.round(np.linspace(0, len(trajectory.times) - 1, CURVE_POINTS)).astype(int))
    curve_times = tuple(float(trajectory.times[i]) for i in idx)
    curve_exact = tuple(float(p) for p in np.abs(trajectory.states[idx, target - 1]) ** 2)
    curve_first = tuple(
        excitation_probability(target, target, tt, w_target, units) for tt in curve_times
    )

    measurement = sample_measurement(trajectory.final, shots, seed, target=target)
    expected = factorize(target)
    if measurement.readout is None:
        status, readout_str, readout_value = "inconclusive", None, None
    else:
        readout_str = format_occupation(measurement.readout)
        readout_value = compose(measurement.readout)
        status = "pass" if measurement.readout == expected else "mismatch"

    return PrepareReport(
        manifest=_manifest("prepare", units, {
            "target": target, "n_max": n_max, "coupling_model": model, "lambda": strength,
            "kappa": kappa, "mode": mode, "shots": shots, "seed": seed, "dt": dt,
        }),
        t_disc=t_disc,
        curve_times=curve_times,
        curve_exact=curve_exact,
        curve_first_order=curve_first,
        norm_drift=trajectory.norm_drift,
        counts=measurement.counts,
        readout=readout_str,
        readout_value=readout_value,
        conditional_target_probability=measurement.conditional_target_probability,
        expected=format_occupation(expected),
        status=status,
    )


def prepare_report_dict(report: PrepareReport) -> dict:
    out = asdict(report)
    manifest = out.pop("manifest")
    # JSON object keys are strings; keep counts readable as label -> count
    out["counts"] = {str(k): v for k, v in sorted(report.counts.items())}
    return _envelope(manifest, results=out)


def prepare_csv_lines(report: PrepareReport):
    """Drive time against exact and first-order target probability; CRLF ends, as csv's default."""
    return _csv_lines(report.manifest, "t,p_exact,p_first_order",
                      [report.curve_times, report.curve_exact, report.curve_first_order],
                      end="\r\n")


# ---------------------------------------------------------------------------
# scaling sweeps


@dataclass(frozen=True)
class ScalingRecord:
    """Resource accounting for one target: preparation time, energy, their product.

    ratio divides the product by hbar*N*log(N); its trend, not any particular
    value, is the point of the sweep, and it is never tested against a
    constant beyond being > 1.
    """

    label: int
    bit_size: float
    t_disc: float
    energy: float
    product: float
    ratio: float


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual_sum_squares: float


def fit_loglog(records: list[ScalingRecord]) -> FitResult:
    """Ordinary least squares of log(t_disc) against log(N)."""
    if len(records) < 3:
        raise ValueError(f"need at least 3 records to fit (got {len(records)})")
    labels = [r.label for r in records]
    if len(set(labels)) != len(labels):
        raise ValueError("fit abscissae are degenerate: duplicate N values")
    x = np.log([r.label for r in records])
    y = np.log([r.t_disc for r in records])
    mx, my = x.sum() / len(x), y.sum() / len(y)  # closed-form least squares, centred sums
    dx, dy = x - mx, y - my
    slope = float(dx @ dy / (dx @ dx))
    rss = float((dy - slope * dx) @ (dy - slope * dx))
    return FitResult(slope=slope, intercept=float(my - slope * mx), residual_sum_squares=rss)


@dataclass(frozen=True)
class ScalingStudy:
    records: tuple[ScalingRecord, ...]
    fit: FitResult | None
    manifest: dict


def run_scaling(
    targets: list[int],
    kappa: float = 10.0,
    mode: str = "envelope",
    model: str = "star-uniform",
    strength: float = 1e-3,
    units: Units = Units(),
    n_max: int | None = None,
) -> ScalingStudy:
    """Discrimination time, level energy, and their product for each target.

    Envelope mode needs no integration (closed form); records come out in
    ascending N. The fit is omitted, not an error, below 3 distinct targets.
    """
    if not targets:
        raise ConfigurationError("scaling sweep needs at least one target")
    targets = sorted(set(map(_as_label, targets)))
    if targets[0] < 2:
        raise ConfigurationError("scaling targets must be excited labels (>= 2)")
    if n_max is None:
        n_max = targets[-1] + 1
    if n_max < targets[-1] + 1:
        raise ConfigurationError(
            f"every target needs its upper neighbor in the basis: n_max >= {targets[-1] + 1}"
        )

    basis = build_basis(n_max, units)
    coupling = build_coupling(basis, model, strength)
    records = []
    for n, t_disc in zip(targets, _discrimination_times(targets, basis, coupling, kappa, mode)):
        energy = float(basis.energy_vector[n - 1])
        if energy < sys.float_info.min:  # E_2 = hbar*omega*log(2) with hbar*omega below min/log(2)
            raise ConfigurationError(f"hbar={units.hbar:g} and omega={units.omega:g} put the "
                                     f"energy of target {n} below the smallest normal float")
        product = t_disc * energy
        ratio = product / (units.hbar * n * math.log(n))
        if not (math.isfinite(product) and math.isfinite(ratio)):
            raise ConfigurationError(f"hbar={units.hbar:g} and omega={units.omega:g} put the "
                                     f"time-energy product of target {n} past the float range")
        records.append(
            ScalingRecord(
                label=n,
                bit_size=math.log2(n),
                t_disc=t_disc,
                energy=energy,
                product=product,
                ratio=ratio,
            )
        )

    fit = fit_loglog(records) if len(records) >= 3 else None
    manifest = _manifest("scaling", units, {
        "targets": targets, "n_max": n_max, "coupling_model": model, "lambda": strength,
        "kappa": kappa, "mode": mode,
    })
    return ScalingStudy(records=tuple(records), fit=fit, manifest=manifest)


def scaling_csv_lines(study: ScalingStudy) -> list[str]:
    rows = [(r.label, r.bit_size, r.t_disc, r.energy, r.product, r.ratio) for r in study.records]
    return list(_csv_lines(study.manifest, "N,bit_size,t_disc,energy,product,ratio",
                           list(zip(*rows))))


def write_scaling_csv(study: ScalingStudy, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(scaling_csv_lines(study))


def scaling_study_dict(study: ScalingStudy) -> dict:
    return _envelope(study.manifest, records=[asdict(r) for r in study.records],
                     fit=asdict(study.fit) if study.fit else None)


# ---------------------------------------------------------------------------
# gnuplot side-car scripts


def gnuplot_script_path(csv_path) -> Path:
    """The plot script path next to a CSV: the same path with the suffix .gp.

    A CSV path that resolves to it (a .gp file, or a link to one) is a
    ConfigurationError, so the script never replaces its CSV.
    """
    csv_path = Path(csv_path)
    gp = csv_path.with_suffix(".gp")
    if gp.resolve() == csv_path.resolve():
        raise ConfigurationError(f"--out {csv_path} is where --gnuplot-script writes its plot "
                                 f"script; give the CSV another suffix")
    return gp


def write_gnuplot_script(csv_path, kind: str) -> Path:
    """Emit a small plot script next to an exported CSV; returns its path.

    A CSV path that is its own script path is refused before anything is
    written (gnuplot_script_path).
    """
    csv_path = Path(csv_path)
    gp = gnuplot_script_path(csv_path)
    templates = {"scaling": ("set logscale xy\n", "preparation time", "linespoints"),
                 "spectrum": ("", "energy", "points")}
    if kind not in templates:
        raise ConfigurationError(f"no plot template for {kind!r}")
    logscale, ylabel, style = templates[kind]
    gp.write_text(f"set datafile separator ','\nset key autotitle columnhead\n{logscale}"
                  f"set xlabel 'N'\nset ylabel '{ylabel}'\n"
                  f"plot '{csv_path.name}' using 1:3 with {style}\n")
    return gp


# ---------------------------------------------------------------------------
# invariant battery (CLI `check`)


def _naive_trial_division(n: int) -> list[tuple[int, int]]:
    """Deliberately independent oracle: divide by every integer, no sieve."""
    out = []
    d, rest = 2, n
    while d * d <= rest:
        m = 0
        while rest % d == 0:
            rest //= d
            m += 1
        if m:
            out.append((d, m))
        d += 1
    if rest > 1:
        out.append((rest, 1))
    return out


def run_invariant_checks(n_max: int = 2000) -> list[tuple[str, bool, str]]:
    """Fast self-test battery; returns (name, ok, detail) per invariant."""
    results = []

    def record(name, fn):
        try:
            detail = fn() or ""
            results.append((name, True, detail))
        except MemoryError:
            raise  # a basis too large for memory is a configuration error, not a failure
        except Exception as exc:  # noqa: BLE001 - report, never crash the battery
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def check_roundtrip():
        for n in range(1, 5001):
            occ = factorize(n)
            assert compose(occ) == n, f"compose(factorize({n})) != {n}"
            assert occ.entries == tuple(_naive_trial_division(n)), f"oracle mismatch at {n}"
        large = {  # split by Pollard-Brent rho: many small factors, a square, a balanced pair
            2**63 - 1: ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1)),
            99999989**2: ((99999989, 2),),
            2147483647 * 2147483659: ((2147483647, 1), (2147483659, 1)),  # past 2**62
        }
        for n, entries in large.items():
            assert factorize(n).entries == entries, f"factorize({n}) gave {factorize(n)}"
        return "1..5000 against naive trial division, 2^63-1, 99999989^2 and a 2^62 semiprime"

    def check_spectrum():
        basis = build_basis(n_max)
        e = basis.energy_vector
        assert e[0] == 0.0, "vacuum energy must be exactly zero"
        assert np.all(np.diff(e) > 0), "energies must be strictly increasing"
        n = np.arange(2, n_max + 1, dtype=float)
        scaled = n * np.log1p(1.0 / n)
        assert np.all(scaled < 1.0) and np.all(scaled > 1.0 - 1.0 / n)
        return f"n_max={n_max}"

    def check_energy_identity():
        for n in range(2, 2001):
            occ = factorize(n)
            total = sum(m * math.log(q) for q, m in occ.entries)
            assert abs(total - math.log(n)) <= 1e-12 * math.log(n)
        return "sum of m*log(q) matches log(N) to 1e-12 relative"

    def check_reachability():
        basis = build_basis(64)
        for model in COUPLING_MODELS:
            coupling = build_coupling(basis, model, 1e-3)
            assert verify_reachability(coupling), model
            m = coupling.matrix
            assert np.array_equal(m, m.conj().T) and not np.any(m.diagonal())
        return "both models, n_max=64"

    def check_free_evolution():
        basis = build_basis(16)
        zero = CouplingOperator(model="star-uniform", strength=0.0, vacuum_row=np.zeros(16))
        rng = np.random.default_rng(3)
        amp = rng.normal(size=16) + 1j * rng.normal(size=16)
        amp /= np.linalg.norm(amp)
        run = propagate(amp, basis, zero, DriveConfig(frequency=1.0), 5.0, 1e-3)
        expected = amp * np.exp(-1j * basis.energy_vector * 5.0)
        assert np.abs(run.final - expected).max() < 1e-8
        return "diagonal evolution matches analytic phases"

    @functools.cache
    def driven_setup(n=12, target=3):
        basis = build_basis(n)
        coupling = build_coupling(basis, "star-uniform", 1e-3)
        drive = DriveConfig.resonant(basis, target)
        return basis, coupling, drive, max_stable_dt(basis, coupling) / 4

    @functools.cache
    def driven_run(t_final=10.0, stride=1):
        # shared by the unitarity, fused-chunk and first-order checks
        basis, coupling, drive, dt = driven_setup()
        return propagate(
            vacuum_state(basis), basis, coupling, drive, t_final, dt, sample_stride=stride
        )

    def check_unitarity():
        run = driven_run()
        assert run.norm_drift <= 1e-9
        return f"drift {run.norm_drift:.2e}"

    def check_period_map():
        # t = 300 is 132 drive periods at n = 64 (rank r < n), stepped (a sample every
        # K - 1 steps) or mapped (10**9). A generic start leaves span(V), unlike the
        # vacuum: a D of exp(-iET/hbar), not the kernel's, drifts ~2e-14 a period
        basis, coupling, drive, dt = driven_setup(64, 16)
        rank = _map_basis(basis, coupling, 2.0 * math.pi / drive.frequency).shape[1]
        amp = [1, 1j] @ np.random.default_rng(5).normal(size=(2, 64))
        run = functools.partial(propagate, amp / np.linalg.norm(amp),
                                basis, coupling, drive, 300.0, dt)
        per_period = step_grid(300.0, dt, drive.frequency)[1]
        stepped, mapped = (run(sample_stride=s).final for s in (per_period - 1, 10**9))
        gap = float(np.abs(stepped - mapped).max())
        assert rank < basis.n_max and gap <= 1e-12, f"states differ by {gap:.2e} at rank {rank}"
        return f"final states agree to {gap:.1e} at rank {rank} of {basis.n_max}"

    def check_fused_chunks():
        # t = 4 is under one drive period (5.7): stride 1 steps singly, 10**9 in chunks
        singly, fused = (driven_run(4.0, s).final for s in (1, 10**9))
        gap = float(np.abs(singly - fused).max())
        assert gap <= 1e-12, f"final states differ by {gap:.2e}"
        return f"final states agree to {gap:.1e}"

    def check_first_order():
        p = np.abs(driven_run().final) ** 2
        for i in range(1, 12):
            if p[i] <= 1e-12:
                continue
            pf = excitation_probability(i + 1, 3, 10.0, 1e-3, counter_rotating=True)
            assert abs(p[i] - pf) / p[i] < 0.05, f"level {i + 1}"
        return "exact vs full first order within 5%"

    def check_discrimination():
        basis = build_basis(32)
        coupling = build_coupling(basis, "star-uniform", 1e-3)
        t = discrimination_time(8, basis, coupling, kappa=10.0)
        expected = 2.0 * math.sqrt(10.0) / math.log1p(1.0 / 8)
        assert abs(t - expected) <= 1e-12 * expected
        return f"t_disc(8) = {t:.4f}"

    def check_scaling():
        study = run_scaling([8, 16, 32, 64])
        assert all(r.ratio > 1 for r in study.records)
        doubled = run_scaling([8, 16, 32, 64], units=Units(omega=2.0))
        for a, b in zip(study.records, doubled.records):
            assert b.t_disc == a.t_disc / 2 and b.ratio == a.ratio
        return "ratios > 1 and scale-invariant under omega doubling"

    def check_sampling():
        amp = np.zeros(8, dtype=complex)
        amp[0] = math.sqrt(0.5)
        amp[5] = math.sqrt(0.5)
        a = sample_measurement(amp, 1000, seed=7, target=6)
        b = sample_measurement(amp, 1000, seed=7, target=6)
        assert a == b and a.readout is not None
        return "same seed reproduces the measurement record"

    record("encoding round-trip vs naive oracle", check_roundtrip)
    record("spectrum monotone, gaps in (1-1/N, 1)", check_spectrum)
    record("occupation-energy identity", check_energy_identity)
    record("coupling hermiticity and reachability", check_reachability)
    record("free evolution phases", check_free_evolution)
    record("driven-run unitarity", check_unitarity)
    record("period map matches stepping", check_period_map)
    record("fused chunks match single steps", check_fused_chunks)
    record("first-order agreement", check_first_order)
    record("discrimination closed form", check_discrimination)
    record("scaling ratios and omega invariance", check_scaling)
    record("measurement determinism", check_sampling)
    return results
