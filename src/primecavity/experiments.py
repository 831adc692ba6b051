"""Batch experiment drivers: spectrum tables, preparation runs, scaling sweeps.

Reported times cover the drive (preparation) stage only; the duration of the
measurement stage is not modeled and never enters a time column. Every output
file embeds a manifest echoing the full configuration, and all runs are
deterministic given that configuration (fixed seeds, fixed-step integration,
no clocks). CSV floats use 17 significant digits so re-import is bit-exact.
"""

import csv
import functools
import json
import math
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
    WaveFunction,
    max_stable_dt,
    propagate,
    sample_measurement,
    step_count,
    vacuum_state,
)
from .encoding import (
    compose,
    factorize,
    format_occupation,
    level_energy,
    occupation_strings,
)
from .errors import ConfigurationError
from .perturbation import (
    FIRST_ORDER_LIMIT,
    discrimination_time,
    excitation_probability,
)
from .units import Units

SCHEMA_VERSION = 1

_FLOAT_FMT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


# ---------------------------------------------------------------------------
# spectrum


class SpectrumColumns(NamedTuple):
    """The level table as equal-length columns; position n - 1 holds label n."""

    labels: range
    factors: list[str]
    energies: list[float]
    gaps: list[float]


def run_spectrum(n_max: int, units: Units = Units()) -> SpectrumColumns:
    """Label, factorization string, E_N and the gap to the next level, per level.

    Factorizations come from one smallest-prime-factor table; the gap is
    upper_gap's expression, so every entry matches the per-label functions.
    """
    basis = build_basis(n_max, units)
    scale = units.energy_scale
    return SpectrumColumns(
        labels=basis.labels,
        factors=occupation_strings(n_max),
        energies=basis.energy_vector.tolist(),
        gaps=[scale * math.log1p(1.0 / n) for n in basis.labels],
    )


def spectrum_manifest(n_max: int, units: Units) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "n_max": n_max,
        "hbar": units.hbar,
        "omega": units.omega,
    }


def spectrum_csv_lines(columns: SpectrumColumns, manifest: dict):
    """The spectrum CSV one line at a time, so a writer can stream it."""
    yield f"# manifest: {json.dumps(manifest)}\n"
    yield "N,factors,energy,gap\n"
    yield from map("%d,%s,%.17g,%.17g\n".__mod__, zip(*columns))


def write_spectrum_csv(columns: SpectrumColumns, manifest: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(spectrum_csv_lines(columns, manifest))


def spectrum_dict(columns: SpectrumColumns, manifest: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": manifest,
        "rows": [
            {"N": n, "factors": f, "energy": e, "gap": g} for n, f, e, g in zip(*columns)
        ],
    }


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
    curve_points: int = 9,
) -> PrepareReport:
    """Drive the empty cavity for the discrimination time, then count photons.

    n_max defaults to 2*target + 2 and may never fall below 2*target (the
    truncation rule). The first-order guard rejects couplings whose predicted
    target probability at t_disc exceeds FIRST_ORDER_LIMIT, before any
    integration. dt defaults to half the step gate, where the sampled norm
    drift stayed below 2e-12 for targets 6 to 400 at ~8% target weight, far
    inside NORM_TOLERANCE.
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
    if not verify_reachability(coupling):
        raise ConfigurationError("coupling operator cannot reach every level from the vacuum")
    drive = DriveConfig.resonant(basis, target)

    t_disc = discrimination_time(target, basis, coupling, kappa=kappa, mode=mode)

    w_target = abs(coupling.vacuum_coupling(target))
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

    stride = max(1, step_count(t_disc, dt) // 512)
    trajectory = propagate(
        vacuum_state(basis), basis, coupling, drive, t_disc, dt, sample_stride=stride
    )

    idx = np.unique(np.round(np.linspace(0, len(trajectory.times) - 1, curve_points)).astype(int))
    probs = trajectory.probabilities()
    curve_times = tuple(float(trajectory.times[i]) for i in idx)
    curve_exact = tuple(float(probs[i, target - 1]) for i in idx)
    curve_first = tuple(
        excitation_probability(target, target, tt, w_target, units) for tt in curve_times
    )

    measurement = sample_measurement(trajectory.final, shots, seed, target=target)
    expected = factorize(target)
    if measurement.inconclusive:
        status, readout_str, readout_value = "inconclusive", None, None
    else:
        readout_str = format_occupation(measurement.readout)
        readout_value = compose(measurement.readout)
        status = "pass" if measurement.readout == expected else "mismatch"

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "prepare",
        "target": target,
        "n_max": n_max,
        "coupling_model": model,
        "lambda": strength,
        "kappa": kappa,
        "mode": mode,
        "shots": shots,
        "seed": seed,
        "dt": dt,
        "hbar": units.hbar,
        "omega": units.omega,
        "time_scope": "preparation only; measurement duration not modeled",
    }
    return PrepareReport(
        manifest=manifest,
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
    return {"schema_version": SCHEMA_VERSION, "config": manifest, "results": out}


def write_prepare_json(report: PrepareReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(prepare_report_dict(report), fh, indent=2)
        fh.write("\n")


def write_prepare_csv(report: PrepareReport, path) -> None:
    """Curve table: drive time against exact and first-order target probability."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {json.dumps(report.manifest)}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "p_exact", "p_first_order"])
        for t, pe, pf in zip(report.curve_times, report.curve_exact, report.curve_first_order):
            writer.writerow([_fmt(t), _fmt(pe), _fmt(pf)])


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
    design = np.column_stack([x, np.ones_like(x)])
    coef, residual, _, _ = np.linalg.lstsq(design, y, rcond=None)
    rss = float(residual[0]) if residual.size else float(((y - design @ coef) ** 2).sum())
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]), residual_sum_squares=rss)


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
    targets = sorted(set(int(n) for n in targets))
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
    for n in targets:
        t_disc = discrimination_time(n, basis, coupling, kappa=kappa, mode=mode)
        energy = level_energy(n, units)
        product = t_disc * energy
        ratio = product / (units.hbar * n * math.log(n))
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
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "scaling",
        "targets": targets,
        "n_max": n_max,
        "coupling_model": model,
        "lambda": strength,
        "kappa": kappa,
        "mode": mode,
        "hbar": units.hbar,
        "omega": units.omega,
        "time_scope": "preparation only; measurement duration not modeled",
    }
    return ScalingStudy(records=tuple(records), fit=fit, manifest=manifest)


_SCALING_COLUMNS = ["N", "bit_size", "t_disc", "energy", "product", "ratio"]


def scaling_csv_text(study: ScalingStudy) -> str:
    lines = [f"# manifest: {json.dumps(study.manifest)}", ",".join(_SCALING_COLUMNS)]
    for r in study.records:
        lines.append(
            ",".join(
                [
                    str(r.label),
                    _fmt(r.bit_size),
                    _fmt(r.t_disc),
                    _fmt(r.energy),
                    _fmt(r.product),
                    _fmt(r.ratio),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_scaling_csv(study: ScalingStudy, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(scaling_csv_text(study))


def read_scaling_csv(path) -> tuple[tuple[ScalingRecord, ...], dict]:
    """Inverse of write_scaling_csv; floats round-trip bit-exactly."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# manifest: "):
            raise ValueError(f"{path} has no manifest line")
        manifest = json.loads(first[len("# manifest: "):])
        reader = csv.reader(fh)
        header = next(reader)
        if header != _SCALING_COLUMNS:
            raise ValueError(f"unexpected scaling columns {header}")
        records = tuple(
            ScalingRecord(
                label=int(row[0]),
                bit_size=float(row[1]),
                t_disc=float(row[2]),
                energy=float(row[3]),
                product=float(row[4]),
                ratio=float(row[5]),
            )
            for row in reader
        )
    return records, manifest


def scaling_study_dict(study: ScalingStudy) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": study.manifest,
        "records": [asdict(r) for r in study.records],
        "fit": asdict(study.fit) if study.fit else None,
    }


# ---------------------------------------------------------------------------
# gnuplot side-car scripts


def write_gnuplot_script(csv_path, kind: str) -> Path:
    """Emit a small plot script next to an exported CSV; returns its path."""
    csv_path = Path(csv_path)
    gp = csv_path.with_suffix(".gp")
    if kind == "scaling":
        body = (
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set logscale xy\n"
            "set xlabel 'N'\n"
            "set ylabel 'preparation time'\n"
            f"plot '{csv_path.name}' using 1:3 with linespoints\n"
        )
    elif kind == "spectrum":
        body = (
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'N'\n"
            "set ylabel 'energy'\n"
            f"plot '{csv_path.name}' using 1:3 with points\n"
        )
    else:
        raise ConfigurationError(f"no plot template for {kind!r}")
    gp.write_text(body)
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
        return "1..5000 against naive trial division"

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
        drive = DriveConfig(frequency=1.0, target=2)
        run = propagate(WaveFunction(amp), basis, zero, drive, 5.0, 1e-3)
        expected = amp * np.exp(-1j * basis.energy_vector * 5.0)
        assert np.abs(run.final.amplitudes - expected).max() < 1e-8
        return "diagonal evolution matches analytic phases"

    @functools.cache
    def driven_run():
        # shared by the unitarity and first-order checks
        basis = build_basis(12)
        coupling = build_coupling(basis, "star-uniform", 1e-3)
        drive = DriveConfig.resonant(basis, 3)
        return propagate(
            vacuum_state(basis), basis, coupling, drive, 10.0,
            max_stable_dt(basis, coupling) / 4
        )

    def check_unitarity():
        run = driven_run()
        assert run.norm_drift <= 1e-9
        return f"drift {run.norm_drift:.2e}"

    def check_first_order():
        p = np.abs(driven_run().final.amplitudes) ** 2
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
        a = sample_measurement(WaveFunction(amp), 1000, seed=7, target=6)
        b = sample_measurement(WaveFunction(amp), 1000, seed=7, target=6)
        assert a == b and a.readout is not None
        return "same seed reproduces the measurement record"

    record("encoding round-trip vs naive oracle", check_roundtrip)
    record("spectrum monotone, gaps in (1-1/N, 1)", check_spectrum)
    record("occupation-energy identity", check_energy_identity)
    record("coupling hermiticity and reachability", check_reachability)
    record("free evolution phases", check_free_evolution)
    record("driven-run unitarity", check_unitarity)
    record("first-order agreement", check_first_order)
    record("discrimination closed form", check_discrimination)
    record("scaling ratios and omega invariance", check_scaling)
    record("measurement determinism", check_sampling)
    return results
