"""What the test modules share beyond the benchmark's oracles.

The independent references, naive trial division and the dense lab-frame
RK4, live once in bench/oracles.py, and the tracer's own sample-grid check in
bench/tracing.py; pytest puts bench/ on the import path (pyproject.toml).
This module holds the rest: a reader of the scaling CSV that parses the file
with the csv module, and the unpruned discrimination references, which must
repeat the package's arithmetic expression for expression to serve as a
bit-for-bit reference.
"""

import csv
import json
import math

import numpy as np

from primecavity import ScalingRecord


def read_scaling_csv(path) -> tuple[tuple[ScalingRecord, ...], dict]:
    """Records and manifest of a file written by write_scaling_csv."""
    with open(path, newline="") as fh:
        first = fh.readline()
        assert first.startswith("# manifest: "), f"{path} has no manifest line"
        manifest = json.loads(first[len("# manifest: "):])
        reader = csv.reader(fh)
        assert next(reader) == ["N", "bit_size", "t_disc", "energy", "product", "ratio"]
        records = tuple(ScalingRecord(int(row[0]), *map(float, row[1:6])) for row in reader)
    return records, manifest


def _full_competitors(target, basis, coupling):
    """Detunings and coupling magnitudes of every excited level but the target."""
    labels = np.arange(2, basis.n_max + 1)
    labels = labels[labels != target]
    gap = labels - target
    omega = basis.units.omega
    delta = omega * np.sign(gap) * np.log1p(np.abs(gap) / np.minimum(labels, target))
    return delta, np.abs(coupling.vacuum_row[labels - 1])


def unpruned_envelope_time(target, basis, coupling, kappa):
    """The envelope discrimination time from a maximum over the whole basis.

    Same detunings and expression order as perturbation.discrimination_time,
    with no window, so that the package's windowed search can be checked
    against it bit for bit.
    """
    delta, mags = _full_competitors(target, basis, coupling)
    w_target = abs(complex(coupling.vacuum_row[target - 1]))
    return 2.0 * math.sqrt(kappa) * float(np.max(mags / np.abs(delta))) / w_target


def scan_grid(target, basis, coupling, kappa):
    """The instantaneous scan's grid, p_target on it and the envelope time, as the package's."""
    period = 2.0 * math.pi / (basis.units.omega * math.log1p(1.0 / target))
    step = period / 64
    t_envelope = unpruned_envelope_time(target, basis, coupling, kappa)
    times = np.arange(0.0, t_envelope + period + 2 * step, step)
    w_target = abs(complex(coupling.vacuum_row[target - 1]))
    return times, (w_target * times / (2.0 * basis.units.hbar)) ** 2, t_envelope


def unpruned_cutoffs(target, basis, coupling, kappa):
    """Each competitor's first grid index where kappa times its envelope is at most p_target."""
    delta, mags = _full_competitors(target, basis, coupling)
    p_target = scan_grid(target, basis, coupling, kappa)[1]
    return np.searchsorted(p_target, kappa * ((mags / basis.units.hbar) ** 2 / delta**2))


def unpruned_instantaneous_time(target, basis, coupling, kappa):
    """The instantaneous discrimination scan over every competitor, unpruned.

    Same detunings, grid, half-beat floor and one-period window as
    perturbation.discrimination_time, written out in full so that the
    package's competitor pruning can be checked against it bit for bit.
    """
    hbar = basis.units.hbar
    delta, mags = _full_competitors(target, basis, coupling)
    times, p_target, t_envelope = scan_grid(target, basis, coupling, kappa)
    worst_p = np.zeros_like(times)
    for lo in range(0, len(delta), 1024):
        d = delta[lo : lo + 1024, None]
        w = mags[lo : lo + 1024, None]
        comp = (w / hbar) ** 2 * np.sin(0.5 * (d * times)) ** 2 / d**2
        np.maximum(worst_p, comp.max(axis=0), out=worst_p)
    ok = (p_target >= kappa * worst_p) & (p_target > 0.0)
    ok[:32] = False
    for i in np.flatnonzero(ok):
        if i + 65 > len(ok):
            break
        if ok[i : i + 65].all():
            return float(times[i])
    return t_envelope
