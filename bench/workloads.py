"""The three workloads: seeded inputs, the timed call, and the output oracle.

A workload hands out rounds. A round is a list of operations whose shape is
fixed and whose inputs come from a random.Random seeded with
(workload, seed, round), so the same seed always gives the same inputs and
the seed never changes how much work a round holds. Each operation has a
timed ``call`` into the package's public API, an untimed ``collect`` that
turns the call's result into a comparable value (reading back any file it
wrote), and an untimed ``check`` that returns the oracle's complaints.

Why each workload exists, and what it should and should not move, is in
README.md next to this file.
"""

import csv
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import primecavity as pc
import primecavity.cli
import primecavity.experiments

from oracles import (
    decay_envelope_time,
    naive_factors,
    reference_state,
    uniform_envelope_time,
)

KAPPA = 10.0
SHOTS = 10_000
# criterion-7 recipe: about 8% target weight at t_disc, inside the first-order guard
TARGET_WEIGHT = 0.08
NORM_TOLERANCE = 1e-9
MIN_CONDITIONAL = 0.9
REL_TOL = 1e-12
FLOAT_TOL = 1e-14  # np.log against math.log may differ in the last bit

# The reference case behind oracle_err: criterion-7 coupling at target 6.
REFERENCE_TARGET = 6
# The reference integrates at a quarter of the package's default step
# (a sixteenth of the step gate), so its own error is ~256x smaller.
REFERENCE_REFINEMENT = 16

ENTRY_POINTS = (
    (primecavity.experiments, "write_scaling_csv"),
    (primecavity.cli, "main"),
)


class Op(NamedTuple):
    name: str
    call: Callable[[], object]
    collect: Callable[[object], object]
    check: Callable[[object], list]
    # same integration in every round and seed: its accuracy is comparable
    fixed: bool = False


def criterion7_strength(target: int) -> float:
    return 2.0 * math.sqrt(TARGET_WEIGHT) / uniform_envelope_time(target, KAPPA)


def t_disc_tolerance(n: int) -> float:
    """Relative tolerance on a discrimination time at target n.

    The package defines the detuning as log(M) - log(N) (perturbation.detuning),
    and that difference cancels for the nearest neighbour M = N+1: each log
    carries up to one ulp, so the detuning, and t_disc with it, is uncertain
    by about 2*eps*log(N)/log1p(1/N) relative (about 1.5e-11 at N = 4096).
    The tolerance is 1e-12 plus twice that bound.
    """
    return REL_TOL + 4 * sys.float_info.epsilon * math.log(n + 1) / math.log1p(1.0 / n)


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _manifest_and_rows(text: str):
    first, _, rest = text.partition("\n")
    if not first.startswith("# manifest: "):
        raise ValueError("missing manifest line")
    manifest = json.loads(first[len("# manifest: "):])
    rows = list(csv.reader(io.StringIO(rest)))
    return manifest, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# prepare: drive integration dominates


class Prepare:
    """run_prepare at a fixed centre and at a seeded mirrored pair around it.

    Each round runs c-d, c and c+d in seeded order, with d drawn from
    1..SPREAD, so the targets span 7..21. A run's cost is close to linear in
    the target, so the mirrored pair keeps the round's RK4 step count within
    2.4% of three centre runs whatever d is drawn, and the median latency of a run's operations is
    always that of the centre. The seed moves the targets but not the shape.
    """

    name = "prepare"
    CENTRE = 14
    SPREAD = 7

    def setup(self):
        pass

    def round(self, rng, tmpdir):
        d = rng.randint(1, self.SPREAD)
        targets = [self.CENTRE - d, self.CENTRE, self.CENTRE + d]
        rng.shuffle(targets)
        return [self._op(t, rng.randrange(2**31)) for t in targets]

    def _op(self, target, sample_seed):
        def call():
            return pc.run_prepare(
                target,
                n_max=2 * target + 2,
                strength=criterion7_strength(target),
                kappa=KAPPA,
                shots=SHOTS,
                seed=sample_seed,
            )

        def check(report):
            expected = naive_factors(target)
            problems = []
            if report.status != "pass":
                problems.append(f"status {report.status}")
            if report.readout != expected or report.readout_value != target:
                problems.append(f"readout {report.readout!r} != {expected!r}")
            if report.conditional_target_probability is None or (
                report.conditional_target_probability < MIN_CONDITIONAL
            ):
                problems.append(
                    f"conditional target share {report.conditional_target_probability}"
                )
            if not report.norm_drift <= NORM_TOLERANCE:
                problems.append(f"norm drift {report.norm_drift:g}")
            return problems

        return Op(f"prepare N={target}", call, lambda report: report, check,
                  fixed=target == self.CENTRE)


# ---------------------------------------------------------------------------
# scaling: closed-form sweeps, dense coupling build dominates


class Scaling:
    """Envelope sweeps to N = 4096 for both models, an instantaneous sweep to
    N = 600, and the CSV export of each study.

    The seed draws one target per octave; the top target of each sweep is
    fixed, so the basis size (and with it the coupling's size) never changes.
    """

    name = "scaling"
    ENVELOPE_TOP = 4096
    INSTANT_TOP = 600

    def setup(self):
        pass

    def round(self, rng, tmpdir):
        strength = 10 ** rng.uniform(-3.5, -2.5)
        ops = []
        for model in ("star-uniform", "star-decay"):
            targets = [rng.randrange(2**k, 2 ** (k + 1)) for k in range(3, 12)]
            ops.append(self._op("envelope", model, targets + [self.ENVELOPE_TOP],
                                strength, tmpdir))
        edges = [8, 16, 32, 64, 128, 256, 512, self.INSTANT_TOP]
        targets = [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]
        ops.append(self._op("instantaneous", "star-uniform", targets + [self.INSTANT_TOP],
                            strength, tmpdir))
        return ops

    def _op(self, mode, model, targets, strength, tmpdir):
        path = os.path.join(tmpdir, f"scaling-{mode}-{model}.csv")

        def call():
            study = pc.run_scaling(targets, kappa=KAPPA, mode=mode, model=model,
                                   strength=strength)
            primecavity.experiments.write_scaling_csv(study, path)
            return study

        def collect(study):
            return study, _read(path)

        def check(value):
            study, blob = value
            labels = [r.label for r in study.records]
            if labels != sorted(targets):
                return [f"records {labels} != targets {sorted(targets)}"]
            n_max = max(targets) + 1
            problems = []
            for r in study.records:
                n = r.label
                envelope = uniform_envelope_time(n, KAPPA)
                tol = t_disc_tolerance(n)
                if mode == "instantaneous":
                    if not 0.0 < r.t_disc <= envelope * (1 + tol):
                        problems.append(f"N={n}: instantaneous {r.t_disc} vs envelope {envelope}")
                elif model == "star-uniform":
                    if not _close(r.t_disc, envelope, tol):
                        problems.append(f"N={n}: t_disc {r.t_disc} != {envelope}")
                elif not _close(r.t_disc, decay_envelope_time(n, n_max, KAPPA), tol):
                    problems.append(f"N={n}: decay t_disc {r.t_disc}")
                if not _close(r.energy, math.log(n), FLOAT_TOL):
                    problems.append(f"N={n}: energy {r.energy}")
                if not (r.ratio > 1 and _close(r.ratio, r.t_disc / n, REL_TOL)):
                    problems.append(f"N={n}: ratio {r.ratio}")
            manifest, header, rows = _manifest_and_rows(blob.decode())
            if manifest.get("targets") != sorted(targets) or manifest.get("mode") != mode:
                problems.append("manifest does not echo the sweep")
            if header != ["N", "bit_size", "t_disc", "energy", "product", "ratio"]:
                problems.append(f"header {header}")
            exported = [(int(row[0]), float(row[2]), float(row[5])) for row in rows]
            if exported != [(r.label, r.t_disc, r.ratio) for r in study.records]:
                problems.append("CSV does not round-trip the study")
            return problems

        return Op(f"scaling {mode} {model}", call, collect, check)


# ---------------------------------------------------------------------------
# spectrum: encoding and export dominate


class Spectrum:
    """`primecavity spectrum --nmax 50000 --out FILE` with seeded units.

    The seed draws hbar and omega, which change every energy but not the
    amount of work, then the written CSV is read back and checked row by row.
    """

    name = "spectrum"
    N_MAX = 50_000

    def setup(self):
        self.factors = [None] + [naive_factors(n) for n in range(1, self.N_MAX + 1)]

    def round(self, rng, tmpdir):
        hbar = rng.uniform(0.5, 2.0)
        omega = rng.uniform(0.5, 2.0)
        path = os.path.join(tmpdir, "spectrum.csv")
        argv = ["spectrum", "--nmax", str(self.N_MAX), "--hbar", repr(hbar),
                "--omega", repr(omega), "--out", path]

        def call():
            return primecavity.cli.main(argv)

        def collect(code):
            return code, _read(path)

        def check(value):
            code, blob = value
            if code != 0:
                return [f"exit code {code}"]
            manifest, header, rows = _manifest_and_rows(blob.decode())
            problems = []
            if (manifest.get("n_max"), manifest.get("hbar"), manifest.get("omega")) != (
                self.N_MAX, hbar, omega
            ):
                problems.append(f"manifest {manifest}")
            if header != ["N", "factors", "energy", "gap"]:
                problems.append(f"header {header}")
            if len(rows) != self.N_MAX:
                problems.append(f"{len(rows)} rows")
            scale = hbar * omega
            for i, (label, factors, energy, gap) in enumerate(rows, start=1):
                if int(label) != i or factors != self.factors[i]:
                    problems.append(f"row {i}: {label},{factors}")
                elif not (_close(float(energy), scale * math.log(i), FLOAT_TOL)
                          and _close(float(gap), scale * math.log1p(1.0 / i), FLOAT_TOL)):
                    problems.append(f"row {i}: energy {energy} gap {gap}")
                if len(problems) > 5:
                    break
            return problems

        return [Op("spectrum", call, collect, check)]


WORKLOADS = {w.name: w for w in (Prepare, Scaling, Spectrum)}


# ---------------------------------------------------------------------------
# accuracy of the integrator on a fixed case


def reference_case() -> tuple[float, float]:
    """(oracle_err, norm drift) of run_prepare's integration at the reference case.

    run_prepare picks its own step, so the trajectory it integrates is caught
    by wrapping the propagate it looks up, and compared against the
    independent lab-frame RK4 at a sixteenth of the step gate.
    """
    target = REFERENCE_TARGET
    n_max = 2 * target + 2
    strength = criterion7_strength(target)
    caught = []
    original = primecavity.experiments.propagate

    def catching(*args, **kwargs):
        caught.append(original(*args, **kwargs))
        return caught[-1]

    primecavity.experiments.propagate = catching
    try:
        report = pc.run_prepare(target, n_max=n_max, strength=strength, kappa=KAPPA,
                                shots=SHOTS, seed=1)
    finally:
        primecavity.experiments.propagate = original
    if report.status != "pass" or len(caught) != 1:
        raise RuntimeError(f"reference case did not run cleanly: {report.status}")
    trajectory = caught[0]
    t_final = float(trajectory.times[-1])
    gate = 0.05 / (math.log(n_max) + strength)
    steps = math.ceil(t_final / (gate / REFERENCE_REFINEMENT))
    psi_ref = reference_state(n_max, strength, math.log(target), t_final, steps)
    err = float(abs(trajectory.states[-1] - psi_ref).max())
    return err, report.norm_drift
