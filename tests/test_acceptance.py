"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible under `pytest -s`). Criterion 3b
expects halving the coupling to divide the worst exact-versus-first-order
discrepancy by about 4: the star coupling has a zero diagonal, so an excited
amplitude is lambda*a1 + lambda^3*a3 + ... (odd orders only) and the relative
error of first order in its probability is quadratic in lambda.
"""

import contextlib
import io
import math
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from primecavity import (
    CouplingOperator,
    DriveConfig,
    Units,
    build_basis,
    build_coupling,
    cli,
    compose,
    discrimination_time,
    excitation_probability,
    factorize,
    format_occupation,
    max_stable_dt,
    occupation_probabilities,
    offresonant_envelope,
    propagate,
    run_prepare,
    run_scaling,
    upper_gap,
    vacuum_state,
    verify_reachability,
)
from primecavity.experiments import _naive_trial_division

from oracles import naive_factors, reference_state, uniform_envelope_time

ROOT = Path(__file__).resolve().parents[1]
MIN_GAP_5000 = 2.0002000266706673e-4   # log(5000/4999) to 30 digits, rounded
T_DISC_8 = 53.696657460823296          # 2*sqrt(10)/log(9/8)
TWO_SQRT_10 = 6.324555320336759


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: encoding round-trip against an independent oracle, N <= 1e5


def test_criterion_1_encoding_roundtrip():
    start = time.perf_counter()
    for n in range(1, 100_001):
        occ = factorize(n)
        assert compose(occ) == n, f"round-trip broke at {n}"
        assert list(occ.entries) == _naive_trial_division(n), f"oracle mismatch at {n}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(1, ok, f"100000/100000 round-trips match trial division in {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds the 10s budget"


# ---------------------------------------------------------------------------
# criterion 2: spectrum non-degeneracy and gap law at n_max = 5000


def test_criterion_2_spectrum_nondegeneracy():
    basis = build_basis(5000)
    energies = basis.energy_vector
    assert energies[0] == 0.0
    assert np.all(np.diff(energies) > 0), "energies must be strictly increasing"

    gaps = np.array([upper_gap(n) for n in range(1, 5000)])
    assert int(np.argmin(gaps)) == len(gaps) - 1  # tightest gap at the top
    min_gap = float(gaps[-1])
    assert abs(min_gap - MIN_GAP_5000) <= 1e-12 * MIN_GAP_5000

    n = np.arange(2, 5001, dtype=float)
    scaled = np.array([lvl * upper_gap(int(lvl)) for lvl in n])
    assert np.all(scaled < 1.0)
    assert np.all(scaled > 1.0 - 1.0 / n)
    _report(2, True, f"5000 levels strictly increasing, min gap {min_gap:.9e}")


# ---------------------------------------------------------------------------
# criteria 3 and 4 share the same driven run: n_max=24, target 6, lambda=1e-3,
# drive on resonance, t = 41, coarsest step satisfying the gate


@pytest.fixture(scope="module")
def resonant_run():
    basis = build_basis(24)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    drive = DriveConfig.resonant(basis, 6)
    dt = max_stable_dt(basis, coupling)
    start = time.perf_counter()
    run = propagate(vacuum_state(basis), basis, coupling, drive, 41.0, dt,
                    sample_stride=10**9)
    elapsed = time.perf_counter() - start
    return {
        "basis": basis,
        "coupling": coupling,
        "drive": drive,
        "dt": dt,
        "run": run,
        "elapsed": elapsed,
    }


def _first_order_discrepancies(p_exact, target, lam, t):
    """Worst and per-level relative discrepancy against full first order."""
    worst, rows = 0.0, []
    for i in range(1, len(p_exact)):
        if p_exact[i] <= 1e-10:
            continue
        predicted = excitation_probability(i + 1, target, t, lam, counter_rotating=True)
        rel = abs(p_exact[i] - predicted) / p_exact[i]
        rows.append((i + 1, rel))
        worst = max(worst, rel)
    return worst, rows


def _assert_matches_oracle(p_exact, lam, dt):
    """Independent oracle: separately written dense-matrix integrator at dt/10."""
    p_oracle = np.abs(reference_state(24, lam, math.log(6.0), 41.0, round(41.0 / (dt / 10)))) ** 2
    assert np.abs(p_exact - p_oracle).max() <= 1e-8
    for i in range(1, 24):
        if p_oracle[i] > 1e-10:
            assert abs(p_exact[i] - p_oracle[i]) / p_oracle[i] <= 1e-3


def test_criterion_3a_first_order_validation(resonant_run):
    start = time.perf_counter()
    p_exact = occupation_probabilities(resonant_run["run"].final)
    _assert_matches_oracle(p_exact, 1e-3, resonant_run["dt"])

    worst, rows = _first_order_discrepancies(p_exact, 6, 1e-3, 41.0)
    elapsed = resonant_run["elapsed"] + (time.perf_counter() - start)
    ok = worst <= 0.10 and len(rows) >= 10 and elapsed < 30.0
    _report(
        "3a", ok,
        f"{len(rows)} levels with p>1e-10 agree with first order, worst "
        f"{worst:.2%} (<=10%), {elapsed:.1f}s",
    )
    assert worst <= 0.10
    assert len(rows) >= 10
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30s budget"


def test_criterion_3b_lambda_halving_window(resonant_run):
    p_full = occupation_probabilities(resonant_run["run"].final)
    worst_full, rows_full = _first_order_discrepancies(p_full, 6, 1e-3, 41.0)

    basis = resonant_run["basis"]
    half = build_coupling(basis, "star-uniform", 5e-4)
    dt_half = max_stable_dt(basis, half)
    run_half = propagate(vacuum_state(basis), basis, half, resonant_run["drive"],
                         41.0, dt_half, sample_stride=10**9)
    p_half = occupation_probabilities(run_half.final)

    # criterion 3a checks the full-lambda run against the oracle; check the
    # half-lambda run too, so the factor is not the propagator's word alone
    _assert_matches_oracle(p_half, 5e-4, dt_half)

    worst_half, rows_half = _first_order_discrepancies(p_half, 6, 5e-4, 41.0)
    levels_full = [level for level, _ in rows_full]
    assert levels_full == [level for level, _ in rows_half], (
        "both runs must compare the same levels (p > 1e-10)"
    )
    assert len(levels_full) >= 10

    # zero-diagonal star coupling: the residual is quadratic in lambda, so
    # halving lambda divides it by 4; a linear residual would give 2 and an
    # integrator error floor 1
    factor = worst_full / worst_half
    ok = 3.5 <= factor <= 4.5
    _report(
        "3b", ok,
        f"halving lambda shrank the worst discrepancy over {len(levels_full)} "
        f"levels by {factor:.3f}x (required [3.5, 4.5]: quadratic in lambda)",
    )
    assert ok, (
        f"halving lambda changed the worst relative discrepancy by {factor:.3f}x, "
        "outside [3.5, 4.5]. The star coupling's zero diagonal leaves only odd "
        "orders in the excited amplitudes, so the first-order residual is "
        "quadratic in lambda and the factor must sit near 4."
    )


def test_criterion_4_unitarity_and_order(resonant_run):
    drift_coarse = resonant_run["run"].norm_drift
    assert drift_coarse <= 1e-9

    basis, coupling = resonant_run["basis"], resonant_run["coupling"]
    run_fine = propagate(vacuum_state(basis), basis, coupling, resonant_run["drive"],
                         41.0, resonant_run["dt"] / 2, sample_stride=10**9)
    ratio = drift_coarse / max(run_fine.norm_drift, 1e-17)
    ok = drift_coarse <= 1e-9 and ratio >= 8.0
    _report(
        4, ok,
        f"norm drift {drift_coarse:.2e} (<=1e-9), halving dt cut it {ratio:.0f}x (>=8)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: discrimination-time scaling, kappa = 10


def test_criterion_5_scaling_slope():
    study = run_scaling([8, 16, 32, 64, 128], kappa=10.0)
    slope = study.fit.slope
    t8 = study.records[0].t_disc
    assert abs(t8 - T_DISC_8) <= 0.01
    assert 0.90 <= slope <= 1.00

    # cross-check the closed form by a dense scan of the growth against the
    # worst off-resonant envelope
    w = 1e-3
    envelopes = [offresonant_envelope(m, 8, w) for m in range(2, 130) if m != 8]
    threshold = 10.0 * max(envelopes)
    times = np.arange(0.0, 60.0, 1e-3)
    growth = (w * times / 2.0) ** 2
    t_scan = float(times[np.argmax(growth >= threshold)])
    assert abs(t_scan - t8) <= 2e-3

    _report(5, True, f"log-log slope {slope:.4f} in [0.90, 1.00], "
                     f"t_disc(8) = {t8:.4f} = 53.70 +/- 0.01, grid scan agrees")


# ---------------------------------------------------------------------------
# criterion 6: time-energy product against hbar * N * log N


def test_criterion_6_time_energy_product():
    study = run_scaling([2, 4, 8, 16, 32, 64, 128], kappa=10.0)
    assert all(r.ratio > 1.0 for r in study.records)
    final_ratio = study.records[-1].ratio
    assert abs(final_ratio / TWO_SQRT_10 - 1.0) <= 0.05

    doubled = run_scaling([2, 4, 8, 16, 32, 64, 128], kappa=10.0, units=Units(omega=2.0))
    for a, b in zip(study.records, doubled.records):
        assert abs(b.ratio - a.ratio) <= 1e-12 * a.ratio
    _report(6, True, f"all ratios > 1, ratio(128) = {final_ratio:.4f} within 5% of "
                     f"{TWO_SQRT_10:.4f}, invariant under omega doubling")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end factorization readout


def test_criterion_7_end_to_end_readout():
    targets = [6, 12, 15, 21]
    n_max = 2 * max(targets) + 2
    seed, shots = 1, 10_000
    details = []
    for target in targets:
        t_disc = uniform_envelope_time(target, 10.0)
        strength = 2.0 * math.sqrt(0.08) / t_disc  # ~8% target weight, inside the guard
        report = run_prepare(target, n_max=n_max, strength=strength,
                             shots=shots, seed=seed)
        again = run_prepare(target, n_max=n_max, strength=strength,
                            shots=shots, seed=seed)
        assert report == again, "same seed and config must reproduce bit-identically"
        assert report.status == "pass"
        assert report.conditional_target_probability >= 0.9
        assert report.readout == naive_factors(target) == format_occupation(factorize(target))
        details.append(f"{target}->{report.readout} "
                       f"({report.conditional_target_probability:.3f})")
    _report(7, True, "readout correct and conditional >= 0.9: " + ", ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: reachability of every level from the vacuum


def test_criterion_8_reachability():
    for n_max in (8, 24, 44, 129, 257):
        basis = build_basis(n_max)
        for model in ("star-uniform", "star-decay"):
            assert verify_reachability(build_coupling(basis, model, 1e-3))

    # synthetic violations are rejected
    n = 8
    m = np.zeros((n, n), dtype=complex)
    m[0, 1:] = 1e-3
    m[1:, 0] = 1e-3
    m[0, 4] = m[4, 0] = 0.0
    broken = CouplingOperator(model="star-uniform", strength=1e-3, matrix=m)
    assert not verify_reachability(broken)

    basis = build_basis(n)
    with pytest.raises(ValueError):
        discrimination_time(5, basis, broken)  # unreachable target is refused

    nonherm = np.zeros((4, 4), dtype=complex)
    nonherm[0, 1] = 1e-3
    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1e-3, matrix=nonherm)
    _report(8, True, "both models reachable at every tested size; "
                     "violating operators rejected")


# ---------------------------------------------------------------------------
# the README's examples and the benchmark's own self-test


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 7 and all(argv[0] == "primecavity" for argv in commands)
    monkeypatch.chdir(tmp_path)  # the examples' --out files land here
    codes = [cli.main(argv[1:]) for argv in commands]
    capsys.readouterr()
    assert codes == [0] * 7, list(zip(codes, commands))
    _report("README", True, "7 command-line examples exit 0")


def test_readme_library_example_reads_3_times_7():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    readout, share = out.getvalue().splitlines()
    assert readout == "3*7"
    assert float(share) > 0.9
    _report("README", True, f"library example reads {readout}, target share {share}")


def test_benchmark_self_test_passes():
    # the benchmark pins part of the API (propagate's sample_stride, Trajectory's
    # times, states and final, write_scaling_csv); a change to it fails here
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                          capture_output=True, text=True, cwd=ROOT, check=False, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test passed"
