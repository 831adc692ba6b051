import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import primecavity.dynamics
import primecavity.experiments
from primecavity import (
    COUPLING_MODELS,
    ConfigurationError,
    CouplingOperator,
    DriveConfig,
    MeasurementResult,
    PropagationError,
    Units,
    build_basis,
    build_coupling,
    discrimination_time,
    excitation_probability,
    factorize,
    max_stable_dt,
    occupation_probabilities,
    propagate,
    run_prepare,
    sample_measurement,
    vacuum_state,
)
from primecavity.dynamics import step_grid

from oracles import reference_state, uniform_envelope_time
from tracing import _propagate_counts


def _uniform_setup(n_max, target, lam):
    basis = build_basis(n_max)
    coupling = build_coupling(basis, "star-uniform", lam)
    drive = DriveConfig.resonant(basis, target)
    return basis, coupling, drive


def test_free_evolution_phases():
    # zero coupling: moduli constant, phases advance as exp(-i E t)
    n = 16
    basis = build_basis(n)
    zero = CouplingOperator(model="star-uniform", strength=0.0,
                            matrix=np.zeros((n, n), dtype=complex))
    rng = np.random.default_rng(11)
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    amp /= np.linalg.norm(amp)
    t_final = 7.0
    run = propagate(amp, basis, zero, DriveConfig(frequency=1.0), t_final, 1e-3)
    expected = amp * np.exp(-1j * basis.energy_vector * t_final)
    # H0 is applied exactly, so only rounding over the 7000 steps remains
    assert np.abs(run.final - expected).max() <= 1e-12
    assert np.abs(np.abs(run.final) - np.abs(amp)).max() < 1e-10


def test_zero_time_returns_initial_state():
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    psi0 = vacuum_state(basis)
    run = propagate(psi0, basis, coupling, drive, 0.0, 1e-2)
    assert run.times.tolist() == [0.0]
    assert np.array_equal(run.final, psi0)


def test_dt_gate_names_maximum():
    basis, coupling, drive = _uniform_setup(24, 6, 1e-3)
    gate = max_stable_dt(basis, coupling)
    with pytest.raises(ConfigurationError) as err:
        propagate(vacuum_state(basis), basis, coupling, drive, 1.0, gate * 2)
    assert "maximum admissible dt" in str(err.value)
    assert f"{gate:.9g}" in str(err.value)


def test_norm_drift_and_integrator_order():
    basis, coupling, drive = _uniform_setup(24, 6, 1e-3)
    gate = max_stable_dt(basis, coupling)
    run_coarse = propagate(vacuum_state(basis), basis, coupling, drive, 10.0, gate)
    run_fine = propagate(vacuum_state(basis), basis, coupling, drive, 10.0, gate / 2)
    assert run_coarse.norm_drift <= 1e-9
    # halving dt must cut the drift at least 8x (the scheme is 4th order;
    # the norm defect itself shrinks like dt^5 per unit time)
    assert run_coarse.norm_drift / max(run_fine.norm_drift, 1e-17) >= 8.0


def test_default_step_matches_oracle():
    # run_prepare's default step (half the gate) against the independent
    # lab-frame RK4 at a sixteenth of the gate; criterion-7 coupling at N = 6
    target, n_max = 6, 14
    strength = 2.0 * math.sqrt(0.08) / uniform_envelope_time(target, 10.0)
    report = run_prepare(target, n_max=n_max, strength=strength, shots=100, seed=1)
    basis, coupling, drive = _uniform_setup(n_max, target, strength)
    gate = max_stable_dt(basis, coupling)
    assert report.manifest["dt"] == gate / 2
    # t_disc is no whole number of steps h, so the oracle also checks the closing step
    h = step_grid(report.t_disc, report.manifest["dt"], drive.frequency)[0]
    assert report.t_disc - (report.t_disc // h) * h > 0
    run = propagate(vacuum_state(basis), basis, coupling, drive, report.t_disc,
                    report.manifest["dt"], sample_stride=10**9)
    psi_ref = reference_state(n_max, strength, math.log(target), report.t_disc,
                              round(report.t_disc / (gate / 16)))
    assert np.abs(run.final - psi_ref).max() <= 1e-10


def test_non_star_coupling_rejected():
    n = 8
    m = np.zeros((n, n), dtype=complex)
    m[0, 1:] = m[1:, 0] = 1e-3
    m[2, 5] = m[5, 2] = 1e-4  # Hermitian, zero diagonal, but excited-excited
    with pytest.raises(ConfigurationError, match="star coupling"):
        CouplingOperator(model="star-uniform", strength=1e-3, matrix=m)


def test_propagation_is_deterministic():
    basis, coupling, drive = _uniform_setup(12, 3, 1e-3)
    dt = max_stable_dt(basis, coupling) / 4
    a = propagate(vacuum_state(basis), basis, coupling, drive, 9.0, dt)
    b = propagate(vacuum_state(basis), basis, coupling, drive, 9.0, dt)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_exact_matches_full_first_order():
    basis, coupling, drive = _uniform_setup(12, 3, 1e-3)
    t_final = 10.0
    run = propagate(vacuum_state(basis), basis, coupling, drive, t_final,
                    max_stable_dt(basis, coupling) / 4)
    p = occupation_probabilities(run.final)
    checked = 0
    for i in range(1, 12):
        if p[i] <= 1e-12:
            continue
        predicted = excitation_probability(i + 1, 3, t_final, 1e-3, counter_rotating=True)
        assert abs(p[i] - predicted) / p[i] <= 0.02, f"level {i + 1}"
        checked += 1
    assert checked >= 5


def test_first_order_discrepancy_shrinks_quadratically():
    # the star coupling has zero diagonal, so even-order corrections to the
    # excited amplitudes vanish and the leading error term scales as lambda^2:
    # halving lambda divides the worst relative discrepancy by about 4
    t_final = 10.0

    def worst_discrepancy(lam):
        basis, coupling, drive = _uniform_setup(12, 3, lam)
        run = propagate(vacuum_state(basis), basis, coupling, drive, t_final,
                        max_stable_dt(basis, coupling) / 8)
        p = occupation_probabilities(run.final)
        worst = 0.0
        for i in range(1, 12):
            if p[i] <= 1e-14:
                continue
            predicted = excitation_probability(i + 1, 3, t_final, lam, counter_rotating=True)
            worst = max(worst, abs(p[i] - predicted) / p[i])
        return worst

    ratio = worst_discrepancy(1e-3) / worst_discrepancy(5e-4)
    assert 3.0 <= ratio <= 5.0


def test_occupation_probabilities():
    basis = build_basis(6)
    assert occupation_probabilities(vacuum_state(basis)).tolist() == [1, 0, 0, 0, 0, 0]

    amp = np.zeros(6, dtype=complex)
    amp[1] = amp[2] = 1 / math.sqrt(2)
    p = occupation_probabilities(amp)
    assert p[1] == pytest.approx(0.5, rel=1e-12)
    assert p[2] == pytest.approx(0.5, rel=1e-12)

    with pytest.raises(ValueError):
        occupation_probabilities(amp * 2)


def test_propagated_probabilities_sum_to_one():
    basis, coupling, drive = _uniform_setup(24, 6, 1e-3)
    run = propagate(vacuum_state(basis), basis, coupling, drive, 20.0,
                    max_stable_dt(basis, coupling) / 4)
    p = occupation_probabilities(run.final)
    assert abs(p.sum() - 1.0) <= 2e-9


def test_sample_pure_state():
    basis = build_basis(14)
    amp = np.zeros(14, dtype=complex)
    amp[11] = 1.0  # pure state encoding 12
    result = sample_measurement(amp, 1000, seed=5, target=12)
    assert result.counts == {12: 1000}
    assert dict(result.readout.entries) == {2: 2, 3: 1}
    assert result.conditional_target_probability == 1.0


def test_sample_vacuum_is_inconclusive():
    basis = build_basis(8)
    result = sample_measurement(vacuum_state(basis), 500, seed=0, target=4)
    assert result.readout is None
    assert result.conditional_target_probability is None
    assert result.counts == {1: 500}


@settings(max_examples=60, deadline=None)
@given(
    parts=hnp.arrays(np.float64, st.tuples(st.just(2), st.integers(2, 12)),
                     elements=st.floats(-1.0, 1.0)),
    shots=st.integers(1, 200),
    seed=st.integers(0, 2**64 - 1),
    target=st.integers(2, 12),
)
def test_sample_measurement_is_a_pure_function_of_state_shots_and_seed(parts, shots, seed,
                                                                       target):
    psi = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    psi /= norm
    target = min(target, psi.size)
    result = sample_measurement(psi, shots, seed, target=target)
    assert sample_measurement(psi.copy(), shots, seed, target=target) == result

    counts = result.counts
    assert sum(counts.values()) == shots and set(counts) <= set(range(1, psi.size + 1))
    excited = {label: c for label, c in counts.items() if label >= 2}
    if not excited:  # every shot on the vacuum: inconclusive
        assert result.readout is None and result.conditional_target_probability is None
        return
    top = max(excited.values())
    assert result.readout == factorize(min(m for m, c in excited.items() if c == top))
    assert result.conditional_target_probability == counts.get(target, 0) / sum(excited.values())


def test_sample_counts_always_total_shots():
    amp = np.zeros(10, dtype=complex)
    amp[0] = math.sqrt(0.7)
    amp[5] = math.sqrt(0.2)
    amp[6] = math.sqrt(0.1)
    for seed in range(5):
        result = sample_measurement(amp, 777, seed=seed, target=6)
        assert sum(result.counts.values()) == 777


def test_sample_modal_readout_and_conditional():
    amp = np.zeros(10, dtype=complex)
    amp[0] = math.sqrt(0.90)   # vacuum
    amp[5] = math.sqrt(0.08)   # label 6, modal excited
    amp[3] = math.sqrt(0.02)   # label 4
    result = sample_measurement(amp, 20_000, seed=3, target=6)
    assert result.readout == factorize(6)
    excited = result.counts.get(6, 0) + result.counts.get(4, 0)
    assert result.conditional_target_probability == result.counts[6] / excited


def test_sampling_determinism():
    amp = np.zeros(8, dtype=complex)
    amp[0] = math.sqrt(0.5)
    amp[2] = math.sqrt(0.3)
    amp[6] = math.sqrt(0.2)
    a = sample_measurement(amp, 5000, seed=42, target=3)
    b = sample_measurement(amp, 5000, seed=42, target=3)
    assert a == b
    c = sample_measurement(amp, 5000, seed=43, target=3)
    assert c.counts != a.counts


def test_sample_validation():
    basis = build_basis(4)
    with pytest.raises(ValueError):
        sample_measurement(vacuum_state(basis), 0, seed=1)


def test_readout_factorization_passthrough():
    result = MeasurementResult(counts={1: 1, 6: 9}, readout=factorize(6),
                               conditional_target_probability=1.0)
    assert result.readout == factorize(6)


def test_propagate_dimension_checks():
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    other = build_basis(9)
    with pytest.raises(ValueError):
        propagate(vacuum_state(other), basis, coupling, drive, 1.0, 1e-3)
    with pytest.raises(ValueError):
        propagate(vacuum_state(basis), basis, coupling, drive, -1.0, 1e-3)
    with pytest.raises(ValueError):
        propagate(vacuum_state(basis), basis, coupling, drive, 1.0, -1e-3)


def test_states_are_plain_arrays():
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    dt = max_stable_dt(basis, coupling) / 2
    psi0 = vacuum_state(basis)
    assert type(psi0) is np.ndarray and psi0.shape == (8,)
    run = propagate(psi0, basis, coupling, drive, 2.0, dt)
    assert np.array_equal(psi0, vacuum_state(basis))  # the run steps a copy
    assert type(run.final) is np.ndarray and run.final.shape == (8,)
    p = occupation_probabilities(run.final)
    assert p.shape == (8,) and abs(p.sum() - 1.0) <= 1e-9
    result = sample_measurement(run.final, 100, seed=0, target=3)
    assert sum(result.counts.values()) == 100
    for shape in [(8, 1), (7,)]:
        state = np.zeros(shape, dtype=complex)
        state[0] = 1.0
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            propagate(state, basis, coupling, drive, 2.0, dt)


@pytest.mark.parametrize("t_final, dt, named", [
    (1.0, math.nan, "dt"),
    (1.0, math.inf, "dt"),
    (1.0, 0.0, "dt"),
    (math.nan, 1e-3, "t_final"),
    (math.inf, 1e-3, "t_final"),
])
def test_propagate_rejects_non_finite_arguments(t_final, dt, named):
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    with pytest.raises(ValueError, match=f"^{named} must be finite"):
        propagate(vacuum_state(basis), basis, coupling, drive, t_final, dt)


def test_propagate_rejects_a_zero_sample_stride():
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    with pytest.raises(ValueError, match="sample_stride must be >= 1"):
        propagate(vacuum_state(basis), basis, coupling, drive, 1.0, 1e-3, sample_stride=0)


def test_norm_drift_past_the_tolerance_raises_naming_dt(monkeypatch):
    # every driven run drifts by rounding; a zero tolerance turns that into the error
    monkeypatch.setattr(primecavity.dynamics, "NORM_TOLERANCE", 0.0)
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    with pytest.raises(PropagationError, match=r"exceeds tolerance 0; reduce dt below"):
        propagate(vacuum_state(basis), basis, coupling, drive, 20.0, 1e-3)


def test_a_nan_norm_drift_raises(monkeypatch):
    # NaN compares False both ways: a drift check written as drift > tol let it through
    monkeypatch.setattr(primecavity.dynamics.Trajectory, "norm_drift", math.nan)
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    with pytest.raises(PropagationError, match=r"norm drift nan exceeds tolerance"):
        propagate(vacuum_state(basis), basis, coupling, drive, 2.0, 1e-3)


@pytest.mark.parametrize("t_final", [0.0, 2.0])
@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8, math.nan])
def test_propagate_rejects_a_psi0_off_unit_norm_before_the_run(t_final, scale):
    # a norm-2 start used to run to the end, then blame dt; at t_final = 0 it came back
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    with pytest.raises(ValueError, match=r"psi0 norm .* is not 1 within 1e-09"):
        propagate(scale * vacuum_state(basis), basis, coupling, drive, t_final, 1e-3)


def test_propagate_accepts_a_psi0_within_the_norm_tolerance():
    basis, coupling, drive = _uniform_setup(8, 3, 1e-3)
    run = propagate((1 + 5e-10) * vacuum_state(basis), basis, coupling, drive, 0.0, 1e-3)
    assert run.final[0] == 1 + 5e-10


@pytest.mark.parametrize("t_final", [0.0, 2.0])
def test_propagate_refuses_a_coupling_whose_ww_overflows(t_final):
    # a direct caller's row: the guard used to live in run_prepare only, and propagate
    # returned a non-finite state with norm drift nan
    row = np.full(8, 1e200)
    row[0] = 0.0
    coupling = CouplingOperator("star-uniform", 0.0, vacuum_row=row)
    basis, _, drive = _uniform_setup(8, 3, 1e-3)
    with pytest.raises(ConfigurationError,
                       match=r"^lambda=0 is too large for 8 levels: the coupling's w.w overflows$"):
        propagate(vacuum_state(basis), basis, coupling, drive, t_final, 1e-3)


@pytest.mark.parametrize("hbar, omega", [(1e-80, 1e80), (1e150, 1e-150)])
def test_run_prepare_is_invariant_under_units_with_the_same_hbar_omega(hbar, omega):
    # the physics reads hbar and omega only through hbar*omega and omega*t; the stage
    # table used to carry h**3 (OverflowError) and hbar**-4 (inf, then NaN states)
    base = run_prepare(6)
    scaled = run_prepare(6, units=Units(hbar=hbar, omega=omega))
    assert scaled.counts == base.counts and scaled.status == base.status == "pass"
    assert scaled.t_disc * omega == pytest.approx(base.t_disc, rel=1e-12)
    np.testing.assert_allclose(np.multiply(scaled.curve_times, omega), base.curve_times,
                               rtol=1e-12)
    for curve in ("curve_exact", "curve_first_order"):
        np.testing.assert_allclose(getattr(scaled, curve), getattr(base, curve), rtol=1e-12)
    assert scaled.norm_drift <= 1e-11


def _final(basis, coupling, drive, t_final, dt, stride):
    run = propagate(vacuum_state(basis), basis, coupling, drive, t_final, dt,
                    sample_stride=stride)
    return run.final


@settings(max_examples=12, deadline=None)
@given(
    target=st.integers(2, 30),
    width=st.floats(2.0, 4.0),
    model=st.sampled_from(COUPLING_MODELS),
    units=st.sampled_from([Units(), Units(hbar=1.3, omega=0.7)]),
    gate_share=st.floats(0.25, 1.0),
    periods=st.floats(2.2, 4.0),
)
def test_period_map_matches_stepping(target, width, model, units, gate_share, periods):
    # n_max from 2N to 4N: the map's basis is unitary (r >= n) or low-rank (r < n)
    basis = build_basis(int(width * target), units)
    coupling = build_coupling(basis, model, 1e-3)
    drive = DriveConfig.resonant(basis, target)
    dt = gate_share * max_stable_dt(basis, coupling)
    t_final = periods * 2.0 * math.pi / drive.frequency
    stepped = _final(basis, coupling, drive, t_final, dt, 1)  # a sample in every period
    mapped = _final(basis, coupling, drive, t_final, dt, 10**9)  # every whole period mapped
    assert np.abs(stepped - mapped).max() <= 1e-12


def _prepare_run(target, **kwargs):
    # run_prepare (at 8% target weight unless kwargs set the strength), with
    # the trajectory it integrates and the width of each period-map basis it builds
    runs, widths = [], []
    propagate_, map_basis = primecavity.experiments.propagate, primecavity.dynamics._map_basis

    def catching(*args, **kwargs):
        runs.append(propagate_(*args, **kwargs))
        return runs[-1]

    def map_basis_spy(*args):
        v = map_basis(*args)
        widths.append(v.shape[1])
        return v

    kwargs.setdefault("strength", 2.0 * math.sqrt(0.08) / uniform_envelope_time(target, 10.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primecavity.experiments, "propagate", catching)
        mp.setattr(primecavity.dynamics, "_map_basis", map_basis_spy)
        report = run_prepare(target, **kwargs)
    return report, runs[0], widths


@pytest.mark.parametrize("target", [100, 300])
def test_low_rank_map_matches_the_full_map_over_run_prepare(monkeypatch, target):
    # the rank-r map against the full map, its basis patched to the identity,
    # over the whole integration (465 and 1725 periods). D cancels from the
    # full map but not from the rank-r one, which must take the D that stepping
    # applies: the exact D_h^2, to which the kernel corrects its product of step
    # factors at every half-period end (5e-14 and 2.5e-13 here). That product
    # uncorrected, against the exact D, drifts past 1e-12 by target 100
    _, low_rank, widths = _prepare_run(target)
    assert len(widths) == 1 and widths[0] < (2 * target + 2) / 8
    monkeypatch.setattr(primecavity.dynamics, "_map_basis",
                        lambda basis, *_: np.eye(basis.n_max, dtype=complex))
    full = _prepare_run(target)[1]
    assert np.abs(low_rank.states - full.states).max() <= 1e-12


@pytest.mark.parametrize("target, stride", [(14, "period - 1"), (14, 10**9), (400, 10**9)])
def test_refining_the_step_leaves_only_a_rounding_floor(target, stride):
    # 8% target weight over t_disc (38 drive periods at N = 14, 2415 at 400),
    # stepped with a sample in every period or mapped, gate/16 against gate/32.
    # Lawson RK4's error at gate/2 is ~2e-11 and shrinks 8^4-fold by gate/16,
    # so rounding is what is left. The rounding model of the free phases: a
    # state carries the rounding of at most the K/2 steps since the last
    # half-period end, eps a step, and each half-period end leaves the
    # rounding of D_h and of its correction, eps each. Without the correction
    # the step rounding adds up over the whole run (1.9e-12 at N = 14, 1.4e-10
    # at 400, against bounds of 9.3e-13 and 5.0e-12)
    t_disc = uniform_envelope_time(target, 10.0)
    basis, coupling, drive = _uniform_setup(2 * target + 2, target,
                                            2.0 * math.sqrt(0.08) / t_disc)
    gate = max_stable_dt(basis, coupling)
    half_periods = math.ceil(t_disc * drive.frequency / math.pi)
    finals, bound = [], 0.0
    for dt in (gate / 16, gate / 32):
        per_period = step_grid(t_disc, dt, drive.frequency)[1]
        every = per_period - 1 if stride == "period - 1" else stride
        finals.append(_final(basis, coupling, drive, t_disc, dt, every))
        bound += np.finfo(float).eps * (per_period / 2 + 2 * half_periods)
    assert np.abs(finals[0] - finals[1]).max() <= bound


@pytest.mark.parametrize("model", COUPLING_MODELS)
def test_the_exact_state_at_t_disc_holds_the_target_kappa_times_over_each_competitor(model):
    # the paper's premise read off the exact state, not first order, at the
    # tightest point measured: N = 14, instantaneous mode, kappa = 10, and the
    # target's coupling 2*sqrt(0.0999)/t_disc, a first-order weight of 0.0999
    # just inside the guard. The ratio reads 11.75 (uniform) and 10.23 (decaying)
    target, kappa = 14, 10.0
    basis = build_basis(2 * target + 2)
    unit = build_coupling(basis, model, 1.0)
    t_disc = discrimination_time(target, basis, unit, kappa, "instantaneous")
    w_target = 2.0 * math.sqrt(0.0999) / t_disc
    _, run, _ = _prepare_run(target, strength=w_target / abs(unit.vacuum_row[target - 1]),
                             kappa=kappa, model=model, mode="instantaneous")
    p = np.abs(run.final) ** 2
    competitors = p.copy()
    competitors[[0, target - 1]] = 0.0  # every excited level but the target
    assert p[target - 1] >= kappa * competitors.max()
    assert np.argmax(competitors) + 1 == target + 1


def test_run_prepare_at_400_maps_periods_at_low_rank():
    report, run, widths = _prepare_run(400)
    assert report.status == "pass" and run.norm_drift <= 1e-11
    assert len(widths) == 1 and widths[0] < report.manifest["n_max"] / 8


@pytest.mark.parametrize("periods", [0.4, 1.0, 3.0, 7.5])
@pytest.mark.parametrize("stride", [1, 7, "period", 10**9])
def test_sample_grid_matches_the_tracer_count(periods, stride):
    basis, coupling, drive = _uniform_setup(14, 6, 1e-3)
    dt = max_stable_dt(basis, coupling) / 2
    t_final = periods * 2.0 * math.pi / drive.frequency
    h, per_period = step_grid(t_final, dt, drive.frequency)
    stride = (per_period or 1) if stride == "period" else stride
    args = (vacuum_state(basis), basis, coupling, drive, t_final, dt)
    run = propagate(*args, sample_stride=stride)
    # the bench tracer's own check: samples at k*h for k = stride, 2*stride,
    # ... before t_final, plus the final state; it raises on any other count
    _propagate_counts(Counter(), args, {"sample_stride": stride}, run)
    assert run.times[-1] == t_final
    inner = run.times[1:-1]
    assert np.array_equal(inner, stride * np.arange(1, len(inner) + 1) * h)
    assert not len(inner) or inner[-1] < t_final - h / 2


@pytest.mark.parametrize("offset", [-0.3, 0.3])
def test_run_ending_within_half_a_step_of_a_period_boundary(offset):
    basis, coupling, drive = _uniform_setup(14, 6, 1e-3)
    dt = max_stable_dt(basis, coupling) / 2
    period = 2.0 * math.pi / drive.frequency
    h, per_period = step_grid(3 * period, dt, drive.frequency)
    t_final = 3 * period + offset * h
    assert step_grid(t_final, dt, drive.frequency) == (h, per_period)
    run = propagate(vacuum_state(basis), basis, coupling, drive, t_final, dt,
                    sample_stride=per_period)
    # samples at T and 2T; the one at 3T lies within h/2 of the end and is dropped
    assert run.times.tolist() == [0.0, per_period * h, 2 * per_period * h, t_final]
    stepped = _final(basis, coupling, drive, t_final, dt, 1)
    assert np.abs(run.final - stepped).max() <= 1e-12


@pytest.mark.parametrize("frequency, t_final", [(math.log(6), 0.5), (1e-300, 2.0)])
def test_run_without_a_whole_period_steps_on_the_plain_grid(frequency, t_final):
    # shorter than one period (T = 3.5), or no finite period at all: every
    # step is taken at h0 = t_final/ceil(t_final/dt), as without the period map
    n_max, lam, dt = 14, 1e-3, 1e-3
    basis = build_basis(n_max)
    coupling = build_coupling(basis, "star-uniform", lam)
    drive = DriveConfig(frequency=frequency)
    assert step_grid(t_final, dt, frequency) == (t_final / round(t_final / dt), 0)
    run = propagate(vacuum_state(basis), basis, coupling, drive, t_final, dt)
    assert len(run.times) == round(t_final / dt) + 1 and run.times[-1] == t_final
    psi_ref = reference_state(n_max, lam, frequency, t_final, round(t_final / (dt / 4)))
    assert np.abs(run.final - psi_ref).max() <= 1e-12


def test_period_map_holds_order_n_r_memory():
    # n = 3000 over three periods (r = 79): V and its QR, V^H, the kernel's
    # buffer and 18-row operators stay within 5*16*n*r bytes, under a quarter
    # of a dense map's 16*n^2
    n = 3000
    basis, coupling, drive = _uniform_setup(n, 2, 1e-3)
    dt = max_stable_dt(basis, coupling)
    period = 2.0 * math.pi / drive.frequency
    r = primecavity.dynamics._map_basis(basis, coupling, period).shape[1]
    tracemalloc.start()
    try:
        jumped = _final(basis, coupling, drive, 3 * period, dt, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r < n / 8 and peak <= 5 * 16 * n * r < 16 * n * n / 4
    stepped = _final(basis, coupling, drive, 3 * period, dt, 7)
    assert np.abs(jumped - stepped).max() <= 1e-12


def test_prepare_sizes_to_44_levels_build_the_period_map(monkeypatch):
    # targets 6..21 at 8% target weight (n = 14..44): each run steps its map
    # basis through half a period, K/2 steps (the second half mirrors the
    # first), and nothing wider, on a stage table of K/2 rows; the basis is
    # the full n columns up to n = 26 and 25 columns (r < n) from n = 28
    steps, rows, grids = [], [], []
    kernel, step_grid_ = primecavity.dynamics._Kernel, primecavity.dynamics.step_grid
    stages, run = kernel.stages, kernel.run

    def stages_spy(self, starts):
        rows.append(len(starts))
        return stages(self, starts)

    def run_spy(self, x, table):  # a table of J-step matrices is 2J + 2 wide
        steps.append((x.shape[1], len(table) * (table.shape[-1] // 2 - 1)))
        return run(self, x, table)

    def grid_spy(*args):
        grids.append(step_grid_(*args))
        return grids[-1]

    monkeypatch.setattr(kernel, "stages", stages_spy)
    monkeypatch.setattr(kernel, "run", run_spy)
    monkeypatch.setattr(primecavity.dynamics, "step_grid", grid_spy)
    for target in range(6, 22):
        for log in (steps, rows, grids):
            log.clear()
        report, _, widths = _prepare_run(target)
        assert report.status == "pass"
        widest = max(w for w, _ in steps)
        assert widths == [widest] == [2 * target + 2 if target <= 12 else 25], target
        half = grids[0][1] // 2  # K/2
        assert sum(k for w, k in steps if w == widest) == half == max(rows), target


@pytest.mark.parametrize("model", COUPLING_MODELS)
@pytest.mark.parametrize("units", [Units(), Units(hbar=1.3, omega=0.7)])
def test_second_half_of_a_period_mirrors_the_first(model, units):
    # Pi = diag(1, -1, ..., -1) flips the star W and keeps H0, and the drive
    # changes sign half a period on: there the stage matrices are Sigma A Sigma,
    # Sigma = diag(-1, -1, -1, 1), and the chunk matrices flip their 17 w-rows
    # and columns against e0. At target 14, n = 30, ceil(T/h0) is the odd 325
    # and K the even 326
    basis = build_basis(30, units)
    coupling = build_coupling(basis, model, 1e-3)
    drive = DriveConfig.resonant(basis, 14)
    dt = max_stable_dt(basis, coupling) / 2
    period = 2.0 * math.pi / drive.frequency
    for t_final in (3.3 * period, 40.0 * period, 3 * period):
        h, per_period = step_grid(t_final, dt, drive.frequency)
        h0 = t_final / math.ceil(t_final / dt - 1e-12)
        assert per_period % 2 == 0 and h == period / per_period and h <= h0 <= dt
    assert math.ceil(period / h0) == 325 and per_period == 326
    kernel = primecavity.dynamics._Kernel(basis, coupling, drive.frequency, h)
    starts = np.arange(per_period // 2 - per_period // 2 % 8) * h
    first, second = kernel.stages(starts), kernel.stages(starts + period / 2)
    for a, b, flips in [(first, second, 3), (kernel.chunks(first), kernel.chunks(second), 17)]:
        sign = np.array([-1.0] * flips + [1.0])
        mirrored = sign[:, None] * a * sign
        assert np.linalg.norm(b - mirrored) <= 1e-15 * np.linalg.norm(mirrored)


@pytest.mark.parametrize("model", COUPLING_MODELS)
@pytest.mark.parametrize("units", [Units(), Units(hbar=1.3, omega=0.7)])
def test_single_steps_use_the_chunk_operator_layout(model, units):
    # a kernel that takes only single steps builds the one-step gather and
    # spread alone; they are rows 0, 1, 2 and e0 of the fused gather and the
    # last four columns of the fused spread, bit for bit, and F is the P^2
    # of the fused build's powers P^0 .. P^2J
    basis = build_basis(30, units)
    coupling = build_coupling(basis, model, 1e-3)
    drive = DriveConfig.resonant(basis, 14)
    h = max_stable_dt(basis, coupling) / 2
    chunk = primecavity.dynamics._CHUNK
    single = primecavity.dynamics._Kernel(basis, coupling, drive.frequency, h)
    fused = primecavity.dynamics._Kernel(basis, coupling, drive.frequency, h)
    f, gather, spread = single.operators(1)
    _, h_j, s_j = fused.operators(chunk)
    assert list(single.built) == [1] and list(fused.built) == [chunk]
    powers = np.cumprod([np.ones_like(fused.p), *[fused.p] * (2 * chunk)], axis=0)
    assert f.tobytes() == powers[2][:, None].tobytes()
    assert gather.shape == (4, 30) and gather.tobytes() == h_j[[0, 1, 2, -1]].tobytes()
    assert spread.shape == (30, 4)
    assert spread.tobytes() == np.ascontiguousarray(s_j[:, -4:]).tobytes()


def test_closing_step_builds_only_the_single_step_operators(monkeypatch):
    # 1.3 periods at n = 30, K = 326: 423 whole steps and a closing step of
    # 0.8 h. Stride 141 leaves chunks and single steps to the main kernel,
    # which builds the one-step and the chunk operators once each; the
    # closing kernel builds the one-step operators only. The final state is
    # bit for bit the closing step taken on operators sliced from a fused
    # build of P^0 .. P^2J, as the kernel took it when it built both
    built = []
    kernel, chunk = primecavity.dynamics._Kernel, primecavity.dynamics._CHUNK
    operators = kernel.operators

    def operators_spy(self, j):
        if j not in self.built:
            built.append((self.h, j))
        return operators(self, j)

    monkeypatch.setattr(kernel, "operators", operators_spy)
    basis, coupling, drive = _uniform_setup(30, 14, 1e-3)
    dt = max_stable_dt(basis, coupling) / 2
    t_final = 1.3 * 2.0 * math.pi / drive.frequency
    h, per_period = step_grid(t_final, dt, drive.frequency)
    whole = int(t_final // h)
    rest = t_final - whole * h
    assert (per_period, whole) == (326, 423) and 0.5 * h < rest < h
    run = propagate(vacuum_state(basis), basis, coupling, drive, t_final, dt, sample_stride=141)
    assert sorted(built) == [(rest, 1), (h, 1), (h, chunk)]
    assert run.times[-2] == whole * h  # the state the closing step starts from

    closing = kernel(basis, coupling, drive.frequency, rest)
    powers = np.cumprod([np.ones_like(closing.p), *[closing.p] * (2 * chunk)], axis=0)
    gather = np.vstack([closing.w * powers, closing.e0])[[0, 1, 2, -1]]
    spread = np.column_stack([(powers[::-1] * closing.col).T, closing.e0])[:, -4:]
    start = run.states[-2][:, None]
    a = closing.stages(np.array([(whole % per_period) * h]))[0]
    expected = start * powers[2][:, None] + spread.dot(a.dot(gather.dot(start)))
    assert run.final.tobytes() == expected[:, 0].tobytes()


@settings(max_examples=10, deadline=None)
@given(
    target=st.integers(2, 30),
    model=st.sampled_from(COUPLING_MODELS),
    units=st.sampled_from([Units(), Units(hbar=1.3, omega=0.7)]),
    stride=st.integers(1, 60).filter(lambda s: s % 8),
    periods=st.floats(0.6, 3.5),
)
def test_fused_chunks_match_single_steps(target, model, units, stride, periods):
    basis = build_basis(2 * target + 2, units)
    coupling = build_coupling(basis, model, 1e-3)
    drive = DriveConfig.resonant(basis, target)
    dt = max_stable_dt(basis, coupling) / 2
    t_final = periods * 2.0 * math.pi / drive.frequency
    assume(int(t_final // step_grid(t_final, dt, drive.frequency)[0]) % 8)
    fused = propagate(vacuum_state(basis), basis, coupling, drive, t_final, dt,
                      sample_stride=stride)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primecavity.dynamics, "_CHUNK", 1)
        single = propagate(vacuum_state(basis), basis, coupling, drive, t_final, dt,
                           sample_stride=stride)
    assert np.array_equal(fused.times, single.times)
    assert np.abs(fused.states - single.states).max() <= 1e-12


def test_final_state_does_not_depend_on_the_stride():
    # 3.3 periods at n = 30: strides 1 and 7 split the chunks that hold a
    # sample into single steps, 10**9 maps three periods at rank 25; the final
    # states agree to rounding
    basis, coupling, drive = _uniform_setup(30, 14, 1e-3)
    dt = max_stable_dt(basis, coupling) / 2
    t_final = 3.3 * 2.0 * math.pi / drive.frequency
    first, *others = (_final(basis, coupling, drive, t_final, dt, s) for s in (1, 7, 10**9))
    assert all(np.abs(first - other).max() <= 1e-12 for other in others)


def test_map_build_holds_the_map_and_one_buffer():
    # n = 402 over three periods, the map's basis patched to the identity (the
    # full map): V is stepped in place, so the traced peak holds A, V^H and one
    # buffer, three n x n arrays
    n = 402
    basis, coupling, drive = _uniform_setup(n, 200, 1e-3)
    dt = max_stable_dt(basis, coupling)
    t_final = 3 * 2.0 * math.pi / drive.frequency
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primecavity.dynamics, "_map_basis",
                   lambda basis, *_: np.eye(basis.n_max, dtype=complex))
        tracemalloc.start()
        try:
            _final(basis, coupling, drive, t_final, dt, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert 3 * 16 * n * n < peak <= 4 * 16 * n * n


def test_step_grid_rejects_more_than_2_to_the_53_steps():
    assert step_grid(2.0**53, 1.0, 1e-300) == (1.0, 0)
    for t_final, dt in [(2.0**54, 1.0), (1.0, 1e-300), (1e300, 1e-300)]:
        with pytest.raises(ValueError, match=f"^dt={dt:g} is too small"):
            step_grid(t_final, dt, 1e-300)
