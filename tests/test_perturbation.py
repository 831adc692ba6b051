import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primecavity.perturbation
from primecavity import (
    COUPLING_MODELS,
    ConfigurationError,
    CouplingOperator,
    Units,
    build_basis,
    build_coupling,
    detuning,
    discrimination_time,
    excitation_probability,
    offresonant_envelope,
    run_scaling,
)

from primecavity.perturbation import _discrimination_times

from helpers import (
    scan_grid,
    unpruned_cutoffs,
    unpruned_envelope_time,
    unpruned_instantaneous_time,
)

# frozen from 40-digit evaluation of the closed forms
P_AT_3_FROM_2 = 4.900575098632455e-4      # w=0.01, t=10, resonance on 2
ENVELOPE_3_FROM_2 = 6.082652768529975e-4  # w=0.01
T_DISC_8_KAPPA_10 = 53.69665746082329     # 2*sqrt(10)/log(9/8)


def test_resonant_limit_is_quadratic():
    # removable singularity handled analytically: p = (w*t/2)^2
    assert excitation_probability(6, 6, 10.0, 0.01) == pytest.approx(2.5e-3, rel=1e-15)
    assert excitation_probability(2, 2, 0.0, 0.5) == 0.0


def test_resonant_probability_computes_no_detuning(monkeypatch):
    plain = excitation_probability(6, 6, 10.0, 0.01)
    full = excitation_probability(6, 6, 10.0, 0.01, counter_rotating=True)

    def refuse(*args, **kwargs):
        raise AssertionError("detuning computed on resonance")

    monkeypatch.setattr(primecavity.perturbation, "_detunings", refuse)
    assert excitation_probability(6, 6, 10.0, 0.01) == plain
    assert excitation_probability(6, 6, 10.0, 0.01, counter_rotating=True) == full
    for m, target in ((1, 1), (1, 6), (6, 1)):
        with pytest.raises(ValueError, match="excited labels start at 2"):
            excitation_probability(m, target, 1.0, 0.01)


def test_off_resonant_frozen_value():
    p = excitation_probability(3, 2, 10.0, 0.01)
    assert p == pytest.approx(P_AT_3_FROM_2, rel=1e-12)


def test_sinc_zero_at_full_period():
    for m, n in ((3, 2), (7, 6), (13, 12)):
        delta = abs(detuning(m, n))
        t_zero = 2 * math.pi / delta
        assert excitation_probability(m, n, t_zero, 0.01) < 1e-30


def test_detuning_symmetry():
    # depends on the detuning only through its square
    assert excitation_probability(3, 2, 7.3, 0.01) == excitation_probability(2, 3, 7.3, 0.01)


def test_unit_scaling():
    assert detuning(4, 2, Units(omega=2.0)) == pytest.approx(2 * math.log(2), rel=1e-15)
    # p scales as 1/hbar^2
    p1 = excitation_probability(3, 2, 5.0, 0.01, Units(hbar=1.0))
    p2 = excitation_probability(3, 2, 5.0, 0.01, Units(hbar=2.0))
    assert p2 == pytest.approx(p1 / 4.0, rel=1e-14)


def test_taylor_regime_all_levels_grow_quadratically():
    # before the nearest-neighbor detuning is resolved, every level tracks
    # the resonant quadratic to within 1%
    w = 1e-3
    for n in (10, 50, 200):
        delta_nn = abs(detuning(n + 1, n))
        t = 0.29 / delta_nn
        quadratic = (w * t / 2.0) ** 2
        for m in (n - 1, n, n + 1):
            p = excitation_probability(m, n, t, w)
            assert abs(p - quadratic) <= 0.01 * quadratic


def test_domain_errors():
    with pytest.raises(ValueError):
        excitation_probability(3, 2, -1.0, 0.01)
    with pytest.raises(ValueError):
        excitation_probability(1, 2, 1.0, 0.01)
    with pytest.raises(ValueError):
        excitation_probability(3, 1, 1.0, 0.01)


def test_envelope_frozen_value():
    assert offresonant_envelope(3, 2, 0.01) == pytest.approx(ENVELOPE_3_FROM_2, rel=1e-12)


def test_envelope_bounds_probability():
    for m, n in ((3, 2), (5, 6), (9, 6), (40, 32)):
        env = offresonant_envelope(m, n, 0.01)
        for t in (1.0, 5.0, 25.0):
            assert excitation_probability(m, n, t, 0.01) <= env * (1 + 1e-12)


def test_envelope_resonant_is_domain_error():
    with pytest.raises(ValueError):
        offresonant_envelope(6, 6, 0.01)


def test_envelope_nearest_neighbor_scaling():
    # Delta ~ 1/N, so the neighbor envelope approaches (w*N)^2
    w = 1e-3
    for n in (32, 128, 512):
        env = offresonant_envelope(n + 1, n, w)
        assert abs(env / (w * n) ** 2 - 1.0) <= 2.0 / n


def test_counter_rotating_variant():
    # negligible correction when the resonant term is healthy
    p_plain = excitation_probability(6, 6, 41.0, 1e-3)
    p_full = excitation_probability(6, 6, 41.0, 1e-3, counter_rotating=True)
    assert p_full == pytest.approx(p_plain, rel=0.03)
    # but it keeps the probability finite at the sinc zeros
    delta = abs(detuning(7, 6))
    t_zero = 2 * math.pi / delta
    assert excitation_probability(7, 6, t_zero, 1e-3) < 1e-30
    assert excitation_probability(7, 6, t_zero, 1e-3, counter_rotating=True) > 1e-12


def test_discrimination_time_closed_form():
    basis = build_basis(32)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    t = discrimination_time(8, basis, coupling, kappa=10.0)
    assert t == pytest.approx(T_DISC_8_KAPPA_10, rel=1e-12)
    # kappa = 1 collapses to 2/Delta_min
    t1 = discrimination_time(8, basis, coupling, kappa=1.0)
    assert t1 == pytest.approx(2.0 / math.log1p(1.0 / 8), rel=1e-12)


def test_discrimination_time_large_n_flat_tolerance():
    # the nearest-neighbour detuning must not lose digits to log(M) - log(N)
    basis = build_basis(4097)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    for n in (3921, 4096):
        expected = 2.0 * math.sqrt(10.0) / math.log1p(1.0 / n)
        t = discrimination_time(n, basis, coupling, kappa=10.0)
        assert abs(t - expected) <= 1e-12 * expected, n


def test_discrimination_time_grid_scan_oracle():
    # independent oracle: scan the closed-form probabilities on a dense grid
    # for the first time the target beats kappa times the worst envelope
    basis = build_basis(32)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    kappa, target, w = 10.0, 8, 1e-3
    envelopes = [
        offresonant_envelope(m, target, w)
        for m in range(2, basis.n_max + 1)
        if m != target
    ]
    threshold = kappa * max(envelopes)
    step = 1e-3
    t = 0.0
    while excitation_probability(target, target, t, w) < threshold:
        t += step
    assert abs(t - discrimination_time(target, basis, coupling, kappa=kappa)) <= 2 * step


def test_discrimination_time_linear_growth():
    basis = build_basis(164)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    kappa = 10.0
    for n in (64, 128):
        t = discrimination_time(n, basis, coupling, kappa=kappa)
        # t/N approaches 2*sqrt(kappa)/omega from above, within O(1/N)
        assert abs(t / (n * 2 * math.sqrt(kappa)) - 1.0) <= 1.0 / n


def test_discrimination_time_monotonicity():
    basis = build_basis(40)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    times = [discrimination_time(n, basis, coupling, kappa=10.0) for n in (4, 8, 16, 32)]
    assert times == sorted(times)  # smaller gap (larger N) needs more time
    kappas = [discrimination_time(8, basis, coupling, kappa=k) for k in (1, 2, 5, 10, 20)]
    assert kappas == sorted(kappas)


def test_discrimination_time_omega_scaling():
    lam = 1e-3
    t_ref = discrimination_time(
        8, build_basis(32), build_coupling(build_basis(32), "star-uniform", lam), kappa=10.0
    )
    basis2 = build_basis(32, Units(omega=2.0))
    coupling2 = build_coupling(basis2, "star-uniform", lam)
    t_fast = discrimination_time(8, basis2, coupling2, kappa=10.0)
    assert t_fast == t_ref / 2.0  # exact, floats halve cleanly


def test_discrimination_time_star_decay_uses_worst_competitor():
    basis = build_basis(16)
    coupling = build_coupling(basis, "star-decay", 1e-2)
    target = 4
    t = discrimination_time(target, basis, coupling, kappa=9.0)
    w_target = abs(coupling.vacuum_row[target - 1])
    worst = max(
        abs(coupling.vacuum_row[m - 1]) / abs(detuning(m, target))
        for m in range(2, 17)
        if m != target
    )
    assert t == pytest.approx(2.0 * 3.0 * worst / w_target, rel=1e-12)
    # for the decaying star at N=4 the lower neighbor sets the bound
    assert worst == pytest.approx(
        abs(coupling.vacuum_row[2]) / abs(detuning(3, target)), rel=1e-12
    )


def test_discrimination_time_instantaneous_mode():
    basis = build_basis(32)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    t_env = discrimination_time(8, basis, coupling, kappa=10.0, mode="envelope")
    t_inst = discrimination_time(8, basis, coupling, kappa=10.0, mode="instantaneous")
    assert 0.0 < t_inst <= t_env
    # the dominance must hold throughout one nearest-neighbor period
    period = 2 * math.pi / math.log1p(1.0 / 8)
    w = 1e-3
    for t in np.linspace(t_inst, t_inst + period, 257):
        p_target = excitation_probability(8, 8, float(t), w)
        worst = max(
            excitation_probability(m, 8, float(t), w) for m in range(2, 33) if m != 8
        )
        assert p_target >= 10.0 * worst * (1 - 1e-9)


@pytest.mark.parametrize("model", ["star-uniform", "star-decay"])
@pytest.mark.parametrize("n", [600, 5000])
def test_instantaneous_scan_blocking_is_bit_identical(monkeypatch, model, n):
    basis = build_basis(2 * n + 2)  # the nearest neighbours sit in an inner block
    coupling = build_coupling(basis, model, 1e-3)
    for kappa in (10.0, 1e4):  # 4 and over 100 competitors survive the pruning
        blocked = discrimination_time(n, basis, coupling, kappa, "instantaneous")
        monkeypatch.setattr(primecavity.perturbation, "_WINDOW_CELLS", 7)  # one level a block
        assert discrimination_time(n, basis, coupling, kappa, "instantaneous") == blocked
        monkeypatch.setattr(primecavity.perturbation, "_WINDOW_CELLS", 1 << 30)  # one block
        assert discrimination_time(n, basis, coupling, kappa, "instantaneous") == blocked
        monkeypatch.undo()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 400),
    kappa=st.floats(1.0, 1000.0),
    model=st.sampled_from(COUPLING_MODELS),
    units=st.sampled_from([Units(), Units(hbar=1.3, omega=0.7)]),
    wide=st.booleans(),
)
def test_pruned_scan_equals_unpruned_reference(n, kappa, model, units, wide):
    basis = build_basis(2 * n + 2 if wide else n + 1, units)
    coupling = build_coupling(basis, model, 1e-3)
    t = discrimination_time(n, basis, coupling, kappa=kappa, mode="instantaneous")
    assert t == unpruned_instantaneous_time(n, basis, coupling, kappa)


@pytest.mark.parametrize("model", COUPLING_MODELS)
@pytest.mark.parametrize("n,kappa", [(600, 10.0), (600, 1000.0), (5000, 1.5), (5000, 10.0)])
def test_pruned_scan_equals_unpruned_reference_large_n(model, n, kappa):
    basis = build_basis(2 * n + 2, Units(hbar=1.3, omega=0.7))
    coupling = build_coupling(basis, model, 1e-3)
    t = discrimination_time(n, basis, coupling, kappa=kappa, mode="instantaneous")
    assert t == unpruned_instantaneous_time(n, basis, coupling, kappa)


@pytest.mark.parametrize("model,n,kappa", [
    ("star-uniform", 8, 10.0), ("star-decay", 40, 100.0), ("star-uniform", 199, 1e4),
    ("star-decay", 8, 3.0), ("star-decay", 6, 100.0)])  # a cutoff one index early moves these
def test_cutoff_inside_the_deciding_window_is_bit_identical(model, n, kappa):
    basis = build_basis(2 * n + 2)
    coupling = build_coupling(basis, model, 1e-3)
    t = discrimination_time(n, basis, coupling, kappa, "instantaneous")
    assert t == unpruned_instantaneous_time(n, basis, coupling, kappa)
    # a competitor drops out of the scan inside the one-period window that sets t_disc; in the
    # last two cases at its first point, so the cutoff itself decides t_disc
    start = np.flatnonzero(scan_grid(n, basis, coupling, kappa)[0] == t)[0]
    cutoffs = unpruned_cutoffs(n, basis, coupling, kappa)
    assert np.any((cutoffs >= start) & (cutoffs < start + 65))


@pytest.mark.parametrize("model", COUPLING_MODELS)
def test_one_target_calls_equal_the_sweep_at_kappa_1e4(model):
    # blocks of the sweep mix targets; at N = 2 every level of the basis is decisive
    targets = [2, 3, 8, 40, 199, 600, 4096]
    basis = build_basis(2 * targets[-1] + 2, Units(hbar=1.3, omega=0.7))
    coupling = build_coupling(basis, model, 1e-3)
    sweep = _discrimination_times(targets, basis, coupling, 1e4, "instantaneous")
    assert sweep == [discrimination_time(n, basis, coupling, 1e4, "instantaneous")
                     for n in targets]
    for n in (2, 600):
        assert sweep[targets.index(n)] == unpruned_instantaneous_time(n, basis, coupling, 1e4)


@pytest.mark.parametrize("units,zero", [
    (Units(hbar=1e-158, omega=1e156), None),  # (w/hbar)**2 and Delta**2 both overflow
    (Units(hbar=1e160, omega=1e-161), 9),  # w_9 = 0 and Delta_9**2 underflows to 0
])
def test_nan_envelope_keeps_its_competitor_in_the_scan(units, zero):
    # a nan envelope decides nothing by itself, but its probabilities leave the float range
    basis = build_basis(17, units)
    row = np.full(17, 1e-3, dtype=complex)
    row[0] = 0.0
    if zero:
        row[zero - 1] = 0.0
    coupling = CouplingOperator("general", 1e-3, row)
    with pytest.raises(ConfigurationError, match="probabilities of target 8 past the float"):
        discrimination_time(8, basis, coupling, 10.0, "instantaneous")


def test_instantaneous_sweep_to_a_million_levels():
    targets = [8, 16, 10**6]
    scan = run_scaling(targets, mode="instantaneous").records
    envelope = run_scaling(targets).records
    for rec, env in zip(scan, envelope):
        assert rec.t_disc <= env.t_disc
        assert rec.ratio > 1


def test_huge_kappa_scan_grid_is_a_configuration_error():
    basis = build_basis(17)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    grid = r"kappa=1e\+300 needs a scan grid of 2\.04e\+151 points"
    with pytest.raises(ConfigurationError, match=grid):
        discrimination_time(16, basis, coupling, kappa=1e300, mode="instantaneous")


def test_scan_out_of_memory_names_kappa(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    basis = build_basis(17)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    monkeypatch.setattr(np, "sin", exhausted)  # the scan's block allocation fails
    with pytest.raises(ConfigurationError, match=r"kappa=10 needs a scan grid of \d+ points"):
        discrimination_time(16, basis, coupling, kappa=10.0, mode="instantaneous")


def test_instantaneous_scan_memory_is_bounded():
    basis = build_basis(20_001)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    tracemalloc.start()
    try:
        discrimination_time(20_000, basis, coupling, mode="instantaneous")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (competitors x grid) array at this size is 20 MB; blocks keep the peak small
    assert peak < 8e6


def test_discrimination_time_domain_errors():
    basis = build_basis(8)
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    with pytest.raises(ValueError):
        discrimination_time(8, basis, coupling)  # upper neighbor missing
    with pytest.raises(ValueError):
        discrimination_time(4, basis, coupling, kappa=0.5)
    with pytest.raises(ConfigurationError):
        discrimination_time(4, basis, coupling, mode="adaptive")


def test_discrimination_time_rejects_a_coupling_one_level_longer():
    basis = build_basis(16)
    coupling = build_coupling(build_basis(17), "star-uniform", 1e-3)
    with pytest.raises(ValueError, match="coupling and basis dimensions differ"):
        discrimination_time(8, basis, coupling)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    kappa=st.floats(1.0, 100.0),
    model=st.sampled_from(COUPLING_MODELS),
    mode=st.sampled_from(["envelope", "instantaneous"]),
    units=st.sampled_from([Units(), Units(hbar=1.3, omega=0.7)]),
    wide=st.booleans(),
)
def test_time_energy_product_stays_above_hbar_n_log_n(n, kappa, model, mode, units, wide):
    n_max = 2 * n + 2 if wide else n + 1
    study = run_scaling([n], kappa=kappa, mode=mode, model=model, units=units, n_max=n_max)
    assert study.records[0].ratio > 1


@pytest.mark.parametrize("model", COUPLING_MODELS)
def test_instantaneous_scan_waits_half_a_beat(model):
    # at kappa = 1 the first-order dominance holds from the first grid point
    units = Units(hbar=1.3, omega=0.7)
    for n in (2, 3, 8, 64, 199):
        basis = build_basis(n + 1, units)
        coupling = build_coupling(basis, model, 1e-3)
        t_env = discrimination_time(n, basis, coupling, kappa=1.0)
        t = discrimination_time(n, basis, coupling, kappa=1.0, mode="instantaneous")
        half_beat = math.pi / (units.omega * math.log1p(1.0 / n))
        assert t == t_env or t >= half_beat * (1 - 1e-12)
        assert t * units.omega / n > 1  # the ratio t_disc*E_N / (hbar*N*log N)


@pytest.mark.parametrize("field", ["hbar", "omega"])
def test_units_reject_subnormal_values(field):
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive, not subnormal"):
        Units(**{field: 1e-310})
    assert getattr(Units(**{field: sys.float_info.min}), field) == sys.float_info.min


@pytest.mark.parametrize("mode", ["envelope", "instantaneous"])
def test_discrimination_time_names_omega_when_the_detuning_underflows(mode):
    basis = build_basis(18, Units(omega=2.3e-308))
    coupling = build_coupling(basis, "star-uniform", 1e-3)
    with pytest.raises(ConfigurationError, match="^omega=2.3e-308 is too small for target 8"):
        discrimination_time(8, basis, coupling, mode=mode)


@settings(max_examples=40, deadline=None)
@given(
    targets=st.lists(st.integers(2, 300), min_size=1, max_size=6),
    spread=st.floats(0.0, 1.0),
    kappa=st.floats(1.0, 1e4),
    model=st.sampled_from([*COUPLING_MODELS, "general"]),
    mode=st.sampled_from(["envelope", "instantaneous"]),
    units=st.sampled_from([Units(), Units(hbar=1.3, omega=0.7)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_sweep_equals_unpruned_references(targets, spread, kappa, model, mode, units,
                                                   seed):
    # n_max from N+1 to 2N+2 for the top target N; every t_disc the same to the bit
    top, labels = max(targets), sorted(set(targets))
    basis = build_basis(top + 1 + round(spread * (top + 1)), units)
    if model == "general":  # phases, a tenfold spread and two spikes: windows go wide
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * np.pi * rng.random(basis.n_max))
        row = 1e-3 * rng.uniform(0.1, 1.0, basis.n_max) * phases
        row[rng.integers(1, basis.n_max, size=2)] *= 4.0
        row[0] = 0.0
        coupling = CouplingOperator("general", 1e-3, row)
        kappa = kappa if mode == "envelope" else min(kappa, 100.0)  # keeps the scan grid small
        times = _discrimination_times(labels, basis, coupling, kappa, mode)
    else:
        coupling = build_coupling(basis, model, 1e-3)
        study = run_scaling(targets, kappa, mode, model, units=units, n_max=basis.n_max)
        times = [r.t_disc for r in study.records]
    reference = unpruned_instantaneous_time if mode == "instantaneous" else unpruned_envelope_time
    assert times == [reference(n, basis, coupling, kappa) for n in labels]


@pytest.mark.parametrize("mode", ["envelope", "instantaneous"])
def test_windowed_sweep_memory_is_bounded(mode):
    # ~200 star-decay targets to 10**6: windows reach thousands of levels, searched in blocks
    targets = sorted(set(np.geomspace(8, 10**6, 200).astype(int).tolist()))
    basis = build_basis(10**6 + 1)
    coupling = build_coupling(basis, "star-decay", 1e-3)
    tracemalloc.start()
    try:
        times = _discrimination_times(targets, basis, coupling, 10.0, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # |vacuum_row| is 8 MB; one window pass over every target at once would add ~40 MB
    assert peak < 16e6
    envelope = 2 * math.sqrt(10) / math.log1p(1e-6)  # near it: the upper neighbour decides
    assert 0.7 * envelope < times[-1] < envelope * (1 + 1e-6)


def test_general_row_window_grows_to_the_whole_basis_in_blocks():
    # the coupling to level 2 dwarfs the rest, so no window short of the basis can stop
    basis = build_basis(100_001)
    row = np.full(basis.n_max, 1e-3, dtype=complex)
    row[0], row[1] = 0.0, 1e3
    coupling = CouplingOperator("general", 1e-3, row)
    targets = list(range(1_000, 100_000, 2_000))
    tracemalloc.start()
    try:
        times = _discrimination_times(targets, basis, coupling, 10.0, "envelope")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6  # one pass over all 50 whole-basis rows at once would take ~80 MB each
    for n in targets[::7]:
        assert times[targets.index(n)] == unpruned_envelope_time(n, basis, coupling, 10.0)


@pytest.mark.parametrize("mode", ["envelope", "instantaneous"])
@pytest.mark.parametrize("kappa", [1.0, 10.0])
@pytest.mark.parametrize("spike,factor", [(73, 30.0), (7, 100.0)])
def test_worst_competitor_just_outside_the_first_window(spike, factor, kappa, mode):
    # target 40 reads 8..72 first; the spike outside outweighs every level inside
    basis = build_basis(200)
    row = np.full(200, 1e-3, dtype=complex)
    row[0], row[spike - 1] = 0.0, factor * 1e-3
    coupling = CouplingOperator("general", 1e-3, row)
    inside = 1.0 / math.log1p(1.0 / 40)
    assert factor / abs(detuning(spike, 40)) > inside
    reference = unpruned_instantaneous_time if mode == "instantaneous" else unpruned_envelope_time
    assert discrimination_time(40, basis, coupling, kappa, mode) == reference(
        40, basis, coupling, kappa)


@pytest.mark.parametrize("mode", ["envelope", "instantaneous"])
def test_overflowing_coupling_ratio_names_lambda(mode):
    basis = build_basis(17)
    coupling = build_coupling(basis, "star-uniform", 1e308)
    message = r"^lambda=1e\+308 is too large for target 8: its w_M/Delta_M overflows"
    with pytest.raises(ConfigurationError, match=message):
        discrimination_time(8, basis, coupling, mode=mode)


@pytest.mark.parametrize("strength,units", [
    (1e-200, Units()),               # p_target underflows: the scan returned t_envelope
    (1e150, Units()),                # p_target overflows: the scan returned the half-beat floor
    (1e-3, Units(hbar=1e-200)),
])
def test_scan_probabilities_past_the_float_range_name_lambda_and_hbar(strength, units):
    basis = build_basis(5408, units)
    coupling = build_coupling(basis, "star-uniform", strength)
    message = re.escape(f"lambda={strength:g} with hbar={units.hbar:g} puts the first-order "
                        f"probabilities of target 5407 past the float range")
    with pytest.raises(ConfigurationError, match=message):
        discrimination_time(5407, basis, coupling, mode="instantaneous")
    # lambda cancels: inside the range the scan gives the same time for any coupling
    plain = build_coupling(basis, "star-uniform", 1e-150 if strength < 1 else 1e100)
    reference = build_coupling(build_basis(5408), "star-uniform", 1e-3)
    assert discrimination_time(5407, basis, plain, mode="instantaneous") == pytest.approx(
        discrimination_time(5407, build_basis(5408), reference, mode="instantaneous"), rel=1e-12)
