import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primecavity.experiments
from primecavity import (
    ConfigurationError,
    ScalingRecord,
    Units,
    build_basis,
    factorize,
    fit_loglog,
    format_occupation,
    level_energy,
    run_prepare,
    run_scaling,
    run_spectrum,
    upper_gap,
)
from primecavity.cli import main as run_cli
from primecavity.experiments import (
    _CSV_BLOCK_ROWS,
    _VECTOR_MIN,
    _format_17g,
    prepare_csv_lines,
    prepare_report_dict,
    scaling_csv_lines,
    scaling_study_dict,
    spectrum_csv_lines,
    spectrum_dict,
    spectrum_manifest,
    write_gnuplot_script,
    write_scaling_csv,
)

from helpers import read_scaling_csv

OLS_SLOPE_8_TO_128 = 0.9806887879886452  # closed-form sweep, kappa=10
TWO_SQRT_10 = 6.324555320336759


def test_spectrum_rows():
    table = run_spectrum(4)
    assert list(table.labels) == [1, 2, 3, 4]
    assert table.factors == ["1", "2", "3", "2^2"]
    energies = table.energies
    assert energies[0] == 0.0
    assert energies[1] == pytest.approx(math.log(2), rel=1e-15)
    assert energies[3] == pytest.approx(math.log(4), rel=1e-15)
    for n, gap in zip(table.labels, table.gaps, strict=True):
        assert gap == pytest.approx(math.log1p(1.0 / n), rel=1e-15)


def test_spectrum_factors_string():
    assert run_spectrum(12).factors[11] == "2^2*3"


def test_spectrum_csv_layout(tmp_path):
    manifest = spectrum_manifest(6, Units())
    path = tmp_path / "spectrum.csv"
    assert run_cli(["spectrum", "--nmax", "6", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert json.loads(lines[0][len("# manifest: "):]) == manifest
    assert lines[1] == "N,factors,energy,gap"
    assert len(lines) == 2 + 6


def test_spectrum_rows_match_per_label_construction():
    units = Units(hbar=1.3, omega=0.7)
    basis = build_basis(3000, units)
    table = run_spectrum(3000, units)
    assert list(table.labels) == list(basis.labels)
    assert table.factors == [format_occupation(factorize(n)) for n in basis.labels]
    assert table.energies.tolist() == basis.energy_vector.tolist()
    for n, energy in zip(basis.labels, table.energies):
        assert abs(energy - level_energy(n, units)) <= math.ulp(level_energy(n, units))
    assert table.gaps.tolist() == [upper_gap(n, units) for n in basis.labels]


def test_scaling_and_spectrum_print_the_same_energy():
    # np.log and math.log round apart at some labels (9170 and 19143 among these)
    study = run_scaling(list(range(2, 20001)))
    assert [r.energy for r in study.records] == run_spectrum(20001).energies[1:20000].tolist()


def test_spectrum_csv_floats_reimport_bit_exactly():
    units = Units(hbar=1.3, omega=0.7)
    table = run_spectrum(500, units)
    text = "".join(spectrum_csv_lines(table, spectrum_manifest(500, units)))
    lines = text.splitlines(keepends=True)[2:]
    for row, line in zip(zip(*table), lines, strict=True):
        label, factors, energy, gap = line.rstrip("\n").split(",")
        assert (int(label), factors, float(energy), float(gap)) == row


def test_spectrum_json_rows_equal_csv_rows():
    units = Units(hbar=1.3, omega=0.7)
    table = run_spectrum(2000, units)
    manifest = spectrum_manifest(2000, units)
    payload = json.loads(json.dumps(spectrum_dict(table, manifest)))
    assert payload["config"] == manifest
    lines = "".join(spectrum_csv_lines(table, manifest)).splitlines(keepends=True)[2:]
    for row, line in zip(payload["rows"], lines, strict=True):
        label, factors, energy, gap = line.rstrip("\n").split(",")
        assert (row["N"], row["factors"], row["energy"], row["gap"]) == (
            int(label), factors, float(energy), float(gap)
        )


@pytest.mark.parametrize("n_max", [2, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                   _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS + 1])
def test_spectrum_csv_blocks_equal_per_row_formatting(n_max):
    # the last two unit systems put every float but E_1 outside _format_17g's vector range
    for hbar, omega in [(1.3, 0.7), (1e-290, 1.0), (1e300, 10.0)]:
        units = Units(hbar=hbar, omega=omega)
        table = run_spectrum(n_max, units)
        manifest = spectrum_manifest(n_max, units)
        pieces = list(spectrum_csv_lines(table, manifest))
        assert pieces[:2] == [f"# manifest: {json.dumps(manifest)}\n", "N,factors,energy,gap\n"]
        assert len(pieces) == 2 + math.ceil(n_max / _CSV_BLOCK_ROWS)
        assert "".join(pieces[2:]) == "".join("%d,%s,%.17g,%.17g\n" % r for r in zip(*table))


def _percent_17g(values, end=""):
    return ["%.17g" % v + end for v in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from([1, _VECTOR_MIN - 1, _VECTOR_MIN, _VECTOR_MIN + 1, _CSV_BLOCK_ROWS,
                          3 * _CSV_BLOCK_ROWS]),
    seed=st.integers(0, 2**32 - 1),
    decimal=st.booleans(),
    drawn=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
    end=st.sampled_from(["", ",", "\n", "\r\n"]),
)
def test_format_17g_equals_percent_17g_on_any_float64(size, seed, decimal, drawn, end):
    # random bit patterns (every exponent, nan, inf and subnormals among them) or signed
    # log-uniform decimals, with drawn floats (+-0, the float extremes) mixed in
    rng = np.random.default_rng(seed)
    if decimal:
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    else:
        values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    values[rng.integers(0, size, len(drawn))] = drawn
    assert _format_17g(values, end) == _percent_17g(values, end)


def test_format_17g_equals_percent_17g_on_a_million_patterns_and_the_edge_cases():
    rng = np.random.default_rng(20261020)
    # every bit pattern between those of 1e-250 and 1e250 is equally likely: the vector range
    patterns = rng.integers(*np.array([1e-250, 1e250]).view(np.int64), 10**6, endpoint=True)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # a tie at 17 digits, x*10**(16 - e) = n + 1/2, is m*2**-j with m odd and m*5**j in
    # [1e17, 1e18): the 1e15 + k/4 family (j = 2), and j = 24, 25 below 1e-6, where
    # 10**(16 - e) is no double and r carries rounding error
    edges = [m * 2.0**-j for j in range(2, 26) for m in range(1, 2**53, 2)[:4001]
             if 10**17 <= m * 5**j < 10**18]
    edges += [(2**52 + 2 * k + 1) / 4 for k in range(4000)]
    # near-ties: x*10**k = n + 1/2 + c/2**b exactly (m*5**k = 2**(b-1) + c mod 2**b, with
    # m < 2**53), which r, within 1e-14 of it, may put on either side of the half
    for k in range(21, 60):
        for b in range(40, 53):
            for c in (-2, -1, 1, 2):
                m = (2 ** (b - 1) + c) * pow(5**k, -1, 2**b) % 2**b
                m += 2**b * -(-(2**52 - m) // 2**b)  # the first such m from 2**52
                if m < 2**53 and 10**16 <= m * 5**k // 2**b < 10**17:
                    edges.append(m / 2 ** (b + k))
    for values in (patterns.view(np.float64), np.concatenate([
            np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf), edges])):
        for start in range(0, len(values), _CSV_BLOCK_ROWS):  # one table block a call
            block = values[start : start + _CSV_BLOCK_ROWS]
            assert _format_17g(block) == _percent_17g(block)


def test_format_17g_gets_one_block_of_vector_min_to_block_rows_values(monkeypatch, tmp_path):
    # _csv_lines alone decides the block size and the short-table path: _format_17g has
    # no fallback for a short column, a long one or a long end
    calls = []

    def spy(values, end=""):
        calls.append((len(values), end))
        return _format_17g(values, end)

    monkeypatch.setattr(primecavity.experiments, "_format_17g", spy)
    for n_max in (2, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                  3 * _CSV_BLOCK_ROWS + 1):
        assert run_cli(["spectrum", "--nmax", str(n_max)]) == 0
    assert run_cli(["scaling"]) == 0
    assert run_cli(["prepare", "--target", "6", "--lambda", "0.0138", "--shots", "200",
                    "--format", "csv", "--out", str(tmp_path / "p.csv")]) == 0
    assert len(calls) == 12  # energy and gap of each spectrum block of _VECTOR_MIN+ rows
    assert all(_VECTOR_MIN <= n <= _CSV_BLOCK_ROWS and len(end) <= 2 for n, end in calls)


def test_spectrum_refuses_a_subnormal_gap_before_building_anything(monkeypatch):
    # gap(5000) = 1e-305*log1p(1/5000) printed as 1.9998000266626687e-309 under exit 0
    def unreachable(*args):
        raise AssertionError("the table was built before the gap was checked")

    units = Units(hbar=1e-305)
    assert run_spectrum(400, units).gaps[-1] >= sys.float_info.min
    with pytest.raises(ValueError, match="labels start at 1"):  # not a division by zero
        run_spectrum(0, units)
    monkeypatch.setattr(primecavity.experiments, "occupation_strings", unreachable)
    monkeypatch.setattr(primecavity.experiments, "build_basis", unreachable)
    with pytest.raises(ConfigurationError, match="^hbar=1e-305 and omega=1 put the gap of "
                                                 "label 5000 below the smallest normal float$"):
        run_spectrum(5000, units)


def test_spectrum_refuses_a_label_past_the_sieve_before_building_the_basis(monkeypatch):
    def unreachable(*args):
        raise AssertionError("build_basis ran before the sieve limit was checked")

    monkeypatch.setattr(primecavity.experiments, "build_basis", unreachable)
    with pytest.raises(MemoryError, match="sieve stops at 2147483647"):
        run_spectrum(2**31)
    assert run_cli(["spectrum", "--nmax", str(2**31)]) == 4


def test_scaling_sweep_reaches_a_million_levels():
    study = run_scaling([8, 16, 10**6])
    top = study.records[-1]
    assert top.label == 10**6
    expected = 2.0 * math.sqrt(10.0) / math.log1p(1.0 / 10**6)
    assert abs(top.t_disc - expected) <= 1e-12 * expected
    assert study.manifest["n_max"] == 10**6 + 1


def test_scaling_study_slope_and_ratios():
    study = run_scaling([8, 16, 32, 64, 128], kappa=10.0)
    assert [r.label for r in study.records] == [8, 16, 32, 64, 128]
    assert study.fit is not None
    assert study.fit.slope == pytest.approx(OLS_SLOPE_8_TO_128, abs=1e-10)
    assert 0.95 <= study.fit.slope <= 1.0
    for r in study.records:
        expected_t = 2.0 * math.sqrt(10.0) / math.log1p(1.0 / r.label)
        assert r.t_disc == pytest.approx(expected_t, rel=1e-12)
        assert r.energy == pytest.approx(math.log(r.label), rel=1e-15)
        assert r.product == pytest.approx(r.t_disc * r.energy, rel=1e-15)
        assert r.ratio == pytest.approx(r.product / (r.label * math.log(r.label)), rel=1e-15)
        assert r.ratio > 1.0
        assert r.bit_size == pytest.approx(math.log2(r.label), rel=1e-15)
    ratios = [r.ratio for r in study.records]
    assert ratios == sorted(ratios, reverse=True)  # decreasing toward 2*sqrt(kappa)
    assert abs(study.records[-1].ratio / TWO_SQRT_10 - 1.0) < 0.005


def test_scaling_omega_invariance():
    base = run_scaling([8, 16, 32])
    fast = run_scaling([8, 16, 32], units=Units(omega=2.0))
    for a, b in zip(base.records, fast.records):
        assert b.t_disc == a.t_disc / 2.0
        assert b.energy == 2.0 * a.energy
        assert b.ratio == a.ratio  # bit-identical by scale invariance


def test_scaling_without_enough_points_omits_fit():
    study = run_scaling([8, 16])
    assert study.fit is None
    assert len(study.records) == 2


def test_scaling_validation():
    with pytest.raises(ConfigurationError):
        run_scaling([])
    with pytest.raises(ConfigurationError):
        run_scaling([1, 8])
    with pytest.raises(ConfigurationError):
        run_scaling([8, 16], n_max=10)


def test_scaling_refuses_a_subnormal_target_energy():
    # hbar*omega is normal, but E_2 = hbar*omega*log(2) is not: it printed 1.59e-308
    units = Units(hbar=2.3e-308)
    with pytest.raises(ConfigurationError, match="^hbar=2.3e-308 and omega=1 put the energy "
                                                 "of target 2 below the smallest normal float$"):
        run_scaling([2, 3], units=units)
    assert run_scaling([3, 4], units=units).records[0].energy >= sys.float_info.min


@pytest.mark.parametrize("bad", [16.7, "9", True])
def test_scaling_targets_are_integer_labels(bad):
    # int() used to truncate: 16.7 swept label 16, and "9" swept label 9
    with pytest.raises(TypeError, match=repr(bad)):
        run_scaling([8, bad, 32])
    assert run_scaling([np.int64(8), 16, 32]).manifest["targets"] == [8, 16, 32]


def _synthetic_records(ts):
    return [
        ScalingRecord(label=n, bit_size=math.log2(n), t_disc=t,
                      energy=math.log(n), product=t * math.log(n),
                      ratio=t / n)
        for n, t in ts
    ]


def test_fit_loglog_exact_power_law():
    fit = fit_loglog(_synthetic_records([(8, 24.0), (16, 48.0), (32, 96.0), (64, 192.0)]))
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual_sum_squares == pytest.approx(0.0, abs=1e-20)


def test_fit_loglog_constant():
    fit = fit_loglog(_synthetic_records([(8, 7.0), (16, 7.0), (32, 7.0)]))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_loglog_matches_lstsq_on_random_sweeps():
    # the closed form from centred sums against numpy's least squares, over
    # seeded sweeps shaped like run_scaling's (one label per octave from 8 up
    # to 2**6..2**20) of noisy power laws t = c N^a
    rng = np.random.default_rng(11)
    for _ in range(200):
        labels = np.array([rng.integers(2**k, 2 ** (k + 1)) for k in range(3, rng.integers(6, 21))])
        t = np.exp(rng.uniform(1.0, 5.0) + rng.normal(0.0, 0.1, len(labels)))
        t *= labels ** rng.uniform(0.5, 2.0)
        fit = fit_loglog(_synthetic_records(zip(labels.tolist(), t.tolist())))
        x, y = np.log(labels), np.log(t)
        (slope, intercept), *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y,
                                                 rcond=None)
        assert abs(fit.slope - slope) <= 1e-12 * abs(slope)
        assert abs(fit.intercept - intercept) <= 1e-12 * abs(intercept)


def test_fit_loglog_errors():
    with pytest.raises(ValueError):
        fit_loglog(_synthetic_records([(8, 1.0), (16, 2.0)]))
    with pytest.raises(ValueError):
        fit_loglog(_synthetic_records([(8, 1.0), (8, 2.0), (16, 3.0)]))


def test_scaling_csv_roundtrip_bit_identical(tmp_path):
    study = run_scaling([8, 16, 32, 64, 128])
    path = tmp_path / "scaling.csv"
    write_scaling_csv(study, path)
    records, manifest = read_scaling_csv(path)
    assert records == study.records  # float fields compare bitwise
    assert manifest == study.manifest


def test_scaling_json_payload():
    study = run_scaling([8, 16, 32])
    payload = scaling_study_dict(study)
    assert payload["schema_version"] == 1
    assert payload["config"]["targets"] == [8, 16, 32]
    assert len(payload["records"]) == 3
    assert payload["fit"]["slope"] == study.fit.slope


def test_prepare_end_to_end_target_6():
    report = run_prepare(6, strength=0.0138, shots=2000, seed=1)
    assert report.status == "pass"
    assert report.readout == "2*3"
    assert report.readout_value == 6
    assert report.expected == "2*3"
    assert report.conditional_target_probability >= 0.9
    assert report.t_disc == pytest.approx(2 * math.sqrt(10) / math.log1p(1.0 / 6), rel=1e-12)
    assert report.norm_drift <= 1e-9
    assert len(report.curve_times) == len(report.curve_exact) == len(report.curve_first_order)
    assert report.curve_times[-1] == pytest.approx(report.t_disc, rel=1e-12)
    # closed form tracks the exact curve wherever it has grown past noise;
    # the counter-rotating wiggle contributes about (1/Omega)/t relative,
    # so the tolerance tightens as the drive runs longer
    omega_drive = math.log(6.0)
    for t, pe, pf in zip(report.curve_times, report.curve_exact, report.curve_first_order):
        if pe > 1e-8:
            assert abs(pe - pf) / pe < 0.02 + 2.0 / (omega_drive * t)
    assert abs(report.curve_exact[-1] - report.curve_first_order[-1]) \
        / report.curve_exact[-1] < 0.05
    assert report.manifest["target"] == 6
    assert report.manifest["n_max"] == 14


def test_prepare_default_step_drift_at_50():
    # criterion-7 coupling (~8% target weight); drift at the default step
    # must stay far inside the 1e-9 norm tolerance
    t_disc = 2.0 * math.sqrt(10.0) / math.log1p(1.0 / 50)
    report = run_prepare(50, strength=2.0 * math.sqrt(0.08) / t_disc, shots=100, seed=1)
    assert report.norm_drift <= 1e-11


def test_prepare_prime_target():
    report = run_prepare(2, strength=0.036, shots=2000, seed=1)
    assert report.status == "pass"
    assert report.readout == "2"
    assert report.readout_value == 2


def test_prepare_first_order_guard_trips_before_integration():
    with pytest.raises(ConfigurationError) as err:
        run_prepare(6, strength=1.0)
    assert "first-order guard" in str(err.value)


def test_prepare_truncation_rule():
    with pytest.raises(ConfigurationError):
        run_prepare(6, n_max=10)


def test_prepare_rejects_the_vacuum_as_target():
    with pytest.raises(ConfigurationError, match=r"target must be an excited label \(got 1\)"):
        run_prepare(target=1)


def test_prepare_inconclusive_run():
    # vanishing coupling leaves every shot in the vacuum
    report = run_prepare(6, strength=1e-7, shots=3, seed=0)
    assert report.status == "inconclusive"
    assert report.readout is None
    assert report.conditional_target_probability is None


def test_prepare_determinism():
    a = run_prepare(6, strength=0.0138, shots=1500, seed=9)
    b = run_prepare(6, strength=0.0138, shots=1500, seed=9)
    assert a == b


def test_prepare_report_dict_and_files(tmp_path):
    report = run_prepare(6, strength=0.0138, shots=500, seed=1)
    payload = prepare_report_dict(report)
    assert payload["schema_version"] == 1
    assert payload["config"]["lambda"] == 0.0138
    assert payload["results"]["status"] == "pass"
    assert isinstance(payload["results"]["counts"], dict)

    argv = ["prepare", "--target", "6", "--lambda", "0.0138", "--shots", "500", "--seed", "1"]
    jpath = tmp_path / "report.json"
    assert run_cli([*argv, "--out", str(jpath)]) == 0
    assert json.loads(jpath.read_text()) == json.loads(json.dumps(payload))
    assert json.loads(jpath.read_text())["results"]["readout"] == "2*3"

    cpath = tmp_path / "curves.csv"
    assert run_cli([*argv, "--format", "csv", "--out", str(cpath)]) == 0
    lines = cpath.read_bytes().decode().split("\n")
    assert lines[0] == f"# manifest: {json.dumps(report.manifest)}"
    assert lines[1] == "t,p_exact,p_first_order\r"  # rows end in CRLF, csv's dialect
    rows = [[float(x) for x in line.split(",")] for line in lines[2:-1]]
    assert rows == [list(r) for r in zip(report.curve_times, report.curve_exact,
                                         report.curve_first_order)]


def test_gnuplot_script_emission(tmp_path):
    study = run_scaling([8, 16, 32])
    path = tmp_path / "scaling.csv"
    write_scaling_csv(study, path)
    gp = write_gnuplot_script(path, "scaling")
    assert gp.exists()
    assert "logscale" in gp.read_text()
    with pytest.raises(ConfigurationError):
        write_gnuplot_script(path, "histogram")


def test_gnuplot_script_refuses_to_overwrite_its_own_csv(tmp_path):
    path = tmp_path / "levels.gp"
    write_scaling_csv(run_scaling([8, 16, 32]), path)
    before = path.read_bytes()
    with pytest.raises(ConfigurationError, match="another suffix"):
        write_gnuplot_script(path, "scaling")
    assert path.read_bytes() == before


_PREPARE_ECHO = (
    '# manifest: {"schema_version": 1, "command": "prepare", "target": 6, "n_max": 14, '
    '"coupling_model": "star-uniform", "lambda": 0.001, "kappa": 10.0, "mode": "envelope", '
    '"shots": 100, "seed": 0, "dt": 0.01, "hbar": 1.0, "omega": 1.0, '
    '"time_scope": "preparation only; measurement duration not modeled"}\n'
)
_SCALING_ECHO = (
    '# manifest: {"schema_version": 1, "command": "scaling", "targets": [8, 16, 32], '
    '"n_max": 33, "coupling_model": "star-uniform", "lambda": 0.001, "kappa": 10.0, '
    '"mode": "envelope", "hbar": 1.0, "omega": 1.0, '
    '"time_scope": "preparation only; measurement duration not modeled"}\n'
)
_SPECTRUM_ECHO = (
    '# manifest: {"schema_version": 1, "command": "spectrum", "n_max": 6, '
    '"hbar": 1.3, "omega": 0.7}\n'
)


def test_manifest_lines_are_pinned_key_order_included():
    # a reordered echo reads the same through json.loads, so compare the text
    assert next(prepare_csv_lines(run_prepare(6, dt=0.01, shots=100))) == _PREPARE_ECHO
    assert scaling_csv_lines(run_scaling([32, 8, 16]))[0] == _SCALING_ECHO
    units = Units(hbar=1.3, omega=0.7)
    assert next(spectrum_csv_lines(run_spectrum(6, units), spectrum_manifest(6, units))) \
        == _SPECTRUM_ECHO
