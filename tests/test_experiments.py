import json
import math

import pytest

from primecavity import (
    ConfigurationError,
    ScalingRecord,
    SpectrumRow,
    Units,
    build_basis,
    fit_loglog,
    format_occupation,
    run_prepare,
    run_scaling,
    run_spectrum,
    upper_gap,
)
from primecavity.experiments import (
    prepare_report_dict,
    read_scaling_csv,
    scaling_study_dict,
    spectrum_csv_text,
    spectrum_manifest,
    write_gnuplot_script,
    write_prepare_csv,
    write_prepare_json,
    write_scaling_csv,
    write_spectrum_csv,
)

OLS_SLOPE_8_TO_128 = 0.9806887879886452  # closed-form sweep, kappa=10
TWO_SQRT_10 = 6.324555320336759


def test_spectrum_rows():
    rows = run_spectrum(4)
    assert [r.label for r in rows] == [1, 2, 3, 4]
    assert [r.factors for r in rows] == ["1", "2", "3", "2^2"]
    energies = [r.energy for r in rows]
    assert energies[0] == 0.0
    assert energies[1] == pytest.approx(math.log(2), rel=1e-15)
    assert energies[3] == pytest.approx(math.log(4), rel=1e-15)
    for r in rows:
        assert r.gap == pytest.approx(math.log1p(1.0 / r.label), rel=1e-15)


def test_spectrum_factors_string():
    rows = run_spectrum(12)
    assert rows[11].factors == "2^2*3"


def test_spectrum_csv_layout(tmp_path):
    rows = run_spectrum(6)
    manifest = spectrum_manifest(6, Units())
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(rows, manifest, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert json.loads(lines[0][len("# manifest: "):]) == manifest
    assert lines[1] == "N,factors,energy,gap"
    assert len(lines) == 2 + 6


def test_spectrum_rows_match_per_label_construction():
    units = Units(hbar=1.3, omega=0.7)
    basis = build_basis(3000, units)
    expected = [
        SpectrumRow(
            label=n,
            factors=format_occupation(basis.occupation(n)),
            energy=basis.energy(n),
            gap=upper_gap(n, units),
        )
        for n in basis.labels
    ]
    assert run_spectrum(3000, units) == expected


def test_spectrum_csv_floats_reimport_bit_exactly():
    units = Units(hbar=1.3, omega=0.7)
    rows = run_spectrum(500, units)
    lines = spectrum_csv_text(rows, spectrum_manifest(500, units)).splitlines()[2:]
    for row, line in zip(rows, lines, strict=True):
        label, factors, energy, gap = line.split(",")
        assert (int(label), factors, float(energy), float(gap)) == (
            row.label, row.factors, row.energy, row.gap
        )


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

    jpath = tmp_path / "report.json"
    write_prepare_json(report, jpath)
    assert json.loads(jpath.read_text())["results"]["readout"] == "2*3"

    cpath = tmp_path / "curves.csv"
    write_prepare_csv(report, cpath)
    lines = cpath.read_text().splitlines()
    assert lines[1] == "t,p_exact,p_first_order"
    assert len(lines) == 2 + len(report.curve_times)


def test_gnuplot_script_emission(tmp_path):
    study = run_scaling([8, 16, 32])
    path = tmp_path / "scaling.csv"
    write_scaling_csv(study, path)
    gp = write_gnuplot_script(path, "scaling")
    assert gp.exists()
    assert "logscale" in gp.read_text()
    with pytest.raises(ConfigurationError):
        write_gnuplot_script(path, "histogram")
