import json
import subprocess
import sys

import pytest

import primecavity.experiments
from primecavity import cli
from primecavity.experiments import PrepareReport


def run_cli(argv):
    return cli.main(argv)


def test_no_subcommand_is_config_error(capsys):
    assert run_cli([]) == 4
    assert "configuration error" in capsys.readouterr().err


def test_bad_flag_value_is_config_error(capsys):
    assert run_cli(["spectrum", "--nmax", "abc"]) == 4


def test_spectrum_stdout(capsys):
    assert run_cli(["spectrum", "--nmax", "6"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "N,factors,energy,gap"
    assert len(lines) == 8
    assert lines[2].startswith("1,1,0,")  # vacuum energy exactly zero
    assert float(lines[3].split(",")[2]) == pytest.approx(0.6931471805599453, rel=1e-15)


def test_spectrum_csv_and_gnuplot(tmp_path):
    out = tmp_path / "levels.csv"
    code = run_cli(["spectrum", "--nmax", "12", "--out", str(out), "--gnuplot-script"])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "levels.gp").exists()
    body = out.read_text().splitlines()
    assert body[1] == "N,factors,energy,gap"
    assert body[2 + 11].split(",")[1] == "2^2*3"


def test_spectrum_json(tmp_path):
    out = tmp_path / "levels.json"
    assert run_cli(["spectrum", "--nmax", "12", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["rows"][11]["factors"] == "2^2*3"


@pytest.mark.parametrize("nmax", ["2", "3000"])
def test_spectrum_stdout_bytes_equal_out_file(nmax, tmp_path, capsys):
    argv = ["spectrum", "--nmax", nmax, "--hbar", "1.3", "--omega", "0.7"]
    assert run_cli(argv) == 0
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "levels.csv"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert stdout == out.read_bytes()
    assert stdout.count(b"\n") == 2 + int(nmax)


def test_spectrum_nmax_too_small():
    assert run_cli(["spectrum", "--nmax", "1"]) == 4


def test_prepare_pass_and_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["prepare", "--target", "6", "--lambda", "0.0138",
            "--shots", "1500", "--seed", "1"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["results"]["status"] == "pass"
    assert payload["results"]["readout"] == "2*3"
    assert payload["config"]["seed"] == 1


def test_prepare_csv_curves(tmp_path):
    out = tmp_path / "curves.csv"
    code = run_cli(["prepare", "--target", "6", "--lambda", "0.0138",
                    "--shots", "200", "--seed", "1",
                    "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1] == "t,p_exact,p_first_order"


def test_prepare_csv_requires_out():
    assert run_cli(["prepare", "--target", "6", "--lambda", "0.0138",
                    "--shots", "100", "--format", "csv"]) == 4


def test_prepare_guard_exit_code(capsys):
    assert run_cli(["prepare", "--target", "6", "--lambda", "1.0"]) == 4
    assert "first-order guard" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--lambda", "1e300"), ("--omega", "1e-300")])
def test_prepare_overflowing_prediction_fails_the_guard(flag, value, capsys):
    assert run_cli(["prepare", "--target", "6", flag, value]) == 4
    err = capsys.readouterr().err
    assert "first-order guard: predicted target probability inf" in err
    assert "|<1|W|6>| <=" in err


def test_lambda_help_names_the_form_for_a_leading_minus(capsys):
    with pytest.raises(SystemExit):
        run_cli(["scaling", "--help"])
    assert "--lambda=X" in capsys.readouterr().out
    assert run_cli(["prepare", "--target", "6", "--lambda=-1e-3"]) == 4
    assert "coupling strength must be finite and positive" in capsys.readouterr().err


def test_scaling_huge_kappa_names_kappa(capsys):
    assert run_cli(["scaling", "8", "16", "--mode", "instantaneous", "--kappa", "1e300"]) == 4
    assert "kappa=1e+300 needs a scan grid of" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["nan", "inf", "0"])
def test_prepare_rejects_bad_dt(dt, capsys):
    assert run_cli(["prepare", "--target", "6", "--dt", dt]) == 4
    assert "dt must be finite and positive" in capsys.readouterr().err



@pytest.mark.parametrize("argv", [
    ["scaling", "8", "16", "32", "--lambda", "nan"],
    ["scaling", "8", "16", "32", "--lambda", "inf"],
    ["prepare", "--target", "6", "--lambda", "inf"],
])
def test_non_finite_coupling_strength_rejected(argv, capsys):
    assert run_cli(argv) == 4
    assert "coupling strength must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["scaling", "8", "16", "32", "--kappa", "nan"], "kappa"),
    (["scaling", "8", "16", "32", "--hbar", "nan"], "hbar"),
    (["scaling", "8", "16", "32", "--omega", "inf"], "omega"),
    (["prepare", "--target", "6", "--kappa", "nan"], "kappa"),
    (["spectrum", "--nmax", "8", "--hbar", "inf"], "hbar"),
])
def test_non_finite_units_and_kappa_rejected(argv, name, capsys):
    assert run_cli(argv) == 4
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,runner,size", [
    (["scaling", "8", "16", "100000"], "run_scaling", "100001 levels"),
    (["scaling", "8", "16", "--nmax", "50000"], "run_scaling", "50000 levels"),
    (["prepare", "--target", "6"], "run_prepare", "14 levels"),
])
def test_out_of_memory_is_config_error(argv, runner, size, monkeypatch, capsys):
    def exhausted(**kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, runner, exhausted)
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert "not enough memory" in err and size in err


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", "-1", "seed must be non-negative"),
    ("--shots", "0", "shots must be in 1..2**63-1"),
    ("--shots", "100000000000000000000", "shots must be in 1..2**63-1"),
])
def test_prepare_bad_seed_or_shots_names_the_argument(flag, value, message, capsys):
    assert run_cli(["prepare", "--target", "6", flag, value]) == 4
    assert message in capsys.readouterr().err


def test_prepare_unknown_model():
    assert run_cli(["prepare", "--target", "6", "--coupling-model", "ring"]) == 4


def test_prepare_status_exit_codes(monkeypatch, capsys):
    def fake_prepare(**kwargs):
        return PrepareReport(
            manifest={"command": "prepare"},
            t_disc=1.0,
            curve_times=(0.0, 1.0),
            curve_exact=(0.0, 1e-4),
            curve_first_order=(0.0, 1e-4),
            norm_drift=0.0,
            counts={1: 5, 10: 3},
            readout="2*5",
            readout_value=10,
            conditional_target_probability=0.5,
            expected="2*3",
            status=fake_prepare.status,
        )

    monkeypatch.setattr(cli, "run_prepare", lambda **kw: fake_prepare(**kw))
    fake_prepare.status = "mismatch"
    assert run_cli(["prepare", "--target", "6"]) == 2
    assert "mismatch" in capsys.readouterr().err
    fake_prepare.status = "inconclusive"
    assert run_cli(["prepare", "--target", "6"]) == 3


def test_scaling_stdout(capsys):
    assert run_cli(["scaling", "8", "16", "32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "N,bit_size,t_disc,energy,product,ratio"
    assert len(lines) == 5


def test_scaling_csv_json_and_gnuplot(tmp_path):
    csv_out = tmp_path / "scaling.csv"
    assert run_cli(["scaling", "--out", str(csv_out), "--gnuplot-script"]) == 0
    assert csv_out.exists() and (tmp_path / "scaling.gp").exists()
    rows = csv_out.read_text().splitlines()
    assert len(rows) == 2 + 5  # default sweep has five targets

    json_out = tmp_path / "scaling.json"
    assert run_cli(["scaling", "8", "16", "32", "--format", "json",
                    "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    assert payload["fit"]["slope"] > 0.9


def test_scaling_bad_nmax():
    assert run_cli(["scaling", "8", "16", "--nmax", "5"]) == 4


def test_check_command(capsys):
    assert run_cli(["check", "--nmax", "300"]) == 0
    out = capsys.readouterr().out
    assert "10/10 invariants hold" in out
    assert "FAIL" not in out


def test_check_rejects_a_basis_without_an_excited_level(capsys):
    assert run_cli(["check", "--nmax", "1"]) == 4
    captured = capsys.readouterr()
    assert "--nmax must be at least 2" in captured.err
    assert "invariants hold" not in captured.out


def test_check_out_of_memory_is_config_error(monkeypatch, capsys):
    def exhausted(n_max, units=None):
        raise MemoryError

    monkeypatch.setattr(primecavity.experiments, "build_basis", exhausted)
    assert run_cli(["check", "--nmax", "100000000000"]) == 4
    captured = capsys.readouterr()
    assert "not enough memory for a basis of 100000000000 levels" in captured.err
    assert "FAIL" not in captured.out


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "primecavity", "--version"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert "primecavity 0.1.0" in proc.stdout
