import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import primecavity.experiments
from primecavity import PropagationError, cli, factorize
from primecavity.experiments import _CSV_BLOCK_ROWS, PrepareReport


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


@pytest.mark.parametrize("argv", [["spectrum", "--nmax", "5"], ["scaling", "8", "16"]])
def test_gnuplot_script_may_not_overwrite_its_csv(argv, tmp_path, capsys):
    out = tmp_path / "levels.gp"
    assert run_cli(argv + ["--out", str(out), "--gnuplot-script"]) == 4
    assert "--out" in capsys.readouterr().err
    assert not out.exists()
    link = tmp_path / "levels.csv"  # a CSV path that resolves to its own plot script
    link.symlink_to(out)
    assert run_cli(argv + ["--out", str(link), "--gnuplot-script"]) == 4
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--nmax", "3", "--gnuplot-script"],  # the CSV goes to stdout
    ["spectrum", "--nmax", "3", "--format", "json", "--out", "s.json", "--gnuplot-script"],
    ["scaling", "8", "16", "32", "--format", "json", "--out", "s.json", "--gnuplot-script"],
])
def test_a_gnuplot_script_with_no_csv_file_to_plot_exits_4_before_the_run(
        argv, tmp_path, monkeypatch):
    # these used to exit 0 and write no plot script
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{argv[0]} ran")

    monkeypatch.setattr(cli, f"run_{argv[0]}", unreachable)
    monkeypatch.chdir(tmp_path)
    assert _run_in_process(argv) == (
        4, "", "configuration error: --gnuplot-script needs --format csv and --out\n")
    assert list(tmp_path.iterdir()) == []


def test_a_flag_two_subcommands_share_means_the_same_on_each():
    # --nmax and --format are declared per command: their defaults differ by command
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    seen = {}
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in set(action.option_strings) - {"--nmax", "--format"}:
                seen.setdefault(option, {})[command] = (
                    type(action), action.dest, action.type, action.default, action.choices,
                    action.help)
    shared = {option: by for option, by in seen.items() if len(by) > 1}
    assert set(shared) == {"-h", "--help", "--out", "--hbar", "--omega", "--lambda",
                           "--kappa", "--coupling-model", "--mode", "--gnuplot-script"}
    for option, by in shared.items():
        assert len(set(by.values())) == 1, (option, by)


def test_spectrum_json(tmp_path):
    out = tmp_path / "levels.json"
    assert run_cli(["spectrum", "--nmax", "12", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["rows"][11]["factors"] == "2^2*3"


@pytest.mark.parametrize("nmax", ["2", "3000", str(2 * _CSV_BLOCK_ROWS + 1)])
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


def test_prepare_rejects_a_step_count_past_2_to_the_53(capsys):
    # ~1e301 steps: past 2**53 the step times k*h are no longer distinct
    assert run_cli(["prepare", "--target", "6", "--dt", "1e-300"]) == 4
    err = capsys.readouterr().err
    assert "dt=1e-300 is too small" in err and "2**53" in err



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


@pytest.mark.parametrize("argv", [
    ["scaling", "8", "16", "--omega", "5e-324"],
    ["scaling", "8", "16", "--mode", "instantaneous", "--omega", "1e-310"],
    ["prepare", "--target", "6", "--lambda", "1e-3", "--omega", "1e-310"],
    ["spectrum", "--nmax", "8", "--hbar", "5e-324"],
])
def test_subnormal_units_rejected(argv, capsys):
    assert run_cli(argv) == 4
    name = argv[-2].lstrip("-")
    assert f"{name} must be finite and positive, not subnormal" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["envelope", "instantaneous"])
def test_underflowing_detuning_names_omega(mode, capsys):
    # a normal omega whose nearest-neighbour detuning omega*log1p(1/8) is subnormal
    assert run_cli(["scaling", "8", "16", "--mode", mode, "--omega", "2.3e-308"]) == 4
    err = capsys.readouterr().err
    assert "omega=2.3e-308 is too small for target 8" in err
    assert "its detunings underflow or t_disc is inf" in err


@pytest.mark.parametrize("argv,message", [
    # lambda/sqrt(1001) is subnormal: t_disc came out 6327.71875 instead of 6324.555...
    (["scaling", "8", "16", "1000", "--coupling-model", "star-decay", "--lambda", "1e-320"],
     "lambda=9.99989e-321 is too small: the coupling to level 1001 is 3.16e-322, "
     "below the smallest normal float"),
    (["scaling", "8", "16", "--lambda", "5e-324"],
     "lambda=4.94066e-324 is too small: the coupling to level 17 is 4.94e-324, "
     "below the smallest normal float"),
    (["scaling", "8", "16", "--lambda", "1e308"],
     "lambda=1e+308 is too large for target 8: its w_M/Delta_M overflows"),
    (["prepare", "--target", "6", "--lambda", "1e308", "--mode", "instantaneous"],
     "lambda=1e+308 is too large for target 6: its w_M/Delta_M overflows"),
])
def test_coupling_magnitudes_that_break_t_disc_name_lambda(argv, message, capsys):
    assert run_cli(argv) == 4
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check", "--nmax", "99999999999999999999"],
    ["check", "--nmax", "9223372036854775807"],
    ["scaling", "8", "16", "--nmax", "99999999999999999999"],
    ["scaling", "8", "16", "--nmax", "9223372036854775807"],
    ["spectrum", "--nmax", "4611686018427387904"],
    ["prepare", "--target", "8", "--nmax", "9223372036854775807"],
])
def test_basis_sizes_numpy_refuses_are_out_of_memory(argv, capsys):
    assert run_cli(argv) == 4
    captured = capsys.readouterr()
    message = f"not enough memory for a basis of {argv[-1]} levels"
    assert captured.err == f"configuration error: {message}\n"
    assert "FAIL" not in captured.out and "invariants hold" not in captured.out


def _run_in_process(argv):
    """Exit code, stdout and stderr of cli.main, with any warning or traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except BaseException:  # noqa: BLE001 - the oracle reports it
            traceback.print_exc()
            code = None
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,message", [
    # the energies 2.1e307 and 2.8e307 are finite; their products with t_disc were inf
    (["scaling", "8", "16", "--hbar", "1e307"],
     "hbar=1e+307 and omega=1 put the time-energy product of target 8 past the float range"),
    # every w_M/Delta_M underflows to 0: t_disc 0 and a numpy warning from the fit
    (["scaling", "2", "3", "4", "--lambda", "2.3e-308", "--omega", "1e300"],
     "lambda=2.3e-308 is too small for target 2 at omega=1e+300: its w_M/Delta_M underflows"),
    # w.w overflows in the integrator: numpy warnings, then exit 4 on NaN probabilities
    (["prepare", "--target", "8", "--hbar", "1e300", "--lambda", "1e290"],
     "lambda=1e+290 is too large for 18 levels: the coupling's w.w overflows"),
    # log(14)*1.7e308 is past the float range: the basis rejects it before any coupling
    (["prepare", "--omega", "1.7e308", "--target", "6"],
     "hbar*omega=1.7e+308 is too large: the energy of level 14 overflows"),
    # the last gap, 1e-305*log1p(1/5000), printed as a subnormal 1.9998000266626687e-309
    (["spectrum", "--nmax", "5000", "--hbar", "1e-305"],
     "hbar=1e-305 and omega=1 put the gap of label 5000 below the smallest normal float"),
])
def test_values_past_the_float_range_exit_4_by_name(argv, message):
    code, out, err = _run_in_process(argv)
    assert (code, out, err) == (4, "", f"configuration error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--nmax", "5", "--gnuplot-script"],
    ["scaling", "8", "16", "--gnuplot-script"],
    ["prepare", "--target", "6"],
    ["prepare", "--target", "6", "--format", "csv"],
])
@pytest.mark.parametrize("where", ["directory", "missing parent", "file parent"])
def test_an_unwritable_out_exits_4_naming_it(argv, where, tmp_path, monkeypatch):
    # refused before the run: the run used to go first, and a directory --out then left a
    # new plot script beside it
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{argv[0]} ran")

    monkeypatch.setattr(cli, f"run_{argv[0]}", unreachable)
    (tmp_path / "plain").write_text("")
    out = {"directory": tmp_path / "dd", "missing parent": tmp_path / "missing" / "x.csv",
           "file parent": tmp_path / "plain" / "x.csv"}[where]
    if where == "directory":
        out.mkdir()
    code, stdout, err = _run_in_process([*argv, "--out", str(out)])
    assert (code, stdout) == (4, ""), err
    assert err.startswith(f"configuration error: cannot write --out {out}: "), err
    left = {"plain", "dd"} if where == "directory" else {"plain"}  # no plot script
    assert {p.name for p in tmp_path.iterdir()} == left


@pytest.mark.parametrize("argv", [
    ["scaling", "8", "16", "32", "--hbar", "1e-300", "--omega", "1e-300"],
    ["spectrum", "--nmax", "4", "--hbar", "1e-160", "--omega", "1e-160"],
])
def test_a_subnormal_hbar_omega_exits_4_naming_both(argv):
    # each flag is normal; the product is not, and the run printed zero or subnormal energies
    code, out, err = _run_in_process(argv)
    assert (code, out) == (4, ""), err
    assert err.startswith(f"configuration error: hbar={argv[-3]} and omega={argv[-1]} are too "
                          f"small: hbar*omega="), err
    assert err.endswith(" is below the smallest normal float\n"), err


@pytest.mark.parametrize("hbar,omega", [("1e150", "1e-150"), ("1e-80", "1e80")])
def test_prepare_in_rescaled_units_matches_natural_units(hbar, omega):
    # the stage table overflowed at both: an OverflowError exit 4, and NaN states
    code, out, err = _run_in_process(["prepare", "--target", "6", "--hbar", hbar,
                                      "--omega", omega])
    base_code, base_out, _ = _run_in_process(["prepare", "--target", "6"])
    assert (code, err) == (base_code, "") == (0, "")
    results, base = json.loads(out)["results"], json.loads(base_out)["results"]
    assert results["counts"] == base["counts"] and results["readout"] == base["readout"]
    for curve in ("curve_exact", "curve_first_order"):
        assert results[curve] == pytest.approx(base[curve], rel=1e-12, abs=0)


def test_a_propagation_error_exits_4_with_its_message(monkeypatch):
    def drifting(**kwargs):
        raise PropagationError("norm drift 2.000e-09 exceeds tolerance 1e-09; reduce dt below 1")

    monkeypatch.setattr(cli, "run_prepare", drifting)
    assert _run_in_process(["prepare", "--target", "6"]) == (4, "", (
        "configuration error: norm drift 2.000e-09 exceeds tolerance 1e-09; reduce dt below 1\n"))


def test_a_closed_stdout_exits_4_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "primecavity", "spectrum", "--nmax", "200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"# manifest: ")
        proc.stdout.close()  # ~11 MB of rows remain: the next write meets a closed pipe
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 4
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.startswith("configuration error: cannot write stdout: "), err


_ODD_FLOATS = st.one_of(  # the edges of the float range, and any float at all
    st.sampled_from([0.0, 5e-324, 1e-320, 2.3e-308, 1e-300, 1e-3, 1e300, 1e308, float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# --hbar and --omega together: reciprocal pairs far from 1 (hbar*omega = 1, the physics of
# natural units), and pairs whose product is zero, subnormal or around the smallest normal
_UNIT_PAIRS = st.one_of(
    st.sampled_from([(10.0**k, 10.0**-k) for k in (80, -80, 150, -150, 300, -300)]
                    + [(1e-160, 1e-160), (1e-200, 1e-200), (1e-300, 1e-300)]),
    st.tuples(st.floats(1e-300, 1e-8), st.floats(0.0, 2.0)).map(
        lambda a: (a[0], a[1] * sys.float_info.min / a[0])),
)
# one unit flag from anywhere with the other left at 1, or both as a pair
_UNIT_FLAGS = st.one_of(
    st.builds(lambda flag, value: [f"{flag}={value!r}"], st.sampled_from(["--hbar", "--omega"]),
              st.one_of(st.just(1.0), _ODD_FLOATS)),
    _UNIT_PAIRS.map(lambda pair: [f"--hbar={pair[0]!r}", f"--omega={pair[1]!r}"]),
)
# --out left unset (half the draws, since a bad --out ends the example before the run), an
# existing directory, or a file under a missing one
_BAD_OUTS = st.one_of(st.none(), st.sampled_from(["directory", "missing parent"]))


def _run_with_out(argv, where):
    # hypothesis refuses function-scoped fixtures, so each example makes its own directory
    with tempfile.TemporaryDirectory() as tmp:
        if where is not None:
            argv = [*argv, f"--out={tmp if where == 'directory' else Path(tmp, 'missing', 'x')}"]
        code, out, err = _run_in_process(argv)
    assert where is None or code == 4, (argv, code, err)
    return code, out, err


def _scaling_example(targets, units=(), strength=1e-3, model="star-uniform", mode="envelope"):
    return example(targets=targets, extra=None, kappa=10.0, mode=mode, model=model,
                   strength=strength, units=list(units), where=None)


# boundary inputs every run tries: a reverted level-energy overflow check (E_16 = inf) or
# hbar*omega check (a table under exit 0) fails on the first two; then the subnormal product,
# a subnormal coupling entry, and a w_M/Delta_M that underflows
@_scaling_example([8, 16], ["--hbar=1e308"])
@_scaling_example([8, 16, 32], ["--hbar=1e-08", "--omega=2.2e-300"])
@_scaling_example([8, 16, 32], ["--hbar=1e-300", "--omega=1e-300"])
@_scaling_example([8, 16, 1000], strength=1e-320, model="star-decay")
@_scaling_example([2, 3, 4], ["--omega=1e300"], strength=2.3e-308)
@settings(max_examples=150, deadline=None)
@given(
    targets=st.one_of(st.lists(st.integers(2, 10**5), min_size=1, max_size=4),
                      st.lists(st.integers(-2, 10**5), min_size=1, max_size=4)),
    extra=st.one_of(st.none(), st.integers(-3, 10**6 - 10**5)),
    kappa=st.one_of(st.floats(1.0, 1e6), st.floats(-1e6, 1e6), st.just(float("nan"))),
    mode=st.sampled_from(["envelope", "instantaneous"]),
    model=st.sampled_from(["star-uniform", "star-decay"]),
    strength=st.one_of(st.just(1e-3), _ODD_FLOATS),
    units=_UNIT_FLAGS,
    where=_BAD_OUTS,
)
def test_scaling_cli_fuzz_exits_0_or_4_without_traceback_or_warning(
        targets, extra, kappa, mode, model, strength, units, where):
    # inputs stay below ~100 MB: targets <= 10**5, --nmax <= 10**6, --kappa <= 10**6
    if mode == "instantaneous":
        # the scan evaluates each decisive level on its grid prefix; at N = 2 and kappa = 1e4
        # that is every level, ~2 s at --nmax 10**6 (kappa = 1e6 waits for a work bound)
        kappa = min(kappa, 1e4)
    argv = ["scaling", *map(str, targets), "--mode", mode, "--coupling-model", model,
            f"--kappa={kappa!r}", f"--lambda={strength!r}", *units]
    if extra is not None:
        argv.append(f"--nmax={max(targets) + 1 + extra}")
    code, out, err = _run_with_out(argv, where)
    assert code in (0, 4), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 0:  # no inf or nan column: every number past the header is finite
        rows = [list(map(float, line.split(","))) for line in out.splitlines()[2:]]
        assert rows and all(math.isfinite(x) for row in rows for x in row), (argv, out)
        # what the README promises of every record: a normal positive energy, a ratio above 1
        assert all(row[3] >= sys.float_info.min and row[5] > 1 for row in rows), (argv, out)
        manifest = json.loads(out.splitlines()[0].removeprefix("# manifest: "))
        assert manifest["hbar"] * manifest["omega"] >= sys.float_info.min, argv  # normal units


# an exit-4 message names the input it rejects: a flag, or one of these words ("--out", as
# a bare "out" would match "Numerical result out of range")
_INPUT_NAMES = ("target", "nmax", "lambda", "kappa", "coupling-model", "dt", "shots", "seed",
                "mode", "--out", "format", "hbar", "omega", "n_max", "coupling", "levels",
                "argument")


def _assert_no_invariant_fails(argv, where=None):
    # no invariant fails on any of these inputs, so exit 1 never occurs
    code, out, err = _run_with_out(argv, where)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 4:
        assert any(name in err for name in _INPUT_NAMES), (argv, err)
    return code, out


_ODD_COUNTS = st.sampled_from([-1, 0, 2**63 - 1, 2**63, 10**20])
_PREPARE_VALUES = {  # flag: (values it admits, values of its type from anywhere)
    "target": (st.integers(2, 60), st.integers(-3, 60)),
    "lambda": (st.floats(1e-6, 1e-2), _ODD_FLOATS),
    # the drive time grows like sqrt(kappa)*N, and a tiny --lambda passes the guard at any
    # time: kappa stays at most 10**4 unless it is too large for any run (2**53 steps)
    "kappa": (st.floats(1.0, 100.0), st.one_of(st.floats(max_value=1e4),
                                               st.sampled_from([1e300, 1e308, float("inf")]))),
    # a valid dt below 1e-3 makes a long run: prepare --target 3 --dt 1e-6 takes seconds
    "dt": (st.one_of(st.none(), st.floats(1e-3, 1e-2)),
           st.sampled_from([0.0, -1e-3, 5e-324, 1e-300, 10.0, float("nan"), float("inf")])),
    "shots": (st.integers(1, 2000), _ODD_COUNTS),
    "seed": (st.integers(0, 2**32), _ODD_COUNTS),
    "hbar": (st.just(1.0), _ODD_FLOATS),
    "omega": (st.just(1.0), _ODD_FLOATS),
}


# st.data() takes no @example: the boundary draws that each reverted input fix fails on,
# w.w overflowing, a subnormal coupling entry, --shots past int64, the stage table at
# rescaled units, and the level-energy overflow
@pytest.mark.parametrize("argv", [
    ["prepare", "--target=8", "--hbar=1e300", "--lambda=1e290"],
    ["prepare", "--target=6", "--lambda=2.3e-308", "--hbar=1e-300", "--coupling-model",
     "star-decay"],
    ["prepare", "--target=6", f"--shots={2**63}"],
    ["prepare", "--target=6", "--hbar=1e150", "--omega=1e-150"],
    ["prepare", "--target=6", "--hbar=1e-80", "--omega=1e80"],
    ["prepare", "--target=6", "--omega=1.7e308"],
])
def test_prepare_cli_fuzz_boundary_draws(argv):
    _assert_no_invariant_fails(argv)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    odd=st.sets(st.sampled_from([*_PREPARE_VALUES, "nmax"]), max_size=2),
    mode=st.sampled_from(["envelope", "instantaneous"]),
    model=st.sampled_from(["star-uniform", "star-decay"]),
    pair=st.one_of(st.none(), _UNIT_PAIRS),
)
def test_prepare_cli_fuzz_exits_0_2_3_or_4_by_name(data, odd, mode, model, pair):
    # at most two flags take a value from anywhere; the rest stay admissible, but for
    # --hbar and --omega, which may instead come as a pair
    values = {flag: data.draw(strategies[flag in odd], label=flag)
              for flag, strategies in _PREPARE_VALUES.items()}
    if pair is not None:
        values["hbar"], values["omega"] = pair
    # a set dt steps ~2*pi/(omega*log(N)*dt) a period
    if ("omega" in odd or pair is not None) and "dt" not in odd:
        values["dt"] = None
    values["nmax"] = data.draw(st.integers(-5, 250) if "nmax" in odd else st.one_of(
        st.none(), st.integers(2 * max(values["target"], 2), 250)), label="nmax")
    argv = ["prepare", "--mode", mode, "--coupling-model", model]
    argv += [f"--{flag}={value!r}" for flag, value in values.items() if value is not None]
    _assert_no_invariant_fails(argv)


# the gap of label 5000 is subnormal, E_40 overflows, and hbar*omega is 1e-320
@example(nmax=5000, fmt="csv", units=["--hbar=1e-305"], where=None)
@example(nmax=5000, fmt="json", units=["--hbar=1e-305"], where=None)
@example(nmax=40, fmt="csv", units=["--hbar=1e308"], where=None)
@example(nmax=4, fmt="json", units=["--hbar=1e-160", "--omega=1e-160"], where=None)
@settings(max_examples=60, deadline=None)
@given(
    nmax=st.integers(-5, 5000),
    fmt=st.sampled_from(["csv", "json"]),
    units=_UNIT_FLAGS,
    where=_BAD_OUTS,
)
def test_spectrum_cli_fuzz_exits_0_or_4_by_name(nmax, fmt, units, where):
    argv = ["spectrum", f"--nmax={nmax}", "--format", fmt, *units]
    code, out = _assert_no_invariant_fails(argv, where)
    assert code in (0, 4), (argv, code)
    if code == 0:  # no inf or nan energy or gap
        if fmt == "csv":
            rows = [list(map(float, line.split(",")[2:])) for line in out.splitlines()[2:]]
        else:
            rows = [[row["energy"], row["gap"]] for row in json.loads(out)["rows"]]
        assert len(rows) == nmax and all(math.isfinite(x) for row in rows for x in row), argv
        # a normal hbar*omega: E_N = hbar*omega*log(N) is normal from N = 3 on
        assert all(row[0] >= sys.float_info.min for row in rows[2:]), argv
        assert all(row[1] >= sys.float_info.min for row in rows), argv  # and so is every gap


@pytest.mark.parametrize("nmax", [-5, 0, 1, 2, 16])
def test_check_cli_exits_0_or_4_by_name(nmax):
    code, out = _assert_no_invariant_fails(["check", f"--nmax={nmax}"])
    assert code == (0 if nmax >= 2 else 4)
    assert ("12/12 invariants hold" in out) == (code == 0)


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
    assert "12/12 invariants hold" in out
    assert "period map matches stepping" in out
    assert "fused chunks match single steps" in out
    assert "FAIL" not in out


def test_check_prints_fail_and_exits_1_when_an_invariant_fails(monkeypatch, capsys):
    def wrong_at_4096(n):
        return factorize(n + 1 if n == 4096 else n)

    monkeypatch.setattr(primecavity.experiments, "factorize", wrong_at_4096)
    assert run_cli(["check", "--nmax", "16"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL  encoding round-trip vs naive oracle "
            "(AssertionError: compose(factorize(4096)) != 4096)") in out
    assert out.count("FAIL") == 1 and "11/12 invariants hold" in out


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
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "primecavity", "--version"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0
    assert "primecavity 0.1.0" in proc.stdout
