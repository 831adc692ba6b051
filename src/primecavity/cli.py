"""Command-line front end.

Subcommands: spectrum, prepare, scaling, check. Exit codes: 0 success,
2 readout mismatch, 3 inconclusive readout, 4 configuration error
(including bad command lines, unwritable output, norm drift past tolerance and
out-of-memory bases), 1 failed invariant check.
"""

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import __version__
from .cavity import COUPLING_MODELS
from .errors import ConfigurationError, PropagationError
from .experiments import (
    prepare_csv_lines,
    prepare_report_dict,
    run_invariant_checks,
    run_prepare,
    run_scaling,
    run_spectrum,
    scaling_csv_lines,
    scaling_study_dict,
    spectrum_csv_lines,
    spectrum_dict,
    spectrum_manifest,
    write_gnuplot_script,
)
from .perturbation import DISCRIMINATION_MODES
from .units import Units

_STATUS_EXIT = {"pass": 0, "mismatch": 2, "inconclusive": 3}
_LAMBDA_HELP = "coupling strength > 0 (default 1e-3); pass a value starting with - as --lambda=X"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # readout-mismatch code; route usage problems to the config-error path
    def error(self, message):
        raise ConfigurationError(message)


def _units(args) -> Units:
    return Units(hbar=args.hbar, omega=args.omega)


def _physics(args) -> dict:
    """The shared physics flags as run_prepare and run_scaling keywords."""
    return dict(strength=args.strength, kappa=args.kappa, model=args.coupling_model,
                mode=args.mode, units=_units(args))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primecavity",
        description="Simulate a cavity whose mode frequencies are logs of primes, "
        "prepare number states resonantly, and read factorizations from photon counts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags several subcommands share, each declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    common.add_argument("--hbar", type=float, default=1.0, help="Planck constant (default 1)")
    common.add_argument("--omega", type=float, default=1.0, help="base mode frequency (default 1)")
    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--lambda", dest="strength", type=float, default=1e-3, help=_LAMBDA_HELP)
    physics.add_argument("--kappa", type=float, default=10.0,
                         help="required dominance ratio over competitors (default 10)")
    physics.add_argument("--coupling-model", choices=COUPLING_MODELS, default="star-uniform")
    physics.add_argument("--mode", choices=DISCRIMINATION_MODES, default="envelope",
                         help="discrimination-time criterion")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--gnuplot-script", action="store_true",
                       help="write a plot script next to the CSV --out")

    sp = sub.add_parser("spectrum", parents=[common, table],
                        help="dump the level table (N, factors, energy, gap)")
    sp.add_argument("--nmax", type=int, default=32, help="largest level label")
    sp.set_defaults(func=_cmd_spectrum)

    pr = sub.add_parser("prepare", parents=[common, physics],
                        help="drive one target level and read out its factorization")
    pr.add_argument("--target", type=int, required=True, help="integer to factorize")
    pr.add_argument("--nmax", type=int, default=None,
                    help="basis size (default 2*target+2; must be >= 2*target)")
    pr.add_argument("--dt", type=float, default=None,
                    help="integrator step (default: half the step gate)")
    pr.add_argument("--shots", type=int, default=10_000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--format", choices=("json", "csv"), default="json",
                    help="json report, or csv of the probability curves")
    pr.set_defaults(func=_cmd_prepare)

    sc = sub.add_parser("scaling", parents=[common, physics, table],
                        help="discrimination-time sweep with log-log fit")
    sc.add_argument("targets", type=int, nargs="*", default=[8, 16, 32, 64, 128],
                    help="levels to sweep (default 8 16 32 64 128)")
    sc.add_argument("--nmax", type=int, default=None,
                    help="basis size (default: largest target + 1)")
    sc.set_defaults(func=_cmd_scaling)

    ck = sub.add_parser("check", help="run the invariant battery")
    ck.add_argument("--nmax", type=int, default=2000, help="spectrum size for the battery")
    ck.set_defaults(func=_cmd_check)

    return parser


def _output(args, as_dict, csv_lines, *result) -> None:
    """Write a result as --format json or csv to --out, or to stdout without it.

    as_dict(*result) is the JSON object, csv_lines(*result) the CSV text in pieces,
    written as they come. A CSV file gets a plot script under --gnuplot-script,
    written first: write_gnuplot_script refuses a CSV that is its own script path.
    """
    if args.format == "json":
        lines = [json.dumps(as_dict(*result), indent=2), "\n"]
    else:
        lines = csv_lines(*result)
    if args.out is None:
        sys.stdout.writelines(lines)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter shutdown
        return
    if getattr(args, "gnuplot_script", False):  # a CSV --out: _refuse_unwritable saw to it
        write_gnuplot_script(args.out, args.command)
    with open(args.out, "w", newline="") as fh:
        fh.writelines(lines)


def _refuse_unwritable(args) -> None:
    """Refuse before the run an output that cannot be written: a CSV prepare or a plot
    script with nowhere to go, then the OSError that writing --out would raise after the
    run (--out is a directory, or the directory it names is missing)."""
    out = getattr(args, "out", None)
    if args.command == "prepare" and args.format == "csv" and out is None:
        raise ConfigurationError("--format csv for prepare needs --out")
    if getattr(args, "gnuplot_script", False) and (args.format != "csv" or out is None):
        raise ConfigurationError("--gnuplot-script needs --format csv and --out")
    if out is None:
        return
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    if not out.absolute().parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))


def _cmd_spectrum(args) -> int:
    units = _units(args)
    columns = run_spectrum(args.nmax, units)
    _output(args, spectrum_dict, spectrum_csv_lines, columns, spectrum_manifest(args.nmax, units))
    return 0


def _cmd_prepare(args) -> int:
    report = run_prepare(target=args.target, n_max=args.nmax, shots=args.shots,
                         seed=args.seed, dt=args.dt, **_physics(args))
    _output(args, prepare_report_dict, prepare_csv_lines, report)
    if report.status != "pass":
        print(f"readout status: {report.status}", file=sys.stderr)
    return _STATUS_EXIT[report.status]


def _cmd_scaling(args) -> int:
    study = run_scaling(targets=args.targets, n_max=args.nmax, **_physics(args))
    _output(args, scaling_study_dict, scaling_csv_lines, study)
    return 0


def _cmd_check(args) -> int:
    if args.nmax < 2:
        raise ConfigurationError(
            f"--nmax must be at least 2, the vacuum plus one excited level (got {args.nmax})"
        )
    results = run_invariant_checks(n_max=args.nmax)
    failed = 0
    for name, ok, detail in results:
        mark = "ok " if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{mark}  {name}{suffix}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} invariants hold")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            _refuse_unwritable(args)
            return args.func(args)
        except MemoryError:
            size = args.nmax  # else the default basis size its runner derives
            if size is None:
                size = max(args.targets) + 1 if args.command == "scaling" else 2 * args.target + 2
            raise ConfigurationError(f"not enough memory for a basis of {size} levels") from None
        except OSError as exc:  # the output could not be written
            if isinstance(exc, BrokenPipeError):  # nothing more reaches stdout, even at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            where = "stdout" if getattr(args, "out", None) is None else f"--out {args.out}"
            raise ConfigurationError(f"cannot write {where}: {exc}") from None
    except (ConfigurationError, PropagationError, ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
