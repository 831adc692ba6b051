"""Command-line front end.

Subcommands: spectrum, prepare, scaling, check. Exit codes: 0 success,
2 readout mismatch, 3 inconclusive readout, 4 configuration error
(including bad command lines and out-of-memory bases), 1 failed invariant check.
"""

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cavity import COUPLING_MODELS
from .errors import ConfigurationError
from .experiments import (
    prepare_report_dict,
    run_invariant_checks,
    run_prepare,
    run_scaling,
    run_spectrum,
    scaling_csv_text,
    scaling_study_dict,
    spectrum_csv_lines,
    spectrum_dict,
    spectrum_manifest,
    write_gnuplot_script,
    write_prepare_csv,
    write_prepare_json,
    write_scaling_csv,
    write_spectrum_csv,
)
from .units import Units

_STATUS_EXIT = {"pass": 0, "mismatch": 2, "inconclusive": 3}
_LAMBDA_HELP = "coupling strength > 0 (default 1e-3); pass a value starting with - as --lambda=X"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # readout-mismatch code; route usage problems to the config-error path
    def error(self, message):
        raise ConfigurationError(message)


def _add_unit_flags(sub):
    sub.add_argument("--hbar", type=float, default=1.0, help="Planck constant (default 1)")
    sub.add_argument("--omega", type=float, default=1.0, help="base mode frequency (default 1)")


def _units(args) -> Units:
    return Units(hbar=args.hbar, omega=args.omega)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primecavity",
        description="Simulate a cavity whose mode frequencies are logs of primes, "
        "prepare number states resonantly, and read factorizations from photon counts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="dump the level table (N, factors, energy, gap)")
    sp.add_argument("--nmax", type=int, default=32, help="largest level label")
    sp.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--gnuplot-script", action="store_true",
                    help="write a plot script next to the CSV")
    _add_unit_flags(sp)
    sp.set_defaults(func=_cmd_spectrum)

    pr = sub.add_parser("prepare", help="drive one target level and read out its factorization")
    pr.add_argument("--target", type=int, required=True, help="integer to factorize")
    pr.add_argument("--nmax", type=int, default=None,
                    help="basis size (default 2*target+2; must be >= 2*target)")
    pr.add_argument("--lambda", dest="strength", type=float, default=1e-3, help=_LAMBDA_HELP)
    pr.add_argument("--kappa", type=float, default=10.0,
                    help="required dominance ratio over competitors (default 10)")
    pr.add_argument("--coupling-model", choices=COUPLING_MODELS, default="star-uniform")
    pr.add_argument("--dt", type=float, default=None,
                    help="integrator step (default: half the step gate)")
    pr.add_argument("--shots", type=int, default=10_000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--mode", choices=("envelope", "instantaneous"), default="envelope",
                    help="discrimination-time criterion")
    pr.add_argument("--out", type=Path, default=None)
    pr.add_argument("--format", choices=("json", "csv"), default="json",
                    help="json report, or csv of the probability curves")
    _add_unit_flags(pr)
    pr.set_defaults(func=_cmd_prepare)

    sc = sub.add_parser("scaling", help="discrimination-time sweep with log-log fit")
    sc.add_argument("targets", type=int, nargs="*", default=[8, 16, 32, 64, 128],
                    help="levels to sweep (default 8 16 32 64 128)")
    sc.add_argument("--kappa", type=float, default=10.0)
    sc.add_argument("--mode", choices=("envelope", "instantaneous"), default="envelope")
    sc.add_argument("--coupling-model", choices=COUPLING_MODELS, default="star-uniform")
    sc.add_argument("--lambda", dest="strength", type=float, default=1e-3, help=_LAMBDA_HELP)
    sc.add_argument("--nmax", type=int, default=None,
                    help="basis size (default: largest target + 1)")
    sc.add_argument("--out", type=Path, default=None)
    sc.add_argument("--format", choices=("csv", "json"), default="csv")
    sc.add_argument("--gnuplot-script", action="store_true")
    _add_unit_flags(sc)
    sc.set_defaults(func=_cmd_scaling)

    ck = sub.add_parser("check", help="run the invariant battery")
    ck.add_argument("--nmax", type=int, default=2000, help="spectrum size for the battery")
    ck.set_defaults(func=_cmd_check)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_spectrum(args) -> int:
    units = _units(args)
    columns = run_spectrum(args.nmax, units)
    manifest = spectrum_manifest(args.nmax, units)
    if args.format == "json":
        _emit(json.dumps(spectrum_dict(columns, manifest), indent=2) + "\n", args.out)
        return 0
    if args.out is None:
        sys.stdout.writelines(spectrum_csv_lines(columns, manifest))
        return 0
    write_spectrum_csv(columns, manifest, args.out)
    if args.gnuplot_script:
        write_gnuplot_script(args.out, "spectrum")
    return 0


def _cmd_prepare(args) -> int:
    if args.format == "csv" and args.out is None:
        raise ConfigurationError("--format csv for prepare needs --out")
    report = run_prepare(
        target=args.target,
        n_max=args.nmax,
        strength=args.strength,
        kappa=args.kappa,
        model=args.coupling_model,
        shots=args.shots,
        seed=args.seed,
        dt=args.dt,
        mode=args.mode,
        units=_units(args),
    )
    if args.format == "csv":
        write_prepare_csv(report, args.out)
    elif args.out is None:
        sys.stdout.write(json.dumps(prepare_report_dict(report), indent=2) + "\n")
    else:
        write_prepare_json(report, args.out)
    if report.status != "pass":
        print(f"readout status: {report.status}", file=sys.stderr)
    return _STATUS_EXIT[report.status]


def _cmd_scaling(args) -> int:
    study = run_scaling(
        targets=args.targets,
        kappa=args.kappa,
        mode=args.mode,
        model=args.coupling_model,
        strength=args.strength,
        units=_units(args),
        n_max=args.nmax,
    )
    if args.format == "json":
        _emit(json.dumps(scaling_study_dict(study), indent=2) + "\n", args.out)
        return 0
    if args.out is None:
        sys.stdout.write(scaling_csv_text(study))
        return 0
    write_scaling_csv(study, args.out)
    if args.gnuplot_script:
        write_gnuplot_script(args.out, "scaling")
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
            return args.func(args)
        except MemoryError:
            size = args.nmax  # else the default basis size its runner derives
            if size is None:
                size = max(args.targets) + 1 if args.command == "scaling" else 2 * args.target + 2
            raise ConfigurationError(f"not enough memory for a basis of {size} levels") from None
    except (ConfigurationError, ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
