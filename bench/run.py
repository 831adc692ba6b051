"""Benchmark of the primecavity package: one workload per run, closed loop.

    python3 bench/run.py --workload prepare --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and never from an installed copy. One caller
issues each operation after the previous one returns, with BLAS/OpenMP
threads capped at 1.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
each round untraced and then traced with the same inputs, asserts that both
give equal results, and reports per-layer metrics derived from the spans.
Either way every operation is checked against an independent oracle, and the
last line of stdout is one JSON object: correct, attempted, failed, metrics.
A fuller record, with the environment, goes to
.bench_out/results/<workload>-seed<n>-trace<t>.json; the spans of the first
traced round go to .bench_out/spans-<workload>.jsonl.

--self-test checks that the metric names and units agree with
BENCHMARK.json and that the exact counters repeat: across two runs of one
seed for every workload, and across seeds where the seed cannot change the
shape of the work (scaling, spectrum).
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "primecavity"
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "max_norm_drift": "1",
    "oracle_err": "1",
}
PER_LAYER = {
    "dynamics.propagate_s": "s",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.trajectory_bytes": "bytes",
    "dynamics.sample_measurement_s": "s",
    "dynamics.self_s": "s",
    "cavity.build_basis_s": "s",
    "cavity.build_coupling_s": "s",
    "cavity.coupling_bytes": "bytes",
    "cavity.self_s": "s",
    "encoding.factorize_s": "s",
    "encoding.factorize.calls": "count",
    "encoding.format_occupation_s": "s",
    "encoding.self_s": "s",
    "perturbation.discrimination_time_s": "s",
    "perturbation.discrimination_time.calls": "count",
    "perturbation.self_s": "s",
    "experiments.self_s": "s",
    "experiments.export_s": "s",
    "experiments.export_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# deterministic per round: must repeat exactly
EXACT = (
    "dynamics.steps",
    "dynamics.trajectory_bytes",
    "cavity.coupling_bytes",
    "encoding.factorize.calls",
    "perturbation.discrimination_time.calls",
    "experiments.export_bytes",
    "trace.spans",
)


def cap_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_package():
    """Import primecavity from this checkout's src/, or exit 1 without a result."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {PACKAGE.relative_to(ROOT)}; "
                 "run from the root of a primecavity checkout")
    sys.path[:0] = [str(PACKAGE.parent), str(BENCH)]
    import primecavity
    import primecavity.cli  # noqa: F401 - the spectrum workload enters here

    if Path(primecavity.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"benchmark: imported primecavity from {primecavity.__file__}, not {PACKAGE}")
    return primecavity


def warm_up(pc):
    """First call into every layer: sieve cache fill, first numpy and RNG calls."""
    pc.factorize(2)
    basis = pc.build_basis(16)
    coupling = pc.build_coupling(basis, "star-uniform", 1e-3)
    drive = pc.DriveConfig.resonant(basis, 3)
    pc.discrimination_time(3, basis, coupling)
    run = pc.propagate(pc.vacuum_state(basis), basis, coupling, drive, 1.0,
                       pc.max_stable_dt(basis, coupling) / 4)
    pc.sample_measurement(run.final, 100, seed=0)


def setup_probe():
    start = time.perf_counter()
    warm_up(load_package())
    print(repr(time.perf_counter() - start))


def setup_seconds() -> float:
    """Median over fresh interpreters of import plus warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_op(op):
    """(latency, value, problems); exceptions become problems, never escape."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    try:
        value = op.collect(result)
        problems = op.check(value)
    except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed check
        traceback.print_exc(file=sys.stderr)
        return latency, None, [f"check raised {type(exc).__name__}: {exc}"]
    return latency, value, problems


def report_problems(op, problems):
    for problem in problems:
        print(f"FAILED {op.name}: {problem}", file=sys.stderr)


def round_numbers(seconds):
    """0, 1, 2, ... while at least half of another round fits in `seconds`.

    Whole rounds keep the mix of operations fixed; starting one only when
    half of it fits keeps a run within half a round of `seconds`.
    """
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / done) > seconds:
            return


def measure_end_to_end(workload, seed, seconds, tmpdir):
    """Closed loop of whole rounds for about `seconds`; one round at least.

    Each round's throughput is its successful operations over the time spent
    in all of its operations. The run reports the median over rounds, so a
    slow or fast spell of a shared host moves only the rounds it falls in.
    """
    latencies, drifts, throughputs = [], [], []
    attempted = failed = rounds = 0
    for rounds in round_numbers(seconds):
        rng = random.Random(f"{workload.name}/{seed}/{rounds}")
        round_s = 0.0
        passed = 0
        for op in workload.round(rng, tmpdir):
            latency, value, problems = run_op(op)
            round_s += latency
            attempted += 1
            if problems:
                failed += 1
                report_problems(op, problems)
                continue
            passed += 1
            latencies.append(latency)
            if op.fixed and hasattr(value, "norm_drift"):
                drifts.append(value.norm_drift)
        throughputs.append(passed / round_s)
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds + 1,
        "latencies": latencies,
        "throughputs": throughputs,
        "drifts": drifts,
    }


def layer_metrics(summary, overhead):
    total, calls, counts = summary["total"], summary["calls"], summary["counts"]
    layer_self = summary["layer_self"]
    steps = counts.get("dynamics.steps", 0)
    propagate_s = total.get("dynamics.propagate", 0.0)
    return {
        "dynamics.propagate_s": propagate_s,
        "dynamics.steps": steps,
        "dynamics.us_per_step": 1e6 * propagate_s / steps if steps else 0.0,
        "dynamics.trajectory_bytes": counts.get("dynamics.trajectory_bytes", 0),
        "dynamics.sample_measurement_s": total.get("dynamics.sample_measurement", 0.0),
        "dynamics.self_s": layer_self["dynamics"],
        "cavity.build_basis_s": total.get("cavity.build_basis", 0.0),
        "cavity.build_coupling_s": total.get("cavity.build_coupling", 0.0),
        "cavity.coupling_bytes": counts.get("cavity.coupling_bytes", 0),
        "cavity.self_s": layer_self["cavity"],
        "encoding.factorize_s": total.get("encoding.factorize", 0.0),
        "encoding.factorize.calls": calls.get("encoding.factorize", 0),
        "encoding.format_occupation_s": total.get("encoding.format_occupation", 0.0),
        "encoding.self_s": layer_self["encoding"],
        "perturbation.discrimination_time_s": total.get("perturbation.discrimination_time", 0.0),
        "perturbation.discrimination_time.calls": calls.get("perturbation.discrimination_time", 0),
        "perturbation.self_s": layer_self["perturbation"],
        "experiments.self_s": layer_self["experiments"],
        "experiments.export_s": sum(t for name, t in total.items()
                                    if name.startswith("experiments.write_")),
        "experiments.export_bytes": counts.get("experiments.export_bytes", 0),
        "cli.self_s": layer_self["cli"],
        "trace.overhead_s": overhead,
        "trace.spans": summary["spans"],
    }


def measure_traced(pc, workload, seed, seconds, tmpdir):
    """Rounds of (untraced, traced) runs of round 0's inputs for about `seconds`.

    Times are medians over rounds; exact counters must agree between rounds.
    """
    from tracing import Tracer
    from workloads import ENTRY_POINTS

    tracer = Tracer()
    per_round = []
    attempted = failed = 0
    drifted = []
    for round_id in round_numbers(seconds):
        plain_s = traced_s = 0.0
        plain = []
        for op in workload.round(random.Random(f"{workload.name}/{seed}/0"), tmpdir):
            latency, value, problems = run_op(op)
            plain_s += latency
            plain.append((value, problems))
        tracer.reset()
        with tracer.install(pc, ENTRY_POINTS):
            ops = workload.round(random.Random(f"{workload.name}/{seed}/0"), tmpdir)
            for i, (op, (plain_value, plain_problems)) in enumerate(zip(ops, plain)):
                tracer.run_id = f"{round_id}.{i}"
                latency, value, problems = run_op(op)
                traced_s += latency
                if not problems and not plain_problems and value != plain_value:
                    problems = ["traced result differs from the untraced one"]
                attempted += 2
                failed += bool(plain_problems) + bool(problems)
                report_problems(op, plain_problems + problems)
        summary = tracer.summary()
        metrics = layer_metrics(summary, traced_s - plain_s)
        if per_round and any(metrics[k] != per_round[0][k] for k in EXACT):
            drifted.append(round_id)
        per_round.append(metrics)
        if round_id == 0:
            tracer.write(OUT / f"spans-{workload.name}.jsonl")
            span_self = summary["self"]
    if drifted:
        print(f"FAILED exact counters drifted in rounds {drifted}", file=sys.stderr)
    metrics = {
        name: (per_round[0][name] if name in EXACT
               else statistics.median(r[name] for r in per_round))
        for name in PER_LAYER
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(per_round),
        "counters_repeat": not drifted,
        "metrics": metrics,
        "span_self_s": dict(sorted(span_self.items(), key=lambda kv: -kv[1])),
    }


def run_workload(pc, name, seed, seconds, trace):
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.setup()
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if trace:
            out = measure_traced(pc, workload, seed, seconds, tmpdir)
            return out["failed"] == 0 and out["counters_repeat"], out, out["metrics"], {}
        setup_s = setup_seconds()
        oracle_err, reference_drift = workloads.reference_case()
        out = measure_end_to_end(workload, seed, seconds, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    latencies = out["latencies"] or [float("nan")]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(out["throughputs"]),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_norm_drift": max(out["drifts"] + [reference_drift]),
        "oracle_err": oracle_err,
    }
    samples = {"setup_s": SETUP_SAMPLES, "ops_per_s": out["rounds"],
               "op_p50_s": len(out["latencies"])}
    return out["failed"] == 0, out, metrics, samples


def print_result(name, seed, trace, correct, out, metrics, samples):
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_ratio": out["failed"] / out["attempted"],
        "rounds": out["rounds"],
        "samples": samples,
        "span_self_s": out.get("span_self_s"),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    env = record["environment"]
    print(f"# env: python {env['python']}, numpy {env['numpy']} ({env['blas']}), "
          f"nproc {env['nproc']}, blas threads 1, cpu {env['cpu_model']}")
    print(f"# {name} seed {seed} trace {trace}: {out['attempted']} operations in "
          f"{out['rounds']} rounds, failed {out['failed']} "
          f"(failed_ratio {record['failed_ratio']:.4g})")
    for key, unit in units.items():
        note = f"  [median of {samples[key]}]" if key in samples else ""
        print(f"#   {key:40s} {metrics[key]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": record["metrics"],
    }))


def self_test(pc) -> bool:
    """Metric declarations match BENCHMARK.json; exact counters repeat."""
    import workloads

    ok = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != declared:
            print(f"FAILED BENCHMARK.json {key} {listed} != {declared}")
            ok = False
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        print("FAILED BENCHMARK.json workloads differ from workloads.WORKLOADS")
        ok = False
    seed_free = {"scaling", "spectrum"}
    for name in workloads.WORKLOADS:
        runs = []
        for seed in (1, 1, 2):
            correct, out, metrics, _ = run_workload(pc, name, seed, 0, trace=1)
            runs.append({k: metrics[k] for k in EXACT})
            ok &= correct
            print(f"{name} seed {seed}: correct={correct} {runs[-1]}")
        if runs[0] != runs[1]:
            print(f"FAILED {name}: exact counters differ between two runs of seed 1")
            ok = False
        shape = [k for k in EXACT if k != "experiments.export_bytes"]
        if name in seed_free and any(runs[0][k] != runs[2][k] for k in shape):
            print(f"FAILED {name}: shape counters differ between seeds 1 and 2")
            ok = False
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("prepare", "scaling", "spectrum"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    cap_threads()
    if args.setup_probe:
        setup_probe()
        return 0
    pc = load_package()
    if args.self_test:
        return 0 if self_test(pc) else 1
    if args.workload is None:
        parser.error("--workload is required")
    warm_up(pc)
    correct, out, metrics, samples = run_workload(
        pc, args.workload, args.seed, args.seconds, args.trace
    )
    print_result(args.workload, args.seed, args.trace, correct, out, metrics, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
