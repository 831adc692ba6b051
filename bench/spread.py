"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 bench/spread.py --seeds 1 2 3 4 5 --workloads prepare
    python3 bench/spread.py --out bench/BENCH_baseline.json
    python3 bench/spread.py --against bench/BENCH_baseline.json

Runs bench/run.py once per (workload, seed), one run at a time, with
BENCHMARK.json's run_seconds and tracing off. For each metric it reports the
median and the quartiles of the values (statistics.quantiles, n=4), and the
spread (q3 - q1) / median against the metric's bound. --against compares
the medians with an earlier output of this script and flags any metric
whose median got worse by more than its bound. --out writes everything,
with the environment of the first run, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 180


def run_once(workload, seed, seconds):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, wall


def worse_by(better, old, new):
    """Share of the old median by which new is worse (negative when better)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    previous = json.loads(args.against.read_text())["workloads"] if args.against else {}

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        values = {name: [] for name in metrics}
        walls, failed = [], 0
        for seed in args.seeds:
            result, wall = run_once(workload, seed, spec["run_seconds"])
            walls.append(wall)
            failed += result["failed"] + (not result["correct"])
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        if "environment" not in report:
            record = ROOT / ".bench_out" / "results" / f"{workload}-seed{args.seeds[0]}-trace0.json"
            report["environment"] = json.loads(record.read_text())["environment"]
        rows = {}
        print(f"{workload}: {len(args.seeds)} runs, {failed} failures, "
              f"wall {min(walls):.1f}..{max(walls):.1f} s per run")
        for name, m in metrics.items():
            vals = values[name]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            row = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                   "bound": m["bound"], "unit": m["unit"], "values": vals}
            flag = ""
            if name != "setup_s" and spread >= m["bound"] / 3:
                flag, steady = "  SPREAD >= bound/3", False
            if workload in previous:
                old = previous[workload][name]["median"]
                row["worse_by"] = worse_by(m["better"], old, median)
                flag += f"  vs earlier {row['worse_by']:+.3f}"
                if row["worse_by"] > m["bound"]:
                    flag, steady = flag + " WORSE THAN BOUND", False
            print(f"  {name:15s} median {median:.6g} {m['unit']:4s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} (bound {m['bound']}){flag}")
            rows[name] = row
        report["workloads"][workload] = rows
        report["workloads"][workload]["wall_s"] = walls
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
