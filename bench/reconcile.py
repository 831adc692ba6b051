"""Re-measure the cases of ROADMAP's re-anchor table with the benchmark's tracer.

    python3 bench/reconcile.py

Cases: run_prepare at N = 6 and 21 (criterion-7 coupling, n_max = 2N+2),
with propagate's share, step count and cost per step from the spans; and
run_scaling over 8, 16, ..., 4096 (uniform star, envelope mode), whose first
call in a process is reported apart from the median of the next three.
"""

import statistics
import sys
import time

import run


def main():
    run.cap_threads()
    pc = run.load_package()
    run.warm_up(pc)
    from tracing import Tracer
    from workloads import ENTRY_POINTS, KAPPA, criterion7_strength

    tracer = Tracer()
    for target in (6, 21):
        walls, per_step = [], []
        for seed in (1, 2, 3):
            tracer.reset()
            with tracer.install(pc, ENTRY_POINTS):
                start = time.perf_counter()
                pc.run_prepare(target, n_max=2 * target + 2, kappa=KAPPA,
                               strength=criterion7_strength(target), seed=seed)
                walls.append(time.perf_counter() - start)
            summary = tracer.summary()
            steps = summary["counts"]["dynamics.steps"]
            propagate_s = summary["total"]["dynamics.propagate"]
            per_step.append(1e6 * propagate_s / steps)
        print(f"run_prepare N={target}: median {statistics.median(walls):.3f} s of 3, "
              f"{steps} steps, propagate {100 * propagate_s / walls[-1]:.1f}% of the run, "
              f"{statistics.median(per_step):.1f} us/step")

    targets = [2**k for k in range(3, 13)]
    walls = []
    for _ in range(4):
        start = time.perf_counter()
        pc.run_scaling(targets)
        walls.append(time.perf_counter() - start)
    print(f"run_scaling 8..4096: first call {walls[0]:.3f} s, "
          f"then median {statistics.median(walls[1:]):.3f} s of 3")
    return 0


if __name__ == "__main__":
    sys.exit(main())
