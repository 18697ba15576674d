"""Time the single calls the ROADMAP quotes baselines for.

Run from the repository root:

    python3 bench/baselines.py

Prints one JSON object per call: the median and every repeat, in
seconds. These are reconciliation numbers for bench/README.md, not
benchmark metrics; the full-default Internuclear total alone takes
about 17 s, too long for a timed workload.
"""

import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pathscat as P  # noqa: E402


def timed(label, call, repeats=3):
    runs = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        runs.append(time.perf_counter() - started)
    print(json.dumps({"call": label, "median_s": statistics.median(runs), "runs_s": runs}),
          flush=True)


def main():
    grid = P.TimeGrid(0.0, 1.0, 256)
    for n in (512, 1024):
        lattice = P.LatticeSpec(-20.0, 20.0, n)
        timed(f"time_sliced_propagator harmonic n={n} N=256",
              lambda: P.time_sliced_propagator(lambda x: 0.5 * x**2, lattice, grid, 1.0))
    spec = P.make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, "ProtonElectron")
    for threads in (1, 2):
        timed(f"brute_force_oracle jacobi 2^20 samples, {threads} thread(s)",
              lambda: P.brute_force_oracle(spec, 1e-3, samples=1 << 20, mode="jacobi",
                                           n_threads=threads))
    yukawa = P.Yukawa(1.0, 1.0)
    for route in ("auto", "quadrature"):
        timed(f"born_total_cross_section Yukawa route={route}",
              lambda: P.born_total_cross_section(yukawa, 1.0, 1.0, route=route))
    spec = P.make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, "Internuclear")
    timed("ct_total_cross_section Internuclear jacobi, full defaults",
          lambda: P.ct_total_cross_section(spec, mode="jacobi"), repeats=1)


if __name__ == "__main__":
    main()
