"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload lattice --seed 1 --seconds 25 --trace 0

Run it from the repository root. pathscat is imported from src/ with
nothing installed. The workload's inputs come from --seed. Passes over
the workload repeat until --seconds are used up. Every result is checked
against an independent route. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the run alternates untraced and traced passes and reports
the per-layer metrics instead. The line before it records the
environment and every pass. CLI outputs and the span file go to
bench/out/, and the CLI outputs are removed when the run ends.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 3
MIN_PASSES = 3  # untraced; a traced run needs two traced and two untraced


def import_package():
    """Import pathscat from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import pathscat
    except ImportError as exc:
        sys.exit(f"bench: cannot import pathscat from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(pathscat.__file__))) != SRC:
        sys.exit(f"bench: pathscat came from {pathscat.__file__}, not {SRC}")


def environment(seed):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def measure_setup(workload, seed):
    """Median time from process start until a fresh process is ready to time.

    Each probe is a new interpreter that imports pathscat and builds the
    workload's inputs, then reports ready on stdout.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.wait(timeout=60)
        if line.strip() != "ready" or probe.returncode != 0:
            sys.exit(f"bench: set-up probe failed with code {probe.returncode}")
        times.append(ready - started)
    return times


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_pass(workload, tracer):
    """Time each step of one pass, then check every result.

    CPU time is the whole process's user + system time, so it includes
    every thread that BLAS or the oracle's pool runs.
    """
    results, steps = {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for label, call, _ in workload.steps:
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                results[label] = (True, call())
            except Exception:  # a failed call is a failed result
                results[label] = (False, traceback.format_exc())
            steps[label] = (time.perf_counter() - t0, _cpu_s() - c0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, diagnostics = {}, {}
    for label, _, check in workload.steps:
        ok, value = results[label]
        if not ok:
            failures[label] = [f"raised\n{value}"]
            continue
        try:
            c = check(value)
        except Exception:  # a check that cannot run certifies nothing
            failures[label] = [f"check raised\n{traceback.format_exc()}"]
            continue
        if c.problems:
            failures[label] = c.problems
        for name, v in c.diagnostics.items():
            diagnostics[name] = max(diagnostics.get(name, 0.0), v)
    return {"steps": steps, "wall_s": sum(w for w, _ in steps.values()),
            "cpu_s": sum(c for _, c in steps.values()), "attempted": len(workload.steps),
            "failed": len(failures), "failures": failures, "diagnostics": diagnostics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_package()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, ROOT, OUT)
        print("ready", flush=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        passes, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            tracer = tracing.Tracer() if args.trace and len(passes) % 2 else None
            record = run_pass(workload, tracer)
            record["traced"] = tracer is not None
            passes.append(record)
            if tracer is not None:
                traced.append((tracer, record))
            typical = statistics.median(p["wall_s"] for p in passes)
            enough = len(passes) >= (4 if args.trace else MIN_PASSES)
            if enough and time.perf_counter() + typical > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        values = tracing.median_metrics(
            [tracing.pass_metrics(t, r["diagnostics"]) for t, r in traced])
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for _, r in traced)
            - statistics.median(p["wall_s"] for p in plain))
        write_spans(args, traced[-1][0])
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": sum_of_step_medians(plain, 0),
            "cpu_s": sum_of_step_medians(plain, 1),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024.0,
            "pass_ratio": 1.0 - failed / attempted,
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"bench: no value for {missing}")

    seen = set()
    for p in passes:
        for label, problems in p["failures"].items():
            for problem in problems:
                if (label, problem) not in seen:
                    seen.add((label, problem))
                    print(f"bench: FAILED {label}: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "setup_probes_s": setup,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "traced", "failed")}
                   for p in passes],
    }
    print(json.dumps({"info": info}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def sum_of_step_medians(passes, which):
    """Time of one pass as the sum over its steps of each step's median.

    Interference from other processes lands on single calls; a median
    per step keeps one slow call from moving the pass.
    """
    labels = passes[0]["steps"]
    return sum(statistics.median(p["steps"][label][which] for p in passes)
               for label in labels)


def write_spans(args, tracer):
    """Spans of the last traced pass, times relative to its first span."""
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": [[i, p, n, s - t0, e - t0] for i, p, n, s, e in tracer.spans]},
                  fh)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
