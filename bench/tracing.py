"""Per-layer tracing for the benchmark's traced passes.

The wrappers live here, not in pathscat. Each function in TARGETS is
replaced, in every pathscat module that holds a reference to it, by a
wrapper that records a span (id, parent id, name, start, end) and a
call count. Package code looks its collaborators up as module globals
at call time, so calls made inside the package (ct_total_cross_section
-> ct_differential_cross_section -> capture_amplitude, cli.run ->
time_sliced_propagator) are traced too. A span's self time is its
duration minus the time its child spans cover. Spans stay in memory
until the run ends.

Only the calling thread's spans nest: no target runs on a worker
thread (the oracle's pool runs private block functions), so the
counters need no lock.
"""

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np
from pathscat.propagator import boundary_leak_fraction, HardWall

# propagator sizes reported separately, so O(n^3) scaling shows
LATTICE_SIZES = (512, 768, 1024)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, value):
        self.counts[name] += value

    def worst(self, name, value):
        self.counts[name] = max(self.counts[name], float(value))

    def wrap(self, name, fn, observe=None, namer=None, cpu=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if namer is None else namer(name, args, kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]  # id, time covered by children
            stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.calls[label] += 1
                tracer.self_s[label] += (t1 - t0) - frame[1]
                tracer.spans.append(
                    (frame[0], parent[0] if parent else None, label, t0, t1)
                )
                if done and observe is not None:
                    cpu_s = time.process_time() - c0 if cpu else None
                    observe(tracer, args, kwargs, result, t1 - t0,
                            (t1 - t0) - frame[1], cpu_s)
                # observer time is tracing overhead, not the parent's work
                if parent is not None:
                    parent[1] += time.perf_counter() - t0
            return result

        return traced

    def install(self):
        """Swap every pathscat reference to a target for its wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pathscat" or n.startswith("pathscat.")]
        for module_name, attr, observe, namer, cpu in TARGETS:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            fn = getattr(home, attr)
            layer = module_name.rsplit(".", 1)[-1]
            wrapper = self.wrap(f"{layer}.{attr}", fn, observe, namer, cpu)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, fn))

    def uninstall(self):
        for module, key, fn in reversed(self._undo):
            setattr(module, key, fn)
        self._undo.clear()


def _slices(name):
    def observe(tracer, args, kwargs, result, wall, self_s, cpu):
        lattice, grid = args[1], args[2]
        n = lattice.points
        work = grid.N * n
        tracer.add(f"{name}.slice_points", work)
        tracer.add(f"{name}.slice_points.n{n}", work)
        tracer.add(f"{name}.self_s.n{n}", self_s)
    return observe


def _evolved(tracer, args, kwargs, result, wall, self_s, cpu):
    psi_a = args[0]
    if isinstance(psi_a.lattice.boundary, HardWall):
        tracer.worst("propagator.norm_drift", abs(result.norm() / psi_a.norm() - 1.0))
    tracer.worst("propagator.edge_leak", boundary_leak_fraction(result))


def _influence_slices(tracer, args, kwargs, result, wall, self_s, cpu):
    tracer.add("influence.slice_points", args[5].N * args[4].points)


def _capture_total(tracer, args, kwargs, result, wall, self_s, cpu):
    tracer.add("capture.total.evaluations", result.evaluations)


def _oracle(tracer, args, kwargs, result, wall, self_s, cpu):
    tracer.add("capture.oracle.samples", result.samples)
    tracer.add("capture.oracle.wall_s", wall)
    threads = kwargs.get("n_threads", args[7] if len(args) > 7 else 1)
    if threads > 1:
        tracer.add("capture.oracle.threaded.cpu_s", cpu)
        tracer.add("capture.oracle.threaded.thread_s", wall * threads)


def _born_route(name, args, kwargs):
    return f"{name}.{kwargs.get('route', args[5] if len(args) > 5 else 'auto')}"


def _born_nodes(tracer, args, kwargs, result, wall, self_s, cpu):
    tracer.add("born.total.nodes", result.nodes)


def _cli_bytes(tracer, args, kwargs, result, wall, self_s, cpu):
    command, out_dir = args[0], args[2]
    for ext in ("csv", "json"):
        tracer.add("cli.bytes_written",
                   os.path.getsize(os.path.join(out_dir, f"{command}.{ext}")))


# (module, function, observer, span namer, measure CPU)
TARGETS = (
    ("pathscat.propagator", "time_sliced_propagator",
     _slices("propagator.time_sliced_propagator"), None, False),
    ("pathscat.propagator", "evolve", _evolved, None, False),
    ("pathscat.propagator", "scattered_component", None, None, False),
    ("pathscat.influence", "influence_K2", _influence_slices, None, False),
    ("pathscat.influence", "reconstruct_full_amplitude", None, None, False),
    ("pathscat.capture", "capture_amplitude", None, None, False),
    ("pathscat.capture", "ct_differential_cross_section", None, None, False),
    ("pathscat.capture", "ct_total_cross_section", _capture_total, None, False),
    ("pathscat.capture", "make_capture_spec", None, None, False),
    ("pathscat.capture", "brute_force_oracle", _oracle, None, True),
    ("pathscat.born", "born_total_cross_section", _born_nodes, _born_route, False),
    ("pathscat.potentials", "fourier_transform_quadrature", None, None, False),
    ("pathscat.units", "reduced_masses", None, None, False),
    ("pathscat.units", "channel_energetics", None, None, False),
    ("pathscat.cli", "run", _cli_bytes, None, False),
    ("pathscat.cli", "parse_config", None, None, False),
)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def pass_metrics(tracer, diagnostics):
    """Per-layer metrics of one traced pass; unexercised rates read 0."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    tsp = "propagator.time_sliced_propagator"
    m = {
        f"{tsp}.calls": calls[tsp],
        f"{tsp}.self_s": self_s[tsp],
        "propagator.evolve.self_s": self_s["propagator.evolve"],
        "propagator.scattered_component.self_s": self_s["propagator.scattered_component"],
        "propagator.slice_points": counts[f"{tsp}.slice_points"],
        "propagator.norm_drift": counts["propagator.norm_drift"],
        "propagator.edge_leak": counts["propagator.edge_leak"],
        "influence.influence_K2.calls": calls["influence.influence_K2"],
        "influence.influence_K2.self_s": self_s["influence.influence_K2"],
        "influence.reconstruct_full_amplitude.self_s":
            self_s["influence.reconstruct_full_amplitude"],
        "influence.slice_points": counts["influence.slice_points"],
        "influence.ns_per_slice_point": _ratio(
            self_s["influence.influence_K2"], counts["influence.slice_points"], 1e9),
        "capture.total.evaluations": counts["capture.total.evaluations"],
        "capture.oracle.samples": counts["capture.oracle.samples"],
        "capture.oracle.samples_per_s": _ratio(
            counts["capture.oracle.samples"], counts["capture.oracle.wall_s"]),
        "capture.oracle.thread_efficiency": _ratio(
            counts["capture.oracle.threaded.cpu_s"],
            counts["capture.oracle.threaded.thread_s"]),
        "capture.capture_amplitude.us_per_call": _ratio(
            self_s["capture.capture_amplitude"], calls["capture.capture_amplitude"], 1e6),
        "born.total.nodes": counts["born.total.nodes"],
        "units.self_s": self_s["units.reduced_masses"] + self_s["units.channel_energetics"],
        "cli.bytes_written": counts["cli.bytes_written"],
    }
    for n in LATTICE_SIZES:
        m[f"propagator.ns_per_slice_point.n{n}"] = _ratio(
            counts[f"{tsp}.self_s.n{n}"], counts[f"{tsp}.slice_points.n{n}"], 1e9)
    for name in ("capture.capture_amplitude", "capture.ct_differential_cross_section",
                 "capture.ct_total_cross_section", "capture.make_capture_spec",
                 "capture.brute_force_oracle", "potentials.fourier_transform_quadrature",
                 "cli.run"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for route in ("quadrature", "auto"):
        label = f"born.born_total_cross_section.{route}"
        m[f"{label}.self_s"] = self_s[label]
    m["units.reduced_masses.calls"] = calls["units.reduced_masses"]
    m["units.channel_energetics.calls"] = calls["units.channel_energetics"]
    m["cli.parse_config.self_s"] = self_s["cli.parse_config"]
    for name in ("capture.total.rel_error", "born.total.rel_error",
                 "capture.oracle.z_max", "capture.oracle.err_sqrt_n"):
        m[name] = diagnostics.get(name, 0.0)
    return m


def median_metrics(per_pass):
    return {k: float(np.median([m[k] for m in per_pass])) for k in per_pass[0]}
