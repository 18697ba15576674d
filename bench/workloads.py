"""The benchmark's four workloads.

Each workload turns a seed into fixed inputs, runs one pass over its
results through the public pathscat API, and checks every result
against an independent route (see refroutes.py). The seed moves
physical parameters, not problem sizes, so every seed does the same
amount of work. Why each workload exists is in bench/README.md.
"""

import contextlib
import glob
import hashlib
import io
import json
import math
import os

import numpy as np
import pathscat as P

import refroutes as R

CAPTURE_VELOCITIES = (1.5, 2.0, 2.5, 3.0)
CAPTURE_CASE = {
    "interaction": "Internuclear",
    "mode": "jacobi",
    "lam": 0.1,
    "rule": {"n_segments": 6, "seg_nodes": 8, "tail_nodes": 16},
}
# At lam = 0.1 the default momentum rule is 7.7e-4 off the doubled-node
# reference at v = 2; a more accurate rule lands closer and passes too.
CAPTURE_REL_TOL = 5e-3
ORACLE_Z_MAX = 5.0
# Totals and cross sections the user is promised to about six digits.
CT_REL_TOL = 1e-6
# Two algorithms for the same discrete product agree to rounding.
ROUTE_REL_TOL = 1e-9

_REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "references.json")


class Check:
    """Outcome of one result's check: pass/fail, a message, diagnostics."""

    def __init__(self):
        self.problems = []
        self.diagnostics = {}

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)

    def close(self, got, want, rel_tol, what):
        err = abs(got - want) / abs(want)
        self.require(err <= rel_tol, f"{what}: rel error {err:.3e} > {rel_tol:g}")
        return err

    def note(self, name, value):
        """Keep the worst value of a per-layer diagnostic."""
        self.diagnostics[name] = max(self.diagnostics.get(name, 0.0), float(value))


def _field_close(check, got, want, what, rel_tol=ROUTE_REL_TOL):
    err = float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))
    check.require(err <= rel_tol, f"{what}: max deviation {err:.3e} > {rel_tol:g}")


class Workload:
    """Steps are (label, call, check) triples; a pass runs every call."""

    name = None

    def __init__(self, seed, root, workdir):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.steps = []

    def add(self, label, call, check):
        self.steps.append((label, call, check))


class Lattice(Workload):
    name = "lattice"

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = self.rng
        # harmonic well, n = 1024, N = 256, exact kinetic, symmetric sampling
        self.omega = rng.uniform(0.8, 1.2)
        self.packet = (rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5),
                       rng.uniform(0.7, 1.3))
        self.lat1024 = P.LatticeSpec(-20.0, 20.0, 1024)
        self.grid = P.TimeGrid(0.0, 1.0, 256)
        omega = self.omega
        self.harmonic = lambda x: 0.5 * omega**2 * x**2
        self.add("harmonic_evolve", self._harmonic, self._check_harmonic)
        # Gaussian well, n = 512, N = 256, default scheme
        self.lat512 = P.LatticeSpec(-20.0, 20.0, 512)
        self.well = (rng.uniform(-0.8, -0.3), rng.uniform(1.0, 2.0))
        self.incoming = (rng.uniform(-6.0, -3.0), rng.uniform(1.0, 2.0), 1.0)
        self.add("scattered_component", self._scattered, self._check_scattered)
        # midpoint sampling: the dense-only path
        self.mid_well = (rng.uniform(-0.8, -0.3), rng.uniform(1.0, 2.0))
        self.add("midpoint_propagator", self._midpoint, self._check_midpoint)
        # influence functional, n = 256, N = 64
        self.lat256 = P.LatticeSpec(-10.0, 10.0, 256)
        self.grid64 = P.TimeGrid(0.0, 1.0, 64)
        self.V_A = (rng.uniform(-0.5, -0.2), 1.0)
        self.V_B = (rng.uniform(0.1, 0.3), 0.7)
        self.ion_path = np.linspace(rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0),
                                    self.grid64.N + 1)
        self.k2_nodes = (int(rng.integers(60, 100)), int(rng.integers(156, 196)))
        self.add("influence_K2", self._influence, self._check_influence)
        # product lattice 256 x 256, N = 8, electron mass 1, ion mass 10
        self.lat_pair = P.LatticeSpec(-8.0, 8.0, 256)
        self.grid8 = P.TimeGrid(0.0, 1.0, 8)
        self.pair_pots = (rng.uniform(-0.4, -0.2), rng.uniform(0.1, 0.2))
        # Endpoints a few units apart: with N = 8 the pade2 slices cannot
        # carry a path across the box, and a band-suppressed element leaves
        # only rounding noise to compare.
        ra, Ra = (int(i) for i in rng.integers(96, 160, 2))
        self.pair_nodes = (ra, ra + int(rng.integers(-32, 33)),
                           Ra, Ra + int(rng.integers(-16, 17)))
        self.add("reconstruct_full_amplitude", self._product, self._check_product)

    def _harmonic(self):
        K = P.time_sliced_propagator(self.harmonic, self.lat1024, self.grid, 1.0,
                                     kinetic="exact", sampling="symmetric")
        psi0 = P.gaussian_packet(self.lat1024, *self.packet)
        return psi0, P.evolve(psi0, K)

    def _check_harmonic(self, result):
        psi0, psi = result
        c = Check()
        x, dx = self.lat1024.nodes, self.lat1024.dx
        want = R.split_step(psi0.values, dx, self.grid.epsilon, 1.0,
                            [self.harmonic(x)] * self.grid.N, kinetic="exact",
                            sampling="symmetric")
        _field_close(c, psi.values, want, "evolved packet vs split-step")
        drift = abs(R.lattice_norm(psi.values, dx) / R.lattice_norm(psi0.values, dx) - 1)
        c.require(drift <= 1e-10, f"norm drift {drift:.3e} > 1e-10")
        c.close(R.lattice_width(psi.values, x),
                R.harmonic_width(self.packet[2], self.omega, self.grid.duration),
                1e-4, "packet width vs closed form")
        return c

    def _scattered(self):
        psi0 = P.gaussian_packet(self.lat512, *self.incoming)
        return psi0, P.scattered_component(psi0, P.Gaussian(*self.well),
                                           self.lat512, self.grid, 1.0)

    def _check_scattered(self, result):
        psi0, sc = result
        c = Check()
        x, dx, eps, N = self.lat512.nodes, self.lat512.dx, self.grid.epsilon, self.grid.N
        free = R.split_step(psi0.values, dx, eps, 1.0, [None] * N)
        full = R.split_step(psi0.values, dx, eps, 1.0,
                            [R.gaussian_potential(*self.well, x)] * N)
        _field_close(c, sc.values, full - free, "scattered component vs split-step")
        drift = abs(R.lattice_norm(free + sc.values, dx) / R.lattice_norm(psi0.values, dx)
                    - 1)
        c.require(drift <= 1e-10, f"unitarity of free + scattered: drift {drift:.3e}")
        return c

    def _midpoint(self):
        return P.time_sliced_propagator(P.Gaussian(*self.mid_well), self.lat512,
                                        self.grid, 1.0, sampling="midpoint")

    def _check_midpoint(self, K):
        c = Check()
        E = K.entries
        defect = float(np.max(np.abs(E - E.T)) / np.max(np.abs(E)))
        c.require(defect <= 1e-10, f"midpoint kernel symmetry defect {defect:.3e}")
        return c

    def _influence(self):
        pots = P.PairPotentials(P.Gaussian(*self.V_A), P.Gaussian(*self.V_B), None)
        nodes = self.lat256.nodes
        ia, ib = self.k2_nodes
        return P.influence_K2(pots, P.FixedPath(self.grid64, self.ion_path),
                              nodes[ia], nodes[ib], self.lat256, self.grid64, 1.0)

    def _check_influence(self, res):
        c = Check()
        x, dx, eps, N = self.lat256.nodes, self.lat256.dx, self.grid64.epsilon, self.grid64.N
        ia, ib = self.k2_nodes
        slices = [R.gaussian_potential(*self.V_A, x)
                  + R.gaussian_potential(*self.V_B, x - self.ion_path[j])
                  for j in range(1, N + 1)]
        c.close(res.amplitude, R.kernel_element(dx, eps, 1.0, slices, ia, ib, x.size),
                ROUTE_REL_TOL, "K2 amplitude vs split-step")
        c.close(res.free_reference,
                R.free_kernel_column(x.size, dx, eps, N, 1.0, ia)[ib],
                ROUTE_REL_TOL, "free reference vs sine-basis kernel")
        c.close(res.free_reference * np.exp(-1j * res.effective_phase), res.amplitude,
                1e-10, "amplitude vs free reference times exp(-i phase)")
        return c

    def _product(self):
        V_A, V_AB = self.pair_pots
        pots = P.PairPotentials(P.Gaussian(V_A, 1.2), None, P.Gaussian(V_AB, 0.9))
        x = self.lat_pair.nodes
        ra, rb, Ra, Rb = self.pair_nodes
        return P.reconstruct_full_amplitude(pots, (x[ra], x[rb]), (x[Ra], x[Rb]),
                                            self.lat_pair, self.lat_pair, self.grid8,
                                            1.0, 10.0)

    def _check_product(self, full):
        c = Check()
        x, dx, eps, N = self.lat_pair.nodes, self.lat_pair.dx, self.grid8.epsilon, self.grid8.N
        ra, rb, Ra, Rb = self.pair_nodes
        V_A, V_AB = self.pair_pots
        Ke = R.kernel_element(dx, eps, 1.0, [R.gaussian_potential(V_A, 1.2, x)] * N,
                              ra, rb, x.size)
        Ki = R.kernel_element(dx, eps, 10.0, [R.gaussian_potential(V_AB, 0.9, x)] * N,
                              Ra, Rb, x.size)
        c.close(full, Ke * Ki, ROUTE_REL_TOL, "product-lattice element vs factorized")
        return c


def _load_capture_references():
    with open(_REFERENCES, encoding="utf-8") as fh:
        ref = json.load(fh)["capture_total"]
    if ref["case"] != CAPTURE_CASE:
        raise RuntimeError("references.json was made for another capture case; "
                           "rerun bench/make_references.py")
    return {float(v): total for v, total in ref["values"].items()}


class Capture(Workload):
    name = "capture"

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = self.rng
        self.v = float(rng.choice(CAPTURE_VELOCITIES))
        self.reference = _load_capture_references()[self.v]
        self.add("ct_total_internuclear", self._total, self._check_total)
        # Strengths only: the transforms' adaptive work depends on shape.
        self.p = 1.0
        self.born = {
            "yukawa": P.Yukawa(rng.uniform(0.5, 1.5), 1.0),
            "gaussian": P.Gaussian(-rng.uniform(0.3, 0.8), 1.5),
            "square_well": P.SquareWell(-rng.uniform(0.3, 0.8), 1.0),
        }
        self._closed = {}
        for label, pot in self.born.items():
            self.add(f"born_{label}", self._born_call(pot), self._born_check(label))

    def _total(self):
        case = CAPTURE_CASE
        spec = P.make_capture_spec(1.0, 1.0, 1.0, 1.0, self.v, case["interaction"])
        return P.ct_total_cross_section(spec, lam=case["lam"], mode=case["mode"],
                                        **case["rule"])

    def _check_total(self, total):
        c = Check()
        err = c.close(total.value, self.reference, CAPTURE_REL_TOL,
                      f"Internuclear total at v={self.v} vs doubled-node reference")
        c.note("capture.total.rel_error", err)
        return c

    def _born_call(self, pot):
        def call():
            return P.born_total_cross_section(pot, self.p, 1.0, route="quadrature")
        return call

    def _born_check(self, label):
        def check(total):
            pot = self.born[label]
            if label not in self._closed:
                self._closed[label] = P.born_total_cross_section(pot, self.p, 1.0).value
            c = Check()
            err = c.close(total.value, self._closed[label], 1e-8,
                          f"Born {label} total, quadrature vs closed-form route")
            c.note("born.total.rel_error", err)
            if label == "yukawa":
                c.close(total.value, R.yukawa_born_total(pot.V0, pot.alpha, self.p, 1.0),
                        1e-8, "Born Yukawa total vs hand integral")
            return c
        return check


class Oracle(Workload):
    name = "oracle"

    CALLS = (
        # (mode, interaction, samples, threads)
        ("jacobi", "ProtonElectron", 1 << 20, 1),
        ("jacobi", "Sum", 1 << 19, 2),
        ("obk", "ProtonElectron", 1 << 19, 1),
    )

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.theta = float(self.rng.uniform(0.0, 5e-3))
        self.oracle_seed = int(self.rng.integers(0, 2**31))
        self._routes = {}
        for mode, interaction, samples, threads in self.CALLS:
            label = f"{mode}_{interaction}_{samples}_t{threads}"
            self.add(label, self._call(mode, interaction, samples, threads),
                     self._check(mode, interaction))

    def _spec(self, interaction):
        return P.make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, interaction)

    def _call(self, mode, interaction, samples, threads):
        def call():
            return P.brute_force_oracle(self._spec(interaction), self.theta,
                                        samples=samples, lam=1.0, mode=mode,
                                        seed=self.oracle_seed, n_threads=threads)
        return call

    def _check(self, mode, interaction):
        def check(est):
            key = (mode, interaction)
            if key not in self._routes:
                self._routes[key] = P.capture_amplitude(self._spec(interaction),
                                                        self.theta, lam=1.0, mode=mode)
            c = Check()
            z = abs(est.value - self._routes[key]) / est.error
            c.require(z <= ORACLE_Z_MAX,
                      f"oracle {mode}/{interaction} z-score {z:.2f} > {ORACLE_Z_MAX}")
            c.note("capture.oracle.z_max", z)
            c.note("capture.oracle.err_sqrt_n", est.error * math.sqrt(est.samples))
            return c
        return check


class CliSweep(Workload):
    name = "cli-sweep"

    def __init__(self, seed, root, workdir):
        import pathscat.cli  # noqa: F401  (a CLI user pays this import)

        super().__init__(seed, root, workdir)
        self.configs = os.path.join(root, "demos", "configs")
        demos = sorted(glob.glob(os.path.join(self.configs, "*.yaml")))
        if len(demos) != 6:
            raise RuntimeError(f"expected six demo configs in {self.configs}")
        self.first_bytes = {}
        for path in demos:
            command = os.path.basename(path)[: -len(".yaml")]
            self._add_cli(command, command, path, [])
        velocities = np.round(np.sort(self.rng.uniform(0.5, 8.0, 8)), 3)
        ct = os.path.join(self.configs, "charge-transfer.yaml")
        for v in map(float, velocities):
            for mode, lam in (("jacobi", 0.0), ("obk", 0.5)):
                sets = [f"v={v!r}", f"mode={mode}", f"lam={lam!r}"]
                self._add_cli(f"sweep_{mode}_v{v!r}", "charge-transfer", ct, sets)

    def _add_cli(self, label, command, config, sets):
        out = os.path.join(self.workdir, label)
        argv = [command, "--config", config, "--out", out]
        for item in sets:
            argv += ["--set", item]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = P.cli.main(argv)
            return code, sink.getvalue()

        self.add(label, call, self._checker(label, command, out))

    def _checker(self, label, command, out):
        def check(result):
            code, stdout = result
            c = Check()
            c.require(code == 0, f"exit code {code}: {stdout.strip()[:200]}")
            if code != 0:
                return c
            raw = {}
            for ext in ("csv", "json"):
                with open(os.path.join(out, f"{command}.{ext}"), "rb") as fh:
                    raw[ext] = fh.read()
            for ext, data in raw.items():
                lower = data.lower()
                c.require(b"elapsed" not in lower and b"seconds" not in lower,
                          f"timing text in {command}.{ext}")
            digest = hashlib.sha256(raw["csv"] + raw["json"]).hexdigest()
            first = self.first_bytes.setdefault(label, digest)
            c.require(digest == first, "outputs differ from the first pass's bytes")
            doc = json.loads(raw["json"])
            rows = [[float(v) for v in line.split(",")]
                    for line in raw["csv"].decode().splitlines()[1:]]
            getattr(self, "_payload_" + command.replace("-", "_"))(
                c, doc["config"], doc["payload"], np.array(rows))
            return c
        return check

    def _payload_propagator(self, c, cfg, payload, rows):
        lat, t = cfg["lattice"], cfg["time"]
        n = lat["points"]
        dx = (lat["x_max"] - lat["x_min"]) / (n - 1)
        eps = (t["t_b"] - t["t_a"]) / t["slices"]
        j = int(rows[np.argmin(np.abs(rows[:, 1] - payload["source_node"])), 0])
        col = R.free_kernel_column(n, dx, eps, t["slices"], cfg["mass"], j)
        _field_close(c, rows[:, 2] + 1j * rows[:, 3], col, "free column vs sine basis")
        c.require(payload["symmetry_defect"] <= 1e-10,
                  f"symmetry defect {payload['symmetry_defect']:.3e}")
        # the shipped lattice lands near 2.3e-4 at N = 256
        c.require(payload["free_kernel_max_rel_deviation"] <= 1e-3,
                  "free kernel deviates from the closed form by more than 1e-3")

    def _payload_evolve(self, c, cfg, payload, rows):
        lat, t, pk, pot = cfg["lattice"], cfg["time"], cfg["packet"], cfg["potential"]
        x = np.linspace(lat["x_min"], lat["x_max"], lat["points"])
        dx = x[1] - x[0]
        eps = (t["t_b"] - t["t_a"]) / t["slices"]
        b = lat["boundary"]
        psi0 = R.gaussian_packet(x, pk["x0"], pk["p0"], pk["sigma0"])
        V = R.gaussian_potential(pot["V0"], pot["width"], x)
        want = R.split_step(psi0, dx, eps, cfg["mass"], [V] * t["slices"],
                            damping=R.absorber_damping(x, b["width"], b["strength"], eps))
        _field_close(c, rows[:, 2] + 1j * rows[:, 3], want, "evolved field vs split-step")
        c.close(payload["norm_final"], R.lattice_norm(want, dx), 1e-9, "final norm")
        c.close(payload["norm_initial"], R.lattice_norm(psi0, dx), 1e-12, "initial norm")
        c.close(payload["width_final"], R.lattice_width(want, x), 1e-8, "final width")

    def _payload_born_elastic(self, c, cfg, payload, rows):
        pot = cfg["potential"]
        args = (pot["V0"], pot["alpha"], cfg["p"], cfg["mass"])
        err = c.close(payload["sigma_total"], R.yukawa_born_total(*args), 1e-8,
                      "Born total vs hand integral")
        c.note("born.total.rel_error", err)
        _field_close(c, rows[:, 1], R.yukawa_born_dcs(*args, rows[:, 0]),
                     "dsigma/dOmega vs closed form", rel_tol=1e-12)

    def _payload_influence(self, c, cfg, payload, rows):
        lat, t, pots, path = cfg["lattice"], cfg["time"], cfg["potentials"], cfg["path"]
        x = np.linspace(lat["x_min"], lat["x_max"], lat["points"])
        dx = x[1] - x[0]
        N = t["slices"]
        eps = (t["t_b"] - t["t_a"]) / N
        R_path = np.linspace(path["start"], path["end"], N + 1)
        gauss = [(pots[k]["V0"], pots[k]["width"]) for k in ("V_A", "V_B")]
        slices = [R.gaussian_potential(*gauss[0], x)
                  + R.gaussian_potential(*gauss[1], x - R_path[j]) for j in range(1, N + 1)]
        ia = int(np.argmin(np.abs(x - cfg["endpoints"]["a"])))
        ib = int(np.argmin(np.abs(x - cfg["endpoints"]["b"])))
        amp = complex(payload["amplitude"]["re"], payload["amplitude"]["im"])
        ref = complex(payload["free_reference"]["re"], payload["free_reference"]["im"])
        phase = complex(payload["effective_phase"]["re"], payload["effective_phase"]["im"])
        c.close(amp, R.kernel_element(dx, eps, cfg["mass"], slices, ia, ib, x.size),
                ROUTE_REL_TOL, "K2 amplitude vs split-step")
        c.close(ref, R.free_kernel_column(x.size, dx, eps, N, cfg["mass"], ia)[ib],
                ROUTE_REL_TOL, "free reference vs sine-basis kernel")
        c.close(ref * np.exp(-1j * phase), amp, 1e-10, "amplitude vs reference phase")

    def _payload_charge_transfer(self, c, cfg, payload, rows):
        sysc = cfg["system"]
        kin = R.capture_kinematics(cfg["v"], sysc["A"], sysc["B"], sysc["Z_a"], sysc["Z_b"])
        for key in ("p_a", "p_b", "mu_a", "mu_b"):
            c.close(payload[key], kin[key], 1e-12, key)
        mode, lam = cfg["mode"], cfg["lam"]
        err = c.close(payload["sigma_total"], R.pe_total(kin, lam, mode), CT_REL_TOL,
                      f"{mode} total at v={cfg['v']} vs adaptive quadrature")
        c.note("capture.total.rel_error", err)
        _field_close(c, rows[:, 1], R.pe_dcs(kin, rows[:, 0], lam, mode),
                     "dsigma/dOmega vs closed form", rel_tol=1e-10)

    def _payload_oracle(self, c, cfg, payload, rows):
        sysc = cfg["system"]
        kin = R.capture_kinematics(cfg["v"], sysc["A"], sysc["B"], sysc["Z_a"], sysc["Z_b"])
        route = complex(payload["route_value"]["re"], payload["route_value"]["im"])
        c.close(route, R.pe_amplitude(kin, cfg["theta"], cfg["lam"], cfg["mode"]), 1e-10,
                "oracle route value vs closed form")
        z = payload["route_deviation"] / payload["statistical_error"]
        c.require(z <= ORACLE_Z_MAX, f"oracle z-score {z:.2f} > {ORACLE_Z_MAX}")
        c.note("capture.oracle.z_max", z)
        c.note("capture.oracle.err_sqrt_n",
               payload["statistical_error"] * math.sqrt(payload["samples"]))


WORKLOADS = {w.name: w for w in (Lattice, Capture, Oracle, CliSweep)}
