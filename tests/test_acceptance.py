"""Acceptance battery: every release property at its stated tolerance.

Each test here is self-contained and pins one end-to-end property of
the shipped configurations. Reference values are computed inside the
test by an independent route (closed forms, spectral evolution, Monte
Carlo) rather than imported from the code under test. Runtime ceilings
are asserted where a property commits to one.
"""

import json
import time

import numpy as np
import pytest
import yaml
from scipy.fft import dst

from pathscat import (
    cli,
    evolve,
    FixedPath,
    free_propagator_matrix,
    Gaussian,
    gaussian_packet,
    influence_K1,
    influence_K2,
    LatticeSpec,
    packet_width,
    PairPotentials,
    reconstruct_full_amplitude,
    scattered_component,
    SquareWell,
    TimeGrid,
    time_sliced_propagator,
    Yukawa,
)
from pathscat.born import born_differential_cross_section, born_total_cross_section
from pathscat.capture import (
    brute_force_oracle,
    capture_amplitude,
    ct_total_cross_section,
    make_capture_spec,
)
from pathscat.units import channel_energetics, OPEN, reduced_masses

WIDE = LatticeSpec(-20.0, 20.0, 512)

# five packets spanning the lattice: center, both travel directions,
# narrow and wide widths
PACKET_BATTERY = [
    (0.0, 0.0, 1.0),
    (-3.0, 1.5, 1.2),
    (2.0, -2.0, 0.8),
    (-5.0, 3.0, 1.0),
    (4.0, 0.7, 1.5),
]


def _battery_error(K_entries, K_ref_entries, window=8.0):
    """Worst interior deviation of the propagated battery, per-packet
    normalized. Comparing actions on smooth packets rather than raw
    matrix entries keeps band-limited closed-form columns out of the
    measurement."""
    mask = np.abs(WIDE.nodes) <= window
    worst = 0.0
    for x0, p0, s0 in PACKET_BATTERY:
        psi = gaussian_packet(WIDE, x0, p0, s0).values
        got = (K_entries @ psi) * WIDE.dx
        want = (K_ref_entries @ psi) * WIDE.dx
        scale = np.max(np.abs(want[mask]))
        worst = max(worst, np.max(np.abs((got - want)[mask])) / scale)
    return worst


def test_free_propagator_convergence():
    started = time.perf_counter()
    exact = free_propagator_matrix(WIDE, TimeGrid(0.0, 1.0, 1), 1.0).entries
    errors = []
    for N in (32, 64, 128, 256, 512, 1024):
        K = time_sliced_propagator(None, WIDE, TimeGrid(0.0, 1.0, N), 1.0)
        errors.append(_battery_error(K.entries, exact))
    # second-order stepping at N = 256 lands near 2.3e-4
    assert errors[3] <= 1e-3
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert time.perf_counter() - started <= 30.0


def test_harmonic_oscillator_kernel():
    started = time.perf_counter()
    omega, t = 1.0, 1.0
    x = WIDE.nodes
    s = np.sin(omega * t)
    xa, xb = np.meshgrid(x, x, indexing="xy")
    # independently coded oscillator kernel (Mehler form)
    ref = np.sqrt(omega / (2.0 * np.pi * abs(s))) * np.exp(-1j * np.pi / 4) * np.exp(
        1j * omega / (2.0 * s) * ((xa**2 + xb**2) * np.cos(omega * t) - 2 * xa * xb)
    )
    K = time_sliced_propagator(
        lambda q: 0.5 * omega**2 * q**2,
        WIDE,
        TimeGrid(0.0, t, 512),
        1.0,
        kinetic="exact",
        sampling="symmetric",
    )
    # measured 6.2e-6: symmetric sampling is second order with a small
    # constant and the split-step kinetic factor is exact here
    assert _battery_error(K.entries, ref) <= 1e-3
    assert time.perf_counter() - started <= 60.0


def test_packet_spreading_law():
    sigma0 = 1.0
    for t in np.arange(0.5, 5.01, 0.5):
        K = time_sliced_propagator(
            None, WIDE, TimeGrid(0.0, float(t), 64), 1.0, kinetic="exact"
        )
        psi = evolve(gaussian_packet(WIDE, 0.0, 0.0, sigma0), K)
        want = sigma0 * np.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)
        assert packet_width(psi) == pytest.approx(want, rel=1e-3)


def test_yukawa_born_routes_and_total():
    pot = Yukawa(1.0, 1.0)
    for p in (0.5, 1.0, 2.0, 5.0):
        for theta in np.linspace(0.0, np.pi, 33):
            closed = born_differential_cross_section(pot, p, 1.0, theta)
            quad = born_differential_cross_section(
                pot, p, 1.0, theta, route="quadrature"
            )
            assert quad == pytest.approx(closed, rel=1e-8)
    total = born_total_cross_section(pot, 1.0, 1.0)
    # hand integral of 4/(q^2+1)^2 over angles at p = 1
    assert total.value == pytest.approx(16.0 * np.pi / 5.0, rel=1e-8)


def test_rutherford_limit():
    p, theta = 1.0, np.pi / 2.0
    q2 = 2.0 * p**2 * (1.0 - np.cos(theta))
    rutherford = 4.0 / q2**2  # 4 Z^2 m^2 / q^4 at Z = m = hbar = 1
    deviations = []
    for screen in (0.1, 0.01, 1e-3, 1e-4):
        dcs = born_differential_cross_section(Yukawa(-1.0, screen), p, 1.0, theta)
        deviations.append(abs(dcs - rutherford) / rutherford)
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] <= 1e-3


def test_weak_coupling_first_order():
    lat = WIDE
    T, slices, mass, V0 = 6.0, 256, 1.0, 1e-3
    grid = TimeGrid(0.0, T, slices)
    psi0 = gaussian_packet(lat, -6.0, 2.0, 1.5)

    def pot(x, strength=V0):
        return strength * np.exp(-np.abs(x))

    # first-order reference: propagate freely to tau, scatter once,
    # propagate freely to T, integrate over tau; free evolution done
    # spectrally in the hard-wall sine basis so its time step is exact
    n = lat.points
    k = np.arange(1, n + 1) * np.pi / ((n + 1) * lat.dx)
    energies = k**2 / (2.0 * mass)

    def free_evolve(values, t):
        coef = dst(values, type=1, norm="ortho")
        return dst(coef * np.exp(-1j * energies * t), type=1, norm="ortho")

    M = 1024
    tau = (np.arange(M) + 0.5) * (T / M)
    Vx = pot(lat.nodes)
    born_wave = np.zeros(n, dtype=complex)
    for t_j in tau:
        born_wave += free_evolve(Vx * free_evolve(psi0.values, t_j), T - t_j)
    born_wave *= -1j * (T / M)

    def l2(v):
        return np.sqrt(np.sum(np.abs(v) ** 2) * lat.dx)

    scattered = scattered_component(psi0, pot, lat, grid, mass).values
    assert l2(scattered - born_wave) / l2(born_wave) <= 0.02

    doubled = scattered_component(
        psi0, lambda x: pot(x, 2.0 * V0), lat, grid, mass
    ).values
    assert l2(doubled - 2.0 * scattered) / l2(doubled) <= 0.01


def test_scattered_component_matches_dense_products():
    # independent of the DST reference above: the same weak-coupling
    # case through the dense N-slice kernels
    lat = WIDE
    grid = TimeGrid(0.0, 6.0, 256)
    psi0 = gaussian_packet(lat, -6.0, 2.0, 1.5)

    def pot(x):
        return 1e-3 * np.exp(-np.abs(x))

    K = time_sliced_propagator(pot, lat, grid, 1.0)
    K0 = time_sliced_propagator(None, lat, grid, 1.0)
    want = ((K.entries - K0.entries) @ psi0.values) * lat.dx
    got = scattered_component(psi0, pot, lat, grid, 1.0).values
    assert np.sqrt(np.sum(np.abs(got - want) ** 2)) <= 1e-10 * np.sqrt(
        np.sum(np.abs(want) ** 2)
    )


def test_influence_functional_reductions():
    lat = LatticeSpec(-10.0, 10.0, 101)
    grid = TimeGrid(0.0, 1.0, 8)
    free = PairPotentials(None, None, None)

    # no coupling: the prescribed path must not matter at all
    rng = np.random.default_rng(5)
    amps = [
        influence_K1(
            free,
            FixedPath(grid, rng.uniform(-40.0, 40.0, grid.N + 1)),
            -2.0,
            2.0,
            lat,
            grid,
            1.0,
        ).amplitude
        for _ in range(10)
    ]
    assert max(abs(a - amps[0]) for a in amps) <= 1e-10 * abs(amps[0])

    # spatially constant coupling: phase is exactly strength times time
    c = 0.4
    wide_well = PairPotentials(None, SquareWell(c, 1000.0), None)
    res = influence_K2(
        wide_well,
        FixedPath(grid, np.zeros(grid.N + 1)),
        -2.0,
        2.0,
        lat,
        grid,
        1.0,
    )
    assert abs(res.effective_phase - c * grid.duration) <= 1e-10

    # frozen path: influence functional equals the propagator in the
    # corresponding static potential
    V_A, V_B, R0 = Gaussian(-0.35, 1.0), Yukawa(0.2, 0.7), 1.5
    res = influence_K2(
        PairPotentials(V_A, V_B, None),
        FixedPath(grid, np.full(grid.N + 1, R0)),
        -2.0,
        2.0,
        lat,
        grid,
        1.0,
    )
    K = time_sliced_propagator(
        lambda x: V_A.evaluate(np.abs(x)) + V_B.evaluate(np.abs(x - R0)),
        lat,
        grid,
        1.0,
    )
    ia = int(np.argmin(np.abs(lat.nodes + 2.0)))
    ib = int(np.argmin(np.abs(lat.nodes - 2.0)))
    assert abs(res.amplitude - K.entries[ib, ia]) <= 1e-10 * abs(res.amplitude)


def test_two_particle_factorization():
    started = time.perf_counter()
    lat_e = LatticeSpec(-8.0, 8.0, 128)
    lat_i = LatticeSpec(-8.0, 8.0, 128)
    grid = TimeGrid(0.0, 1.0, 6)
    V_A = Gaussian(-0.3, 1.2)
    V_AB = Gaussian(0.15, 0.9)
    r_a, r_b = lat_e.nodes[32], lat_e.nodes[96]
    R_a, R_b = lat_i.nodes[40], lat_i.nodes[88]
    full = reconstruct_full_amplitude(
        PairPotentials(V_A, None, V_AB),
        (r_a, r_b),
        (R_a, R_b),
        lat_e,
        lat_i,
        grid,
        1.0,
        10.0,
    )
    Ke = time_sliced_propagator(
        lambda x: V_A.evaluate(np.abs(x)), lat_e, grid, 1.0
    )
    Ki = time_sliced_propagator(
        lambda X: V_AB.evaluate(np.abs(X)), lat_i, grid, 10.0
    )
    product = Ke.entries[96, 32] * Ki.entries[88, 40]
    assert abs(full - product) <= 1e-10 * abs(product)
    assert time.perf_counter() - started <= 120.0


def test_capture_routes_match_oracle():
    started = time.perf_counter()
    for interaction in ("ProtonElectron", "Internuclear"):
        spec = make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, interaction)
        for mode in ("obk", "jacobi"):
            for theta in (0.0, 1e-3, 5e-3):
                est = brute_force_oracle(
                    spec, theta, samples=1_000_000, lam=1.0, mode=mode
                )
                route = capture_amplitude(spec, theta, lam=1.0, mode=mode)
                tolerance = max(
                    0.02 * max(abs(route), abs(est.value)), 3.0 * est.error
                )
                assert abs(est.value - route) <= tolerance, (
                    f"{interaction}/{mode} at theta={theta}"
                )
    assert time.perf_counter() - started <= 600.0


def _bk_closed_form(v):
    """First-order Born (Brinkman-Kramers) 1s -> 1s capture total for
    Z = 1 with infinitely heavy nuclei (Jackson & Schiff 1953)."""
    return 2.0**18 * np.pi / (5.0 * v**2 * (4.0 + v**2) ** 5)


def test_capture_velocity_scaling():
    # The capture total falls as v^-12 asymptotically. The closed form
    # sigma(v) = 2^18 pi / (5 v^2 (4 + v^2)^5) has local exponent
    # -12 + 40/(v^2 + 4), so v^-12 holds only as v^2 >> 4: the
    # two-point slope over [4, 8] is -2 - 5 ln(3.4)/ln 2 = -10.8277,
    # and the 5% window around -12 is reached only from v ~ 7.9 up.
    # The test therefore pins the slope on [4, 8] to the closed form's,
    # checks every total against the closed form (the residual, about
    # 3e-3, tends to the finite-nuclear-mass term 6 m_e/M_p that the
    # closed form leaves out), and requires the octave slopes to close
    # in on -12 monotonically, reaching the 5% window on [32, 64].
    speeds = (4.0, 8.0, 16.0, 32.0, 64.0)
    totals = {}
    for v in speeds:
        spec = make_capture_spec(1.0, 1.0, 1.0, 1.0, v, "ProtonElectron")
        totals[v] = ct_total_cross_section(spec, lam=0.0, mode="jacobi").value

    # the oracle anchors the route where it can resolve the amplitude:
    # its error per 1M samples is 0.029 at v = 4, theta = 0 and 0.12 at
    # v = 8, theta = 1e-3, while the amplitude falls as v^-6 (route -0.805
    # at v = 4, theta = 0 but -2.8e-4 at v = 8, theta = 1e-3), so the
    # closed form anchors v >= 8
    spec = make_capture_spec(1.0, 1.0, 1.0, 1.0, 4.0, "ProtonElectron")
    est = brute_force_oracle(spec, 0.0, samples=1_000_000, lam=0.0, mode="jacobi")
    route = capture_amplitude(spec, 0.0, lam=0.0, mode="jacobi")
    assert est.error <= 0.1 * abs(route)
    # measured 1.01 sigma at this seed
    assert abs(est.value - route) <= 3.0 * est.error

    octaves = list(zip(speeds, speeds[1:]))
    slopes = [np.log(totals[b] / totals[a]) / np.log(b / a) for a, b in octaves]
    expected = [
        np.log(_bk_closed_form(b) / _bk_closed_form(a)) / np.log(b / a)
        for a, b in octaves
    ]
    ratios = [totals[v] / _bk_closed_form(v) for v in speeds]
    worst = max(ratios, key=lambda r: abs(r - 1.0))
    report = (
        "octave slopes (route vs closed form): "
        + ", ".join(
            f"[{a:g}, {b:g}] {s:.4f} vs {e:.4f}"
            for (a, b), s, e in zip(octaves, slopes, expected)
        )
        + f"; total/closed form farthest from 1: {worst:.6f}"
    )

    assert slopes[0] == pytest.approx(
        -2.0 - 5.0 * np.log(3.4) / np.log(2.0), rel=1e-3
    ), report
    for r in ratios:
        assert r == pytest.approx(1.0, rel=5e-3), report
    gaps = [abs(s + 12.0) for s in slopes]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), report
    assert slopes[-1] == pytest.approx(-12.0, rel=0.05), report


def test_kinematics_identities():
    rng = np.random.default_rng(2024)
    n = 1_000_000
    As = rng.uniform(0.5, 200.0, n)
    Bs = rng.uniform(0.5, 200.0, n)
    Eas = rng.uniform(1e-3, 100.0, n)
    eps_as = -rng.uniform(0.05, 5.0, n)
    eps_bs = -rng.uniform(0.05, 5.0, n)
    # one vectorised call over all draws
    kin = reduced_masses(As, Bs)
    ch = channel_energetics(Eas, eps_as, eps_bs, kin)
    # harmonic sums: each channel's reduced mass pairs the bare nucleus
    # with the composite atom on the other side
    errors = [
        np.abs(1.0 / kin.mu_a - (1.0 / kin.M_B + 1.0 / (kin.M_A + kin.m))) * kin.mu_a,
        np.abs(1.0 / kin.mu_b - (1.0 / kin.M_A + 1.0 / (kin.M_B + kin.m))) * kin.mu_b,
        np.abs(ch.E_b - (Eas + eps_as - eps_bs)) / np.maximum(np.abs(ch.E_b), 1e-300),
        np.abs(ch.p_a**2 / (2.0 * kin.mu_a) - Eas) / Eas,
    ]
    moving = ch.p_b > 0.0
    p_b, mu_b, E_b = ch.p_b[moving], kin.mu_b[moving], ch.E_b[moving]
    errors.append(np.abs(p_b**2 / (2.0 * mu_b) - E_b) / np.abs(E_b))
    assert np.array_equal(ch.status == OPEN, ch.E_b >= 0.0)
    # measured 4.67e-16; a few ulps of float algebra
    assert max(float(np.max(e)) for e in errors) <= 1e-14
    # scalar calls give the array's elements bit for bit
    for i in rng.choice(n, 200, replace=False):
        one = reduced_masses(As[i], Bs[i])
        got = channel_energetics(Eas[i], eps_as[i], eps_bs[i], one)
        assert [one.mu_a, one.mu_b, one.m_a, one.m_b] == [
            kin.mu_a[i], kin.mu_b[i], kin.m_a[i], kin.m_b[i]]
        assert (got.E_b, got.p_a, got.p_b, got.status) == (
            ch.E_b[i], ch.p_a[i], ch.p_b[i], ch.status[i])


def test_cli_determinism(tmp_path):
    config = {
        "command": "oracle",
        "system": {"A": 1.0, "B": 1.0, "Z_a": 1.0, "Z_b": 1.0},
        "v": 2.0,
        "interaction": "ProtonElectron",
        "mode": "obk",
        "lam": 1.0,
        "theta": 0.001,
        "samples": 131072,
        "seed": 7,
    }
    cfg = tmp_path / "oracle.yaml"
    cfg.write_text(yaml.safe_dump(config))
    outputs = []
    for tag, threads in (("first", "1"), ("second", "1"), ("threaded", "8")):
        out = tmp_path / tag
        code = cli.main(
            ["oracle", "--config", str(cfg), "--out", str(out),
             "--threads", threads]
        )
        assert code == 0
        outputs.append(
            ((out / "oracle.json").read_bytes(), (out / "oracle.csv").read_bytes())
        )
    assert outputs[0] == outputs[1] == outputs[2]
    # sanity: the files carry an actual result, not an error document
    saved = json.loads(outputs[0][0])
    assert saved["payload"]["samples"] == 131072
