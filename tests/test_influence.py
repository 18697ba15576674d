"""Influence functionals for a particle coupled to a prescribed path.

The lattice has dx = 0.2 so the endpoint coordinates used below sit
exactly on nodes. The wide square well (radius 1000) turns the pair
coupling into a spatially constant slice potential: the electron sample
either sits inside the well for every lattice point (potential c
everywhere) or at 1e6, outside it everywhere (exactly zero). That makes
phase bookkeeping exact and is the cleanest way to probe the reductions.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscat import (
    AbsorbingLayer,
    DomainError,
    FixedPath,
    Gaussian,
    HardWall,
    influence_K1,
    influence_K2,
    LatticeSpec,
    PairPotentials,
    reconstruct_full_amplitude,
    SquareWell,
    TimeGrid,
    time_sliced_propagator,
    Yukawa,
)
from pathscat.propagator import (
    _absorber_profile,
    _kinetic_factor,
    _mode_kernel,
)

LAT = LatticeSpec(-10.0, 10.0, 101)
GRID = TimeGrid(0.0, 1.0, 8)
FREE = PairPotentials(None, None, None)


def _static_path(value, grid=GRID):
    return FixedPath(grid, np.full(grid.N + 1, value))


def _chain(slice_ends, lattice, grid, mass, kinetic, sampling):
    """Dense ordered product T_N dx T_(N-1) ... dx T_1 of one-slice kernels.

    slice_ends holds the node potentials V_0 ... V_N at t_0 ... t_N. T_j is
    the free one-slice kernel G with the phase exp(-i eps V_j) after it for
    endpoint sampling, and with exp(-i eps V_(j-1) / 2) before it and
    exp(-i eps V_j / 2) after it for symmetric sampling.
    """
    eps, dx = grid.epsilon, lattice.dx
    one = TimeGrid(0.0, eps, 1)
    G = time_sliced_propagator(None, lattice, one, mass, kinetic, sampling).entries
    depart = {"endpoint": 0.0, "symmetric": 0.5}[sampling]
    K = None
    for V0, V1 in zip(slice_ends[:-1], slice_ends[1:]):
        T = (np.exp(-1j * eps * (1.0 - depart) * V1)[:, None] * G
             * np.exp(-1j * eps * depart * V0)[None, :])
        K = T if K is None else T @ (dx * K)
    return K


@pytest.mark.parametrize(
    "kinetic,sampling",
    [("pade2", "endpoint"), ("exact", "symmetric"), ("exact", "endpoint")],
)
def test_endpoint_elements_match_dense_chain(kinetic, sampling):
    # the dense product of slice kernels is the oracle for the engine
    V_A, V_B = Gaussian(-0.35, 1.0), Gaussian(0.2, 0.7)
    path = FixedPath(GRID, np.linspace(-1.5, 2.5, GRID.N + 1))
    ia = int(np.argmin(np.abs(LAT.nodes + 2.0)))
    ib = int(np.argmin(np.abs(LAT.nodes - 2.0)))
    x = LAT.nodes
    cases = [
        (influence_K2, PairPotentials(V_A, V_B, None), 1.0,
         [V_A.evaluate(np.abs(x)) + V_B.evaluate(np.abs(x - R)) for R in path.samples]),
        (influence_K1, PairPotentials(None, V_B, V_A), 10.0,
         [V_B.evaluate(np.abs(r - x)) + V_A.evaluate(np.abs(x)) for r in path.samples]),
    ]
    for fn, pots, mass, slice_ends in cases:
        res = fn(pots, path, -2.0, 2.0, LAT, GRID, mass, kinetic=kinetic,
                 sampling=sampling)
        K = _chain(slice_ends, LAT, GRID, mass, kinetic, sampling)
        K0 = _chain([np.zeros(LAT.points)] * (GRID.N + 1), LAT, GRID, mass, kinetic,
                    sampling)
        assert res.amplitude == pytest.approx(K[ib, ia], rel=1e-10)
        assert res.free_reference == pytest.approx(K0[ib, ia], rel=1e-10)


def test_symmetric_sampling_is_second_order_on_a_moving_path():
    # the half-phases sit at each slice's departure and arrival samples, so
    # the time-step error falls as eps^2 and successive changes by 4
    pots = PairPotentials(Gaussian(-0.35, 1.0), Gaussian(0.2, 0.7), None)
    amps = []
    for N in (16, 32, 64, 128, 256):
        grid = TimeGrid(0.0, 1.0, N)
        path = FixedPath(grid, np.linspace(-2.0, 1.0, N + 1))
        amps.append(influence_K2(pots, path, -2.0, 2.0, LAT, grid, 1.0,
                                 kinetic="exact", sampling="symmetric").amplitude)
    changes = np.abs(np.diff(amps))
    # measured 4.07, 4.01, 4.00; arrival-time halves gave 1.63, 1.85, 1.94
    assert changes[:-1] / changes[1:] == pytest.approx(4.0, abs=0.2)


@settings(max_examples=20, deadline=None, database=None)
@given(
    influence=st.sampled_from([influence_K1, influence_K2]),
    kinetic=st.sampled_from(["pade2", "exact"]),
    absorbing=st.booleans(),
    n=st.integers(16, 159),
    N=st.integers(1, 29),
    seed=st.integers(0, 2**32 - 1),
)
def test_symmetric_sampling_reverses_time(influence, kinetic, absorbing, n, N, seed):
    # each symmetric slice is D G D with G symmetric, so the product along
    # the reversed path is the transpose: (a -> b) along R(t) equals
    # (b -> a) along R(T - t). Endpoint sampling breaks it: the same draws
    # differ by up to 0.055.
    rng = np.random.default_rng(seed)
    boundary = AbsorbingLayer(width=2.0, strength=rng.uniform(0.5, 5.0)) if absorbing \
        else HardWall()
    lat = LatticeSpec(-8.0, 8.0, n, boundary=boundary)
    grid = TimeGrid(0.0, rng.uniform(0.1, 2.0), N)
    pots = PairPotentials(*(Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
                            for _ in range(3)))
    samples = rng.uniform(-3.0, 3.0, N + 1)
    a, b = lat.nodes[rng.integers(0, n, 2)]
    args = (lat, grid, rng.uniform(0.5, 2.0), kinetic, "symmetric")
    forward = influence(pots, FixedPath(grid, samples), a, b, *args)
    backward = influence(pots, FixedPath(grid, samples[::-1]), b, a, *args)
    # measured at most 2.1e-15 over 300 random draws
    assert abs(forward.amplitude - backward.amplitude) * lat.dx <= 1e-13


def test_zero_coupling_phase_is_path_independent():
    rng = np.random.default_rng(3)
    phases, amps = [], []
    for _ in range(10):
        path = FixedPath(GRID, rng.uniform(-50.0, 50.0, GRID.N + 1))
        res = influence_K1(FREE, path, -2.0, 2.0, LAT, GRID, 1.0)
        phases.append(res.effective_phase)
        amps.append(res.amplitude)
    assert max(abs(p) for p in phases) <= 1e-10
    spread = max(abs(a - amps[0]) for a in amps)
    assert spread <= 1e-10 * abs(amps[0])


def test_constant_coupling_gives_linear_phase():
    c = 0.4
    pots = PairPotentials(None, SquareWell(c, 1000.0), None)
    res = influence_K2(pots, _static_path(0.0), -2.0, 2.0, LAT, GRID, 1.0)
    assert res.effective_phase == pytest.approx(c * GRID.duration, abs=1e-10)
    # the reported amplitude, reference and phase are mutually consistent
    assert res.amplitude == pytest.approx(
        res.free_reference * np.exp(-1j * res.effective_phase), rel=1e-12
    )


def test_phase_additivity_over_disjoint_windows():
    # electron parked inside the well for a window of slices, then sent
    # far outside it; windows must contribute independently
    c = 0.3
    pots = PairPotentials(None, SquareWell(c, 1000.0), None)

    def window_path(on_slices):
        r = np.full(GRID.N + 1, 1e6)
        for j in on_slices:
            r[j] = 0.0
        return FixedPath(GRID, r)

    w1, w2 = (1, 2), (5, 6, 7)
    phi1 = influence_K1(pots, window_path(w1), -2.0, 2.0, LAT, GRID, 1.0)
    phi2 = influence_K1(pots, window_path(w2), -2.0, 2.0, LAT, GRID, 1.0)
    both = influence_K1(pots, window_path(w1 + w2), -2.0, 2.0, LAT, GRID, 1.0)
    assert both.effective_phase == pytest.approx(
        phi1.effective_phase + phi2.effective_phase, abs=1e-12
    )
    assert phi1.effective_phase == pytest.approx(c * GRID.epsilon * len(w1), abs=1e-12)


def test_static_path_equals_static_potential_propagator():
    V_A = Gaussian(-0.35, 1.0)
    V_B = Yukawa(0.2, 0.7)
    R0 = 1.5
    pots = PairPotentials(V_A, V_B, None)
    res = influence_K2(pots, _static_path(R0), -2.0, 2.0, LAT, GRID, 1.0)

    def frozen(x):
        return V_A.evaluate(np.abs(x)) + V_B.evaluate(np.abs(x - R0))

    K = time_sliced_propagator(frozen, LAT, GRID, 1.0)
    ia = int(np.argmin(np.abs(LAT.nodes + 2.0)))
    ib = int(np.argmin(np.abs(LAT.nodes - 2.0)))
    assert res.amplitude == pytest.approx(K.entries[ib, ia], rel=1e-10)


def test_weak_coupling_phase_matches_first_order_sandwich():
    # Phi'(0) from the chain rule is the sum over slices of the coupling
    # shape averaged along free paths; assemble that average from the
    # same one-slice kernels and compare against a small finite step.
    delta = 1e-6
    shape = lambda x: np.exp(-0.5 * x**2)
    ia = int(np.argmin(np.abs(LAT.nodes + 2.0)))
    ib = int(np.argmin(np.abs(LAT.nodes - 2.0)))
    G = time_sliced_propagator(None, LAT, TimeGrid(0.0, GRID.epsilon, 1), 1.0).entries
    g = shape(LAT.nodes)
    dx = LAT.dx

    forward = [G[:, ia].copy()]  # state after slice 1, source at ia
    for _ in range(GRID.N - 1):
        forward.append(G @ (dx * forward[-1]))
    backward = [None] * GRID.N  # row sums from slice j+1 to N, ending at ib
    row = np.zeros(LAT.points)
    row[ib] = 1.0
    backward[GRID.N - 1] = row
    for j in range(GRID.N - 2, -1, -1):
        backward[j] = (backward[j + 1] @ G) * dx
    K0 = forward[-1][ib]
    first_order = GRID.epsilon * sum(
        backward[j] @ (g * forward[j]) for j in range(GRID.N)
    ) / K0

    res = influence_K2(
        PairPotentials(Gaussian(delta, 1.0), None, None),
        _static_path(0.0), -2.0, 2.0, LAT, GRID, 1.0,
    )
    assert res.effective_phase / delta == pytest.approx(first_order, rel=1e-4)


@pytest.mark.parametrize("sampling", ["endpoint", "symmetric"])
@pytest.mark.parametrize(
    "boundary", [HardWall(), AbsorbingLayer(7.0, 5.0)], ids=["hard", "absorbing"]
)
def test_factorization_when_coupling_absent(boundary, sampling):
    # with no pair coupling the two-particle amplitude is a product of
    # one-particle amplitudes, discretization and absorber damping and all;
    # the absorbing ramp reaches the electron endpoints at +-2
    lat_e = LatticeSpec(-8.0, 8.0, 65, boundary)
    lat_i = LatticeSpec(-8.0, 8.0, 65, boundary)
    grid = TimeGrid(0.0, 1.0, 6)
    V_A = Gaussian(-0.3, 1.2)
    V_AB = Gaussian(0.15, 0.9)  # regular at the origin, which is an ion node
    pots = PairPotentials(V_A, None, V_AB)
    full = reconstruct_full_amplitude(
        pots, (-2.0, 2.0), (-1.0, 1.0), lat_e, lat_i, grid, 1.0, 10.0,
        sampling=sampling,
    )
    Ke = time_sliced_propagator(
        lambda x: V_A.evaluate(np.abs(x)), lat_e, grid, 1.0, sampling=sampling
    )
    Ki = time_sliced_propagator(
        lambda X: V_AB.evaluate(np.abs(X)), lat_i, grid, 10.0, sampling=sampling
    )
    ie_a = int(np.argmin(np.abs(lat_e.nodes + 2.0)))
    ie_b = int(np.argmin(np.abs(lat_e.nodes - 2.0)))
    ii_a = int(np.argmin(np.abs(lat_i.nodes + 1.0)))
    ii_b = int(np.argmin(np.abs(lat_i.nodes - 1.0)))
    product = Ke.entries[ie_b, ie_a] * Ki.entries[ii_b, ii_a]
    assert full == pytest.approx(product, rel=1e-10)


def _former_full_amplitude(pots, r_endpoints, R_endpoints, lattice_e, lattice_i,
                           grid, m, M, kinetic, sampling):
    """The product-lattice body before it shared the influence functionals'
    element body: dense kinetic kernels times dx on each axis, the summed
    node potentials, both axes' damping, and its own slice loop."""
    def node(lattice, pos):
        return int(np.argmin(np.abs(lattice.nodes - pos)))

    eps = grid.epsilon
    G_e, G_i = (
        lat.dx * _mode_kernel(lat, _kinetic_factor(lat, eps, mass, kinetic))
        for lat, mass in ((lattice_e, m), (lattice_i, M))
    )
    xe = lattice_e.nodes[:, None]
    xi = lattice_i.nodes[None, :]
    V = (
        pots.V_A.evaluate(np.abs(xe))
        + pots.V_AB.evaluate(np.abs(xi))
        + pots.V_B.evaluate(np.abs(xe - xi))
    )
    damp = np.outer(
        _absorber_profile(lattice_e, eps), _absorber_profile(lattice_i, eps)
    )
    if sampling == "endpoint":
        pre, post = damp, damp * np.exp(-1j * eps * V)
    else:
        pre = post = damp * np.exp(-0.5j * eps * V)
    psi = np.zeros((lattice_e.points, lattice_i.points))
    psi[node(lattice_e, r_endpoints[0]), node(lattice_i, R_endpoints[0])] = 1.0 / (
        lattice_e.dx * lattice_i.dx
    )
    for _ in range(grid.N):
        psi = pre * psi
        psi = np.tensordot(G_e, psi, (1, 0))
        psi = np.moveaxis(np.tensordot(G_i, psi, (1, 1)), 0, 1)
        psi = post * psi
    return complex(
        psi[node(lattice_e, r_endpoints[1]), node(lattice_i, R_endpoints[1])]
    )


@pytest.mark.parametrize("kinetic", ["pade2", "exact"])
@pytest.mark.parametrize("sampling", ["endpoint", "symmetric"])
@pytest.mark.parametrize(
    "boundary", [HardWall(), AbsorbingLayer(2.5, 3.0)], ids=["hard", "absorbing"]
)
def test_product_lattice_matches_its_former_body(boundary, sampling, kinetic):
    # unequal lattices and masses; the shared element body must give the
    # former body's elements bit for bit
    lat_e = LatticeSpec(-8.0, 8.0, 41, boundary)
    lat_i = LatticeSpec(-5.0, 6.0, 23, boundary)
    grid = TimeGrid(0.0, 1.3, 5)
    pots = PairPotentials(Gaussian(-0.3, 1.2), Gaussian(0.2, 0.8), Gaussian(0.15, 0.9))
    for r_endpoints, R_endpoints in [
        ((-2.0, 2.0), (-1.0, 1.0)),
        ((0.4, -1.2), (6.0, 0.5)),
        ((-8.0, 8.0), (-5.0, -5.0)),
    ]:
        args = (pots, r_endpoints, R_endpoints, lat_e, lat_i, grid, 1.3, 7.0)
        got = reconstruct_full_amplitude(*args, kinetic=kinetic, sampling=sampling)
        assert got == _former_full_amplitude(*args, kinetic, sampling)
        assert got != 0


def test_product_lattice_cap():
    big = LatticeSpec(-8.0, 8.0, 260)
    with pytest.raises(DomainError):
        reconstruct_full_amplitude(
            FREE, (-2.0, 2.0), (-1.0, 1.0), big, big, GRID, 1.0, 10.0
        )


def test_non_finite_slice_potential_raises():
    # the ion path -2 -> 2 puts every other arrival sample on an electron
    # node, where a Yukawa V_B(r - R) is infinite; so do the coinciding
    # nodes of two equal lattices
    pots = PairPotentials(None, Yukawa(0.2, 1.0), None)
    path = FixedPath(GRID, np.linspace(-2.0, 2.0, GRID.N + 1))
    with pytest.raises(DomainError, match="not finite at coordinate 0.0"):
        influence_K2(pots, path, -2.0, 2.0, LAT, GRID, 1.0)
    lat = LatticeSpec(-8.0, 8.0, 65)
    with pytest.raises(DomainError) as full:
        reconstruct_full_amplitude(
            pots, (-2.0, 2.0), (-1.0, 1.0), lat, lat, GRID, 1.0, 10.0
        )
    # a static term is read from the first slice on; the first bad node
    # pair is the electron's and the ion's first node
    assert str(full.value) == (
        "slice 1, lattice node (0, 0) (x = (-8.0, -8.0)): "
        "V_B = Yukawa(V0=0.2, alpha=1.0) is not finite at coordinate 0.0"
    )


@pytest.mark.parametrize("pots, at", [
    # V_AB(R) does not vary along the electron axis, V_A(r) along the ion's
    (PairPotentials(None, None, Yukawa(1.0, 1.0)), "(*, 8) (x = (*, 0.0)): V_AB"),
    (PairPotentials(Yukawa(1.0, 1.0), None, None), "(16, *) (x = (0.0, *)): V_A"),
])
def test_non_finite_one_axis_term_marks_the_other_axis(pots, at):
    with pytest.raises(DomainError) as full:
        reconstruct_full_amplitude(
            pots, (-2.0, 2.0), (-1.0, 1.0), LatticeSpec(-8.0, 8.0, 33),
            LatticeSpec(-8.0, 8.0, 17), GRID, 1.0, 10.0,
        )
    assert str(full.value) == (
        f"slice 1, lattice node {at} = Yukawa(V0=1.0, alpha=1.0) "
        "is not finite at coordinate 0.0"
    )


@pytest.mark.parametrize(
    "sampling, k2_at, k1_at",
    [
        # K2: the ion's second arrival sample, R = -1, is electron node 45;
        # K1: the electron held at 1.0 sits on ion node 55 from the first slice
        (
            "endpoint",
            "slice 2, lattice node 45 (x = -1.0)",
            "slice 1, lattice node 55 (x = 1.0)",
        ),
        # symmetric sampling reads the first slice's departure sample too,
        # R = -2, which is electron node 40
        (
            "symmetric",
            "slice 1, lattice node 40 (x = -2.0)",
            "slice 1, lattice node 55 (x = 1.0)",
        ),
    ],
)
def test_non_finite_sample_names_its_slice_and_node(sampling, k2_at, k1_at):
    pots = PairPotentials(None, Yukawa(0.2, 1.0), None)
    ion = FixedPath(GRID, np.linspace(-2.0, 2.0, GRID.N + 1))
    tail = ": V_B = Yukawa(V0=0.2, alpha=1.0) is not finite at coordinate 0.0"
    with pytest.raises(DomainError) as k2:
        influence_K2(pots, ion, -2.0, 2.0, LAT, GRID, 1.0, sampling=sampling)
    assert str(k2.value) == k2_at + tail
    with pytest.raises(DomainError) as k1:
        influence_K1(
            pots, _static_path(1.0), -2.0, 2.0, LAT, GRID, 10.0, sampling=sampling
        )
    assert str(k1.value) == k1_at + tail


def test_an_unknown_sampling_names_the_modes_its_route_takes():
    # the propagator keeps midpoint sampling; influence functionals do not
    every = "options: ('endpoint', 'midpoint', 'symmetric')"
    with pytest.raises(DomainError, match=re.escape(f"'mid'; {every}")):
        time_sliced_propagator(None, LAT, GRID, 1.0, sampling="mid")
    separable = "options: ('endpoint', 'symmetric')"
    with pytest.raises(DomainError, match=re.escape(f"'midpoint'; {separable}")):
        influence_K2(FREE, _static_path(0.0), -2.0, 2.0, LAT, GRID, 1.0,
                     sampling="midpoint")


def test_fixed_path_validation():
    with pytest.raises(DomainError):
        FixedPath(GRID, np.zeros(GRID.N))  # needs N + 1 samples
    with pytest.raises(DomainError):
        FixedPath(GRID, np.full(GRID.N + 1, np.nan))


def test_endpoints_must_be_lattice_nodes():
    with pytest.raises(DomainError):
        influence_K1(FREE, _static_path(0.0), -2.05, 2.0, LAT, GRID, 1.0)
    # the product lattice words its endpoints as the influence functionals do
    lat = LatticeSpec(-8.0, 8.0, 65)
    with pytest.raises(DomainError) as exc:
        reconstruct_full_amplitude(FREE, (-2.0, 2.0), (-1.0, 1.1), lat, lat, GRID,
                                   1.0, 10.0)
    assert str(exc.value) == (
        "final endpoint = 1.1 is not a lattice node; nearest node is 1.0"
    )
