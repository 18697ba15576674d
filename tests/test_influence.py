"""Influence functionals for a particle coupled to a prescribed path.

The lattice has dx = 0.2 so the endpoint coordinates used below sit
exactly on nodes. The wide square well (radius 1000) turns the pair
coupling into a spatially constant slice potential: the electron sample
either sits inside the well for every lattice point (potential c
everywhere) or at 1e6, outside it everywhere (exactly zero). That makes
phase bookkeeping exact and is the cleanest way to probe the reductions.
"""

import numpy as np
import pytest

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
from pathscat.propagator import short_time_kernel

LAT = LatticeSpec(-10.0, 10.0, 101)
GRID = TimeGrid(0.0, 1.0, 8)
FREE = PairPotentials(None, None, None)


def _static_path(value, grid=GRID):
    return FixedPath(grid, np.full(grid.N + 1, value))


def _chain(slice_potentials, lattice, grid, mass, kinetic, sampling):
    """Dense ordered product T_N dx T_(N-1) ... dx T_1 of one-slice kernels."""
    dx = lattice.dx
    K = None
    for pot_j in slice_potentials:
        T = short_time_kernel(
            pot_j, lattice, grid.epsilon, mass, kinetic, sampling
        ).entries
        K = T if K is None else T @ (dx * K)
    return K


@pytest.mark.parametrize(
    "kinetic,sampling",
    [("pade2", "endpoint"), ("pade4", "symmetric"), ("exact", "endpoint"),
     ("pade2", "midpoint"), ("sampled", "endpoint"), ("sampled", "symmetric")],
)
def test_endpoint_elements_match_dense_chain(kinetic, sampling):
    # the dense product of slice kernels is the oracle for the engine,
    # including its dense-slice branch (midpoint, sampled chirp)
    V_A, V_B = Gaussian(-0.35, 1.0), Gaussian(0.2, 0.7)
    path = FixedPath(GRID, np.linspace(-1.5, 2.5, GRID.N + 1))
    ia = int(np.argmin(np.abs(LAT.nodes + 2.0)))
    ib = int(np.argmin(np.abs(LAT.nodes - 2.0)))
    slices = path.samples[1:]
    cases = [
        (influence_K2, PairPotentials(V_A, V_B, None), 1.0,
         [lambda r, R=R: V_A.evaluate(np.abs(r)) + V_B.evaluate(np.abs(r - R))
          for R in slices]),
        (influence_K1, PairPotentials(None, V_B, V_A), 10.0,
         [lambda X, r=r: V_B.evaluate(np.abs(r - X)) + V_A.evaluate(np.abs(X))
          for r in slices]),
    ]
    for fn, pots, mass, slice_pots in cases:
        res = fn(pots, path, -2.0, 2.0, LAT, GRID, mass, kinetic=kinetic,
                 sampling=sampling)
        K = _chain(slice_pots, LAT, GRID, mass, kinetic, sampling)
        K0 = _chain([None] * GRID.N, LAT, GRID, mass, kinetic, sampling)
        assert res.amplitude == pytest.approx(K[ib, ia], rel=1e-10)
        assert res.free_reference == pytest.approx(K0[ib, ia], rel=1e-10)


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
    G = short_time_kernel(None, LAT, GRID.epsilon, 1.0).entries
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
    with pytest.raises(DomainError, match="not finite at coordinate 0.0"):
        reconstruct_full_amplitude(
            pots, (-2.0, 2.0), (-1.0, 1.0), lat, lat, GRID, 1.0, 10.0
        )


def test_fixed_path_validation():
    with pytest.raises(DomainError):
        FixedPath(GRID, np.zeros(GRID.N))  # needs N + 1 samples
    with pytest.raises(DomainError):
        FixedPath(GRID, np.full(GRID.N + 1, np.nan))


def test_endpoints_must_be_lattice_nodes():
    with pytest.raises(DomainError):
        influence_K1(FREE, _static_path(0.0), -2.05, 2.0, LAT, GRID, 1.0)
