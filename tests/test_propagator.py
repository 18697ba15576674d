"""Lattice propagator checks against closed-form kernels.

Comparisons against the continuum kernels go through the action on
Gaussian packets: the closed-form chirp oscillates without bound in the
separation, so entrywise comparison on any finite lattice measures band
limiting rather than the propagator. Acting on a band-limited state is
what the object is for, and there the scheme converges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from pathscat import (
    AbsorbingLayer,
    AccuracyWarning,
    boundary_leak_fraction,
    ComplexField1D,
    DomainError,
    evolve,
    free_deviation_diagnostic,
    free_propagator,
    free_propagator_matrix,
    gaussian_packet,
    HardWall,
    LatticeSpec,
    packet_width,
    radial_lattice,
    scattered_component,
    TimeGrid,
    time_sliced_propagator,
    Yukawa,
)
from pathscat.propagator import short_time_kernel

# n + 1 prime makes the DST-I transform length 2(n + 1) a prime times two
PRIME_PLUS_ONE = (12, 16, 22, 96, 100, 126)

LAT = LatticeSpec(-20.0, 20.0, 512)
PACKETS = [(0.0, 0.0, 1.0), (-3.0, 1.5, 1.2), (2.0, -2.0, 0.8)]


def _packet_action_error(K, exact_kernel, lattice, window=5.0):
    """Worst normalized interior deviation of K vs exact on test packets."""
    keep = np.abs(lattice.nodes) <= window
    worst = 0.0
    for x0, p0, s0 in PACKETS:
        psi = gaussian_packet(lattice, x0, p0, s0).values
        got = (K.entries @ psi) * lattice.dx
        want = (exact_kernel @ psi) * lattice.dx
        worst = max(worst, float(np.max(np.abs(got - want)[keep]) / np.max(np.abs(want))))
    return worst


def _mehler_kernel(x_b, x_a, T, mass=1.0, omega=1.0, hbar=1.0):
    # independently coded oscillator kernel, valid for 0 < omega T < pi
    s = np.sin(omega * T)
    c = np.cos(omega * T)
    pref = np.sqrt(mass * omega / (2.0 * np.pi * hbar * s)) * np.exp(-1j * np.pi / 4)
    return pref * np.exp(
        1j * mass * omega / (2.0 * hbar * s) * ((x_b**2 + x_a**2) * c - 2.0 * x_b * x_a)
    )


def test_lattice_validation():
    with pytest.raises(DomainError):
        LatticeSpec(-1.0, 1.0, 7)
    with pytest.raises(DomainError):
        LatticeSpec(1.0, -1.0, 64)
    with pytest.raises(DomainError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(DomainError):
        TimeGrid(1.0, 1.0, 4)
    lat = LatticeSpec(0.0, 1.0, 11)
    assert lat.dx == pytest.approx(0.1)
    assert lat.nodes[0] == 0.0 and lat.nodes[-1] == 1.0


def test_free_propagator_closed_form_values():
    # hand evaluation of the Gaussian kernel at m=1, hbar=1, t=2, x=3
    val = free_propagator(3.0, 2.0, 0.0, 0.0, 1.0)
    expect = np.sqrt(1.0 / (4.0 * np.pi)) * np.exp(-1j * np.pi / 4) * np.exp(1j * 9.0 / 4.0)
    assert val == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainError):
        free_propagator(0.0, 1.0, 0.0, 1.0, 1.0)


def test_free_propagator_three_dimensional_prefactor():
    a = np.zeros(3)
    b = np.array([1.0, 2.0, 2.0])  # squared distance 9
    val = free_propagator(b, 2.0, a, 0.0, 1.0, dim=3)
    expect = (1.0 / (4.0 * np.pi)) ** 1.5 * np.exp(-3j * np.pi / 4) * np.exp(1j * 9.0 / 4.0)
    assert val == pytest.approx(expect, rel=1e-14)


def test_free_propagator_matrix_matches_pointwise_form():
    lat = LatticeSpec(-5.0, 5.0, 32)
    K = free_propagator_matrix(lat, TimeGrid(0.0, 1.5, 1), 1.3)
    direct = free_propagator(lat.nodes[:, None], 1.5, lat.nodes[None, :], 0.0, 1.3)
    assert np.max(np.abs(K.entries - direct)) == 0.0


def test_gaussian_packet_norm_and_width():
    psi = gaussian_packet(LAT, 0.0, 2.0, 1.0)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    assert packet_width(psi) == pytest.approx(1.0, rel=1e-10)


def test_free_evolution_converges_on_packets():
    exact = free_propagator(LAT.nodes[:, None], 1.0, LAT.nodes[None, :], 0.0, 1.0)
    errs = []
    for N in (64, 256):
        K = time_sliced_propagator(None, LAT, TimeGrid(0.0, 1.0, N), 1.0)
        errs.append(_packet_action_error(K, exact, LAT))
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-3  # measured 2.3e-4 at N=256


def test_harmonic_trotter_error_is_monotone_first_order():
    # later-endpoint potential sampling carries an O(epsilon) error, so
    # doubling N should roughly halve it, monotonically
    exact = _mehler_kernel(LAT.nodes[:, None], LAT.nodes[None, :], 1.0)
    ho = lambda x: 0.5 * x**2
    errs = []
    for N in (32, 64, 128, 256, 512, 1024):
        K = time_sliced_propagator(
            ho, LAT, TimeGrid(0.0, 1.0, N), 1.0, kinetic="pade2", sampling="endpoint"
        )
        errs.append(_packet_action_error(K, exact, LAT))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # empirical order >= 1 up to a small constant: five doublings
    assert errs[-1] <= errs[0] / 2**5 * 1.5


def test_harmonic_symmetric_exact_is_accurate():
    exact = _mehler_kernel(LAT.nodes[:, None], LAT.nodes[None, :], 1.0)
    ho = lambda x: 0.5 * x**2
    K = time_sliced_propagator(
        ho, LAT, TimeGrid(0.0, 1.0, 128), 1.0, kinetic="exact", sampling="symmetric"
    )
    assert _packet_action_error(K, exact, LAT) <= 1e-3


@pytest.mark.parametrize("kinetic", ["pade2", "pade4", "exact"])
def test_mode_factor_schemes_preserve_norm(kinetic):
    # the sine-mode factors are unimodular, so evolution is unitary
    psi0 = gaussian_packet(LAT, -2.0, 1.0, 1.0)
    K = time_sliced_propagator(
        lambda x: 0.3 * np.cos(x), LAT, TimeGrid(0.0, 2.0, 16), 1.0, kinetic=kinetic
    )
    psi1 = evolve(psi0, K)
    assert psi1.norm() == pytest.approx(psi0.norm(), rel=1e-12)


def test_symmetric_sampling_gives_symmetric_kernel():
    pot = lambda x: 0.4 * np.exp(-(x**2))
    K = time_sliced_propagator(
        pot, LAT, TimeGrid(0.0, 1.0, 32), 1.0, sampling="symmetric"
    )
    assert K.symmetry_defect() <= 1e-10
    K_mid = time_sliced_propagator(
        pot, LAT, TimeGrid(0.0, 1.0, 32), 1.0, sampling="midpoint"
    )
    assert K_mid.symmetry_defect() <= 1e-10
    # endpoint sampling is deliberately literal and not symmetric
    K_end = time_sliced_propagator(
        pot, LAT, TimeGrid(0.0, 1.0, 32), 1.0, sampling="endpoint"
    )
    assert K_end.symmetry_defect() > 1e-8


def test_half_interval_composition_is_exact():
    pot = lambda x: -0.4 * np.exp(-(x**2) / 4.0)
    full = time_sliced_propagator(pot, LAT, TimeGrid(0.0, 2.0, 64), 1.0)
    first = time_sliced_propagator(pot, LAT, TimeGrid(0.0, 1.0, 32), 1.0)
    second = time_sliced_propagator(pot, LAT, TimeGrid(1.0, 2.0, 32), 1.0)
    comp = second.entries @ (LAT.dx * first.entries)
    dev = np.max(np.abs(comp - full.entries)) / np.max(np.abs(full.entries))
    assert dev <= 1e-8  # roundoff scale; measured 4e-15


def test_chapman_kolmogorov_by_tapered_lattice_quadrature():
    # two epsilon steps of the literal sampled kernel reproduce the 2
    # epsilon closed form once the intermediate integral is smoothly
    # truncated; plain truncation would leave O(1/L) Fresnel tails
    L, npts, eps = 30.0, 4096, 1.0
    lat = LatticeSpec(-L, L, npts)
    Ke = short_time_kernel(None, lat, eps, 1.0, kinetic="sampled")
    x = lat.nodes
    w = 0.25 * (1 + erf((x + 0.6 * L) / (0.1 * L))) * (1 + erf((0.6 * L - x) / (0.1 * L)))
    sel = np.where(np.abs(x) <= 5.0)[0][::8]
    comp = (Ke.entries[sel, :] * (w * lat.dx)) @ Ke.entries[:, sel]
    exact = free_propagator(x[sel][:, None], 2 * eps, x[None, sel], 0.0, 1.0)
    dev = np.max(np.abs(comp - exact)) / np.max(np.abs(exact))
    assert dev <= 1e-6  # measured 5.8e-10


def test_single_slice_equals_short_time_kernel():
    pot = lambda x: 0.1 * x**2
    grid = TimeGrid(0.0, 0.25, 1)
    K = time_sliced_propagator(pot, LAT, grid, 1.0)
    T = short_time_kernel(pot, LAT, 0.25, 1.0)
    assert np.array_equal(K.entries, T.entries)


def test_constant_potential_factors_out_as_global_phase():
    c, T = 0.37, 1.0
    grid = TimeGrid(0.0, T, 8)
    K = time_sliced_propagator(lambda x: c, LAT, grid, 1.0)
    K0 = time_sliced_propagator(None, LAT, grid, 1.0)
    ratio = K.entries[100, 300] / K0.entries[100, 300]
    assert ratio == pytest.approx(np.exp(-1j * c * T), rel=1e-12)


def test_identity_limit_for_tiny_time_step():
    psi0 = gaussian_packet(LAT, 0.0, 1.0, 1.0)
    K = time_sliced_propagator(None, LAT, TimeGrid(0.0, 1e-6, 1), 1.0)
    psi1 = evolve(psi0, K)
    dev = np.max(np.abs(psi1.values - psi0.values)) / np.max(np.abs(psi0.values))
    assert dev <= 1e-4  # measured 7.5e-7


def test_free_spreading_law():
    sigma0, mass = 1.0, 1.0
    for t in (1.0, 2.5, 5.0):
        K = time_sliced_propagator(
            None, LAT, TimeGrid(0.0, t, 64), mass, kinetic="exact"
        )
        psi = evolve(gaussian_packet(LAT, 0.0, 0.0, sigma0), K)
        expect = sigma0 * np.sqrt(1.0 + (t / (2.0 * mass * sigma0**2)) ** 2)
        assert packet_width(psi) == pytest.approx(expect, rel=1e-3)


def test_sampled_chirp_kernel_single_step_row_sum_stability():
    # the literal kernel is usable for one step when the lattice
    # resolves the chirp across the whole box
    lat = LatticeSpec(-2.0, 2.0, 1024)
    psi0 = gaussian_packet(lat, 0.0, 0.0, 0.4)
    Ks = short_time_kernel(None, lat, 0.01, 1.0, kinetic="sampled")
    psi1 = ComplexField1D(lat, (Ks.entries @ psi0.values) * lat.dx)
    assert psi1.norm() == pytest.approx(psi0.norm(), rel=1e-3)


def test_sampled_chirp_kernel_products_alias():
    # documented pathology: on a lattice too coarse for the chirp the
    # iterated product amplifies aliased tails instead of converging
    K = time_sliced_propagator(None, LAT, TimeGrid(0.0, 1.0, 4), 1.0, kinetic="sampled")
    psi1 = evolve(gaussian_packet(LAT, 0.0, 0.0, 1.0), K, leak_tolerance=None)
    assert psi1.norm() > 2.0


@settings(max_examples=60, deadline=None, database=None)
@given(
    kinetic=st.sampled_from(["pade2", "pade4", "exact"]),
    sampling=st.sampled_from(["endpoint", "symmetric"]),
    absorbing=st.booleans(),
    n=st.one_of(st.sampled_from(PRIME_PLUS_ONE), st.integers(8, 160)),
    N=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_step_apply_matches_dense_product(
    kinetic, sampling, absorbing, n, N, seed
):
    # the dense matrix power stays the oracle for the split-step engine
    rng = np.random.default_rng(seed)
    boundary = AbsorbingLayer(width=2.0, strength=rng.uniform(0.5, 5.0)) if absorbing \
        else HardWall()
    lat = LatticeSpec(-8.0, 8.0, n, boundary=boundary)
    a, b = rng.uniform(-1.0, 1.0, 2)
    pot = lambda x: a * np.cos(x) + 0.05 * b * x**2
    K = time_sliced_propagator(
        pot, lat, TimeGrid(0.0, rng.uniform(0.1, 2.0), N), rng.uniform(0.5, 2.0),
        kinetic=kinetic, sampling=sampling,
    )
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    want = (K.entries @ psi) * lat.dx
    got = K.apply(psi)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_scattered_component_vanishes_without_potential():
    psi0 = gaussian_packet(LAT, -5.0, 2.0, 1.0)
    out = scattered_component(psi0, None, LAT, TimeGrid(0.0, 1.0, 16), 1.0)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_non_finite_potential_samples_are_refused():
    # 64 nodes symmetric about 0: no node sits at r = 0, but the midpoint
    # of each mirrored pair does
    lat = LatticeSpec(-5.0, 5.0, 64)
    grid = TimeGrid(0.0, 0.5, 4)
    coulomb = Yukawa(-1.0, 1e-3)
    time_sliced_propagator(coulomb, lat, grid, 1.0, sampling="endpoint")
    with pytest.raises(DomainError, match="not finite at coordinate 0.0"):
        time_sliced_propagator(coulomb, lat, grid, 1.0, sampling="midpoint")
    with pytest.raises(DomainError, match="not finite at coordinate -5.0"):
        time_sliced_propagator(
            lambda x: np.where(x < -4.9, np.nan, 0.0), lat, grid, 1.0
        )


def test_evolve_rejects_lattice_mismatch():
    other = LatticeSpec(-20.0, 20.0, 256)
    K = time_sliced_propagator(None, other, TimeGrid(0.0, 1.0, 4), 1.0)
    with pytest.raises(DomainError):
        evolve(gaussian_packet(LAT, 0.0, 0.0, 1.0), K)


def test_boundary_leak_warning_and_absorber():
    lat = LatticeSpec(-10.0, 10.0, 256)
    psi0 = gaussian_packet(lat, 6.0, 3.0, 1.0)  # headed into the wall
    grid = TimeGrid(0.0, 2.0, 32)
    K = time_sliced_propagator(None, lat, grid, 1.0)
    with pytest.warns(AccuracyWarning):
        psi_hard = evolve(psi0, K)
    damped = LatticeSpec(
        -10.0, 10.0, 256, boundary=AbsorbingLayer(width=3.0, strength=20.0)
    )
    Kd = time_sliced_propagator(None, damped, grid, 1.0)
    psi_soft = evolve(gaussian_packet(damped, 6.0, 3.0, 1.0), Kd, leak_tolerance=None)
    assert psi_soft.norm() < 0.9 * psi_hard.norm()
    assert boundary_leak_fraction(psi_soft) < boundary_leak_fraction(psi_hard)


def test_free_kernel_diagnostic_reports_small_deviation():
    lat = LatticeSpec(-20.0, 20.0, 256)
    K = time_sliced_propagator(None, lat, TimeGrid(0.0, 1.0, 32), 1.0)
    assert free_deviation_diagnostic(K, 1.0) <= 1e-4  # measured 1.3e-5


def test_radial_lattice_places_wall_at_origin():
    lat = radial_lattice(10.0, 64)
    assert lat.nodes[0] == pytest.approx(10.0 / 64)
    assert lat.nodes[-1] == pytest.approx(10.0)
    assert isinstance(lat.boundary, HardWall)
