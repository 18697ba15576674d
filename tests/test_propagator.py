"""Lattice propagator checks against closed-form kernels.

Comparisons against the continuum kernels go through the action on
Gaussian packets: the closed-form chirp oscillates without bound in the
separation, so entrywise comparison on any finite lattice measures band
limiting rather than the propagator. Acting on a band-limited state is
what the object is for, and there the scheme converges.
"""

import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from pathscat import (
    AbsorbingLayer,
    AccuracyWarning,
    boundary_leak_fraction,
    ComplexField1D,
    DomainError,
    evolve,
    FixedPath,
    free_deviation_diagnostic,
    free_propagator,
    free_propagator_matrix,
    Gaussian,
    gaussian_packet,
    HardWall,
    influence_K2,
    LatticeSpec,
    packet_width,
    PairPotentials,
    scattered_component,
    TimeGrid,
    time_sliced_propagator,
    Yukawa,
)
from pathscat import propagator
from pathscat.propagator import (
    _kinetic_factor,
    _kinetic_plan,
    _kinetic_step,
    _mode_kernel,
    _sine_modes,
    SAMPLING_MODES,
)

# n + 1 prime: the DST-I of these sizes would run on an FFT of length
# 2(n + 1), a prime times two, so they are awkward sizes for the kinetic step
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


def _power_reference(T, N, dx):
    """The former dense N-slice product T (dx T)^(N-1), kept as the oracle."""
    return T if N == 1 else T @ np.linalg.matrix_power(dx * T, N - 1)


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
    assert TimeGrid(0.0, 1.0, np.int64(4)).epsilon == 0.25
    assert LatticeSpec(-1.0, 1.0, np.int32(16)).nodes.size == 16


@pytest.mark.parametrize("make,message", [
    (lambda: TimeGrid(0.0, 1.0, 4.0), "slice count must be an integer, got 4.0"),
    (lambda: TimeGrid(0.0, 1.0, True), "slice count must be an integer, got True"),
    (lambda: TimeGrid(0.0, np.inf, 4), "time grid bounds must be finite"),
    (lambda: TimeGrid(-np.inf, 1.0, 4), "time grid bounds must be finite"),
    (lambda: LatticeSpec(-1.0, 1.0, 16.0),
     "lattice point count must be an integer, got 16.0"),
    (lambda: LatticeSpec(-np.inf, 1.0, 16), "lattice bounds must be finite"),
    (lambda: LatticeSpec(-1.0, np.inf, 16), "lattice bounds must be finite"),
], ids=["float-slices", "bool-slices", "inf-t_b", "inf-t_a", "float-points",
        "inf-x_min", "inf-x_max"])
def test_grid_counts_are_integers_and_bounds_finite(make, message):
    # unchecked, a float count fails later in nodes or K.apply with a
    # TypeError, and an infinite bound gives NaN nodes or epsilon = inf
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("mass", [-1.0, 0.0, float("nan"), float("inf")])
def test_a_mass_that_is_not_positive_is_refused(mass):
    with pytest.raises(DomainError, match="mass must be positive"):
        free_propagator(1.0, 1.0, 0.0, 0.0, mass)
    for sampling in SAMPLING_MODES:
        with pytest.raises(DomainError, match="mass must be positive"):
            time_sliced_propagator(None, LatticeSpec(-1.0, 1.0, 8),
                                   TimeGrid(0.0, 1.0, 4), mass, sampling=sampling)


def test_free_propagator_closed_form_values():
    # hand evaluation of the Gaussian kernel at m=1, hbar=1, t=2, x=3
    val = free_propagator(3.0, 2.0, 0.0, 0.0, 1.0)
    expect = np.sqrt(1.0 / (4.0 * np.pi)) * np.exp(-1j * np.pi / 4) * np.exp(1j * 9.0 / 4.0)
    assert val == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainError):
        free_propagator(0.0, 1.0, 0.0, 1.0, 1.0)


def _free_propagator_reference(x_b, t_b, x_a, t_a, mass):
    """The former free_propagator body: a fresh array per operation."""
    dt = t_b - t_a
    diff = np.asarray(x_b, dtype=float) - np.asarray(x_a, dtype=float)
    dist2 = diff * diff
    pref = (mass / (2.0 * np.pi * dt)) ** 0.5 * np.exp(-1j * np.pi / 4.0)
    out = pref * np.exp(1j * mass * dist2 / (2.0 * dt))
    return out if np.ndim(out) else complex(out)


@pytest.mark.parametrize("n", [8, 101, 512])
@pytest.mark.parametrize("t_b, t_a, mass", [(1.0, 0.0, 1.0), (2e-3, 0.0, 1836.0),
                                            (0.7, 0.2, 0.5)])
def test_free_propagator_in_place_is_bit_identical_to_the_former_steps(n, t_b, t_a, mass):
    x = np.linspace(-20.0, 20.0, n)
    for x_b, x_a in ((x[:, None], x[None, :]), (x, 0.5), (3.0, 0.0)):
        got = free_propagator(x_b, t_b, x_a, t_a, mass)
        want = _free_propagator_reference(x_b, t_b, x_a, t_a, mass)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("kinetic", ["pade2", "exact"])
@settings(max_examples=15, deadline=None, database=None)
@given(
    sampling=st.sampled_from(["endpoint", "symmetric"]),
    n=st.integers(16, 200),
    N=st.integers(1, 40),
    strength=st.floats(-2.0, 2.0),
    T=st.floats(0.05, 4.0),
    packet=st.tuples(st.floats(-10.0, 10.0), st.floats(-3.0, 3.0), st.floats(0.5, 3.0)),
)
@example(sampling="endpoint", n=512, N=16, strength=0.3, T=2.0, packet=(-2.0, 1.0, 1.0))
def test_mode_factor_schemes_preserve_norm(kinetic, sampling, n, N, strength, T,
                                           packet):
    # the sine-mode factors are unimodular and a real potential's phase
    # has modulus 1, so evolution between hard walls is unitary
    lat = LatticeSpec(-20.0, 20.0, n)
    psi0 = gaussian_packet(lat, *packet)
    K = time_sliced_propagator(
        lambda x: strength * np.cos(x), lat, TimeGrid(0.0, T, N), 1.0,
        kinetic=kinetic, sampling=sampling,
    )
    norm = ComplexField1D(lat, K.apply(psi0.values)).norm()
    # measured at most 2.2e-14 over 400 random and 240 extreme draws
    assert norm == pytest.approx(psi0.norm(), rel=1e-12)


@settings(max_examples=15, deadline=None, database=None)
@given(
    kinetic=st.sampled_from(["pade2", "exact"]),
    n=st.integers(16, 128),
    N=st.integers(1, 40),
    strength=st.floats(-2.0, 2.0),
    spread=st.floats(0.2, 4.0),
    T=st.floats(0.05, 4.0),
)
@example(kinetic="pade2", n=512, N=32, strength=0.4, spread=1.0, T=1.0)
def test_symmetric_sampling_gives_symmetric_kernel(kinetic, n, N, strength, spread,
                                                   T):
    pot = lambda x: strength * np.exp(-(x**2) / spread)
    K = time_sliced_propagator(
        pot, LatticeSpec(-20.0, 20.0, n), TimeGrid(0.0, T, N), 1.0, kinetic=kinetic,
        sampling="symmetric",
    )
    # measured at most 8.7e-15 over 200 random and 96 extreme draws
    assert K.symmetry_defect() <= 1e-13


def test_midpoint_sampling_is_symmetric_and_endpoint_sampling_is_not():
    pot = lambda x: 0.4 * np.exp(-(x**2))
    K_mid = time_sliced_propagator(
        pot, LAT, TimeGrid(0.0, 1.0, 32), 1.0, sampling="midpoint"
    )
    assert K_mid.symmetry_defect() <= 1e-10
    # endpoint sampling is deliberately literal and not symmetric
    K_end = time_sliced_propagator(
        pot, LAT, TimeGrid(0.0, 1.0, 32), 1.0, sampling="endpoint"
    )
    assert K_end.symmetry_defect() > 1e-8


@settings(max_examples=15, deadline=None, database=None)
@given(
    n=st.integers(16, 128),
    half=st.integers(1, 32),
    strength=st.floats(-2.0, 2.0),
    spread=st.floats(0.2, 8.0),
    T=st.floats(0.05, 4.0),
)
@example(n=512, half=32, strength=-0.4, spread=4.0, T=2.0)
def test_half_interval_composition_is_exact(n, half, strength, spread, T):
    # a static potential: the two halves' product is the whole, to round-off
    lat = LatticeSpec(-20.0, 20.0, n)
    pot = lambda x: strength * np.exp(-(x**2) / spread)
    full = time_sliced_propagator(pot, lat, TimeGrid(0.0, T, 2 * half), 1.0)
    first = time_sliced_propagator(pot, lat, TimeGrid(0.0, T / 2, half), 1.0)
    second = time_sliced_propagator(pot, lat, TimeGrid(T / 2, T, half), 1.0)
    comp = second.entries @ (lat.dx * first.entries)
    dev = np.max(np.abs(comp - full.entries)) / np.max(np.abs(full.entries))
    # round-off scale: measured at most 6.0e-15 over 200 random and 32
    # extreme draws and the example
    assert dev <= 1e-13


def test_chapman_kolmogorov_by_tapered_lattice_quadrature():
    # two epsilon steps of the literal sampled chirp reproduce the 2
    # epsilon closed form once the intermediate integral is smoothly
    # truncated; plain truncation would leave O(1/L) Fresnel tails
    L, npts, eps = 30.0, 4096, 1.0
    lat = LatticeSpec(-L, L, npts)
    Ke = free_propagator_matrix(lat, TimeGrid(0.0, eps, 1), 1.0)
    x = lat.nodes
    w = 0.25 * (1 + erf((x + 0.6 * L) / (0.1 * L))) * (1 + erf((0.6 * L - x) / (0.1 * L)))
    sel = np.where(np.abs(x) <= 5.0)[0][::8]
    comp = (Ke.entries[sel, :] * (w * lat.dx)) @ Ke.entries[:, sel]
    exact = free_propagator(x[sel][:, None], 2 * eps, x[None, sel], 0.0, 1.0)
    dev = np.max(np.abs(comp - exact)) / np.max(np.abs(exact))
    assert dev <= 1e-6  # measured 5.8e-10


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
    # the literal sampled chirp is usable for one step when the lattice
    # resolves it across the whole box
    lat = LatticeSpec(-2.0, 2.0, 1024)
    psi0 = gaussian_packet(lat, 0.0, 0.0, 0.4)
    Ks = free_propagator_matrix(lat, TimeGrid(0.0, 0.01, 1), 1.0)
    psi1 = ComplexField1D(lat, (Ks.entries @ psi0.values) * lat.dx)
    assert psi1.norm() == pytest.approx(psi0.norm(), rel=1e-3)


@settings(max_examples=60, deadline=None, database=None)
@given(
    kinetic=st.sampled_from(["pade2", "exact"]),
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


@settings(max_examples=80, deadline=None, database=None)
@given(
    kinetic=st.sampled_from(["pade2", "exact"]),
    sampling=st.sampled_from(["endpoint", "symmetric", "midpoint"]),
    absorbing=st.booleans(),
    potential=st.sampled_from(["none", "constant", "gaussian"]),
    n=st.integers(8, 64),
    N=st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32]), st.integers(1, 40)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_entries_match_the_former_product(
    kinetic, sampling, absorbing, potential, n, N, seed
):
    rng = np.random.default_rng(seed)
    boundary = AbsorbingLayer(width=1.0, strength=rng.uniform(0.5, 5.0)) if absorbing \
        else HardWall()
    lat = LatticeSpec(-4.0, 4.0, n, boundary=boundary)
    mass = rng.uniform(0.5, 2.0)
    eps = rng.uniform(0.005, 0.05)
    c = rng.uniform(-1.0, 1.0)
    pot = {"none": None, "constant": lambda x: c, "gaussian": Gaussian(c, 1.5)}[potential]
    args = (mass, kinetic, sampling)
    K = time_sliced_propagator(pot, lat, TimeGrid(0.0, N * eps, N), *args)
    T = time_sliced_propagator(pot, lat, TimeGrid(0.0, eps, 1), *args).entries
    want = _power_reference(T, N, lat.dx)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(K.entries - want)) <= 1e-12 * scale
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    dense = (K.entries @ v) * lat.dx
    assert np.max(np.abs(K.apply(v) - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.fixture
def matrix_power_exponents(monkeypatch):
    """Exponents of every np.linalg.matrix_power call while the test runs."""
    calls = []
    original = np.linalg.matrix_power

    def recording(a, n):
        calls.append(n)
        return original(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", recording)
    return calls


@pytest.mark.parametrize("pot", [None, lambda x: 0.37], ids=["free", "constant"])
@pytest.mark.parametrize("sampling", ["endpoint", "symmetric"])
def test_constant_node_factors_take_the_toeplitz_hankel_gather(
    matrix_power_exponents, pot, sampling
):
    K = time_sliced_propagator(pot, LAT, TimeGrid(0.0, 1.0, 24), 1.0, sampling=sampling)
    assert K.entries.shape == (LAT.points, LAT.points)
    assert matrix_power_exponents == []


def _long_double_rows(K, rows):
    """Rows of the constant-factor kernel d^(N-1) diag(post) S^T diag(f^N) S
    diag(pre), summed as a product in long double from the kernel's own
    one-slice factors; S gathers its entries from a long-double sine table.
    f^N is the double power that entries takes, so only how the kernel is
    formed is measured."""
    lat, N = K.lattice, K.grid.N
    pre, post = (np.asarray(part[0], dtype=np.clongdouble) for part in K.step[1:])
    n = lat.points
    box = np.longdouble(lat.x_max - lat.x_min) + 2 * np.longdouble(lat.dx)
    pi = 4 * np.arctan(np.longdouble(1))
    table = np.sqrt(2 / box) * np.sin(pi * np.arange(2 * (n + 1)) / (n + 1))
    j = np.arange(1, n + 1)
    S = table[np.outer(j, j) % (2 * (n + 1))]
    g = np.asarray(K.step[0][0] ** N, dtype=np.clongdouble)
    G = np.empty((len(rows), n), dtype=np.clongdouble)
    G.real = (S[rows] * g.real) @ S
    G.imag = (S[rows] * g.imag) @ S
    d = pre[0] * post[0]
    return (d ** (N - 1) * post[rows])[:, None] * G * pre[None, :]


# n = 768: 2(n + 1) = 1538 = 2 * 769, the slowest length the filter's
# chirp-z sum stands in for
@pytest.mark.parametrize("n", [255, 512, 768])
@pytest.mark.parametrize("kinetic", ["pade2", "exact"])
@pytest.mark.parametrize("N", [1, 256])
@pytest.mark.parametrize("pot", [None, lambda x: 0.37], ids=["free", "constant"])
def test_gathered_kernel_matches_a_long_double_product(n, kinetic, N, pot):
    lat = LatticeSpec(-20.0, 20.0, n)
    K = time_sliced_propagator(pot, lat, TimeGrid(0.0, N * 0.02, N), 1.0,
                               kinetic=kinetic)
    # the product costs n^2 per row in long double, so 24 spread rows,
    # both end rows among them, stand for all
    rows = np.linspace(0, n - 1, 24).astype(int)
    want = _long_double_rows(K, rows)
    # measured 1.4e-16 to 1.1e-15 of the largest entry over these cases,
    # against 5.7e-16 to 1.5e-15 for the sine-basis product it replaced
    err = np.max(np.abs(K.entries[rows] - want)) / np.max(np.abs(want))
    assert err <= 2e-15
    assert np.array_equal(K.entries, K.entries.T)


def _long_double_push(values, pot, lattice, grid, mass):
    """The default scheme (pade2 kinetic factor, endpoint sampling, hard
    walls) pushed slice by slice in long double through the sine basis:
    v -> exp(-i eps V) S^T diag(f) S v dx, with S, f, V and the phases
    formed in long double from the same double inputs."""
    n, ld = lattice.points, np.longdouble
    dx = ld(lattice.x_max - lattice.x_min) / (n - 1)
    box = ld(lattice.x_max - lattice.x_min) + 2 * dx
    pi = 4 * np.arctan(ld(1))
    table = np.sqrt(2 / box) * np.sin(pi * np.arange(2 * (n + 1)) / (n + 1))
    j = np.arange(1, n + 1)
    S = table[np.outer(j, j) % (2 * (n + 1))]
    eps = (ld(grid.t_b) - ld(grid.t_a)) / grid.N
    z = eps * (pi * j / box) ** 2 / (4 * ld(mass))
    f = (1 - 1j * z) / (1 + 1j * z)
    x = ld(lattice.x_min) + np.arange(n) * dx
    phase = 1 if pot is None else np.exp(-1j * eps * pot(x))
    v = np.asarray(values, dtype=np.clongdouble)
    for _ in range(grid.N):
        v = phase * (S.T @ (f * (S @ v))) * dx
    return v


def test_split_step_route_matches_a_long_double_push():
    # measured 8.0e-14 (K.apply) and 3.0e-14 (K.entries) of the field's
    # norm, and 6.1e-12 (scattered_component) of the scattered norm
    lat = LatticeSpec(-20.0, 20.0, 255)
    grid = TimeGrid(0.0, 3.0, 128)
    psi0 = gaussian_packet(lat, -6.0, 2.0, 1.5)

    def pot(x):
        return 1e-3 * np.exp(-np.abs(x))

    def rel(got, want):
        err, scale = (np.sum(np.abs(a) ** 2) for a in (got - want, want))
        return float(np.sqrt(err / scale))

    full = _long_double_push(psi0.values, pot, lat, grid, 1.0)
    free = _long_double_push(psi0.values, None, lat, grid, 1.0)
    K = time_sliced_propagator(pot, lat, grid, 1.0)
    assert rel(K.apply(psi0.values), full) <= 2e-13
    assert rel((K.entries @ psi0.values) * lat.dx, full) <= 1e-13
    scattered = scattered_component(psi0, pot, lat, grid, 1.0).values
    assert rel(scattered, full - free) <= 2e-11


def test_varying_node_factors_take_one_matrix_power(matrix_power_exponents):
    lat = LatticeSpec(-8.0, 8.0, 64)
    K = time_sliced_propagator(Gaussian(-0.5, 1.5), lat, TimeGrid(0.0, 1.0, 24), 1.0)
    K.entries
    assert matrix_power_exponents == [24]


def _sine_modes_reference(lattice):
    """The former _sine_modes: one sin per matrix entry."""
    n = lattice.points
    box = (lattice.x_max - lattice.x_min) + 2.0 * lattice.dx
    j = np.arange(1, n + 1)
    phase = np.outer(j, j) % (2 * (n + 1))
    return np.sqrt(2.0 / box) * np.sin(np.pi * phase / (n + 1))


@pytest.mark.parametrize("n", [8, 101, 255, 256, 511, 767, 768])
def test_sine_modes_table_gather_is_bit_identical_to_the_former_formula(n):
    lat = LatticeSpec(-6.0, 7.5, n)
    assert np.array_equal(_sine_modes(lat), _sine_modes_reference(lat))


def _dst_pair(values, f, axis=0):
    """The former kinetic step: orthonormal DST-I, times f, DST-I again."""
    f = np.expand_dims(f, tuple(range(1, values.ndim - axis)))
    dst = lambda a: scipy.fft.dst(a, type=1, axis=axis, norm="ortho")
    return dst(f * dst(values))


@pytest.mark.parametrize("kinetic", ["pade2", "exact"])
@pytest.mark.parametrize(
    "n", sorted(set(PRIME_PLUS_ONE) | {255, 256, 511, 512, 767, 768, 1023, 1024})
)
def test_kinetic_step_matches_the_dst_pair_and_the_mode_kernel(n, kinetic):
    lat = LatticeSpec(-12.0, 9.0, n)
    f = _kinetic_factor(lat, 0.03, 0.7, kinetic)
    rng = np.random.default_rng(n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = _kinetic_step(v, _kinetic_plan(f))
    for want in (_dst_pair(v, f), (_mode_kernel(lat, f) @ v) * lat.dx):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _largest_prime_factor(n):
    largest, factor = 1, 2
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


@pytest.fixture
def fft_calls(monkeypatch):
    """(name, length) of every 1-D scipy.fft transform while the test
    runs, and the size of every kinetic plan built."""
    calls, plans = [], []
    for name in ("fft", "ifft", "rfft", "irfft", "dct", "idct", "dst", "idst"):

        def recording(x, *args, _name=name, _original=getattr(scipy.fft, name), **kw):
            n = args[0] if args else kw.get("n")
            calls.append((_name, np.shape(x)[kw.get("axis", -1)] if n is None else n))
            return _original(x, *args, **kw)

        monkeypatch.setattr(scipy.fft, name, recording)
    original_plan = propagator._kinetic_plan

    def planning(f):
        plans.append(f.size)
        return original_plan(f)

    monkeypatch.setattr(propagator, "_kinetic_plan", planning)
    return calls, plans


def test_split_step_runs_on_fast_fft_lengths_with_one_plan_per_operator(fft_calls):
    calls, plans = fft_calls
    # n + 1 = 769 and 257 are prime: a DST-I would run on 2 * 769 and 2 * 257
    lat = LatticeSpec(-30.0, 30.0, 768)
    K = time_sliced_propagator(Gaussian(-0.5, 1.5), lat, TimeGrid(0.0, 1.0, 64), 1.0)
    evolve(gaussian_packet(lat, -12.0, 2.0, 1.5), K)
    assert plans == [768]
    small = LatticeSpec(-10.0, 10.0, 256)
    grid = TimeGrid(0.0, 1.0, 16)
    influence_K2(
        PairPotentials(Gaussian(-1.0, 1.0), Gaussian(-1.0, 1.0), None),
        FixedPath(grid, np.linspace(-2.0, 1.0, grid.N + 1)),
        small.nodes[100], small.nodes[140], small, grid, 1.0,
    )
    # the amplitude and its free reference share one plan
    assert plans == [768, 256]
    # so do the pushes of K and K0
    scattered_component(gaussian_packet(small, -2.0, 1.0, 1.0), Gaussian(-0.5, 1.0),
                        small, grid, 1.0)
    assert plans == [768, 256, 256]
    assert calls and {name for name, _ in calls} == {"fft", "ifft"}
    assert max(_largest_prime_factor(length) for _, length in calls) <= 11


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


@pytest.mark.parametrize("sampling", ["endpoint", "symmetric"])
def test_non_finite_sample_names_its_slice_and_node(sampling):
    # node 4 of 9 on [-1, 1] sits at r = 0, where the Yukawa is infinite;
    # a static potential is read from the first slice on
    lat = LatticeSpec(-1.0, 1.0, 9)
    with pytest.raises(DomainError) as err:
        time_sliced_propagator(Yukawa(-1.0, 1.0), lat, TimeGrid(0.0, 1.0, 2), 1.0,
                               sampling=sampling)
    assert str(err.value) == (
        "slice 1, lattice node 4 (x = 0.0): "
        "potential = Yukawa(V0=-1.0, alpha=1.0) is not finite at coordinate 0.0"
    )


@pytest.mark.parametrize("make,message", [
    (lambda lat: gaussian_packet(lat, np.inf, 0.0, 1.0),
     "packet x0 must be finite, got inf"),
    (lambda lat: gaussian_packet(lat, 0.0, -np.inf, 1.0),
     "packet p0 must be finite, got -inf"),
    (lambda lat: gaussian_packet(lat, 0.0, 0.0, np.inf),
     "packet sigma0 must be finite, got inf"),
    (lambda lat: gaussian_packet(lat, 0.0, 0.0, np.nan),
     "packet sigma0 must be finite, got nan"),
    (lambda lat: AbsorbingLayer(np.inf, 1.0),
     "absorbing layer width must be finite, got inf"),
    (lambda lat: AbsorbingLayer(1.0, np.nan),
     "absorbing layer strength must be finite, got nan"),
], ids=["inf-x0", "inf-p0", "inf-sigma0", "nan-sigma0", "inf-width", "nan-strength"])
def test_non_finite_packet_and_absorber_parameters_are_refused(make, message):
    # unchecked, sigma0 = inf gave an all-zero packet, sigma0 = nan was
    # reported as a non-finite field, and width = inf gave NaN damping
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make(LatticeSpec(-1.0, 1.0, 9))


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
    # damped, the packet still reaches 1.1e-2 of its peak at the edge
    with pytest.warns(AccuracyWarning):
        psi_soft = evolve(gaussian_packet(damped, 6.0, 3.0, 1.0), Kd)
    assert psi_soft.norm() < 0.9 * psi_hard.norm()
    assert boundary_leak_fraction(psi_soft) < boundary_leak_fraction(psi_hard)


def test_edge_leak_warning_names_the_caller():
    # evolve and scattered_component warn through one helper, at the line
    # that called them
    lat = LatticeSpec(-10.0, 10.0, 256)
    psi0 = gaussian_packet(lat, 6.0, 3.0, 1.0)
    grid = TimeGrid(0.0, 2.0, 32)
    K = time_sliced_propagator(None, lat, grid, 1.0)
    for call in (lambda: evolve(psi0, K),
                 lambda: scattered_component(psi0, Gaussian(-0.5, 1.0), lat, grid, 1.0)):
        with pytest.warns(AccuracyWarning, match="evolved amplitude at lattice edge") as seen:
            call()
        assert [w.filename for w in seen] == [__file__]


def test_free_kernel_diagnostic_reports_small_deviation():
    lat = LatticeSpec(-20.0, 20.0, 256)
    K = time_sliced_propagator(None, lat, TimeGrid(0.0, 1.0, 32), 1.0)
    assert free_deviation_diagnostic(K, 1.0) <= 1e-4  # measured 1.3e-5
