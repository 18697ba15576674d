"""Influence functionals: one particle's path sum, the other held fixed.

With the companion trajectory frozen, each time slice sees a different
potential, so the contraction is an ordered product of slice-specific
transfer matrices rather than a matrix power. An endpoint element is
found by pushing one delta column through the slices with the
propagator's split-step engine; no dense product is formed. The
extracted quantity is the total accumulated phase against the free
reference, an action in atomic units (hbar = 1),

    amplitude = free_reference * exp(-i * effective_phase),

taken on the principal log branch. The free reference is the same
discretized product with all potentials off, which makes zero-coupling
phases vanish identically instead of at the lattice's accuracy floor.
A pointwise effective potential is deliberately not offered; only the
time-integrated phase is well defined here.

Every slice, the product lattice's included, samples its potentials
with the propagator's `potential_on_axis` and splits its phase and
absorber damping with `_node_factors`, exactly as one-particle slices do.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .propagator import (
    _absorber_profile,
    _kinetic_kernel,
    _node_factors,
    _propagate,
    _slice,
    potential_on_axis,
    TimeGrid,
)

__all__ = [
    "FixedPath",
    "InfluenceResult",
    "influence_K1",
    "influence_K2",
    "reconstruct_full_amplitude",
]

# Cap on electron x ion points of the product lattice, a small-lattice
# oracle: each slice costs n_e n_i (n_e + n_i) operations.
MAX_PRODUCT_POINTS = 256 * 256


@dataclass(frozen=True)
class FixedPath:
    """Companion trajectory sampled at the N+1 slice endpoints."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.N + 1,):
            raise DomainError("path needs one sample per slice endpoint (N + 1)")
        if not np.all(np.isfinite(samples)):
            raise DomainError("path samples must be finite")


@dataclass
class InfluenceResult:
    """Endpoint matrix element of the functional and its phase."""

    amplitude: complex
    effective_phase: complex
    endpoints: tuple
    grid: TimeGrid
    free_reference: complex


def _node_index(lattice, pos, name):
    nodes = lattice.nodes
    i = int(np.argmin(np.abs(nodes - pos)))
    if abs(nodes[i] - pos) > 1e-6 * lattice.dx:
        raise DomainError(
            f"{name} = {pos} is not a lattice node; nearest node is {nodes[i]!r}"
        )
    return i


def _arrival_samples(path, grid):
    """The companion's positions at the arrival times of slices 1..N."""
    if path.grid != grid:
        raise DomainError("fixed path and contraction use different time grids")
    return path.samples[1:]


def _phase_from(amplitude, reference):
    if amplitude == 0 or reference == 0:
        raise NumericalError("vanishing amplitude; phase extraction undefined")
    return 1j * complex(np.log(amplitude / reference))


def _endpoint_element(slice_pots, a, b, lattice, grid, mass, kinetic, sampling):
    ia = _node_index(lattice, a, "start endpoint")
    ib = _node_index(lattice, b, "final endpoint")
    delta = np.zeros(lattice.points)
    delta[ia] = 1.0 / lattice.dx
    scheme = (lattice, grid.epsilon, mass, kinetic, sampling)
    slices = (_slice(pot, *scheme) for pot in slice_pots)
    amp = complex(_propagate(delta, slices)[ib])
    ref = complex(_propagate(delta, (_slice(None, *scheme),) * grid.N)[ib])
    return InfluenceResult(
        amplitude=amp,
        effective_phase=_phase_from(amp, ref),
        endpoints=(a, b),
        grid=grid,
        free_reference=ref,
    )


def influence_K1(
    pots,
    electron_path,
    R_a,
    R_b,
    lattice,
    grid,
    M,
    kinetic="pade2",
    sampling="endpoint",
):
    """Heavy-particle path sum with the electron trajectory frozen.

    Slice j sees V_B(r_j - R) + V_AB(R) with r_j the electron sample at
    the slice's arrival time. Returns the (R_a -> R_b) matrix element.
    """
    slice_pots = (
        lambda R, r=r: potential_on_axis(pots.V_B, r - R)
        + potential_on_axis(pots.V_AB, R)
        for r in _arrival_samples(electron_path, grid)
    )
    return _endpoint_element(slice_pots, R_a, R_b, lattice, grid, M, kinetic, sampling)


def influence_K2(
    pots,
    ion_path,
    r_a,
    r_b,
    lattice,
    grid,
    m,
    kinetic="pade2",
    sampling="endpoint",
):
    """Electron path sum with the heavy trajectory frozen.

    Slice j sees V_A(r) + V_B(r - R_j) with R_j the ion sample at the
    slice's arrival time.
    """
    slice_pots = (
        lambda r, R=R: potential_on_axis(pots.V_A, r)
        + potential_on_axis(pots.V_B, r - R)
        for R in _arrival_samples(ion_path, grid)
    )
    return _endpoint_element(slice_pots, r_a, r_b, lattice, grid, m, kinetic, sampling)


def reconstruct_full_amplitude(
    pots,
    r_endpoints,
    R_endpoints,
    lattice_e,
    lattice_i,
    grid,
    m,
    M,
    kinetic="pade2",
    sampling="endpoint",
):
    """Two-particle kernel element by direct product-lattice contraction.

    The joint field psi(r, R) starts as a delta pair and is pushed
    through N slices: the electron's kinetic kernel along axis 0, the
    ion's along axis 1, and the full coupled phase exp(-i eps (V_A(r) +
    V_AB(R) + V_B(r - R))) with both axes' absorber damping, split as in
    a one-particle slice. The returned value is the kernel density
    K(r_b, R_b; r_a, R_a); it serves as the oracle for factorization and
    influence-functional identities. The kinetic kernels are dense
    matrices: under the MAX_PRODUCT_POINTS cap a batched matrix product
    is cheaper than a DST-I pair along each axis.
    """
    if lattice_e.points * lattice_i.points > MAX_PRODUCT_POINTS:
        raise DomainError(
            f"product lattice {lattice_e.points} x {lattice_i.points} exceeds "
            f"the cap of {MAX_PRODUCT_POINTS} points"
        )
    if sampling not in ("endpoint", "symmetric"):
        raise DomainError("product-lattice contraction supports endpoint/symmetric")
    r_a, r_b = r_endpoints
    R_a, R_b = R_endpoints
    ia_e = _node_index(lattice_e, r_a, "electron start")
    ib_e = _node_index(lattice_e, r_b, "electron end")
    ia_i = _node_index(lattice_i, R_a, "ion start")
    ib_i = _node_index(lattice_i, R_b, "ion end")

    eps = grid.epsilon
    G_e = lattice_e.dx * _kinetic_kernel(lattice_e, eps, m, kinetic)
    G_i = lattice_i.dx * _kinetic_kernel(lattice_i, eps, M, kinetic)
    xe = lattice_e.nodes[:, None]
    xi = lattice_i.nodes[None, :]
    V = (
        potential_on_axis(pots.V_A, xe)
        + potential_on_axis(pots.V_AB, xi)
        + potential_on_axis(pots.V_B, xe - xi)
    )
    damp = np.outer(
        _absorber_profile(lattice_e, eps), _absorber_profile(lattice_i, eps)
    )
    pre, post = _node_factors(V, damp, eps, sampling)
    psi = np.zeros((lattice_e.points, lattice_i.points))
    psi[ia_e, ia_i] = 1.0 / (lattice_e.dx * lattice_i.dx)
    psi = _propagate(psi, ((pre, (G_e, G_i), post),) * grid.N)
    return complex(psi[ib_e, ib_i])
