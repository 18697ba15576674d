"""Influence functionals: one particle's path sum, the other held fixed.

With the companion trajectory frozen, each time slice sees a different
potential, so the contraction is an ordered product of slice-specific
transfer matrices rather than a matrix power. An endpoint element is
found by pushing one delta column through the slices with the
propagator's engine; no dense product of slices is formed. The
extracted quantity is the total accumulated phase against the free
reference, an action in atomic units (hbar = 1),

    amplitude = free_reference * exp(-i * effective_phase),

taken on the principal log branch. The free reference is the same
discretized product with all potentials off, which makes zero-coupling
phases vanish identically instead of at the lattice's accuracy floor.
A pointwise effective potential is deliberately not offered; only the
time-integrated phase is well defined here.

One element body serves K1, K2 and the product lattice: it hands the
potential terms and the companion's samples to the propagator's
`_slices`, which samples the terms on the slice ends and builds the
slices exactly as one-particle slices are, and pushes a delta through
them. An influence functional's amplitude and its free reference share
one kinetic part, built once. Slice j runs from t_(j-1) to t_j: endpoint
sampling puts the whole phase at its arrival sample, and symmetric
sampling half at its departure sample and half at its arrival sample,
which keeps it second order on a moving path. Midpoint sampling is not
separable and is not offered here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .propagator import _kinetic_part, _propagate, _slices, TimeGrid

__all__ = [
    "FixedPath",
    "InfluenceResult",
    "influence_K1",
    "influence_K2",
    "reconstruct_full_amplitude",
]

# Cap on electron x ion points of the product lattice, a small-lattice
# oracle: each slice costs n_e n_i (n_e + n_i) operations, by dense
# kinetic kernels (see propagator._kinetic_part).
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
    free_reference: complex


def _node_index(lattice, pos, name):
    nodes = lattice.nodes
    i = int(np.argmin(np.abs(nodes - pos)))
    if abs(nodes[i] - pos) > 1e-6 * lattice.dx:
        raise DomainError(
            f"{name} = {pos} is not a lattice node; "
            f"nearest node is {float(nodes[i])!r}"
        )
    return i


def _phase_from(amplitude, reference):
    if amplitude == 0 or reference == 0:
        raise NumericalError("vanishing amplitude; phase extraction undefined")
    return 1j * complex(np.log(amplitude / reference))


def _elements(lattices, a, b, grid, masses, kinetic, sampling, *sums):
    """(a -> b) elements, one endpoint coordinate per lattice, of path sums
    on the lattices' product: one per (terms, companion) pair in sums,
    whose slices see the sum of the terms with the companion on its
    samples at the slice ends.

    terms(*coords) gives triples (name, pot, coordinate), sampled by
    propagator._slices on the lattices' nodes and the companion's
    samples; without a companion (None) the potential is static. Every
    sum has the same lattices, masses, time step and kinetic factor, so
    one kinetic part, built for the first, serves them all.
    """
    ia = tuple(_node_index(lat, x, "start endpoint") for lat, x in zip(lattices, a))
    ib = tuple(_node_index(lat, x, "final endpoint") for lat, x in zip(lattices, b))
    delta = np.zeros(tuple(lat.points for lat in lattices))
    delta[ia] = 1.0 / math.prod(lat.dx for lat in lattices)
    elements, kinetic_part = [], None
    for terms, companion in sums:
        ops, pre, post = _slices(
            lattices, grid, masses, kinetic, sampling, terms, companion
        )
        if kinetic_part is None:
            kinetic_part = _kinetic_part(lattices, ops)
        elements.append(complex(_propagate(delta, kinetic_part, pre, post)[ib]))
    return elements


def _influence(terms, path, a, b, lattice, grid, mass, kinetic, sampling):
    """K1/K2: the element with the companion held on path, and the free
    reference, the same element with no potential."""
    if path.grid != grid:
        raise DomainError("fixed path and contraction use different time grids")
    amp, ref = _elements(
        (lattice,), (a,), (b,), grid, (mass,), kinetic, sampling,
        (terms, path.samples), (lambda *coords: (), None),
    )
    return InfluenceResult(
        amplitude=amp,
        effective_phase=_phase_from(amp, ref),
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

    Slice j sees V_B(r - R) + V_AB(R), with r the electron's samples at
    the slice's ends. Returns the (R_a -> R_b) matrix element.
    """
    return _influence(
        lambda R, r: (("V_B", pots.V_B, r - R), ("V_AB", pots.V_AB, R)),
        electron_path, R_a, R_b, lattice, grid, M, kinetic, sampling,
    )


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

    Slice j sees V_A(r) + V_B(r - R), with R the ion's samples at the
    slice's ends.
    """
    return _influence(
        lambda r, R: (("V_A", pots.V_A, r), ("V_B", pots.V_B, r - R)),
        ion_path, r_a, r_b, lattice, grid, m, kinetic, sampling,
    )


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
    through N slices, the same element body as the influence
    functionals': the electron's kinetic kernel along axis 0, the ion's
    along axis 1, and the full coupled phase exp(-i eps (V_A(r) + V_AB(R)
    + V_B(r - R))) with both axes' absorber damping, split as in a
    one-particle slice by endpoint or symmetric sampling. The returned
    value is the kernel density K(r_b, R_b; r_a, R_a); it serves as the
    oracle for factorization and influence-functional identities.
    """
    if lattice_e.points * lattice_i.points > MAX_PRODUCT_POINTS:
        raise DomainError(
            f"product lattice {lattice_e.points} x {lattice_i.points} exceeds "
            f"the cap of {MAX_PRODUCT_POINTS} points"
        )
    (r_a, r_b), (R_a, R_b) = r_endpoints, R_endpoints
    (element,) = _elements(
        (lattice_e, lattice_i), (r_a, R_a), (r_b, R_b), grid, (m, M), kinetic,
        sampling,
        (lambda r, R: (
            ("V_A", pots.V_A, r), ("V_AB", pots.V_AB, R), ("V_B", pots.V_B, r - R)
        ), None),
    )
    return element
