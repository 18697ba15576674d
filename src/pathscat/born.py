"""First-order Born elastic scattering for central potentials.

In atomic units (hbar = 1) the amplitude is the potential's
momentum-space transform at the transferred momentum,
f(theta) = -(m / 2 pi) v(q), so every cross section here reduces to
evaluations of potentials.fourier_transform plus kinematic factors. A
momentum p is also the wavenumber.

`_angular_total` integrates 2 pi int dsigma sin(theta) dtheta for the
Born and the capture totals alike; each hands it only its theta rule.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .potentials import _each_momentum, fourier_transform, fourier_transform_quadrature

__all__ = [
    "TotalCrossSection",
    "momentum_transfer",
    "born_amplitude",
    "born_differential_cross_section",
    "born_total_cross_section",
    "far_field_scattered_wave",
    "radial_flux",
]

# "auto" takes closed-form transforms where a family has one; "quadrature"
# forces the independent numerical transform.
ROUTES = ("auto", "quadrature")
# The far-field form holds only where r_b dwarfs the potential range; this
# multiplier of the range is a heuristic threshold, not physics.
FAR_FIELD_RANGES = 100.0


@dataclass(frozen=True)
class TotalCrossSection:
    """Angular quadrature value with a doubling error estimate."""

    value: float
    error: float
    nodes: int


def momentum_transfer(p, theta):
    """Elastic momentum transfer q = 2 p sin(theta/2), elementwise over an
    array of angles."""
    if p < 0:
        raise DomainError("momentum magnitude must be non-negative")
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta) & (theta <= np.pi)):
        raise DomainError("theta must lie in [0, pi]")
    return 2.0 * p * np.sin(0.5 * theta)


def _transform(pot, q, route):
    if route == "auto":
        return fourier_transform(pot, q)
    if route == "quadrature":
        # The independent route: one adaptive quadrature per momentum.
        # It certifies 1e-9 relative rather than the transform default:
        # at small q the oscillatory rule's error estimate is
        # conservative by a couple of digits and would otherwise reject
        # values that are in fact converged.
        return _each_momentum(
            fourier_transform_quadrature, pot, q, rel_tol=1e-9, abs_tol=1e-12
        )
    raise DomainError(f"unknown transform route {route!r}; options: {ROUTES}")


def born_amplitude(pot, p, mass, theta, route="auto"):
    """f(theta), elementwise over an array of angles; real for real
    central potentials at this order."""
    q = momentum_transfer(p, theta)
    return -mass / (2.0 * np.pi) * _transform(pot, q, route)


def born_differential_cross_section(pot, p, mass, theta, route="auto"):
    """dsigma/dOmega = (m / 2 pi)^2 |v(q)|^2."""
    if p <= 0:
        raise DomainError("incident momentum must be positive")
    f = born_amplitude(pot, p, mass, theta, route=route)
    return abs(f) ** 2


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per
    n and returned read-only, so every caller shares the cached arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panels(n, edges):
    """Nodes and weights of n-point Gauss-Legendre on each interval between
    consecutive edges, panel after panel."""
    u, w = _gauss_legendre(n)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * u + mid).ravel(), (half * w).ravel()


def _angular_total(dcs, rule):
    """2 pi int dsigma sin(theta) dtheta by one rule at two resolutions.

    rule(scale) gives (theta, weights) with 2 pi sin(theta) folded into
    the weights; scale 2 doubles its nodes. dcs takes the whole angle
    array in one call. Returns the doubled-node value, its change under
    the doubling as the error estimate, and the doubled node count.
    """
    totals = []
    for theta, weights in (rule(1), rule(2)):
        totals.append(float(weights @ dcs(theta)))
    coarse, fine = totals
    if not np.all(np.isfinite(totals)):
        raise NumericalError("angular quadrature produced a non-finite total")
    return fine, abs(fine - coarse), theta.size


def born_total_cross_section(pot, p, mass, n_theta=64, route="auto"):
    """sigma = 2 pi int dsigma sin(theta) dtheta, Gauss-Legendre on [0, pi].

    The error estimate is the change under node doubling; the returned
    value is the doubled-node quadrature. A potential whose v(0) diverges,
    such as one with a 1/r tail, has no finite total and raises
    NumericalError.
    """
    if n_theta < 16:
        raise DomainError("need at least 16 quadrature nodes")
    if not np.isfinite(fourier_transform(pot, 0.0)):
        raise NumericalError("v(0) is not finite, so the total cross section diverges")

    def rule(scale):
        theta, g = _panels(scale * n_theta, np.array([0.0, np.pi]))
        return theta, 2.0 * np.pi * np.sin(theta) * g

    def dcs(theta):
        return born_differential_cross_section(pot, p, mass, theta, route=route)

    value, error, nodes = _angular_total(dcs, rule)
    return TotalCrossSection(value=value, error=error, nodes=nodes)


def far_field_scattered_wave(pot, p_a, mass, r_b, n_b, route="auto"):
    """Scattered wave f(theta) exp(i p r_b) / r_b far from the source.

    Valid only when r_b is at least FAR_FIELD_RANGES potential ranges.
    """
    p_a = np.asarray(p_a, dtype=float)
    n_b = np.asarray(n_b, dtype=float)
    if p_a.shape != (3,) or n_b.shape != (3,):
        raise DomainError("p_a and n_b must be 3-vectors")
    n_norm = np.linalg.norm(n_b)
    if abs(n_norm - 1.0) > 1e-8:
        raise DomainError("n_b must be a unit vector")
    reach = pot.range_estimate() if hasattr(pot, "range_estimate") else 1.0
    if r_b < FAR_FIELD_RANGES * reach:
        raise DomainError(
            f"far field requires r_b >= {FAR_FIELD_RANGES} x potential range "
            f"({FAR_FIELD_RANGES * reach:.3g}); got {r_b:.3g}"
        )
    p = np.linalg.norm(p_a)
    q = np.linalg.norm(p_a - p * n_b)
    v = _transform(pot, q, route)
    f = -mass / (2.0 * np.pi) * v
    return f * np.exp(1j * p * r_b) / r_b


def radial_flux(psi, mass):
    """j(r) = (1/m) Im(psi* dpsi/dr) by central differences."""
    if psi.lattice.points < 3:
        raise DomainError("radial flux needs at least 3 samples")
    dpsi = np.gradient(psi.values, psi.lattice.dx)
    return 1.0 / mass * np.imag(np.conj(psi.values) * dpsi)
