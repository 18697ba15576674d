"""First-order Born elastic scattering for central potentials.

In atomic units (hbar = 1) the amplitude is the potential's
momentum-space transform at the transferred momentum,
f(theta) = -(m / 2 pi) v(q), so every cross section here reduces to
evaluations of potentials.fourier_transform plus kinematic factors and
angular quadrature. A momentum p is also the wavenumber.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError
from .potentials import _each_momentum, fourier_transform, fourier_transform_quadrature

__all__ = [
    "PlaneWaveState",
    "ScatteringAngles",
    "CrossSectionRecord",
    "TotalCrossSection",
    "momentum_transfer",
    "born_amplitude",
    "born_differential_cross_section",
    "born_total_cross_section",
    "far_field_scattered_wave",
    "radial_flux",
    "elastic_record",
]

# "auto" takes closed-form transforms where a family has one; "quadrature"
# forces the independent numerical transform.
ROUTES = ("auto", "quadrature")
# The far-field form holds only where r_b dwarfs the potential range; this
# multiplier of the range is a heuristic threshold, not physics.
FAR_FIELD_RANGES = 100.0


@dataclass(frozen=True)
class PlaneWaveState:
    """Incident plane wave; energy and flux follow from the momentum."""

    p: tuple
    mass: float

    def __post_init__(self):
        if self.mass <= 0:
            raise DomainError("mass must be positive")
        object.__setattr__(self, "p", tuple(float(c) for c in self.p))

    @property
    def momentum(self):
        return math.sqrt(sum(c * c for c in self.p))

    @property
    def E(self):
        return self.momentum**2 / (2.0 * self.mass)

    @property
    def flux(self):
        return self.momentum / self.mass


@dataclass(frozen=True)
class ScatteringAngles:
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise DomainError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise DomainError("phi must lie in [0, 2 pi)")


@dataclass(frozen=True)
class TotalCrossSection:
    """Angular quadrature value with a doubling error estimate."""

    value: float
    error: float
    nodes: int


@dataclass
class CrossSectionRecord:
    """Angle-resolved differential cross section plus its total."""

    angles: list
    dsigma: list
    sigma_total: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.angles) != len(self.dsigma):
            raise DomainError("angles and dsigma must have equal length")
        if any(d < 0 for d in self.dsigma):
            raise DomainError("differential cross sections cannot be negative")


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


def _gl_total(pot, p, mass, n, route):
    nodes, weights = _gauss_legendre(n)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w = 0.5 * np.pi * weights
    vals = born_differential_cross_section(pot, p, mass, theta, route=route)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite integrand in angular quadrature")
    return float(2.0 * np.pi * np.sum(w * vals * np.sin(theta)))


def born_total_cross_section(pot, p, mass, n_theta=64, route="auto"):
    """sigma = 2 pi int dsigma sin(theta) dtheta, Gauss-Legendre.

    The error estimate is the change under node doubling; the returned
    value is the doubled-node quadrature.
    """
    if n_theta < 16:
        raise DomainError("need at least 16 quadrature nodes")
    coarse = _gl_total(pot, p, mass, n_theta, route)
    fine = _gl_total(pot, p, mass, 2 * n_theta, route)
    return TotalCrossSection(value=fine, error=abs(fine - coarse), nodes=2 * n_theta)


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


def elastic_record(pot, p, mass, thetas, n_theta=64, route="auto"):
    """Assemble the plot-ready record for an angle sweep."""
    angles = [ScatteringAngles(float(t)) for t in thetas]
    theta = np.array([a.theta for a in angles])
    dsigma = list(born_differential_cross_section(pot, p, mass, theta, route=route))
    total = born_total_cross_section(pot, p, mass, n_theta=n_theta, route=route)
    params = {
        "potential": repr(pot),
        "p": p,
        "mass": mass,
        "n_theta": total.nodes,
        "quadrature_error": total.error,
        "route": route,
    }
    return CrossSectionRecord(
        angles=angles,
        dsigma=dsigma,
        sigma_total=total.value,
        params=params,
    )
