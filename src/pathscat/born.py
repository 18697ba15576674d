"""First-order Born elastic scattering for central potentials.

In atomic units (hbar = 1) the amplitude is the potential's
momentum-space transform at the transferred momentum,
f(theta) = -(m / 2 pi) v(q), so every cross section here reduces to
evaluations of potentials.fourier_transform plus kinematic factors. A
momentum p is also the wavenumber.

`_angular_total` integrates 2 pi int dsigma sin(theta) dtheta for the
Born and the capture totals alike; each hands it only its theta panels.
It takes a rule and that rule doubled from one dsigma call on both
rules' angles, so a Born total by quadrature runs one radial cubature
and a capture total one batched amplitude pass.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .errors import _check_choice, _check_nonnegative, _check_positive, _finite
from .potentials import fourier_transform, fourier_transform_quadrature

__all__ = [
    "TotalCrossSection",
    "momentum_transfer",
    "born_amplitude",
    "born_differential_cross_section",
    "born_total_cross_section",
]

# "auto" takes closed-form transforms where a family has one; "quadrature"
# forces the independent numerical transform.
ROUTES = ("auto", "quadrature")
_COARSE_NODES = 64


@dataclass(frozen=True)
class TotalCrossSection:
    """Angular quadrature value with a doubling error estimate."""

    value: float
    error: float
    nodes: int


def _angles(theta):
    """theta as a float array, refused unless every angle lies in [0, pi]."""
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta) & (theta <= np.pi)):
        raise DomainError("theta must lie in [0, pi]")
    return theta


def momentum_transfer(p, theta):
    """Elastic momentum transfer q = 2 p sin(theta/2), elementwise over an
    array of angles."""
    _check_nonnegative("momentum magnitude", p)
    return 2.0 * p * np.sin(0.5 * _angles(theta))


def _transform(pot, q, route):
    _check_choice("transform route", route, ROUTES)
    if route == "auto":
        return fourier_transform(pot, q)
    # The independent route: one vectorised sinc integral for the
    # momenta below the oscillatory switch, the sine-weighted rule
    # per momentum above it or on a long-range tail. It certifies
    # 1e-9 relative rather than the transform default, one decade
    # inside the 1e-8 at which the Born totals are checked against
    # the closed form, so the gate is not what those checks test.
    return fourier_transform_quadrature(pot, q, rel_tol=1e-9, abs_tol=1e-12)


def born_amplitude(pot, p, mass, theta, route="auto"):
    """f(theta), elementwise over an array of angles; real for real
    central potentials at this order."""
    _check_positive("mass", mass)
    q = momentum_transfer(p, theta)
    return -mass / (2.0 * np.pi) * _transform(pot, q, route)


def born_differential_cross_section(pot, p, mass, theta, route="auto"):
    """dsigma/dOmega = (m / 2 pi)^2 |v(q)|^2."""
    if not p > 0:
        raise DomainError("incident momentum must be positive")
    if not _finite(p):
        raise DomainError(f"incident momentum must be positive and finite, got {p}")
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


def _angular_total(dcs, panels):
    """2 pi int dsigma sin(theta) dtheta by one rule at two resolutions.

    panels lists (n, edges) pairs, n-point Gauss-Legendre on each interval
    between consecutive edges; the second resolution doubles every n. Both
    resolutions' angles go to dcs as one array, in one call, and the
    result is split into the two sums. Returns the doubled-node value, its
    change under the doubling as the error estimate, and the doubled node
    count.
    """
    rules = [
        _panels(scale * n, np.asarray(edges)) for scale in (1, 2) for n, edges in panels
    ]
    theta, g = (np.concatenate(part) for part in zip(*rules))
    m = sum(w.size for _, w in rules[: len(panels)])  # coarse nodes, first
    weighted, values = 2.0 * np.pi * np.sin(theta) * g, dcs(theta)
    coarse, fine = float(weighted[:m] @ values[:m]), float(weighted[m:] @ values[m:])
    if not np.all(np.isfinite((coarse, fine))):
        raise NumericalError("angular quadrature produced a non-finite total")
    return fine, abs(fine - coarse), theta.size - m


def born_total_cross_section(pot, p, mass, route="auto"):
    """sigma = 2 pi int dsigma sin(theta) dtheta, Gauss-Legendre on [0, pi].

    The rule is fixed: the returned value takes 2 * _COARSE_NODES = 128
    nodes, and the error estimate is its change from _COARSE_NODES. A
    potential whose v(0) diverges, such as one with a 1/r tail, has no
    finite total and raises NumericalError.
    """
    if not np.isfinite(fourier_transform(pot, 0.0)):
        raise NumericalError("v(0) is not finite, so the total cross section diverges")

    def dcs(theta):
        return born_differential_cross_section(pot, p, mass, theta, route=route)

    value, error, nodes = _angular_total(dcs, [(_COARSE_NODES, [0.0, np.pi])])
    return TotalCrossSection(value=value, error=error, nodes=nodes)

