"""Central potential families and their 3-D Fourier transforms.

Each family evaluates V(r) pointwise and knows its momentum-space form

    v(q) = int d^3r V(|r|) exp(i q.r),

in atomic units (hbar = 1, so the momentum transfer q is also the
wavenumber), real for central potentials. Closed forms are used where
they exist; a radial oscillatory quadrature serves as fallback and as
the cross-check oracle for the analytic paths.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .errors import DomainError, NumericalError

__all__ = [
    "Yukawa",
    "Gaussian",
    "SoftCoulomb",
    "ScreenedCoulomb",
    "SquareWell",
    "PairPotentials",
    "evaluate",
    "fourier_transform",
    "fourier_transform_quadrature",
]


# 3 (sin x - x cos x) / x^3 = sum_n (-1)^n 6 (n+1) x^(2n) / (2n+3)!, highest
# power first. Cancellation costs the closed form 6e-12 relative at x = 1e-2
# and 2e-15 at 0.5; below 0.5 these eight terms reach round-off.
_SQUARE_WELL_SWITCH = 0.5
_SQUARE_WELL_SERIES = tuple(
    (-1) ** n * 6.0 * (n + 1) / math.factorial(2 * n + 3) for n in range(7, -1, -1)
)


class CentralPotential:
    """Base class; concrete families are frozen dataclasses below."""

    def __call__(self, r):
        return self.evaluate(r)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise DomainError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class Yukawa(CentralPotential):
    """V(r) = V0 * exp(-alpha r) / r."""

    V0: float
    alpha: float

    def __post_init__(self):
        _check_positive(alpha=self.alpha)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.V0 * np.exp(-self.alpha * r) / r

    def analytic_ft(self, k):
        return 4.0 * np.pi * self.V0 / (self.alpha**2 + k**2)

    def range_estimate(self):
        return 1.0 / self.alpha


@dataclass(frozen=True)
class Gaussian(CentralPotential):
    """V(r) = V0 * exp(-r^2 / (2 width^2))."""

    V0: float
    width: float

    def __post_init__(self):
        _check_positive(width=self.width)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return self.V0 * np.exp(-(r**2) / (2.0 * self.width**2))

    def analytic_ft(self, k):
        w = self.width
        return self.V0 * (2.0 * np.pi * w**2) ** 1.5 * np.exp(-(k**2) * w**2 / 2.0)

    def range_estimate(self):
        return self.width


@dataclass(frozen=True)
class SoftCoulomb(CentralPotential):
    """V(r) = -Z / sqrt(r^2 + soft^2), long range."""

    Z: float
    soft: float

    def __post_init__(self):
        _check_positive(soft=self.soft)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return -self.Z / np.sqrt(r**2 + self.soft**2)

    def analytic_ft(self, k):
        # 3-D transform of 1/sqrt(r^2+a^2) is 4 pi a K1(a k) / k; the
        # long-range tail makes k = 0 divergent.
        if np.any(np.asarray(k) == 0):
            raise NumericalError(
                "SoftCoulomb has a 1/r tail: v(q) diverges at q = 0", estimate=np.inf
            )
        a = self.soft
        return -self.Z * 4.0 * np.pi * a * scipy.special.k1(a * k) / k

    def range_estimate(self):
        return 10.0 * self.soft


@dataclass(frozen=True)
class ScreenedCoulomb(CentralPotential):
    """V(r) = -Z * exp(-screen r) / r."""

    Z: float
    screen: float

    def __post_init__(self):
        _check_positive(screen=self.screen)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -self.Z * np.exp(-self.screen * r) / r

    def analytic_ft(self, k):
        return -4.0 * np.pi * self.Z / (self.screen**2 + k**2)

    def range_estimate(self):
        return 1.0 / self.screen


@dataclass(frozen=True)
class SquareWell(CentralPotential):
    """V(r) = V0 for r < radius, 0 outside."""

    V0: float
    radius: float

    def __post_init__(self):
        _check_positive(radius=self.radius)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.radius, self.V0, 0.0)

    def analytic_ft(self, k):
        R = self.radius
        k = np.asarray(k, dtype=float)
        kR = k * R
        # the series takes over where sin(kR) - kR cos(kR) cancels, and
        # gives the volume limit at k = 0
        volume = 4.0 * np.pi * self.V0 * R**3 / 3.0
        series = volume * np.polyval(_SQUARE_WELL_SERIES, kR * kR)
        with np.errstate(divide="ignore", invalid="ignore"):
            closed = 4.0 * np.pi * self.V0 * (np.sin(kR) - kR * np.cos(kR)) / k**3
        return np.where(kR < _SQUARE_WELL_SWITCH, series, closed)[()]

    def range_estimate(self):
        return self.radius


@dataclass(frozen=True)
class PairPotentials:
    """The three interactions of the two-center problem.

    V_A: electron with nucleus A, V_B: electron with nucleus B,
    V_AB: internuclear.
    """

    V_A: CentralPotential
    V_B: CentralPotential
    V_AB: CentralPotential


def evaluate(pot, r):
    """Pointwise V(r) for r >= 0 (scalar or array)."""
    if np.any(np.asarray(r) < 0):
        raise DomainError("radial coordinate must be non-negative")
    return pot.evaluate(r)


def _cutoff_radius(pot):
    """Smallest power-of-two radius R with |V(R)| R^2 < 1e-14, if one exists."""
    R = 10.0
    while R < 1e7:
        if abs(float(pot.evaluate(R))) * R**2 < 1e-14:
            return R
        R *= 2.0
    return None


def _r_times_v(pot, r):
    """r V(r), with the finite r -> 0 limit patched in for 1/r cores."""
    if r <= 0.0:
        return 1e-12 * float(pot.evaluate(1e-12))
    f = r * float(pot.evaluate(r))
    if not np.isfinite(f):
        return 1e-12 * float(pot.evaluate(1e-12))
    return f


def fourier_transform_quadrature(pot, q, rel_tol=1e-10, abs_tol=1e-14):
    """Radial oscillatory quadrature of v(q).

    Uses (4 pi / q) int_0^inf r V(r) sin(q r) dr for q > 0
    (scipy's oscillatory-weight integrator, with an infinite upper limit
    for long-range tails) and the q -> 0 limit 4 pi int r^2 V(r) dr.
    The returned value passed the error gate; when the integrator cannot
    certify the requested tolerance a NumericalError carries its
    estimate. For transforms that are exponentially small in q, certify
    through abs_tol: no oscillatory rule can bound them relatively.
    """
    if q < 0:
        raise DomainError("momentum transfer must be non-negative")
    if isinstance(pot, SquareWell):
        R_cut = pot.radius
    else:
        R_cut = _cutoff_radius(pot)
    if q == 0:
        if R_cut is None:
            raise NumericalError(
                "q = 0 radial moment diverges for long-range potentials",
                estimate=np.inf,
            )
        val, est = scipy.integrate.quad(
            lambda r: 4.0 * np.pi * r * _r_times_v(pot, r),
            0.0,
            R_cut,
            epsabs=abs_tol,
            epsrel=rel_tol,
            limit=200,
        )
        return _checked(val, est, rel_tol, abs_tol)
    if R_cut is not None and q * R_cut < 4.0 * np.pi:
        # Fewer than two sine cycles fit inside the support, where the
        # oscillatory rule degenerates. The integrand rewritten through
        # sinc is smooth and a plain adaptive rule estimates it well.
        val, est = scipy.integrate.quad(
            lambda r: 4.0 * np.pi * r * _r_times_v(pot, r) * np.sinc(q * r / np.pi),
            0.0,
            R_cut,
            epsabs=abs_tol,
            epsrel=rel_tol,
            limit=200,
        )
        return _checked(val, est, rel_tol, abs_tol)
    upper = R_cut if R_cut is not None else np.inf
    val, est = scipy.integrate.quad(
        lambda r: (4.0 * np.pi / q) * _r_times_v(pot, r),
        0.0,
        upper,
        epsabs=abs_tol,
        epsrel=rel_tol,
        weight="sin",
        wvar=q,
        limit=400,
    )
    return _checked(val, est, rel_tol, abs_tol)


def _checked(val, est, rel_tol, abs_tol):
    if not np.isfinite(val):
        raise NumericalError("quadrature produced a non-finite value", estimate=est)
    if abs(est) > max(rel_tol * abs(val), abs_tol):
        raise NumericalError(
            f"quadrature error estimate {est:.3e} above tolerance for value {val:.6e}",
            estimate=est,
        )
    return val


def _each_momentum(transform, pot, q, **options):
    """transform(pot, k, **options) at each momentum k of q, shaped like q."""
    values = [transform(pot, float(k), **options) for k in np.ravel(q)]
    return np.reshape(values, np.shape(q))[()]


def fourier_transform(pot, q):
    """v(q) at a momentum or an array of momenta: a closed form takes the
    whole array in one call, otherwise one quadrature runs per momentum."""
    if np.any(np.asarray(q) < 0):
        raise DomainError("momentum transfer must be non-negative")
    if hasattr(pot, "analytic_ft"):
        return pot.analytic_ft(q)
    return _each_momentum(fourier_transform_quadrature, pot, q)
