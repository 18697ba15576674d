"""Central potential families and their 3-D Fourier transforms.

Each family evaluates V(r) pointwise and knows its momentum-space form

    v(q) = int d^3r V(|r|) exp(i q.r),

in atomic units (hbar = 1, so the momentum transfer q is also the
wavenumber), real for central potentials. Closed forms are used where
they exist; a radial quadrature serves as fallback and as the
cross-check oracle for the analytic paths. On a finite support it is one
vectorised sinc integral for every momentum below an oscillatory switch,
and a sine-weighted rule per momentum above it or on a long-range tail.
"""

import dataclasses
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
# Momenta with q R_cut below this (64 sine cycles over the support) share one
# vectorised sinc integral; above it the sine-weighted rule takes one momentum
# at a time. On Born arrays of 64 and 128 momenta over 0..256 cycles, switches
# at 32-64 cycles cost least and 256 cycles up to 3x more, because the sinc
# integral's regions grow with the cycles (BENCH_born_quadrature.json).
_OSCILLATORY_SWITCH = 128.0 * np.pi
# Cap on the vectorised rule's subdivisions, on the scale of the weighted
# rule's limit, so an unreachable tolerance fails fast.
_MAX_SUBDIVISIONS = 300


class CentralPotential:
    """Base class; concrete families are frozen dataclasses below."""


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


@dataclass(frozen=True)
class PairPotentials:
    """The three interactions of the two-center problem.

    V_A: electron with nucleus A, V_B: electron with nucleus B,
    V_AB: internuclear.
    """

    V_A: CentralPotential
    V_B: CentralPotential
    V_AB: CentralPotential


def _cutoff_radius(pot):
    """Smallest radius R = 10 * 2^k below 1e7 where |V(R)| R^2 is at most
    1e-14 of its largest value on the radii 10 * 2^j, j = -14..k, if one
    exists. The threshold is relative, as the transform is linear in V:
    scaling V leaves R unchanged. A family is linear in its first field,
    so R is found at unit strength, where no tiny strength underflows
    V(R) to zero early."""
    if dataclasses.is_dataclass(pot):
        pot = dataclasses.replace(pot, **{dataclasses.fields(pot)[0].name: 1.0})
    r = 10.0 * 2.0 ** np.arange(-14, 20)
    g = np.abs(pot.evaluate(r)) * r**2
    cut = (g <= 1e-14 * np.maximum.accumulate(g)) & (r >= 10.0)
    return float(r[np.argmax(cut)]) if cut.any() else None


def _r_times_v(pot, r):
    """r V(r), with the finite r -> 0 limit patched in for 1/r cores."""
    if r <= 0.0:
        return 1e-12 * float(pot.evaluate(1e-12))
    f = r * float(pot.evaluate(r))
    if not np.isfinite(f):
        return 1e-12 * float(pot.evaluate(1e-12))
    return f


def _sinc_integral(pot, q, R_cut, rel_tol, abs_tol):
    """4 pi int_0^R_cut r^2 V(r) sinc(q r) dr at every momentum of the 1-D
    array q by one adaptive Gauss-Kronrod cubature, which certifies each
    momentum's error separately; sinc(0) = 1 gives the q = 0 moment."""

    def integrand(r):
        r = r[:, 0]
        return (4.0 * np.pi * r * r * pot.evaluate(r))[:, None] * np.sinc(
            np.outer(r, q) / np.pi
        )

    # Start from regions of at most two sine cycles of the highest
    # momentum: a region holding many cycles can alias to a small
    # Kronrod-Gauss difference and stop at once on a wrong value. Half of
    # each tolerance: err <= atol/2 + rtol/2 |v| implies the gate
    # err <= max(rel_tol |v|, abs_tol) that _checked applies.
    regions = max(1, int(np.ceil(q.max() * R_cut / (4.0 * np.pi))))
    res = scipy.integrate.cubature(
        integrand,
        [0.0],
        [R_cut],
        rtol=0.5 * rel_tol,
        atol=0.5 * abs_tol,
        max_subdivisions=_MAX_SUBDIVISIONS,
        points=[[R_cut * j / regions] for j in range(1, regions)],
    )
    if res.status != "converged":
        worst = float(np.max(res.error))
        raise NumericalError(
            f"quadrature stopped after {res.subdivisions} subdivisions with "
            f"error estimate {worst:.3e}",
            estimate=worst,
        )
    return [_checked(v, e, rel_tol, abs_tol) for v, e in zip(res.estimate, res.error)]


def _weighted_sine(pot, q, upper, rel_tol, abs_tol):
    """(4 pi / q) int_0^upper r V(r) sin(q r) dr for one momentum q > 0 by
    the sine-weighted rule (QAWO, or QAWF for an infinite upper limit)."""
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


def fourier_transform_quadrature(pot, q, rel_tol=1e-10, abs_tol=1e-14):
    """Radial quadrature of v(q) at a momentum or an array of momenta.

    On a finite support [0, R_cut], every momentum with q R_cut below
    _OSCILLATORY_SWITCH (q = 0 included) comes from one vectorised
    integral 4 pi int r^2 V(r) sinc(q r) dr, whose adaptive rule certifies
    each momentum separately. Momenta above the switch, and every momentum
    of a long-range potential (infinite upper limit), use
    (4 pi / q) int r V(r) sin(q r) dr by scipy's sine-weighted integrator,
    one momentum at a time; the q -> 0 moment of a long-range potential
    diverges and raises. Each returned value passed the error gate
    err <= max(rel_tol |v|, abs_tol); when the integrator cannot certify
    it a NumericalError carries the estimate. For transforms that are
    exponentially small in q, certify through abs_tol: no oscillatory rule
    can bound them relatively. A scalar q returns a float.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise DomainError("momentum transfer must be non-negative")
    if isinstance(pot, SquareWell):
        R_cut = pot.radius
    else:
        R_cut = _cutoff_radius(pot)
    flat = q.ravel()
    if R_cut is None:
        if np.any(flat == 0):
            raise NumericalError(
                "q = 0 radial moment diverges for long-range potentials",
                estimate=np.inf,
            )
        near = np.zeros(flat.shape, dtype=bool)
    else:
        near = flat * R_cut < _OSCILLATORY_SWITCH
    values = np.empty(flat.shape)
    if near.any():
        values[near] = _sinc_integral(pot, flat[near], R_cut, rel_tol, abs_tol)
    upper = np.inf if R_cut is None else R_cut
    for i in np.flatnonzero(~near):
        values[i] = _weighted_sine(pot, flat[i], upper, rel_tol, abs_tol)
    return values.reshape(q.shape)[()]


def _checked(val, est, rel_tol, abs_tol):
    if not np.isfinite(val):
        raise NumericalError("quadrature produced a non-finite value", estimate=est)
    if abs(est) > max(rel_tol * abs(val), abs_tol):
        raise NumericalError(
            f"quadrature error estimate {est:.3e} above tolerance for value {val:.6e}",
            estimate=est,
        )
    return val


def fourier_transform(pot, q):
    """v(q) at a momentum or an array of momenta: a closed form takes the
    whole array in one call, otherwise fourier_transform_quadrature does."""
    if np.any(np.asarray(q) < 0):
        raise DomainError("momentum transfer must be non-negative")
    if hasattr(pot, "analytic_ft"):
        return pot.analytic_ft(q)
    return fourier_transform_quadrature(pot, q)
