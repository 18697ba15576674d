"""Central potential families and their 3-D Fourier transforms.

Each family is a frozen dataclass whose first field is its strength. It
evaluates V(r) pointwise and knows its momentum-space form

    v(q) = int d^3r V(|r|) exp(i q.r),

in atomic units (hbar = 1, so the momentum transfer q is also the
wavenumber), real for central potentials. Closed forms are used where
they exist; a radial quadrature serves as fallback and as the
cross-check oracle for the analytic paths. On a finite support every
momentum below an oscillatory switch shares one sinc integral, by an
adaptive Gauss-Kronrod sweep (QUADPACK's 21-point rule) that refines all
open regions of a level in one batch; above the switch, or on a
long-range tail, a sine-weighted rule takes one momentum at a time.

A screened Coulomb attraction -Z exp(-s r) / r is Yukawa(-Z, s).

scipy is imported where it is used, not with this module: scipy.special
in SoftCoulomb's closed form (K1), scipy.integrate in the sine-weighted
rule. The sinc sweep and the other closed forms need numpy alone.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import _check_finite, _check_float_range, _check_nonnegative, _check_positive
from .errors import NumericalError

__all__ = [
    "Yukawa",
    "Gaussian",
    "SoftCoulomb",
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
# sinc sweep; above it the sine-weighted rule takes one momentum at a time.
# On the sweep a lone momentum costs 0.2-0.3 ms from 4 to 256 cycles, and the
# sine-weighted rule 0.8-1.1 ms. On the 192 momenta of the bench's Yukawa,
# Gaussian and square-well Born totals, switches at 32-256 cycles cost the
# same at p = 1, 64-256 cycles at p = 3, and at p = 10 a switch at 128-256
# cycles costs 10x less than one at 64 (BENCH_born_sweep.json).
_OSCILLATORY_SWITCH = 128.0 * np.pi
# Cap on the sinc sweep's bisections, on the scale of the weighted rule's
# limit, so an unreachable tolerance fails fast.
_MAX_SUBDIVISIONS = 300
# QUADPACK's dqk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod abscissae on [-1, 1], largest first down to 0, and their weights.
# Every second abscissa from the largest is a node of the embedded 10-point
# Gauss rule, whose weights come from leggauss(10).
_KRONROD_21_ABSCISSAE = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_21_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# The 21 nodes in ascending order, and two weight rows on them: Kronrod,
# and Kronrod minus Gauss, whose sum is K21 - G10.
_GK21_NODES = np.concatenate(
    (-np.array(_KRONROD_21_ABSCISSAE[:-1]), _KRONROD_21_ABSCISSAE[::-1])
)
_GK21_WEIGHTS = np.tile(_KRONROD_21_WEIGHTS[:-1] + _KRONROD_21_WEIGHTS[::-1], (2, 1))
_GK21_WEIGHTS[1, 1::2] -= np.polynomial.legendre.leggauss(10)[1]
# Entries of one region x node x momentum sinc block, 64 kB of float64. On
# Born totals by quadrature blocks of 2^13 to 2^14 entries ran fastest, and
# 2^16 up to 40% slower.
_SINC_BLOCK = 1 << 13


@dataclass(frozen=True)
class Yukawa:
    """V(r) = V0 * exp(-alpha r) / r."""

    V0: float
    alpha: float

    def __post_init__(self):
        _check_finite("Yukawa", V0=self.V0)
        _check_positive("alpha", self.alpha)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.V0 * np.exp(-self.alpha * r) / r

    def analytic_ft(self, k):
        return 4.0 * np.pi * self.V0 / (self.alpha**2 + k**2)


@dataclass(frozen=True)
class Gaussian:
    """V(r) = V0 * exp(-r^2 / (2 width^2))."""

    V0: float
    width: float

    def __post_init__(self):
        _check_finite("Gaussian", V0=self.V0)
        _check_positive("width", self.width)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return self.V0 * np.exp(-(r**2) / (2.0 * self.width**2))

    def analytic_ft(self, k):
        w = self.width
        return self.V0 * (2.0 * np.pi * w**2) ** 1.5 * np.exp(-(k**2) * w**2 / 2.0)


@dataclass(frozen=True)
class SoftCoulomb:
    """V(r) = -Z / sqrt(r^2 + soft^2), long range."""

    Z: float
    soft: float

    def __post_init__(self):
        _check_finite("SoftCoulomb", Z=self.Z)
        _check_positive("soft", self.soft)

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
        import scipy.special

        a = self.soft
        return -self.Z * 4.0 * np.pi * a * scipy.special.k1(a * k) / k


@dataclass(frozen=True)
class SquareWell:
    """V(r) = V0 for r < radius, 0 outside."""

    V0: float
    radius: float

    def __post_init__(self):
        _check_finite("SquareWell", V0=self.V0)
        _check_positive("radius", self.radius)

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
    V_AB: internuclear. Each is a family above, a callable of the signed
    coordinate, or None for no interaction.
    """

    V_A: object
    V_B: object
    V_AB: object


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


def _gk21(pot, q, lo, hi):
    """Kronrod-21 estimates of 4 pi int r^2 V(r) sinc(q r) dr over the
    regions [lo, hi] and their |K21 - G10| errors, as one array of shape
    (regions, 2, momenta): one evaluate call on every region's radii, and
    the sinc block against all momenta in chunks of at most _SINC_BLOCK
    entries (or one region)."""
    half = 0.5 * (hi - lo)
    r = (_GK21_NODES + 1.0) * half[:, None] + lo[:, None]
    g = 4.0 * np.pi * r * r * pot.evaluate(r.ravel()).reshape(r.shape)
    weighted = _GK21_WEIGHTS * (half[:, None] * g)[:, None, :]
    out = np.empty((lo.size, 2, q.size))
    step = max(1, _SINC_BLOCK // (r.shape[1] * q.size))
    for s in range(0, lo.size, step):
        block = np.sinc(r[s : s + step, :, None] * q / np.pi)
        out[s : s + step] = weighted[s : s + step] @ block
    np.abs(out[:, 1], out=out[:, 1])
    return out


def _gk21_sweep(pot, q, R_cut, rel_tol, abs_tol):
    """Value and error of 4 pi int_0^R_cut r^2 V(r) sinc(q r) dr at every
    momentum of the 1-D array q, by adaptive Gauss-Kronrod (21 points)
    refined level by level: each level bisects together every region
    holding at least its mean share of a still-failing momentum's error,
    and evaluates all the new halves in one _gk21 call. sinc(0) = 1 gives
    the q = 0 moment."""
    # Start from regions of at most two sine cycles of the highest
    # momentum: a region holding many cycles can alias to a small
    # Kronrod-Gauss difference and stop at once on a wrong value. Half of
    # each tolerance: err <= atol/2 + rtol/2 |v| implies the gate
    # err <= max(rel_tol |v|, abs_tol) that _checked applies.
    regions = max(1, int(np.ceil(q.max() * R_cut / (4.0 * np.pi))))
    edges = R_cut * np.arange(regions + 1) / regions
    lo, hi = edges[:-1], edges[1:]
    parts = _gk21(pot, q, lo, hi)
    subdivisions = 0
    while True:
        value, error = parts.sum(axis=0)
        failing = error > 0.5 * abs_tol + 0.5 * rel_tol * np.abs(value)
        if not failing.any():
            return value, error
        split = (lo.size * parts[:, 1, failing] >= error[failing]).any(axis=1)
        n = np.count_nonzero(split)
        if subdivisions + n > _MAX_SUBDIVISIONS:
            worst = float(np.max(error))
            raise NumericalError(
                f"quadrature stopped after {subdivisions} subdivisions with "
                f"error estimate {worst:.3e}",
                estimate=worst,
            )
        subdivisions += n
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate((lo[~split], lo[split], mid))
        hi = np.concatenate((hi[~split], mid, hi[split]))
        parts = np.concatenate((parts[~split], _gk21(pot, q, lo[-2 * n :], hi[-2 * n :])))


def _sinc_integral(pot, q, R_cut, rel_tol, abs_tol):
    """4 pi int_0^R_cut r^2 V(r) sinc(q r) dr at every momentum of the 1-D
    array q by _gk21_sweep, which certifies each momentum's error
    separately."""
    value, error = _gk21_sweep(pot, q, R_cut, rel_tol, abs_tol)
    # _checked's gate on every momentum at once; the first that fails
    # raises through _checked, with its message
    bound = np.maximum(rel_tol * np.abs(value), abs_tol)
    failed = ~np.isfinite(value) | (np.abs(error) > bound)
    if failed.any():
        i = np.argmax(failed)
        _checked(value[i], error[i], rel_tol, abs_tol)
    return value


def _weighted_sine(pot, q, upper, rel_tol, abs_tol):
    """(4 pi / q) int_0^upper r V(r) sin(q r) dr for one momentum q > 0 by
    the sine-weighted rule (QAWO, or QAWF for an infinite upper limit)."""
    import scipy.integrate

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
    _OSCILLATORY_SWITCH (q = 0 included) comes from one batched integral
    4 pi int r^2 V(r) sinc(q r) dr, whose adaptive Gauss-Kronrod sweep
    certifies each momentum separately. Momenta above the switch, and
    every momentum of a long-range potential (infinite upper limit), use
    (4 pi / q) int r V(r) sin(q r) dr by scipy's sine-weighted integrator,
    one momentum at a time; the q -> 0 moment of a long-range potential
    diverges and raises. Each returned value passed the error gate
    err <= max(rel_tol |v|, abs_tol); when the integrator cannot certify
    it a NumericalError carries the estimate. For transforms that are
    exponentially small in q, certify through abs_tol: no oscillatory rule
    can bound them relatively. A scalar q returns a float.
    """
    _check_nonnegative("momentum transfer", q)
    _check_float_range("momentum transfer", q)
    q = np.asarray(q, dtype=float)
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
    _check_nonnegative("momentum transfer", q)
    _check_float_range("momentum transfer", q)
    if hasattr(pot, "analytic_ft"):
        return pot.analytic_ft(q)
    return fourier_transform_quadrature(pot, q)
