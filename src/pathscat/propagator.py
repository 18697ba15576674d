"""Time-sliced propagators on a 1-D lattice.

The broken-line path sum with time step eps becomes an ordered product
of one-slice transfer matrices. This module builds those slices and
pushes sampled wavefunctions through them. A radial grid starting one
spacing away from r = 0 gives the s-wave reduction u(r) = r psi(r) of
the 3-D problem with the wall at the origin.

Every mode-factor scheme (kinetic pade2, pade4 or exact, with endpoint
or symmetric sampling) makes a slice separable: diagonal potential and
absorber factors around a kinetic factor that is diagonal in the DST-I
sine basis. Such a slice is kept as its factors and applied by
split-step in O(n log n), two orthonormal DSTs per slice (Feit, Fleck &
Steiger, J. Comput. Phys. 47, 412, 1982). The dense n x n kernel is
formed only when its entries are read. Midpoint sampling and the
sampled chirp are not separable: their kinetic step is a dense matrix,
and their N-slice kernels are formed densely when built.

Conventions, fixed here and relied on everywhere else:

* Atomic units, hbar = 1: a slice of width eps carries the phase
  exp(-i eps V) and the free kernel reads (m / 2 pi i t)^(1/2)
  exp(i m (x_b - x_a)^2 / 2t).
* Matrix entries are kernel densities K(x_b, x_a), directly comparable
  with closed-form propagators. Every contraction carries one explicit
  dx, so an N-slice product is T (dx T)^(N-1) and evolving a field is
  (K @ psi) dx.
* Hard walls sit one spacing outside the end nodes. The sine modes of
  that box are orthonormal under the dx inner product, which makes the
  band-limited kernels below exactly unitary on the lattice.

The literal position-sampled chirp kernel (kinetic="sampled") is kept
for fidelity but is useless for N > 1 on any grid that underresolves
the chirp: modes beyond the resolvable band alias onto amplified ones
and the product diverges exponentially. The default replaces the mode
phases exp(-i eps k^2 / 2m) with a diagonal Pade factor of the same
accuracy order as the sliced action, keeping every mode on the unit
circle. kinetic="exact" gives the full phase, useful when the
time-step error should vanish and only potential sampling remain.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import AccuracyWarning, DomainError

__all__ = [
    "HardWall",
    "AbsorbingLayer",
    "TimeGrid",
    "LatticeSpec",
    "ComplexField1D",
    "PropagatorMatrix",
    "radial_lattice",
    "gaussian_packet",
    "packet_width",
    "boundary_leak_fraction",
    "free_propagator",
    "free_propagator_matrix",
    "short_time_kernel",
    "time_sliced_propagator",
    "evolve",
    "scattered_component",
]

KINETIC_FACTORS = ("pade2", "pade4", "exact", "sampled")
SAMPLING_MODES = ("endpoint", "midpoint", "symmetric")
# End nodes on each side that boundary_leak_fraction inspects.
EDGE_CELLS = 2


@dataclass(frozen=True)
class HardWall:
    """Reflecting box walls one spacing outside the end nodes."""


@dataclass(frozen=True)
class AbsorbingLayer:
    """Negative-imaginary quadratic ramp over `width` at each edge.

    The imaginary potential is -i * strength * ((width - d)/width)^2
    for distance d < width from the nearer edge node, applied as
    symmetric half-slice damping factors.
    """

    width: float
    strength: float

    def __post_init__(self):
        if not (self.width > 0 and self.strength > 0):
            raise DomainError("absorbing layer needs positive width and strength")


@dataclass(frozen=True)
class TimeGrid:
    """Interval [t_a, t_b] cut into N slices of width epsilon."""

    t_a: float
    t_b: float
    N: int

    def __post_init__(self):
        if not self.t_b > self.t_a:
            raise DomainError("time grid requires t_b > t_a")
        if self.N < 1 or self.N != int(self.N):
            raise DomainError("slice count must be a positive integer")

    @property
    def epsilon(self):
        return (self.t_b - self.t_a) / self.N

    @property
    def duration(self):
        return self.t_b - self.t_a


@dataclass(frozen=True)
class LatticeSpec:
    """Uniform spatial grid; nodes include both endpoints."""

    x_min: float
    x_max: float
    points: int
    boundary: object = field(default_factory=HardWall)

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise DomainError("lattice requires x_max > x_min")
        if self.points < 8:
            raise DomainError("lattice needs at least 8 points")
        if not isinstance(self.boundary, (HardWall, AbsorbingLayer)):
            raise DomainError("boundary must be HardWall or AbsorbingLayer")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.points - 1)

    @property
    def nodes(self):
        return np.linspace(self.x_min, self.x_max, self.points)


def radial_lattice(r_max, points, boundary=None):
    """Grid r_j = j dr, j = 1..points, wall exactly at r = 0.

    Propagating on this lattice evolves u(r) = r psi(r), the s-wave
    radial reduction of a free or central-potential 3-D problem.
    """
    dr = r_max / points
    return LatticeSpec(dr, r_max, points, boundary or HardWall())


@dataclass
class ComplexField1D:
    """Complex amplitude sampled on a lattice; treated as immutable."""

    lattice: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.lattice.points,):
            raise DomainError("field length must match lattice point count")
        if not (
            np.all(np.isfinite(self.values.real))
            and np.all(np.isfinite(self.values.imag))
        ):
            raise DomainError("field values must be finite")

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.lattice.dx))


class PropagatorMatrix:
    """Kernel densities K(x_i, t_b; x_j, t_a), rows = arrival point.

    Holds either dense `entries` or `step`, the factors (pre, (f,), post)
    of one separable slice that the kernel repeats grid.N times. A kernel
    held as `step` applies itself by split-step and forms `entries`, by
    dense matrix powers, on first read.
    """

    def __init__(self, lattice, grid, entries=None, step=None):
        if (entries is None) == (step is None):
            raise DomainError("propagator needs exactly one of entries and step")
        self.lattice = lattice
        self.grid = grid
        self.step = step
        self._entries = entries
        n = lattice.points
        if entries is not None and entries.shape != (n, n):
            raise DomainError("propagator matrix must be square over the lattice")

    @property
    def entries(self):
        """Dense kernel densities, formed on first read if held as `step`."""
        if self._entries is None:
            self._entries = _power(
                _dense(self.step, self.lattice), self.grid.N, self.lattice.dx
            )
        return self._entries

    def apply(self, values):
        """sum_j K_ij values_j dx for values sampled on the lattice."""
        if self.step is None:
            return (self.entries @ values) * self.lattice.dx
        return _propagate(values, (self.step,) * self.grid.N)

    def symmetry_defect(self):
        """Max |K - K^T| over max |K|; zero for symmetric sampling."""
        scale = np.max(np.abs(self.entries))
        if scale == 0:
            return 0.0
        return float(np.max(np.abs(self.entries - self.entries.T)) / scale)


def gaussian_packet(lattice, x0, p0, sigma0):
    """Normalized minimum-uncertainty packet, |psi|^2 stddev sigma0."""
    if sigma0 <= 0:
        raise DomainError("packet width must be positive")
    x = lattice.nodes
    psi = (2.0 * np.pi * sigma0**2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma0**2) + 1j * p0 * x
    )
    return ComplexField1D(lattice, psi)


def packet_width(psi):
    """Position standard deviation of |psi|^2 on its lattice."""
    x = psi.lattice.nodes
    w = np.abs(psi.values) ** 2
    total = np.sum(w)
    if total == 0:
        raise DomainError("cannot take the width of a zero field")
    mean = np.sum(x * w) / total
    var = np.sum((x - mean) ** 2 * w) / total
    return float(np.sqrt(var))


def boundary_leak_fraction(psi):
    """Largest amplitude on the EDGE_CELLS end nodes relative to the peak."""
    v = np.abs(psi.values)
    peak = v.max()
    if peak == 0:
        return 0.0
    edge = max(v[:EDGE_CELLS].max(), v[-EDGE_CELLS:].max())
    return float(edge / peak)


def free_propagator(x_b, t_b, x_a, t_a, mass, dim=1):
    """Closed-form free kernel in 1 or 3 dimensions.

    (m / 2 pi i dt)^(d/2) exp(i m |x_b - x_a|^2 / (2 dt)),
    square-root branch fixed so the prefactor phase is exp(-i pi d/4).
    For dim=3 the endpoints may be 3-vectors (last axis of length 3)
    or plain radial separations.
    """
    dt = t_b - t_a
    if dt <= 0:
        raise DomainError("free propagator requires t_b > t_a")
    if dim not in (1, 3):
        raise DomainError("dim must be 1 or 3")
    diff = np.asarray(x_b, dtype=float) - np.asarray(x_a, dtype=float)
    if dim == 3 and diff.ndim >= 1 and diff.shape[-1] == 3:
        dist2 = np.sum(diff * diff, axis=-1)
    else:
        dist2 = diff * diff
    pref = (mass / (2.0 * np.pi * dt)) ** (dim / 2.0) * np.exp(
        -1j * np.pi * dim / 4.0
    )
    out = pref * np.exp(1j * mass * dist2 / (2.0 * dt))
    return out if np.ndim(out) else complex(out)


def free_propagator_matrix(lattice, grid, mass):
    """Closed-form kernel sampled on the lattice, for comparisons."""
    x = lattice.nodes
    entries = free_propagator(x[:, None], grid.t_b, x[None, :], grid.t_a, mass, dim=1)
    return PropagatorMatrix(lattice, grid, entries)


def _wavenumbers(lattice):
    """Hard-wall box modes k_j = pi j / box, walls one spacing outside."""
    box = (lattice.x_max - lattice.x_min) + 2.0 * lattice.dx
    return np.pi * np.arange(1, lattice.points + 1) / box


def _sine_modes(lattice):
    """DST-I basis S of the hard-wall box; S is its own inverse up to dx.

    S_jm = sqrt(2/box) sin(pi j m / (n + 1)), the phase reduced mod 2 pi
    in integers, so S is the orthonormal DST-I matrix over sqrt(dx) to
    rounding and dense kernels agree with split-step ones.
    """
    n = lattice.points
    box = (lattice.x_max - lattice.x_min) + 2.0 * lattice.dx
    j = np.arange(1, n + 1)
    phase = np.outer(j, j) % (2 * (n + 1))
    return np.sqrt(2.0 / box) * np.sin(np.pi * phase / (n + 1))


def _kinetic_factor(k, epsilon, mass, kinetic):
    lam = k**2 / (2.0 * mass)
    if kinetic == "exact":
        return np.exp(-1j * epsilon * lam)
    if kinetic == "pade2":
        z = 0.5 * epsilon * lam
        return (1.0 - 1j * z) / (1.0 + 1j * z)
    if kinetic == "pade4":
        z = epsilon * lam
        num = 1.0 - 0.5j * z - z**2 / 12.0
        return num / np.conj(num)
    raise DomainError(f"unknown kinetic factor {kinetic!r}; options: {KINETIC_FACTORS}")


def _mode_kernel(lattice, f):
    """Dense kernel density S^T diag(f) S of a per-mode factor f."""
    S = _sine_modes(lattice)
    return (S.T * f) @ S


def _kinetic_kernel(lattice, epsilon, mass, kinetic):
    if kinetic == "sampled":
        x = lattice.nodes
        sep = x[:, None] - x[None, :]
        pref = np.sqrt(mass / (2.0 * np.pi * epsilon)) * np.exp(-0.25j * np.pi)
        return pref * np.exp(1j * mass * sep**2 / (2.0 * epsilon))
    k = _wavenumbers(lattice)
    return _mode_kernel(lattice, _kinetic_factor(k, epsilon, mass, kinetic))


def potential_on_axis(pot, x):
    """Sample a potential on signed coordinates.

    Central families are evaluated at |x|; a bare callable is trusted
    with the signed coordinate; None means free. A sample that is not
    finite, such as a 1/r family at r = 0, raises a DomainError.
    """
    x = np.asarray(x, dtype=float)
    if pot is None:
        return np.zeros_like(x)
    if hasattr(pot, "evaluate"):
        values = pot.evaluate(np.abs(x))
    elif callable(pot):
        values = pot(x)
    else:
        raise DomainError("potential must be a central family, a callable, or None")
    # A constant callable may return a scalar; spread it over the nodes.
    values = np.broadcast_to(np.asarray(values, dtype=float), x.shape).copy()
    bad = ~np.isfinite(values)
    if bad.any():
        at = float(x[bad][0])
        name = repr(pot) if hasattr(pot, "evaluate") else "potential"
        raise DomainError(f"{name} is not finite at coordinate {at!r}")
    return values


def _absorber_profile(lattice, epsilon):
    """Half-slice edge damping factors; all ones for hard walls."""
    b = lattice.boundary
    if isinstance(b, HardWall):
        return np.ones(lattice.points)
    x = lattice.nodes
    d = np.minimum(x - lattice.x_min, lattice.x_max - x)
    W = np.where(d < b.width, b.strength * ((b.width - d) / b.width) ** 2, 0.0)
    return np.exp(-0.5 * epsilon * W)


def _node_factors(V, damp, epsilon, sampling):
    """Diagonal slice factors (pre, post) from node potentials and damping."""
    if sampling == "endpoint":
        return damp, damp * np.exp(-1j * epsilon * V)
    if sampling == "symmetric":
        half = damp * np.exp(-0.5j * epsilon * V)
        return half, half
    raise DomainError(f"unknown sampling mode {sampling!r}; options: {SAMPLING_MODES}")


def _slice(pot, lattice, epsilon, mass, kinetic, sampling):
    """One slice T = diag(post) G diag(pre) as factors (pre, (op,), post).

    pre and post are the potential phase and absorber damping on the
    nodes. For a separable scheme op is the kinetic factor per sine mode
    f, so that G = S^T diag(f) S. Otherwise op is the dense matrix dx G:
    the sampled chirp, or for midpoint sampling the kinetic kernel times
    the phase of the potential at each pair's midpoint.
    """
    if epsilon <= 0:
        raise DomainError("slice width must be positive")
    x = lattice.nodes
    damp = _absorber_profile(lattice, epsilon)
    if sampling == "midpoint":
        Vm = potential_on_axis(pot, 0.5 * (x[:, None] + x[None, :]))
        G = _kinetic_kernel(lattice, epsilon, mass, kinetic)
        return damp, (lattice.dx * G * np.exp(-1j * epsilon * Vm),), damp
    pre, post = _node_factors(potential_on_axis(pot, x), damp, epsilon, sampling)
    if kinetic == "sampled":
        op = lattice.dx * _kinetic_kernel(lattice, epsilon, mass, kinetic)
    else:
        op = _kinetic_factor(_wavenumbers(lattice), epsilon, mass, kinetic)
    return pre, (op,), post


def _dense(step, lattice):
    """Kernel density T of a one-slice step."""
    pre, (op,), post = step
    G = _mode_kernel(lattice, op) if op.ndim == 1 else op / lattice.dx
    return post[:, None] * G * pre[None, :]


def _power(T, N, dx):
    """Dense N-slice kernel T (dx T)^(N-1) of one repeated slice."""
    return T if N == 1 else T @ np.linalg.matrix_power(dx * T, N - 1)


def _dst(values, axis):
    return scipy.fft.dst(values, type=1, axis=axis, norm="ortho")


def _propagate(values, slices):
    """Push values through the ordered slices, the first slice first.

    A slice (pre, ops, post) maps v to post * A (pre * v), where A
    applies one kinetic operator along each axis of v in turn: a
    per-mode factor f by split-step, DST(f * DST(v)) with the
    orthonormal DST-I, or a dense matrix by a matrix product.
    """
    for pre, ops, post in slices:
        values = pre * values
        for axis, op in enumerate(ops):
            if op.ndim == 1:
                f = np.expand_dims(op, tuple(range(1, values.ndim - axis)))
                values = _dst(f * _dst(values, axis), axis)
            else:
                values = np.moveaxis(np.tensordot(op, values, (1, axis)), 0, axis)
        values = post * values
    return values


def short_time_kernel(
    pot, lattice, epsilon, mass, kinetic="pade2", sampling="endpoint"
):
    """One-slice transfer kernel for time step epsilon."""
    return time_sliced_propagator(
        pot, lattice, TimeGrid(0.0, epsilon, 1), mass, kinetic, sampling
    )


def time_sliced_propagator(
    pot, lattice, grid, mass, kinetic="pade2", sampling="endpoint"
):
    """N-fold ordered product of one-slice kernels over grid.

    Separable schemes keep the slice factors and build the dense product
    only when `entries` is read; midpoint sampling and the sampled chirp
    build it here.
    """
    step = _slice(pot, lattice, grid.epsilon, mass, kinetic, sampling)
    _, (op,), _ = step
    if op.ndim == 2:
        T = _dense(step, lattice)
        return PropagatorMatrix(lattice, grid, _power(T, grid.N, lattice.dx))
    return PropagatorMatrix(lattice, grid, step=step)


def evolve(psi_a, K, leak_tolerance=1e-3):
    """psi_b(x_i) = sum_j K_ij psi_a(x_j) dx."""
    if psi_a.lattice != K.lattice:
        raise DomainError("field and propagator live on different lattices")
    out = ComplexField1D(K.lattice, K.apply(psi_a.values))
    _warn_on_leak(out, leak_tolerance)
    return out


def _warn_on_leak(psi, leak_tolerance):
    if leak_tolerance is None:
        return
    frac = boundary_leak_fraction(psi)
    if frac > leak_tolerance:
        warnings.warn(
            f"evolved amplitude at lattice edge is {frac:.2e} of the peak; "
            "widen the lattice or add an absorbing layer",
            AccuracyWarning,
            stacklevel=3,
        )


def free_deviation_diagnostic(K, mass):
    """Deviation of a field-free lattice kernel from the closed form.

    The two kernels are compared through their action on a small battery
    of Gaussian packets rather than entry by entry: the closed-form
    kernel is an unbounded chirp whose off-diagonal oscillation outruns
    any finite lattice, so pointwise comparison only measures band
    limiting. Reported is the worst interior L-infinity deviation of the
    propagated packets, normalized per packet by its peak amplitude.
    """
    lat = K.lattice
    x = lat.nodes
    span = lat.x_max - lat.x_min
    mid = 0.5 * (lat.x_max + lat.x_min)
    sigma = span / 16.0
    battery = [
        (mid, 0.0, sigma),
        (mid - span / 8.0, 2.0 / sigma, sigma),
        (mid + span / 8.0, -1.5 / sigma, 0.75 * sigma),
    ]
    exact = free_propagator(x[:, None], K.grid.t_b, x[None, :], K.grid.t_a, mass)
    keep = np.abs(x - mid) <= 0.25 * span
    worst = 0.0
    for x0, p0, sigma0 in battery:
        psi = gaussian_packet(lat, x0, p0, sigma0).values
        got = K.apply(psi)
        want = (exact @ psi) * lat.dx
        dev = np.max(np.abs(got - want)[keep]) / np.max(np.abs(want))
        worst = max(worst, float(dev))
    return worst


def scattered_component(
    psi_a,
    pot,
    lattice,
    grid,
    mass,
    kinetic="pade2",
    sampling="endpoint",
    leak_tolerance=1e-3,
):
    """(K - K0) applied to psi_a, with K0 the same scheme at V = 0.

    Using the identical discretization for both terms makes the result
    exactly zero for V = 0 and isolates the potential's effect from
    time-step error.
    """
    K = time_sliced_propagator(
        pot, lattice, grid, mass, kinetic=kinetic, sampling=sampling
    )
    K0 = time_sliced_propagator(
        None, lattice, grid, mass, kinetic=kinetic, sampling=sampling
    )
    full = evolve(psi_a, K, leak_tolerance=leak_tolerance)
    free = evolve(psi_a, K0, leak_tolerance=None)
    return ComplexField1D(lattice, full.values - free.values)
