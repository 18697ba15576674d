"""Time-sliced propagators on a 1-D lattice.

The broken-line path sum with time step eps becomes an ordered product
of one-slice transfer matrices. This module builds those slices and
pushes sampled wavefunctions through them.

Every mode-factor scheme (kinetic pade2 or exact, with endpoint or
symmetric sampling) makes a slice separable: diagonal potential and
absorber factors around a kinetic factor that is diagonal in the DST-I
sine basis. Such a slice is kept as its factors and applied by
split-step in O(n log n) (Feit, Fleck & Steiger, J. Comput. Phys. 47,
412, 1982): the kinetic step S diag(f) S, S the orthonormal DST-I, is a
Toeplitz minus a Hankel product, taken as one FFT pair of a fast length
M >= 2n - 1 whatever n is. A DST-I runs on an FFT of length 2(n + 1),
which is several times slower when n + 1 has a large prime factor
(769 for n = 768). The dense n x n kernel is formed only when its
entries are read. When the slice's node factors multiply to a constant
(no potential, or a constant one, on hard walls) it is S diag(f^N) S
with the mode factors to the N-th power, gathered in O(n^2) as the same
Toeplitz minus Hankel matrix from the filter of f^N; else it is a
matrix power in floor(log2 N) + popcount(N) - 1 products. `_slices`
builds the contraction of every separable route, this module's, the
influence functionals' and the product lattice's, from the lattices,
masses, kinetic factor, sampling and potential terms. It samples each
term once on the slice ends its sampling reads, reports a sample that
is not finite at its slice and lattice node, and forms each axis's
damping and mode factor itself. The contraction is one triple (ops,
pre, post): each axis's mode factor once, and the node factors before
and after the kinetic part, one row per slice. `_kinetic_part` turns
the mode factors into the slices' kinetic part, one function of the
field, once per push, and `_propagate` applies the slices in order.

Midpoint sampling lives only in time_sliced_propagator. It is not
separable: its slice is a dense matrix, and its N-slice kernel is formed
eagerly by the same matrix power. It is first order and not unitary.

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

The literal position-sampled chirp is not offered as a kinetic step: on
any grid that underresolves the chirp, modes beyond the resolvable band
alias onto amplified ones and the N-slice product diverges
exponentially. Its single step is free_propagator_matrix over one
slice. The default, kinetic="pade2", replaces the mode phases
exp(-i eps k^2 / 2m) with their Cayley form, a diagonal Pade factor of
the same accuracy order as the sliced action that keeps every mode on
the unit circle. kinetic="exact" gives the full phase at the same cost,
so the kinetic step carries no time-step error and only potential
sampling remains.

scipy is imported where it is used, not with this module: scipy.fft at
the first kinetic filter (`_filter`), which the kinetic plan and the
gathered dense kernel sum. Matrix powers need numpy alone.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import _finite, AccuracyWarning, DomainError
from .errors import _check_choice, _check_count, _check_finite, _check_float_range
from .errors import _check_positive

__all__ = [
    "HardWall",
    "AbsorbingLayer",
    "TimeGrid",
    "LatticeSpec",
    "ComplexField1D",
    "PropagatorMatrix",
    "gaussian_packet",
    "packet_width",
    "boundary_leak_fraction",
    "free_propagator",
    "free_deviation_diagnostic",
    "free_propagator_matrix",
    "time_sliced_propagator",
    "evolve",
    "scattered_component",
]

KINETIC_FACTORS = ("pade2", "exact")
SAMPLING_MODES = ("endpoint", "midpoint", "symmetric")
# The samplings whose slices are separable, and the only ones influence
# functionals and the product lattice take.
SEPARABLE_SAMPLING_MODES = ("endpoint", "symmetric")
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
        _check_finite("absorbing layer", width=self.width, strength=self.strength)
        if not (self.width > 0 and self.strength > 0):
            raise DomainError("absorbing layer needs positive width and strength")


@dataclass(frozen=True)
class TimeGrid:
    """Interval [t_a, t_b] cut into N slices of width epsilon."""

    t_a: float
    t_b: float
    N: int

    def __post_init__(self):
        if not (_finite(self.t_a) and _finite(self.t_b)):
            raise DomainError("time grid bounds must be finite")
        if not self.t_b > self.t_a:
            raise DomainError("time grid requires t_b > t_a")
        _check_count(self.N, 1, "slice count")

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
        if not (_finite(self.x_min) and _finite(self.x_max)):
            raise DomainError("lattice bounds must be finite")
        if not self.x_max > self.x_min:
            raise DomainError("lattice requires x_max > x_min")
        _check_count(self.points, 8, "lattice point count")
        if not isinstance(self.boundary, (HardWall, AbsorbingLayer)):
            raise DomainError("boundary must be HardWall or AbsorbingLayer")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.points - 1)

    @property
    def nodes(self):
        return np.linspace(self.x_min, self.x_max, self.points)


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

    Holds either dense `entries` or `step`, the contraction ((f,), pre,
    post) of its grid.N slices as `_slices` gives it: the kinetic factor
    f and the node factors on either side of it, one row per slice, all
    rows alike. A kernel held as `step` applies itself by split-step and
    forms `entries` on first read from the first rows: when pre * post
    is constant, by gathering S diag(f^N) S as a Toeplitz minus a Hankel
    matrix of f^N's filter in O(n^2), else by a dense matrix power of
    the slice.
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
            f, pre, post = (part[0] for part in self.step)
            lat, N, d = self.lattice, self.grid.N, pre * post
            if np.all(d == d[0]):
                # T (dx T)^(N-1) = d^(N-1) diag(post) S^T diag(f^N) S diag(pre),
                # S^T diag(f^N) S = (h(|i - j|) - h(i + j + 2)) / dx over
                # 0-based nodes, h the filter of f^N
                n, h = lat.points, _filter(f**N)
                G = _toeplitz(h[:n])
                G -= np.lib.stride_tricks.sliding_window_view(h[2 : 2 * n + 1], n)
                G /= lat.dx
                self._entries = (d[0] ** (N - 1) * post)[:, None] * G * pre[None, :]
            else:
                T = post[:, None] * _mode_kernel(lat, f) * pre[None, :]
                self._entries = _power(T, N, lat.dx)
        return self._entries

    def apply(self, values):
        """sum_j K_ij values_j dx for values sampled on the lattice."""
        if self.step is None:
            return (self.entries @ values) * self.lattice.dx
        ops, pre, post = self.step
        return _propagate(values, _kinetic_part((self.lattice,), ops), pre, post)

    def symmetry_defect(self):
        """Max |K - K^T| over max |K|; round-off for symmetric sampling."""
        scale = np.max(np.abs(self.entries))
        if scale == 0:
            return 0.0
        return float(np.max(np.abs(self.entries - self.entries.T)) / scale)


def gaussian_packet(lattice, x0, p0, sigma0):
    """Normalized minimum-uncertainty packet, |psi|^2 stddev sigma0."""
    _check_finite("packet", x0=x0, p0=p0, sigma0=sigma0)
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


def free_propagator(x_b, t_b, x_a, t_a, mass):
    """Closed-form free kernel in one dimension.

    (m / 2 pi i dt)^(1/2) exp(i m (x_b - x_a)^2 / (2 dt)),
    square-root branch fixed so the prefactor phase is exp(-i pi/4).
    """
    for name, value in (("x_b", x_b), ("t_b", t_b), ("x_a", x_a), ("t_a", t_a)):
        _check_float_range(f"free propagator {name}", value)
    dt = t_b - t_a
    if not dt > 0:
        raise DomainError("free propagator requires t_b > t_a")
    _check_positive("mass", mass)
    diff = np.asarray(x_b, dtype=float) - np.asarray(x_a, dtype=float)
    pref = (mass / (2.0 * np.pi * dt)) ** 0.5 * np.exp(-1j * np.pi / 4.0)
    out = pref * np.exp(1j * mass * (diff * diff) / (2.0 * dt))
    return out if np.ndim(out) else complex(out)


def free_propagator_matrix(lattice, grid, mass):
    """Closed-form kernel sampled on the lattice, for comparisons."""
    x = lattice.nodes
    entries = free_propagator(x[:, None], grid.t_b, x[None, :], grid.t_a, mass)
    return PropagatorMatrix(lattice, grid, entries)


def _sine_modes(lattice):
    """DST-I basis S of the hard-wall box; S is its own inverse up to dx.

    S_jm = sqrt(2/box) sin(pi j m / (n + 1)), the phase reduced mod 2 pi
    in integers, so S is the orthonormal DST-I matrix over sqrt(dx) to
    rounding and dense kernels agree with split-step ones. The reduced
    phase takes 2(n + 1) values, so S gathers from a table of them.
    """
    n = lattice.points
    box = (lattice.x_max - lattice.x_min) + 2.0 * lattice.dx
    j = np.arange(1, n + 1)
    phase = np.outer(j, j) % (2 * (n + 1))
    table = np.sqrt(2.0 / box) * np.sin(np.pi * np.arange(2 * (n + 1)) / (n + 1))
    return table[phase]


def _kinetic_factor(lattice, epsilon, mass, kinetic):
    """One slice's kinetic factor on each hard-wall box mode k_j = pi j /
    box, walls one spacing outside."""
    _check_positive("mass", mass)
    _check_choice("kinetic factor", kinetic, KINETIC_FACTORS)
    box = (lattice.x_max - lattice.x_min) + 2.0 * lattice.dx
    k = np.pi * np.arange(1, lattice.points + 1) / box
    lam = k**2 / (2.0 * mass)
    if kinetic == "exact":
        return np.exp(-1j * epsilon * lam)
    z = 0.5 * epsilon * lam
    return (1.0 - 1j * z) / (1.0 + 1j * z)


def _mode_kernel(lattice, f):
    """Dense kernel density S^T diag(f) S of a per-mode factor f, as
    two real products."""
    S = _sine_modes(lattice)
    K = np.empty(S.shape, dtype=complex)
    K.real = (S.T * f.real) @ S
    K.imag = (S.T * f.imag) @ S
    return K


def potential_on_axis(pot, x):
    """Sample a potential on signed coordinates.

    Central families are evaluated at |x|; a bare callable is trusted
    with the signed coordinate; None means free. A sample that is not
    finite, such as a 1/r family at r = 0, raises a DomainError naming
    the first such coordinate; its `node` attribute is that sample's
    index into x.
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
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        name = repr(pot) if hasattr(pot, "evaluate") else "potential"
        err = DomainError(f"{name} is not finite at coordinate {float(x[node])!r}")
        err.node = node
        raise err
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


def _slices(lattices, grid, masses, kinetic, sampling, terms, companion=None):
    """The contraction (ops, pre, post) of the grid.N slices of a path sum
    on the product of the lattices' axes, a particle of the given mass on
    each, whose slices see the sum of the terms.

    terms(*coords) gives triples (name, pot, coordinate); coords are the
    lattices' nodes, one axis each, then, when a companion path is given
    on one lattice, its samples at the slice ends the sampling reads, as
    an open mesh after a leading axis of slice ends: t_1 ... t_N for
    endpoint sampling, which puts the whole phase exp(-i eps V) at
    arrival, and t_0 ... t_N for symmetric sampling, which puts half of
    it at each end. Without a companion the potential is static: one
    row, read at every end. Each term is sampled once by
    potential_on_axis; a sample that is not finite is reported at the
    earliest slice that reads it and at its lattice node, with "*" on
    each axis its term does not vary along.

    ops holds each axis's mode factor once, on every route;
    `_kinetic_part` builds the slices' kinetic part from them. pre and
    post hold one row of node factors per slice, with the half-slice
    absorber damping, the outer product of each axis's profile, at both
    ends. They are read-only broadcast views, so a static row is stored
    once.
    Midpoint sampling is not separable and is refused here, before any
    term is sampled.
    """
    _check_choice("sampling mode", sampling, SEPARABLE_SAMPLING_MODES)
    eps, N = grid.epsilon, grid.N
    first = 0 if sampling == "symmetric" else 1  # the first slice end read
    shape = tuple(lat.points for lat in lattices)
    coords = [x[None] for x in np.ix_(*(lat.nodes for lat in lattices))]
    if companion is not None:
        coords.append(companion[first:, None])
    V, bad = np.zeros((1,) + shape), []
    for name, pot, coordinate in terms(*coords):
        try:
            V = V + potential_on_axis(pot, coordinate)
        except DomainError as err:
            if getattr(err, "node", None) is None:
                raise
            bad.append((err.node, name, err, np.shape(coordinate)[1:]))
    if bad:
        (row, *node), name, err, sizes = min(bad, key=lambda item: item[0][0])
        # an axis the term does not vary along has no failing node: "*"
        at = [(str(i), repr(float(lat.nodes[i]))) if n == lat.points else ("*", "*")
              for lat, i, n in zip(lattices, node, sizes)]
        node, x = (f"({', '.join(c)})" if len(at) > 1 else c[0] for c in zip(*at))
        raise DomainError(
            f"slice {max(first + row, 1)}, lattice node {node} (x = {x}): "
            f"{name} = {err}"
        ) from None
    damp = functools.reduce(
        np.multiply.outer, [_absorber_profile(lat, eps) for lat in lattices]
    )
    ops = [_kinetic_factor(lat, eps, m, kinetic) for lat, m in zip(lattices, masses)]
    if sampling == "endpoint":
        pre, post = damp, damp * np.exp(-1j * eps * V)
    else:
        ends = damp * np.exp(-0.5j * eps * V)
        # slice j departs from row j - 1 and arrives at row j
        pre, post = ends[:N], ends[-N:]
    return tuple(ops), *(np.broadcast_to(a, (N,) + shape) for a in (pre, post))


def _power(T, N, dx):
    """Dense N-slice kernel T (dx T)^(N-1) = (dx T)^N / dx of one slice."""
    return T if N == 1 else np.linalg.matrix_power(dx * T, N) / dx


def _filter(f):
    """h(m) = sum_k f_k cos(pi k m / (n + 1)) / (n + 1), m = 0 ... 2n + 1,
    of a per-mode factor f over n = f.size modes.

    With 1-based nodes i, j, S diag(f) S = h(i - j) - h(i + j), S the
    orthonormal DST-I, a Toeplitz minus a Hankel matrix. h is the inverse
    DFT of f's even extension over L = 2(n + 1) points. L is itself a
    slow FFT length when n + 1 has a large prime factor, so h is summed
    by chirp-z on a fast length, with km = (k^2 + m^2 - (k - m)^2) / 2.
    """
    import scipy.fft

    n = f.size
    L = 2 * (n + 1)
    g = np.zeros(L, dtype=complex)
    g[1 : n + 1], g[n + 2 :] = f, f[::-1]
    k = np.arange(L)
    chirp = np.exp(1j * np.pi * (k * k % (2 * L)) / L)
    P = scipy.fft.next_fast_len(2 * L - 1)
    b = np.zeros(P, dtype=complex)
    b[:L], b[P - L + 1 :] = chirp.conj(), chirp[:0:-1].conj()
    return scipy.fft.ifft(scipy.fft.fft(g * chirp, P) * scipy.fft.fft(b))[:L] * chirp / L


def _toeplitz(row):
    """The symmetric Toeplitz matrix A_ij = row[|i - j|], gathered as the
    reversed windows of row's even extension."""
    n = row.size
    ext = np.concatenate((row[:0:-1], row))
    return np.lib.stride_tricks.sliding_window_view(ext, n)[::-1].copy()


def _kinetic_plan(f):
    """Plan (M, HT, HH, rev) of the kinetic step S diag(f) S of a per-mode
    factor f, S the orthonormal DST-I of n = f.size points.

    With nodes i, j = 1 ... n, S diag(f) S v is a Toeplitz minus a Hankel
    product, w_i = sum_j h(i - j) v_j - sum_j h(i + j) v_j, with h the
    filter of f (`_filter`). The Hankel product is the Toeplitz one of
    the reversed v, whose transform is X[rev] times a phase ramp, folded
    here into HH. So both products come from one FFT X of v zero-padded
    to the fast length M >= 2n - 1, as one linear convolution that no
    wrap-around reaches.
    """
    import scipy.fft

    n = f.size
    h = _filter(f)
    M = scipy.fft.next_fast_len(2 * n - 1)
    # the filters h(j - (n - 1)) and h(j + 2), j = 0 ... 2n - 2, put w_i
    # at index i + n - 2 of the convolution
    j = np.arange(2 * n - 1)
    ramp = np.exp(-2j * np.pi * (np.arange(M) * (n - 1) % M) / M)
    HT = scipy.fft.fft(h[np.abs(j - (n - 1))], M)
    HH = scipy.fft.fft(h[j + 2], M) * ramp
    return M, HT, HH, -np.arange(M) % M


def _kinetic_step(values, plan):
    """S diag(f) S v of a field v on f's modes, from f's _kinetic_plan:
    one forward and one inverse FFT of length M."""
    import scipy.fft

    M, HT, HH, rev = plan
    X = scipy.fft.fft(values, M)
    return scipy.fft.ifft(X * HT - X[rev] * HH)[values.size - 1 : 2 * values.size - 1]


def _kinetic_part(lattices, factors):
    """The kinetic part of a slice on the lattices' product, as one
    function of the field, from each axis's mode factor f.

    On one axis it is the split-step S diag(f) S, S the orthonormal
    DST-I, as one FFT pair of a fast length (_kinetic_step), planned
    here. On the product lattice it applies the electron's and the ion's
    dense kernels times dx along their axes: under
    influence.MAX_PRODUCT_POINTS a matrix product costs less than an FFT
    pair along each axis. Callers build it once per push.
    """
    if len(lattices) == 1:
        plan = _kinetic_plan(*factors)
        return lambda values: _kinetic_step(values, plan)
    G_e, G_i = (lat.dx * _mode_kernel(lat, f) for lat, f in zip(lattices, factors))
    # the ion's product puts its axis first; .T restores (electron, ion)
    return lambda values: np.tensordot(G_i, np.tensordot(G_e, values, (1, 0)), (1, 1)).T


def _propagate(values, kinetic_part, pre, post):
    """Push values through the slices, the first slice first: slice j
    maps v to post[j] * kinetic_part(pre[j] * v), with pre and post the
    node factors of a contraction and kinetic_part its slices' kinetic
    part from `_kinetic_part`."""
    for a, b in zip(pre, post):
        values = b * kinetic_part(a * values)
    return values


def time_sliced_propagator(
    pot, lattice, grid, mass, kinetic="pade2", sampling="endpoint"
):
    """N-fold ordered product of one-slice kernels over grid.

    Separable schemes keep the contraction that `_slices` builds from
    the one static term, and build the dense product only when `entries`
    is read; a callable potential receives the nodes as a (1, n) row.
    Midpoint sampling builds the product here: its slice is the kinetic
    kernel times the phase of the potential at each node pair's
    midpoint, with the damping on both sides.
    """
    _check_choice("sampling mode", sampling, SAMPLING_MODES)
    if sampling == "midpoint":
        x, eps = lattice.nodes, grid.epsilon
        damp = _absorber_profile(lattice, eps)
        f = _kinetic_factor(lattice, eps, mass, kinetic)
        Vm = potential_on_axis(pot, 0.5 * (x[:, None] + x[None, :]))
        # formed as dx G and divided back, which keeps the entries' rounding;
        # no n x n temporary is held through the matrix power
        T = lattice.dx * _mode_kernel(lattice, f) * np.exp(-1j * eps * Vm)
        del Vm
        T = damp[:, None] * (T / lattice.dx) * damp[None, :]
        return PropagatorMatrix(lattice, grid, _power(T, grid.N, lattice.dx))
    step = _slices(
        (lattice,), grid, (mass,), kinetic, sampling, lambda x: (("potential", pot, x),)
    )
    return PropagatorMatrix(lattice, grid, step=step)


def _leak_checked(lattice, values):
    """values as a field on lattice, with a warning to the caller's caller
    when its boundary_leak_fraction exceeds 1e-3."""
    out = ComplexField1D(lattice, values)
    frac = boundary_leak_fraction(out)
    if frac > 1e-3:
        warnings.warn(
            f"evolved amplitude at lattice edge is {frac:.2e} of the peak; "
            "widen the lattice or add an absorbing layer",
            AccuracyWarning,
            stacklevel=3,
        )
    return out


def _check_same_lattice(psi_a, K):
    if psi_a.lattice != K.lattice:
        raise DomainError("field and propagator live on different lattices")


def evolve(psi_a, K):
    """psi_b(x_i) = sum_j K_ij psi_a(x_j) dx, with a warning when the
    result's boundary_leak_fraction exceeds 1e-3."""
    _check_same_lattice(psi_a, K)
    return _leak_checked(K.lattice, K.apply(psi_a.values))


def free_deviation_diagnostic(K, mass):
    """Deviation of a field-free lattice kernel from the closed form.

    The two kernels are compared through their action on a small battery
    of Gaussian packets rather than entry by entry: the closed-form
    kernel is an unbounded chirp whose off-diagonal oscillation outruns
    any finite lattice, so pointwise comparison only measures band
    limiting. Reported is the worst interior L-infinity deviation of the
    propagated packets, normalized per packet by its peak amplitude. The
    battery is one (n x 3) array, so each kernel is applied once, the
    lattice kernel through its dense `entries`. The closed-form kernel
    depends on x_b - x_a alone, so it is gathered from its first column.
    """
    lat = K.lattice
    x = lat.nodes
    span = lat.x_max - lat.x_min
    mid = 0.5 * (lat.x_max + lat.x_min)
    sigma = span / 16.0
    battery = np.column_stack([
        gaussian_packet(lat, x0, p0, sigma0).values
        for x0, p0, sigma0 in (
            (mid, 0.0, sigma),
            (mid - span / 8.0, 2.0 / sigma, sigma),
            (mid + span / 8.0, -1.5 / sigma, 0.75 * sigma),
        )
    ])
    exact = _toeplitz(free_propagator(x, K.grid.t_b, x[0], K.grid.t_a, mass))
    keep = np.abs(x - mid) <= 0.25 * span
    got = (K.entries @ battery) * lat.dx
    want = (exact @ battery) * lat.dx
    dev = np.max(np.abs(got - want)[keep], axis=0) / np.max(np.abs(want), axis=0)
    return float(np.max(dev))


def scattered_component(psi_a, pot, lattice, grid, mass):
    """(K - K0) applied to psi_a, with K0 the same scheme at V = 0.

    Both kernels use the default scheme (pade2 kinetic factor, endpoint
    sampling). Using the identical discretization for both terms makes
    the result exactly zero for V = 0 and isolates the potential's
    effect from time-step error. Only the full evolution warns of edge
    leak.
    """
    K = time_sliced_propagator(pot, lattice, grid, mass)
    K0 = time_sliced_propagator(None, lattice, grid, mass)
    _check_same_lattice(psi_a, K)
    # K and K0 share the lattice, mass, epsilon and kinetic factor, so one
    # kinetic part serves both pushes
    ops, pre, post = K.step
    kinetic_part = _kinetic_part((lattice,), ops)
    full = _leak_checked(lattice, _propagate(psi_a.values, kinetic_part, pre, post))
    free = _propagate(psi_a.values, kinetic_part, *K0.step[1:])
    return ComplexField1D(lattice, full.values - free)
