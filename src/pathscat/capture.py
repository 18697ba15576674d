"""First-order electron-capture amplitudes and cross sections.

Everything here works in atomic units (hbar = m_e = 1) and assumes
hydrogenic 1s states on both centers. Two coordinate treatments of the
capture amplitude are exposed:

* mode="obk": the classic Brinkman-Kramers shortcut. One heavy vector
  R carries both plane-wave phases and both bound states take the
  plain electron coordinate. The amplitude collapses to v_screened(q)
  times a bound-bound form factor at q = |p_a - p_b|.
* mode="jacobi": incoming and outgoing channels use their own Jacobi
  coordinates. The proton-electron amplitude factorizes into a folded
  interaction at K_b = p_a - (1-gamma_b) p_b and the initial momentum
  wavefunction at K_a = (1-gamma_a) p_a - p_b. The internuclear term
  does not factorize: its momentum integral is joined by Feynman
  parameters s and t, and done in closed form in k and in t, so each
  amplitude is one weighted sum over a fixed graded rule in s.

Every screened Coulomb carries screening constant lam >= 0, and every
entry point refuses a closed channel, an unknown mode and a lam that is
not >= 0 with one check (_admit). The jacobi routes are finite
at lam = 0. An obk total at lam = 0 diverges forward on a resonant
channel (p_a = p_b) and raises NumericalError there, unless it is the
Sum with Z_a = 1, whose two terms cancel at q = 0
(ct_total_cross_section). The obk Sum is formed with that cancellation
done in closed form (_obk_sum), so its amplitude is finite at q = 0 too.

The brute-force oracle integrates the raw 6-D integrand by scrambled
Sobol points with exponential importance sampling and block-wise error
estimates; it never reuses the momentum-space reductions it is meant
to check. Each (mode, interaction) term is one entry of _oracle_term:
its sampling rates, which equal its orbital and screening decay rates
so that their exponentials cancel, its phase vectors and its amplitude.
Its radii invert the Gamma(3) distribution function (`_gamma3_inv`).
Each point stands for its antithetic pair (s, w), (-s, -w), whose mean
is the real part of the raw integrand, and each block draws from its
own child of SeedSequence(seed).

scipy is imported only by the oracle, not with this module: scipy.special
builds the radius table and scipy.stats.qmc draws the Sobol points, both
loaded on the calling thread before any worker thread starts. The
amplitudes and totals need numpy alone.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .born import _angles, _angular_total, _panels
from .errors import _check_choice, _check_count, _check_finite, _check_nonnegative
from .errors import _check_positive, DomainError, NumericalError
from .units import OPEN, channel_energetics, reduced_masses

__all__ = [
    "HydrogenicState",
    "CaptureChannelSpec",
    "OracleEstimate",
    "CaptureTotal",
    "make_capture_spec",
    "capture_amplitude",
    "capture_amplitude_vectors",
    "ct_differential_cross_section",
    "ct_total_cross_section",
    "brute_force_oracle",
]

INTERACTIONS = ("ProtonElectron", "Internuclear", "Sum")
MODES = ("obk", "jacobi")
# The angular rule of ct_total_cross_section: segments graded geometrically
# from _THETA_MIN, or below it an obk forward peak's width / 10, up to
# _THETA_SPLIT, the first reaching down to 0; one tail panel above.
_THETA_MIN = 1e-7
_THETA_SPLIT = 0.1
# Sobol points per oracle block; each block is one independent error sample.
ORACLE_BLOCK = 1 << 15
# Below P(3, 1/2) _gamma3_inv takes P from its series.
_U_SERIES = 1.0 - 1.625 * math.exp(-0.5)
# The starting guess of _gamma3_inv interpolates log P^-1(3, u) linearly
# on this many uniform intervals of tau = logit(u) in [-_TAU_MAX,
# _TAU_MAX], which holds u from 1e-15 to 1 - 1e-15; it is within 1e-5
# of the root, and one Halley step reaches round-off from there.
_TAU_MAX = 35.0
_TAU_INTERVALS = 2048
# 6/(k+3)!: the series P(3, x) = x^3 e^(-x)/6 * sum_k 6 x^k/(k+3)!,
# truncated below 1e-17 of its first term for x <= 0.6
_P3_SERIES = tuple(6.0 / math.factorial(k + 3) for k in range(14))


@dataclass(frozen=True)
class HydrogenicState:
    """1s state of effective charge Z_eff; phi(r) = sqrt(Z^3/pi) e^(-Zr)."""

    Z_eff: float

    def __post_init__(self):
        _check_positive("effective charge", self.Z_eff)

    @property
    def binding_energy(self):
        return -0.5 * self.Z_eff**2

    def position_wavefunction(self, r):
        Z = self.Z_eff
        return math.sqrt(Z**3 / math.pi) * np.exp(-Z * np.asarray(r, dtype=float))

    def momentum_wavefunction(self, k):
        """3-D transform of the 1s orbital, 8 sqrt(pi) Z^(5/2)/(Z^2+k^2)^2."""
        Z = self.Z_eff
        k = np.asarray(k, dtype=float)
        return 8.0 * math.sqrt(math.pi) * Z**2.5 / (Z**2 + k**2) ** 2


@dataclass(frozen=True)
class CaptureChannelSpec:
    """Kinematics plus initial/final states and the interaction choice."""

    kin: object
    energetics: object
    initial: HydrogenicState
    final: HydrogenicState
    interaction: str = "ProtonElectron"

    def __post_init__(self):
        _check_choice("interaction", self.interaction, INTERACTIONS)
        if abs(self.energetics.eps_a - self.initial.binding_energy) > 1e-12:
            raise DomainError("eps_a must equal the initial state's binding energy")
        if abs(self.energetics.eps_b - self.final.binding_energy) > 1e-12:
            raise DomainError("eps_b must equal the final state's binding energy")

    @property
    def gamma_a(self):
        return self.kin.m / (self.kin.M_A + self.kin.m)

    @property
    def gamma_b(self):
        return self.kin.m / (self.kin.M_B + self.kin.m)


@dataclass(frozen=True)
class OracleEstimate:
    value: complex
    error: float
    samples: int
    blocks: int


@dataclass(frozen=True)
class CaptureTotal:
    """Angular integral of the capture cross section."""

    value: float
    error: float
    evaluations: int


def make_capture_spec(A, B, Z_a, Z_b, v, interaction="ProtonElectron"):
    """Spec for A-center 1s -> B-center 1s capture at relative speed v."""
    _check_positive("relative speed", v)
    kin = reduced_masses(A, B)
    initial = HydrogenicState(Z_a)
    final = HydrogenicState(Z_b)
    try:
        E_a = 0.5 * kin.mu_a * v**2
    except OverflowError:
        E_a = math.inf
    energetics = channel_energetics(
        E_a, initial.binding_energy, final.binding_energy, kin
    )
    if not 0.0 < energetics.p_a < math.inf:
        raise DomainError(
            f"relative speed v={v} puts the collision energy out of range: {E_a}"
        )
    return CaptureChannelSpec(kin, energetics, initial, final, interaction)


def _admit(spec, lam, mode):
    """The refusals every capture entry point shares; NaN lam fails them."""
    if spec.energetics.status != OPEN:
        raise DomainError("capture requires an open final channel")
    _check_choice("coordinate mode", mode, MODES)
    _check_nonnegative("screening constant", lam)
    _check_finite("screening constant", lam=lam)


def _canonical_vectors(spec, theta):
    """p_a along z and p_b in the x-z plane at angle theta; an array of
    angles gives p_b one row per angle."""
    theta = _angles(theta)
    p_a = spec.energetics.p_a
    p_b = spec.energetics.p_b
    p_a_vec = np.array([0.0, 0.0, p_a])
    p_b_vec = p_b * np.stack((np.sin(theta), np.zeros_like(theta), np.cos(theta)), -1)
    return p_a_vec, p_b_vec


def _check_screened(lam, q2):
    """Refuse lam = 0 at a zero squared momentum transfer q2, where the
    Coulomb transform diverges."""
    if lam == 0.0 and np.any(q2 == 0.0):
        raise NumericalError(
            "unscreened Coulomb transform diverges at zero momentum transfer"
        )


def _screened_coulomb_ft(strength, lam, q2):
    # transform of strength * exp(-lam r)/r at squared momentum q2; a
    # positive lam whose square underflows overflows here instead
    _check_screened(lam, q2)
    return 4.0 * np.pi * strength / (lam**2 + q2)


def _finite(values, what, lam):
    """values, refused by a NumericalError where one is not finite."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} overflows at lam = {lam!r}")
    return values


def _folded_interaction(Z_b, Z_B, lam, k2):
    """Transform of phi_b(u) * (-Z_B e^(-lam u)/u): one fold, one pole."""
    return -Z_B * math.sqrt(Z_b**3 / math.pi) * 4.0 * np.pi / ((Z_b + lam) ** 2 + k2)


def _form_factor(Z_a, Z_b, q2):
    """int phi_b phi_a e^{i q.r} d3r for same-center 1s orbitals; at q2 = 0
    the overlap <phi_b|phi_a>."""
    s = Z_a + Z_b
    return 8.0 * math.sqrt(Z_a**3 * Z_b**3) * s / (s**2 + q2) ** 2


def _obk_sum(Z_a, Z_b, lam, q2):
    """The obk Sum 4 pi Z_B (Z_A F(0) - F(q)) / (lam^2 + q^2), F the form
    factor and the nuclear charges Z_A, Z_B the hydrogenic Z_a, Z_b,
    without its two 1/q^2 terms: with s = Z_a + Z_b, F(0) - F(q) = F(0)
    q^2 (2 s^2 + q^2) / (s^2 + q^2)^2 exactly, so it is

        4 pi Z_B F(0) [(Z_A - 1) / (lam^2 + q^2)
                       + (2 s^2 + q^2) / (s^2 + q^2)^2 q^2 / (lam^2 + q^2)],

    with q^2 / (lam^2 + q^2) = 1 at lam = 0. At Z_A = 1 the pole term is
    left out, so the Sum is finite at lam = q = 0.
    """
    s2, F0 = (Z_a + Z_b) ** 2, _form_factor(Z_a, Z_b, 0.0)
    ratio = q2 / (lam**2 + q2) if lam else 1.0
    total = 4.0 * np.pi * Z_b * F0 * (2.0 * s2 + q2) / (s2 + q2) ** 2 * ratio
    if Z_a == 1.0:
        return total
    return total + _screened_coulomb_ft(Z_b * (Z_a - 1.0), lam, q2) * F0


def _graded_half(n, top, depth):
    """n-point Gauss-Legendre panels on [0, top] that shrink by a factor 4
    toward 0 until their lower edge is below depth; one panel then reaches 0."""
    count = math.ceil(math.log(top / depth, 4.0))
    return _panels(n, np.append(0.0, top * 0.25 ** np.arange(count, -1, -1)))


def _feynman_rule(n):
    """Nodes and weights for int_0^1 ds s (1-s) f(s): (s, 1-s, weight).

    The factor s (1-s) is folded into the weights, and each complement
    is formed on its own, so no node rounds onto an end. The integrand
    varies on scales 1/(1+J^2) toward both ends, so each half is graded
    geometrically down to 1e-10, which covers J up to 1e5.
    """
    h, wh = _graded_half(n, 0.5, 1e-10)
    s = np.concatenate((h, 1.0 - h[::-1]))
    s_c = np.concatenate((1.0 - h, h[::-1]))
    return s, s_c, np.concatenate((wh, wh[::-1])) * s * s_c


# built once; doubling n moves the amplitudes that
# test_internuclear_rule_is_converged samples by at most 3.4e-12
_FEYNMAN_RULE = _feynman_rule(12)
# Pairs per (pairs x nodes) evaluation of _nn_feynman: its temporaries
# take about 28 kB per pair, so a chunk peaks near 28 MB. Every angular
# rule of the totals (at most 704 angles) is one chunk.
_NN_CHUNK = 1024


def _t_integral(a, b, lam):
    """int_0^1 t^3 Delta^(-7/2) dt, Delta = t a + (1-t) lam^2 + t (1-t) b.

    With t = 1/(1+u) it is int_0^inf (1+u)^2 Q^(-7/2) du, Q = a
    + (a + b + lam^2) u + lam^2 u^2, which is (4/15) (d_p + d_q)^2 of
    2 / (sqrt(p) (q + 2 sqrt(p r))) at (p, q, r) = (a, a + b + lam^2,
    lam^2). Every term is positive, and lam = 0 needs no limit.
    """
    P = np.sqrt(a)
    Pl = P + lam
    sigma = Pl * Pl + b
    terms = 1.5 / (P**2 * sigma) + (2.0 * P + 3.0 * lam) / (P * sigma**2)
    terms += 4.0 * Pl * Pl / sigma**3
    return (4.0 / 15.0) * terms / (P**3)


def _nn_feynman(spec, lam, J_vec, Kb_vec):
    """Z_A Z_B (2pi)^-3 int d3k phib(k) phia(|k-J|) 4pi/(lam^2+|k-Kb|^2).

    Feynman parameters x = t s, y = t (1-s), z = 1 - t join the three
    denominators, and the k integral is then closed form:

        Z_A Z_B (2pi)^-3 256 pi^2 (Z_a Z_b)^(5/2) (15 pi^2/8)
            int ds s (1-s) int dt t^3 Delta^(-7/2),
        Delta = t a(s) + (1-t) lam^2 + t (1-t) b(s),
        a(s) = s Z_b^2 + (1-s) Z_a^2 + s (1-s) J^2,
        b(s) = |K_b - (1-s) J|^2.

    The t integral is closed form too (`_t_integral`), so each amplitude
    is one weighted sum over the s rule. b is summed from the components
    of the difference vector, not expanded, so it does not cancel where
    K_b is near (1-s) J. The vectors may carry leading batch axes; the
    batch is evaluated _NN_CHUNK pairs at a time, each chunk one
    (pairs x nodes) evaluation.
    """
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    s, s_c, s_w = _FEYNMAN_RULE
    J_vec, Kb_vec = np.broadcast_arrays(J_vec, Kb_vec)
    shape = J_vec.shape[:-1]
    J_vec, Kb_vec = J_vec.reshape(-1, 3), Kb_vec.reshape(-1, 3)
    integral = np.empty(len(J_vec))
    for lo in range(0, len(J_vec), _NN_CHUNK):
        J, Kb = J_vec[lo : lo + _NN_CHUNK], Kb_vec[lo : lo + _NN_CHUNK]
        a = s * Z_b**2 + s_c * Z_a**2 + s * s_c * np.sum(J**2, axis=-1)[:, None]
        b = sum((Kb[:, i, None] - s_c * J[:, i, None]) ** 2 for i in range(3))
        integral[lo : lo + _NN_CHUNK] = _t_integral(a, b, lam) @ s_w
    integral = integral.reshape(shape)
    scale = 256.0 * np.pi**2 * (Z_a * Z_b) ** 2.5 * 15.0 * np.pi**2 / 8.0
    # the nuclear charges Z_A, Z_B are the hydrogenic Z_a, Z_b
    return Z_a * Z_b * scale * integral / (2.0 * np.pi) ** 3


def capture_amplitude_vectors(spec, p_a_vec, p_b_vec, lam=1.0, mode="obk"):
    """Capture amplitude for explicit momentum vectors.

    The vectors are (3,) arrays, or (n, 3) batches that broadcast
    against each other; a batch gives a complex array of n amplitudes,
    a single pair a complex number. Only rotational invariants of
    (p_a_vec, p_b_vec) enter, so any rigid rotation of a pair leaves its
    value unchanged. An amplitude that overflows, as at a lam so small
    that its square underflows, raises NumericalError.
    """
    _admit(spec, lam, mode)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        amplitude = _amplitude(spec, p_a_vec, p_b_vec, lam, mode)
    amplitude = _finite(np.asarray(amplitude, dtype=complex), "capture amplitude", lam)
    return complex(amplitude) if amplitude.ndim == 0 else amplitude


def _amplitude(spec, p_a_vec, p_b_vec, lam, mode):
    """The capture amplitudes of capture_amplitude_vectors, unchecked."""
    p_a_vec = np.asarray(p_a_vec, dtype=float)
    p_b_vec = np.asarray(p_b_vec, dtype=float)
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    Z_A, Z_B = Z_a, Z_b

    if mode == "obk":
        q2 = np.sum((p_a_vec - p_b_vec) ** 2, axis=-1)
        if spec.interaction == "Sum":
            return _obk_sum(Z_a, Z_b, lam, q2)
        pe = _screened_coulomb_ft(-Z_B, lam, q2) * _form_factor(Z_a, Z_b, q2)
        nn = _screened_coulomb_ft(Z_A * Z_B, lam, q2) * _form_factor(Z_a, Z_b, 0.0)
    else:
        ga = spec.gamma_a
        gb = spec.gamma_b
        K_a = (1.0 - ga) * p_a_vec - p_b_vec
        K_b = p_a_vec - (1.0 - gb) * p_b_vec
        J = ga * p_a_vec + gb * p_b_vec
        ka2 = np.sum(K_a**2, axis=-1)
        kb2 = np.sum(K_b**2, axis=-1)
        pe = _folded_interaction(
            Z_b, Z_B, lam, kb2
        ) * spec.initial.momentum_wavefunction(np.sqrt(ka2))
        nn = None
        if spec.interaction in ("Internuclear", "Sum"):
            nn = _nn_feynman(spec, lam, J, K_b)

    if spec.interaction == "ProtonElectron":
        return pe
    if spec.interaction == "Internuclear":
        return nn
    return pe + nn


def capture_amplitude(spec, theta, lam=1.0, mode="obk"):
    """Amplitude at scattering angle theta in the canonical frame; an
    array of angles gives an array of amplitudes."""
    p_a_vec, p_b_vec = _canonical_vectors(spec, theta)
    return capture_amplitude_vectors(spec, p_a_vec, p_b_vec, lam, mode)


def ct_differential_cross_section(spec, theta, lam=1.0, mode="obk"):
    """dsigma/dOmega = (mu_b / 2 pi)^2 (p_b/p_a)^2 |A|^2.

    A scalar theta gives a float, an array of angles an array from one
    batched amplitude call. A dsigma that overflows raises NumericalError.
    """
    A = capture_amplitude(spec, theta, lam, mode)
    mu_b = spec.kin.mu_b
    ratio = spec.energetics.p_b / spec.energetics.p_a
    with np.errstate(over="ignore"):
        dcs = (mu_b / (2.0 * np.pi)) ** 2 * ratio**2 * np.abs(A) ** 2
    dcs = _finite(dcs, "differential cross section", lam)
    return float(dcs) if np.ndim(dcs) == 0 else dcs


def ct_total_cross_section(spec, lam=1.0, mode="obk", n_segments=12, seg_nodes=24,
                           tail_nodes=64):
    """sigma = 2 pi int dsigma sin(theta) dtheta, forward-peak aware.

    Capture at heavy-particle momenta concentrates within milliradians,
    so [0, _THETA_SPLIT] is covered by n_segments segments of seg_nodes
    Gauss-Legendre nodes each, graded geometrically from a lowest edge
    up to _THETA_SPLIT with the first segment reaching down to 0, and the
    remainder by tail_nodes nodes. The lowest edge is _THETA_MIN, or for
    obk a tenth of the forward peak's angular width w = hypot(lam, p_a -
    p_b) / p_b where that is smaller. Each rule's nodes form one angle
    array, so dsigma is one batched call per rule. The error estimate is
    the change under node doubling; a dsigma that overflows raises
    NumericalError.

    An obk total diverges where lam = 0 and p_a = p_b, and raises
    NumericalError there, except for Sum with Z_a = 1: its terms share
    the factor 1/(lam^2 + q^2), whose numerator Z_B F(0) (Z_A - 1) at
    q = 0 is zero, so that total is finite.
    """
    _admit(spec, lam, mode)
    for count, what in ((n_segments, "n_segments"), (seg_nodes, "seg_nodes"),
                        (tail_nodes, "tail_nodes")):
        _check_count(count, 1, what)
    low = _THETA_MIN
    if mode == "obk":
        p_a, p_b = spec.energetics.p_a, spec.energetics.p_b
        if spec.interaction != "Sum" or spec.initial.Z_eff != 1.0:
            # theta = 0 is the smallest momentum transfer
            _check_screened(lam, (p_a - p_b) ** 2)
        # a zero width (the finite Sum at lam = 0) keeps _THETA_MIN
        low = min(low, math.hypot(lam, p_a - p_b) / p_b / 10.0) or low
    edges = np.geomspace(low, _THETA_SPLIT, n_segments + 1)
    edges[0] = 0.0
    panels = [(seg_nodes, edges), (tail_nodes, [_THETA_SPLIT, np.pi])]
    value, error, evaluations = _angular_total(
        lambda theta: ct_differential_cross_section(spec, theta, lam, mode), panels
    )
    return CaptureTotal(value=value, error=error, evaluations=evaluations)


def _p3_series(x):
    """P(3, x) = x^3 e^(-x)/6 * sum_k 6 x^k/(k+3)!, for x below about 1/2."""
    total = _P3_SERIES[-1]
    for c in _P3_SERIES[-2::-1]:
        total = total * x + c
    return total * x**3 * np.exp(-x) / 6.0


@functools.cache
def _log_gamma3_table():
    """log P^-1(3, u) on the tau grid of _gamma3_inv, and its slopes.

    scipy inverts P below u = 1/2 and Q = 1 - P above it, each from
    min(u, 1 - u) = expit(-|tau|), so neither tail is rounded. Built at
    the first oracle call, not at import.
    """
    import scipy.special

    tau = np.linspace(-_TAU_MAX, _TAU_MAX, _TAU_INTERVALS + 1)
    small = scipy.special.expit(-np.abs(tau))
    x = np.where(tau <= 0.0, scipy.special.gammaincinv(3.0, small),
                 scipy.special.gammainccinv(3.0, small))
    log_x = np.log(x)
    return log_x, np.diff(log_x)


def _gamma3_inv(u):
    """x with P(3, x) = 1 - e^(-x) (1 + x + x^2/2) = u, for u in (0, 1).

    The inverse of the Gamma(3) distribution function, to round-off for
    u in [1e-15, 1 - 1e-15]. The starting guess interpolates log x
    linearly in tau = logit(u) on _log_gamma3_table (beyond the table it
    extrapolates the end interval). One Halley step follows, on P - u
    for u < 1/2 and on Q - (1 - u) for u >= 1/2, each formed where it is
    small; below P(3, 1/2) P comes from its series, because 1 - Q
    cancels there.
    """
    log_x, slope = _log_gamma3_table()
    # Every step writes into one of five work arrays and rounds each value
    # as the formulas in the comments do; pos is
    # (log(u / (1 - u)) + _TAU_MAX) * scale
    x = np.subtract(1.0, u)
    np.divide(u, x, out=x)
    np.log(x, out=x)
    x += _TAU_MAX
    x *= _TAU_INTERVALS / (2.0 * _TAU_MAX)
    i = x.astype(np.intp)
    np.clip(i, 0, _TAU_INTERVALS - 1, out=i)
    # x = exp(log_x[i] + (pos - i) * slope[i]), and e = exp(-x)
    x -= i
    e = np.take(slope, i)
    x *= e
    x += np.take(log_x, i, out=e)
    del i
    np.exp(x, out=x)
    np.negative(x, out=e)
    np.exp(e, out=e)
    # q = e (1 + x + x^2/2) and P' = x^2 e / 2, from h = x^2/2
    h = np.multiply(0.5, x)
    h *= x
    q = np.add(1.0, x)
    q += h
    q *= e
    h *= e
    # f is P - u = (1 - Q) - u below 1/2 and (1 - u) - Q above; rest is u
    # below 1/2 and 0 above, so 1 - (u - rest) is 1 or the exact 1 - u
    rest = np.multiply(u, u < 0.5, out=e)
    f = np.subtract(u, rest)
    np.subtract(1.0, f, out=f)
    f -= q
    f -= rest
    del q
    low = np.flatnonzero(u < _U_SERIES)
    f[low] = _p3_series(x[low]) - u[low]
    # Newton step t = f/P', then Halley's correction with
    # P''/(2 P') = 1/x - 1/2: x - t / (1 - t (1/x - 1/2))
    f /= h
    np.divide(1.0, x, out=h)
    h -= 0.5
    h *= f
    np.subtract(1.0, h, out=h)
    f /= h
    x -= f
    return x


def _cos_sin(angle):
    """cos and sin of an angle array from t = tan(angle/2), as
    (1 - t^2)/(1 + t^2) and 2t/(1 + t^2).

    numpy 2.4 on an x86-64 CPU with AVX-512 runs float64 tan in a SIMD
    loop and cos and sin in scalar ones: there one call took about a
    quarter of the time of one np.cos (0.24 ms against 1.0 ms per 32k
    values). Without a SIMD tan it costs about one cos plus four array
    operations. t is within an ulp of the true tangent, and both values
    are within 4 eps of np.cos and np.sin for |angle| up to 1e6. No
    float is an odd multiple of pi, so t stays finite (1.6e16 at the
    float nearest pi), and t^2 cannot overflow.
    """
    t = np.multiply(0.5, angle)
    np.tan(t, out=t)
    d = np.multiply(t, t)
    cos = np.subtract(1.0, d)
    d += 1.0
    cos /= d
    t += t
    t /= d
    return cos, t


class _Draw(NamedTuple):
    """One block's unit-rate draws of one vector: its radius and direction.

    The radius x = P^-1(3, u) comes from _gamma3_inv, the closed-form
    inverse of the Gamma(3) distribution function. The direction is
    uniform on the sphere: its polar cosine mu and its other two
    Cartesian components u_x = sin(theta) cos(phi) and u_y = sin(theta)
    sin(phi). The point (x/kappa) times the direction has density
    kappa^3 e^(-x)/(8 pi) in 3-D.
    """

    x: np.ndarray
    mu: np.ndarray
    u_x: np.ndarray
    u_y: np.ndarray

    @classmethod
    def of(cls, x, mu, phi):
        """The draw of radius x along (mu, phi): one tan per point (_cos_sin)."""
        sin_theta = np.sqrt(1.0 - mu**2)
        u_x, u_y = _cos_sin(phi)
        u_x *= sin_theta
        u_y *= sin_theta
        return cls(x, mu, u_x, u_y)


def _oracle_term(spec, theta, lam, mode, interaction):
    """One oracle term, as (kappa_s, kappa_w, a, b, amp).

    The term's raw integrand over its sampling density is amp e^(i (a.s
    + b.w)) / x_w, times e^(-Z_b |s + w|) for the jacobi internuclear
    term, with x_w = kappa_w w_r. That holds because the sampling rates
    kappa_s and kappa_w equal the term's orbital and screening decay
    rates in s and w, so those exponentials cancel the density's; w is
    the vector the interaction decays in, so its rate includes lam. a and
    b combine p_a and p_b, which _canonical_vectors puts in the x-z
    plane, so their y components are exactly 0.
    """
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    pe = interaction == "ProtonElectron"
    p_a_vec, p_b_vec = _canonical_vectors(spec, theta)
    if mode == "obk":
        kappa_s, kappa_w = Z_a + Z_b, lam
        # phase q.R with R = s - w for the proton-electron term, R = w internuclear
        q_vec = p_a_vec - p_b_vec
        a, b = (q_vec, -q_vec) if pe else (np.zeros(3), q_vec)
    else:
        kappa_s, kappa_w = Z_a, (Z_b + lam if pe else lam)
        ga, gb = spec.gamma_a, spec.gamma_b
        c = ga + gb - ga * gb
        # phase p_a.X - p_b.R_out with R_out = c s + (1 - gb) X, and X = x_s s - w:
        # x_s = 1 - ga for the proton-electron term (w is the outgoing electron
        # coordinate r_b), x_s = -ga internuclear (w is the internuclear separation)
        x_s = 1.0 - ga if pe else -ga
        k = p_a_vec - (1.0 - gb) * p_b_vec
        a, b = x_s * k - c * p_b_vec, -k
    if kappa_w <= 0:
        raise DomainError(
            "oracle importance sampling needs lam > 0 for this mode/interaction"
        )
    # phi_b(r_b) phi_a(s_r) V(w_r) = amp e^(-Z_b r_b - Z_a s_r - lam w_r) / w_r
    amp = math.sqrt(Z_b**3 / math.pi) * math.sqrt(Z_a**3 / math.pi)
    amp *= -Z_b if pe else Z_a * Z_b
    # the density is (kappa_s kappa_w)^3 e^(-x_s - x_w) / (8 pi)^2, and
    # 1/w_r = kappa_w / x_w
    amp *= (8.0 * np.pi) ** 2 * kappa_w / (kappa_s * kappa_w) ** 3
    return kappa_s, kappa_w, a, b, amp


def _norm_of_sum(s_r, s, w_r, w):
    """|s + w| for radii s_r, w_r along the directions of the draws s, w.

    The law of cosines, as (s_r - w_r)^2 + 2 s_r w_r (1 + cos angle(s, w))
    with cos angle(s, w) the dot product of the two unit directions: no
    trig call. Round-off can take 1 + cos below 0 by a few ulps for
    antiparallel directions, so the square is clamped at 0.
    """
    cos_sw = s.u_x * w.u_x + s.u_y * w.u_y + s.mu * w.mu
    square = (s_r - w_r) ** 2 + 2.0 * s_r * w_r * (1.0 + cos_sw)
    return np.sqrt(np.maximum(square, 0.0))


def _oracle_integrand(spec, theta, lam, mode, interaction):
    """One term's raw 6-D integrand over its sampling density, as the
    mean over the antithetic pair (s, w), (-s, -w), for one block's draws
    of _oracle_draws.

    The integrand is mag e^(i (a.s + b.w)) with mag a function of radii
    alone (_oracle_term), so the pair's mean is Re f = mag cos(a.s +
    b.w): one tan per point (_cos_sin), with a.s = s_r (a_x u_x + a_z mu).
    """
    Z_b = spec.final.Z_eff
    kappa_s, kappa_w, a, b, amp = _oracle_term(spec, theta, lam, mode, interaction)
    a_x, a_z = a[0] / kappa_s, a[2] / kappa_s
    b_x, b_z = b[0] / kappa_w, b[2] / kappa_w
    internuclear = mode == "jacobi" and interaction == "Internuclear"

    def integrand(s, w):
        phase = s.x * (a_x * s.u_x + a_z * s.mu) + w.x * (b_x * w.u_x + b_z * w.mu)
        vals = _cos_sin(phase)[0]
        # freed before _norm_of_sum's temporaries, which set the block's peak
        del phase
        if internuclear:
            vals *= np.exp(-Z_b * _norm_of_sum(s.x / kappa_s, s, w.x / kappa_w, w))
        vals *= amp
        vals /= w.x
        return vals

    return integrand


def _oracle_draws(sobol, stream):
    """One block's unit-rate draws of s and w, as two _Draw, from one
    scrambled set of the Sobol class sobol (scipy.stats.qmc.Sobol) drawn
    from the SeedSequence stream.

    Row i's six uniforms give point i: columns 0 and 3 the radii of s
    and w, then mu = 2u - 1 and phi = 2 pi u from columns 1, 2 and 4, 5.
    Both radii come first and the uniforms are dropped before either
    direction, and _gamma3_inv works in place, so the draws peak at about
    3.4 MB under tracemalloc (Sobol's own draw peaks at 3.1 MB), which is
    also a one-term block's peak; a jacobi Sum block peaks at 3.9 MB, in
    its internuclear integrand. Keep these peaks low: the heap a block
    frees is handed back to the OS once it passes the allocator's trim
    threshold, and every later block then page-faults it in again.

    scipy's Sobol(rng=...) spawns its scrambling stream from the
    generator, and so from the stream itself: a second call on the same
    SeedSequence object draws other points. Each call takes a fresh
    child.
    """
    sob = sobol(d=6, scramble=True, rng=np.random.default_rng(stream))
    U = sob.random(ORACLE_BLOCK)
    radii = [_gamma3_inv(np.clip(U[:, i], 1e-15, 1.0 - 1e-15)) for i in (0, 3)]
    angles = [(2.0 * U[:, i] - 1.0, 2.0 * np.pi * U[:, i + 1]) for i in (1, 4)]
    del U
    return tuple(_Draw.of(x, mu, phi) for x, (mu, phi) in zip(radii, angles))


def _oracle_block_means(spec, theta, terms, samples, lam, mode, seed, threads):
    """Mean of each term's importance-weighted integrand over each block.

    Returns a real array of shape (len(terms), blocks). Block b draws its
    Sobol points, radii and directions once, from child b of
    SeedSequence(seed), so no two blocks, of one seed or of two, share a
    stream; every term reuses them at its own rates (_oracle_term), and
    adds the cos of its own phase (_oracle_integrand). The blocks run on
    a pool of min(threads, blocks, os.cpu_count()) workers, as the blocks
    are CPU-bound, or on the caller's thread when that is 1, and the
    means come back in block order, so the thread count cannot change
    them.
    """
    from scipy.stats import qmc

    # scipy and the radius table load here, on the caller's thread, so no
    # worker thread imports or builds anything
    _log_gamma3_table()
    integrands = [_oracle_integrand(spec, theta, lam, mode, term) for term in terms]
    n_blocks = max(2, math.ceil(samples / ORACLE_BLOCK))
    streams = np.random.SeedSequence(seed).spawn(n_blocks)

    def block_means(b):
        s, w = _oracle_draws(qmc.Sobol, streams[b])
        return [float(np.mean(integrand(s, w))) for integrand in integrands]

    # one thread runs the blocks itself: a one-worker pool cost 1-3% per
    # call and raised the peak RSS of the CLI demo sweep by 3.8 MB
    workers = min(threads, n_blocks, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            means = list(pool.map(block_means, range(n_blocks)))
    else:
        means = [block_means(b) for b in range(n_blocks)]
    return np.array(means).T


def brute_force_oracle(
    spec,
    theta,
    samples=1 << 20,
    lam=1.0,
    mode="obk",
    seed=7,
    n_threads=1,
):
    """Direct Sobol evaluation of the capture integral, value and error.

    Each (mode, interaction) term is one _oracle_term. Block b draws from
    child b of SeedSequence(seed), and the block means reduce in index
    order, so n_threads cannot change the result. The value's imaginary
    part is exactly 0 (antithetic pairs), and its error is the standard
    error of the real block means. The Sum interaction runs
    its two terms on the same blocks, so its error comes from the summed
    block means, which carry the terms' correlation. `samples` counts
    integrand evaluations.
    """
    _admit(spec, lam, mode)
    _check_count(samples, 100000, "oracle samples")
    _check_count(seed, 0, "oracle seed")
    _check_count(n_threads, 1, "oracle n_threads")
    terms = ("ProtonElectron", "Internuclear")
    if spec.interaction != "Sum":
        terms = (spec.interaction,)
    means = sum(
        _oracle_block_means(spec, theta, terms, samples, lam, mode, seed, n_threads)
    )
    n_blocks = means.size
    err = math.sqrt(np.var(means, ddof=1) / n_blocks)
    return OracleEstimate(
        complex(np.mean(means)), err, len(terms) * n_blocks * ORACLE_BLOCK, n_blocks
    )
