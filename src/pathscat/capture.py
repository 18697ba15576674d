"""First-order electron-capture amplitudes and cross sections.

Everything here works in atomic units (hbar = m_e = 1) and assumes
hydrogenic 1s states on both centers. Two coordinate treatments of the
capture amplitude are exposed:

* mode="obk": the classic Brinkman-Kramers shortcut. One heavy vector
  R carries both plane-wave phases and both bound states take the
  plain electron coordinate. The amplitude collapses to v_screened(q)
  times a bound-bound form factor at q = |p_a - p_b|. Forward
  scattering at zero screening diverges in this mode, so unscreened
  totals are unavailable here.
* mode="jacobi": incoming and outgoing channels use their own Jacobi
  coordinates. The proton-electron amplitude factorizes into a folded
  interaction at K_b = p_a - (1-gamma_b) p_b and the initial momentum
  wavefunction at K_a = (1-gamma_a) p_a - p_b. The internuclear term
  does not factorize: its momentum integral is joined by Feynman
  parameters, done in closed form in k, and the two remaining
  parameters are summed on a fixed graded rule.

Every screened Coulomb carries screening constant lam >= 0; the
physical lam -> 0 limit is reached by Richardson extrapolation over a
geometric lam sequence. The brute-force oracle integrates the raw 6-D
integrand by scrambled Sobol points with exponential importance
sampling and block-wise error estimates; it never reuses the
momentum-space reductions it is meant to check. Its radii invert the
Gamma(3) distribution function P(3, x) = 1 - e^(-x)(1 + x + x^2/2) in
closed form (`_gamma3_inv`: a fixed number of Halley steps from a
three-piece starting guess), to round-off.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.special
import scipy.stats.qmc

from .born import _gauss_legendre
from .errors import DomainError, NumericalError
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
    "richardson_lambda_limit",
    "brute_force_oracle",
]

INTERACTIONS = ("ProtonElectron", "Internuclear", "Sum")
MODES = ("obk", "jacobi")
FLUX_RATIO_POWERS = (1, 2)
# Sobol points per oracle block; each block is one independent error sample.
ORACLE_BLOCK = 1 << 15
# Switch points and step count of _gamma3_inv. Below P(3, 1/2) the
# series of P and the cube-root guess are used, above _U_TAIL the
# log(1 - u) guess; three Halley steps reach round-off from every guess.
_U_SERIES = 1.0 - 1.625 * math.exp(-0.5)
_U_TAIL = 1.0 - 1e-3
_HALLEY_STEPS = 3
# 6/(k+3)!: the series P(3, x) = x^3 e^(-x)/6 * sum_k 6 x^k/(k+3)!,
# truncated below 1e-17 of its first term for x <= 0.6
_P3_SERIES = tuple(6.0 / math.factorial(k + 3) for k in range(14))


@dataclass(frozen=True)
class HydrogenicState:
    """1s state of effective charge Z_eff; phi(r) = sqrt(Z^3/pi) e^(-Zr)."""

    Z_eff: float

    def __post_init__(self):
        if self.Z_eff <= 0:
            raise DomainError("effective charge must be positive")

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
        if self.interaction not in INTERACTIONS:
            raise DomainError(
                f"unknown interaction {self.interaction!r}; options: {INTERACTIONS}"
            )
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
    if v <= 0:
        raise DomainError("relative speed must be positive")
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


def _require_open(spec):
    if spec.energetics.status != OPEN:
        raise DomainError("capture requires an open final channel")


def _canonical_vectors(spec, theta):
    if not 0.0 <= theta <= np.pi:
        raise DomainError("theta must lie in [0, pi]")
    p_a = spec.energetics.p_a
    p_b = spec.energetics.p_b
    p_a_vec = np.array([0.0, 0.0, p_a])
    p_b_vec = p_b * np.array([np.sin(theta), 0.0, np.cos(theta)])
    return p_a_vec, p_b_vec


def _screened_coulomb_ft(strength, lam, q2):
    # transform of strength * exp(-lam r)/r at squared momentum q2
    denom = lam**2 + q2
    if np.any(denom == 0.0):
        raise NumericalError(
            "unscreened Coulomb transform diverges at zero momentum transfer"
        )
    return 4.0 * np.pi * strength / denom


def _folded_interaction(Z_b, Z_B, lam, k2):
    """Transform of phi_b(u) * (-Z_B e^(-lam u)/u): one fold, one pole."""
    return -Z_B * math.sqrt(Z_b**3 / math.pi) * 4.0 * np.pi / ((Z_b + lam) ** 2 + k2)


def _overlap(Z_a, Z_b):
    """<phi_b|phi_a> for 1s orbitals on the same center."""
    return 8.0 * math.sqrt(Z_a**3 * Z_b**3) / (Z_a + Z_b) ** 3


def _form_factor(Z_a, Z_b, q2):
    """int phi_b phi_a e^{i q.r} d3r for same-center 1s orbitals."""
    s = Z_a + Z_b
    return 8.0 * math.sqrt(Z_a**3 * Z_b**3) * s / (s**2 + q2) ** 2


def _graded_half(n, top, depth):
    """n-point Gauss-Legendre panels on [0, top] that shrink by a factor 4
    toward 0 until their lower edge is below depth; one panel then reaches 0."""
    u, w = _gauss_legendre(n)
    count = math.ceil(math.log(top / depth, 4.0))
    edges = np.append(0.0, top * 0.25 ** np.arange(count, -1, -1))
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * u + mid).ravel(), (half * w).ravel()


def _feynman_rule(n):
    """Nodes and weights for int_0^1 ds int_0^1 dt t^3 s (1-s) f(s, t).

    Returns (s, 1-s, weight) and (t, 1-t, weight) with the factors
    s (1-s) and t^3 folded into the weights. Each complement is formed
    on its own, so no node rounds onto an end where Delta can vanish.
    The integrand varies on scales 1/(1+J^2) toward both ends of s and
    a/b toward t = 1, and at lam = 0 behaves as t^(-1/2) toward t = 0:
    the s halves and the upper t half are graded geometrically far
    below those scales (down to 1e-10 in s, which covers J up to 1e5,
    and 1e-15 in 1 - t, which covers |K_b| up to 3e7), and the lower t
    half is summed in w = sqrt(t), where that singularity is smooth.
    """
    h, wh = _graded_half(n, 0.5, 1e-10)
    s = np.concatenate((h, 1.0 - h[::-1]))
    s_c = np.concatenate((1.0 - h, h[::-1]))
    s_w = np.concatenate((wh, wh[::-1])) * s * s_c
    w, ww = _graded_half(n, math.sqrt(0.5), 1e-8)
    u, wu = _graded_half(n, 0.5, 1e-15)
    t = np.concatenate((w**2, 1.0 - u))
    t_c = np.concatenate((1.0 - w**2, u))
    t_w = np.concatenate((2.0 * w * ww, wu)) * t**3
    return (s, s_c, s_w), (t, t_c, t_w)


# built once; doubling n moves the amplitudes that
# test_internuclear_rule_is_converged samples by at most 9e-12
_FEYNMAN_RULE = _feynman_rule(12)


def _nn_feynman(spec, lam, J_vec, Kb_vec):
    """Z_A Z_B (2pi)^-3 int d3k phib(k) phia(|k-J|) 4pi/(lam^2+|k-Kb|^2).

    Feynman parameters x = t s, y = t (1-s), z = 1 - t join the three
    denominators, and the k integral is then closed form:

        Z_A Z_B (2pi)^-3 256 pi^2 (Z_a Z_b)^(5/2) (15 pi^2/8)
            int ds dt t^3 s (1-s) Delta^(-7/2),
        Delta = t a(s) + (1-t) lam^2 + t (1-t) |K_b - (1-s) J|^2,
        a(s) = s Z_b^2 + (1-s) Z_a^2 + s (1-s) J^2.

    Every term of Delta is non-negative, so no large terms cancel.
    """
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    (s, s_c, s_w), (t, t_c, t_w) = _FEYNMAN_RULE
    a = s * Z_b**2 + s_c * Z_a**2 + s * s_c * float(np.dot(J_vec, J_vec))
    d = Kb_vec - s_c[:, None] * J_vec
    b = np.einsum("ij,ij->i", d, d)
    delta = np.outer(a, t) + t_c * lam**2 + np.outer(b, t * t_c)
    integral = s_w @ delta**-3.5 @ t_w
    scale = 256.0 * np.pi**2 * (Z_a * Z_b) ** 2.5 * 15.0 * np.pi**2 / 8.0
    # the nuclear charges Z_A, Z_B are the hydrogenic Z_a, Z_b
    return Z_a * Z_b * scale * integral / (2.0 * np.pi) ** 3


def capture_amplitude_vectors(spec, p_a_vec, p_b_vec, lam=1.0, mode="obk"):
    """Capture amplitude for explicit momentum vectors.

    Only rotational invariants of (p_a_vec, p_b_vec) enter, so any
    rigid rotation of the pair leaves the value unchanged.
    """
    _require_open(spec)
    if mode not in MODES:
        raise DomainError(f"unknown coordinate mode {mode!r}; options: {MODES}")
    if lam < 0:
        raise DomainError("screening constant must be non-negative")
    p_a_vec = np.asarray(p_a_vec, dtype=float)
    p_b_vec = np.asarray(p_b_vec, dtype=float)
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    Z_A, Z_B = Z_a, Z_b

    if mode == "obk":
        q2 = float(np.sum((p_a_vec - p_b_vec) ** 2))
        pe = _screened_coulomb_ft(-Z_B, lam, q2) * _form_factor(Z_a, Z_b, q2)
        nn = _screened_coulomb_ft(Z_A * Z_B, lam, q2) * _overlap(Z_a, Z_b)
    else:
        ga = spec.gamma_a
        gb = spec.gamma_b
        K_a = (1.0 - ga) * p_a_vec - p_b_vec
        K_b = p_a_vec - (1.0 - gb) * p_b_vec
        J = ga * p_a_vec + gb * p_b_vec
        ka2 = float(np.sum(K_a**2))
        kb2 = float(np.sum(K_b**2))
        pe = _folded_interaction(
            Z_b, Z_B, lam, kb2
        ) * spec.initial.momentum_wavefunction(math.sqrt(ka2))
        nn = None
        if spec.interaction in ("Internuclear", "Sum"):
            nn = _nn_feynman(spec, lam, J, K_b)

    if spec.interaction == "ProtonElectron":
        return complex(pe)
    if spec.interaction == "Internuclear":
        return complex(nn)
    return complex(pe + nn)


def capture_amplitude(spec, theta, lam=1.0, mode="obk"):
    """Amplitude at scattering angle theta in the canonical frame."""
    p_a_vec, p_b_vec = _canonical_vectors(spec, theta)
    return capture_amplitude_vectors(spec, p_a_vec, p_b_vec, lam, mode)


def ct_differential_cross_section(spec, theta, lam=1.0, mode="obk", flux_ratio_power=2):
    """dsigma/dOmega = (mu_b / 2 pi)^2 (p_b/p_a)^power |A|^2.

    Default power 2 squares the flux ratio; standard flux algebra gives
    power 1, hence the switch.
    """
    if flux_ratio_power not in FLUX_RATIO_POWERS:
        raise DomainError("flux_ratio_power must be 1 or 2")
    A = capture_amplitude(spec, theta, lam, mode)
    mu_b = spec.kin.mu_b
    ratio = spec.energetics.p_b / spec.energetics.p_a
    return (mu_b / (2.0 * np.pi)) ** 2 * ratio**flux_ratio_power * abs(A) ** 2


def richardson_lambda_limit(evaluate, lam0=1.0, rel_tol=1e-3):
    """lam -> 0 limit of a smooth quantity by two-step elimination.

    Evaluates at lam0/(1,2,4,8); the weights (8 A3 - 6 A2 + A1)/3
    cancel the linear and quadratic terms of the lam expansion. The
    error estimate is the spread between the two nested extrapolations;
    beyond rel_tol it raises instead of returning quietly.
    """
    if lam0 <= 0:
        raise DomainError("extrapolation needs a positive starting screening")
    A1, A2, A3, A4 = (evaluate(lam0 / s) for s in (1.0, 2.0, 4.0, 8.0))
    first = (8.0 * A3 - 6.0 * A2 + A1) / 3.0
    second = (8.0 * A4 - 6.0 * A3 + A2) / 3.0
    err = abs(second - first)
    scale = max(abs(first), abs(second))
    if scale > 0 and err > rel_tol * scale:
        raise NumericalError(
            "screening extrapolation did not settle; shrink lam0", estimate=err
        )
    return second, err


def ct_total_cross_section(
    spec,
    lam=1.0,
    mode="obk",
    flux_ratio_power=2,
    theta_min=1e-7,
    theta_split=0.1,
    n_segments=12,
    seg_nodes=24,
    tail_nodes=64,
):
    """sigma = 2 pi int dsigma sin(theta) dtheta, forward-peak aware.

    Capture at heavy-particle momenta concentrates within milliradians,
    so [theta_min, theta_split] is covered by geometric segments with
    Gauss-Legendre nodes in each, the remainder by one rule, and the
    sub-theta_min cap by a flat-peak patch. The error estimate is the
    change under node doubling.
    """
    _require_open(spec)

    def dcs(theta):
        return ct_differential_cross_section(spec, theta, lam, mode, flux_ratio_power)

    def quadrature(seg_n, tail_n):
        edges = np.geomspace(theta_min, theta_split, n_segments + 1)
        total = 0.0
        count = 0
        u, w = _gauss_legendre(seg_n)
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
            g = 0.5 * (hi - lo) * w
            total += sum(
                2.0 * np.pi * np.sin(ti) * dcs(ti) * gi for ti, gi in zip(t, g)
            )
            count += seg_n
        u, w = _gauss_legendre(tail_n)
        t = 0.5 * (np.pi - theta_split) * u + 0.5 * (np.pi + theta_split)
        g = 0.5 * (np.pi - theta_split) * w
        total += sum(2.0 * np.pi * np.sin(ti) * dcs(ti) * gi for ti, gi in zip(t, g))
        count += tail_n
        # flat-peak cap below theta_min: dsigma is smooth at theta = 0
        total += np.pi * theta_min**2 * dcs(theta_min)
        return total, count + 1

    coarse, _ = quadrature(seg_nodes, tail_nodes)
    fine, count = quadrature(2 * seg_nodes, 2 * tail_nodes)
    if not np.isfinite(fine):
        raise NumericalError("angular quadrature produced a non-finite total")
    return CaptureTotal(value=fine, error=abs(fine - coarse), evaluations=count)


def _p3_series(x):
    """P(3, x) = x^3 e^(-x)/6 * sum_k 6 x^k/(k+3)!, for x below about 1/2."""
    total = _P3_SERIES[-1]
    for c in _P3_SERIES[-2::-1]:
        total = total * x + c
    return total * x**3 * np.exp(-x) / 6.0


def _gamma3_inv(u):
    """x with P(3, x) = 1 - e^(-x) (1 + x + x^2/2) = u, for u in (0, 1).

    The closed-form inverse of the Gamma(3) distribution function. The
    starting guess is y (1 + y/4) with y = (6u)^(1/3) below P(3, 1/2),
    the log(1 - u) form above _U_TAIL, and Wilson-Hilferty between.
    _HALLEY_STEPS Halley steps follow on P - u for u < 1/2 and on
    Q - (1 - u) for u >= 1/2, each formed where it is small; below
    P(3, 1/2) P comes from its series, because 1 - Q cancels there.
    """
    x = 3.0 * (26.0 / 27.0 + scipy.special.ndtri(u) / math.sqrt(27.0)) ** 3
    low = np.flatnonzero(u < _U_SERIES)
    u_low = u[low]
    y = np.cbrt(6.0 * u_low)
    x[low] = y * (1.0 + 0.25 * y)
    tail = np.flatnonzero(u > _U_TAIL)
    L = -np.log1p(-u[tail])
    x[tail] = L + np.log1p(L + 0.5 * L * L)
    # f = (head - Q) - rest is (1 - Q) - u = P - u below 1/2, (1 - u) - Q above
    upper = u >= 0.5
    head = np.where(upper, 1.0 - u, 1.0)
    rest = np.where(upper, 0.0, u)
    for _ in range(_HALLEY_STEPS):
        e = np.exp(-x)
        f = (head - e * (1.0 + x + 0.5 * x * x)) - rest
        f[low] = _p3_series(x[low]) - u_low
        # Newton step f/P', then Halley's correction with P''/(2 P') = 1/x - 1/2
        t = f / (0.5 * x * x * e)
        x = x - t / (1.0 - t * (1.0 / x - 0.5))
    return x


def _sample_iso_exp(U):
    """Map three uniforms per row to a unit-rate radius and a direction.

    The radius x = P^-1(3, u) comes from _gamma3_inv, the closed-form
    inverse of the Gamma(3) distribution function; the direction is
    uniform on the sphere, as a (3, n) array. The point (x/kappa) times
    the direction has density kappa^3 e^(-x)/(8 pi) in 3-D.
    """
    x = _gamma3_inv(np.clip(U[:, 0], 1e-15, 1.0 - 1e-15))
    mu = 2.0 * U[:, 1] - 1.0
    phi = 2.0 * np.pi * U[:, 2]
    st = np.sqrt(1.0 - mu**2)
    direction = np.empty((3, len(x)))
    direction[0] = st * np.cos(phi)
    direction[1] = st * np.sin(phi)
    direction[2] = mu
    return x, direction


def _oracle_plan(spec, lam, mode, interaction):
    """Importance-sampling constants; the second vector is the one the
    interaction decays in, so its rate always includes lam."""
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    if mode == "jacobi":
        kappa_s = Z_a
        kappa_w = Z_b + lam if interaction == "ProtonElectron" else lam
    else:
        kappa_s = Z_a + Z_b
        kappa_w = lam
    if kappa_w <= 0:
        raise DomainError(
            "oracle importance sampling needs lam > 0 for this mode/interaction"
        )
    return kappa_s, kappa_w


def _dot(vec, points):
    """vec . point for each column of a (3, n) array."""
    return vec[0] * points[0] + vec[1] * points[1] + vec[2] * points[2]


def _oracle_integrand(spec, theta, lam, mode, interaction):
    """Raw 6-D integrand over the sampled pair (s, w), no reductions.

    Returns f(s, s_r, w, w_r) for points given as (3, n) arrays with
    their radii. The wave vectors, mass ratios and orbital
    normalisations are built here, once per oracle call.
    """
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    # phi_b(r_b) phi_a(s_r) V(w_r) = amp e^(-Z_b r_b - Z_a s_r - lam w_r) / w_r
    amp = math.sqrt(Z_b**3 / math.pi) * math.sqrt(Z_a**3 / math.pi)
    amp *= -Z_b if interaction == "ProtonElectron" else Z_a * Z_b
    p_a_vec, p_b_vec = _canonical_vectors(spec, theta)
    if mode == "obk":
        q_vec = p_a_vec - p_b_vec

        def integrand(s, s_r, w, w_r):
            # R = s - w for the proton-electron term, R = w internuclear
            R = s - w if interaction == "ProtonElectron" else w
            mag = amp * np.exp(-(Z_a + Z_b) * s_r - lam * w_r) / w_r
            return mag * np.exp(1j * _dot(q_vec, R))

        return integrand
    ga = spec.gamma_a
    gb = spec.gamma_b
    c = ga + gb - ga * gb

    def integrand(s, s_r, w, w_r):
        if interaction == "ProtonElectron":
            # w is the outgoing electron coordinate r_b
            X = (1.0 - ga) * s - w
            r_b_r = w_r
        else:
            # w is the internuclear separation
            X = -ga * s - w
            r_b = s + w
            r_b_r = np.sqrt(_dot(r_b, r_b))
        # R_out = c s + (1 - gb) X enters only through R_out . p_b
        out_p_b = c * _dot(p_b_vec, s) + (1.0 - gb) * _dot(p_b_vec, X)
        mag = amp * np.exp(-Z_b * r_b_r - Z_a * s_r - lam * w_r) / w_r
        return mag * np.exp(1j * (_dot(p_a_vec, X) - out_p_b))

    return integrand


def _oracle_draws(seed):
    """One block's unit-rate draws of s and w from one scrambled Sobol set;
    the uniforms are dropped on return, before any term is evaluated."""
    sob = scipy.stats.qmc.Sobol(d=6, scramble=True, seed=seed)
    U = sob.random(ORACLE_BLOCK)
    return _sample_iso_exp(U[:, :3]), _sample_iso_exp(U[:, 3:])


def _oracle_block_means(spec, theta, terms, samples, lam, mode, seed, threads):
    """Mean of each term's importance-weighted integrand over each block.

    Returns an array of shape (len(terms), blocks). Block b draws its
    Sobol points and radii from seed + b once, and every term reuses them
    at its own rates. One pool runs every block and the means come back
    in block order, so the thread count cannot change them.
    """
    plans = []
    for term in terms:
        kappa_s, kappa_w = _oracle_plan(spec, lam, mode, term)
        integrand = _oracle_integrand(spec, theta, lam, mode, term)
        plans.append((kappa_s, kappa_w, integrand))
    n_blocks = max(2, math.ceil(samples / ORACLE_BLOCK))

    def block_means(b):
        (x_s, dir_s), (x_w, dir_w) = _oracle_draws(seed + b)
        # 1 / (sampling density) up to the rates: (8 pi)^2 e^(x_s + x_w)
        weight = (8.0 * np.pi) ** 2 * np.exp(x_s + x_w)
        means = []
        for kappa_s, kappa_w, integrand in plans:
            s_r = x_s / kappa_s
            w_r = x_w / kappa_w
            vals = integrand(dir_s * s_r, s_r, dir_w * w_r, w_r) * weight
            means.append(complex(np.mean(vals)) / (kappa_s * kappa_w) ** 3)
        return means

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
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

    Blocks get deterministic seeds (seed + block index, so seed must be
    non-negative) and the block means reduce in index order, so thread
    count cannot change the result. The Sum interaction runs its two
    terms on the same blocks, so its error comes from the summed block
    means, which carry the terms' correlation. `samples` counts
    integrand evaluations.
    """
    _require_open(spec)
    if samples < 100000:
        raise DomainError("oracle needs at least 1e5 samples")
    if mode not in MODES:
        raise DomainError(f"unknown coordinate mode {mode!r}; options: {MODES}")
    if seed < 0:
        raise DomainError(f"oracle seed must be non-negative, got {seed}")
    if lam < 0:
        raise DomainError("screening constant must be non-negative")
    terms = ("ProtonElectron", "Internuclear")
    if spec.interaction != "Sum":
        terms = (spec.interaction,)
    means = sum(
        _oracle_block_means(spec, theta, terms, samples, lam, mode, seed, n_threads)
    )
    n_blocks = means.size
    err = math.sqrt(
        (np.var(means.real, ddof=1) + np.var(means.imag, ddof=1)) / n_blocks
    )
    return OracleEstimate(
        complex(np.mean(means)), err, len(terms) * n_blocks * ORACLE_BLOCK, n_blocks
    )
