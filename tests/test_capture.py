"""Electron capture amplitudes, cross sections, and their Monte Carlo oracle.

Frozen numbers below were produced by independent routes: the total at
v = 2 against the closed-form capture cross section 2^18 pi / (5 v^2
(4 + v^2)^5) for unit charges, amplitudes against a 6-D Sobol oracle
with importance sampling matched to the bound-state tails. The
internuclear jacobi term is also checked against a direct 3-D momentum
sum, `_nn_momentum_reference`. The oracle's block kernel is checked
against the kernel it replaced, `_oracle_block_means_reference`, which
draws its radii with scipy's `gammaincinv` and evaluates the complex
integrand on the same streams. The batched angular total
is checked against the per-node loop it replaced, `_ct_total_reference`,
and obk totals against adaptive quadrature in log theta, `_ct_total_quad`.
The internuclear term's closed-form t integral is checked against the
2-D Feynman rule it replaced, `_nn_feynman_2d_reference`, and against
mpmath.
"""

import math
import os
import re
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats.qmc
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial.transform import Rotation

import pathscat
from pathscat import capture, DomainError, NumericalError
from pathscat.capture import (
    brute_force_oracle,
    capture_amplitude,
    capture_amplitude_vectors,
    ct_differential_cross_section,
    ct_total_cross_section,
    HydrogenicState,
    make_capture_spec,
)
from pathscat.born import _gauss_legendre
from pathscat.capture import (
    _canonical_vectors,
    _cos_sin,
    _Draw,
    _FEYNMAN_RULE,
    _gamma3_inv,
    _graded_half,
    _log_gamma3_table,
    _norm_of_sum,
    _oracle_block_means,
    _oracle_term,
    _p3_series,
    _t_integral,
)


def _no_sampling(*args, **kwargs):
    raise AssertionError("the oracle drew samples")


def _pp_spec(v=2.0, interaction="ProtonElectron"):
    return make_capture_spec(1.0, 1.0, 1.0, 1.0, v, interaction)


def _nn_momentum_reference(spec, lam, theta):
    """Z_A Z_B (2pi)^-3 int d3k phib(k) phia(|k-J|) 4pi/(lam^2+|k-K_b|^2).

    The internuclear jacobi amplitude summed directly in 3-D: mapped
    Gauss-Legendre in |k|, Gauss-Legendre in cos, trapezoid in azimuth,
    with J along the polar axis. The node counts are twice those the
    package once used for this term (96, 64, 48).
    """
    nk, nmu, nphi, k_scale = 192, 128, 96, 4.0
    p_a_vec, p_b_vec = _canonical_vectors(spec, theta)
    J_vec = spec.gamma_a * p_a_vec + spec.gamma_b * p_b_vec
    Kb_vec = p_a_vec - (1.0 - spec.gamma_b) * p_b_vec
    J = float(np.linalg.norm(J_vec))
    Kb = float(np.linalg.norm(Kb_vec))
    if J > 0 and Kb > 0:
        cos_chi = min(1.0, max(-1.0, float(np.dot(J_vec, Kb_vec) / (J * Kb))))
    else:
        cos_chi = 1.0
    sin_chi = math.sqrt(max(0.0, 1.0 - cos_chi**2))

    u, wu = np.polynomial.legendre.leggauss(nk)
    k = k_scale * (1.0 + u) / (1.0 - u)
    dk = wu * k_scale * 2.0 / (1.0 - u) ** 2
    mu, wmu = np.polynomial.legendre.leggauss(nmu)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi

    k_ = k[:, None, None]
    mu_ = mu[None, :, None]
    st_ = np.sqrt(1.0 - mu**2)[None, :, None]
    phib = spec.final.momentum_wavefunction(k)[:, None, None]
    # J along the polar axis: |k - J| has no azimuth dependence
    ka = np.sqrt(k_**2 - 2.0 * k_ * mu_ * J + J**2)
    phia = spec.initial.momentum_wavefunction(ka)
    # K_b in the x-z plane at angle chi to J
    kdotKb = k_ * (st_ * sin_chi * np.cos(phi)[None, None, :] + mu_ * cos_chi) * Kb
    integrand = phib * phia * 4.0 * np.pi / (lam**2 + k_**2 - 2.0 * kdotKb + Kb**2)
    weights = (k**2 * dk)[:, None, None] * wmu[None, :, None] * (2.0 * np.pi / nphi)
    Z_A, Z_B = spec.initial.Z_eff, spec.final.Z_eff
    return Z_A * Z_B * np.sum(integrand * weights) / (2.0 * np.pi) ** 3


def _t_rule_reference(n):
    """The t half of the former 2-D Feynman rule: nodes t, 1 - t and
    weights with t^3 folded in, for int_0^1 dt t^3 f(t). The lower half
    is summed in w = sqrt(t), where the lam = 0 behaviour t^(-1/2) is
    smooth, the upper half graded down to 1e-15 in 1 - t."""
    w, ww = _graded_half(n, math.sqrt(0.5), 1e-8)
    u, wu = _graded_half(n, 0.5, 1e-15)
    t = np.concatenate((w**2, 1.0 - u))
    t_c = np.concatenate((1.0 - w**2, u))
    t_w = np.concatenate((2.0 * w * ww, wu)) * t**3
    return t, t_c, t_w


_T_RULE_REFERENCE = _t_rule_reference(12)


def _nn_feynman_2d_reference(spec, lam, J_vec, Kb_vec):
    """The internuclear term by the former 2-D rule: the 432-node s rule
    times the 492-node t rule, Delta^(-7/2) summed over the whole grid,
    one pair of vectors."""
    Z_a = spec.initial.Z_eff
    Z_b = spec.final.Z_eff
    s, s_c, s_w = _FEYNMAN_RULE
    t, t_c, t_w = _T_RULE_REFERENCE
    a = s * Z_b**2 + s_c * Z_a**2 + s * s_c * float(np.dot(J_vec, J_vec))
    d = Kb_vec - s_c[:, None] * J_vec
    b = np.einsum("ij,ij->i", d, d)
    delta = np.outer(a, t) + t_c * lam**2 + np.outer(b, t * t_c)
    integral = s_w @ delta**-3.5 @ t_w
    scale = 256.0 * np.pi**2 * (Z_a * Z_b) ** 2.5 * 15.0 * np.pi**2 / 8.0
    return Z_a * Z_b * scale * integral / (2.0 * np.pi) ** 3


def _t_integral_mpmath(a, b, lam):
    """int_0^1 t^3 Delta^(-7/2) dt by mpmath in the form t = 1/(1+u):
    int_0^inf (1+u)^2 Q^(-7/2) du, Q = a + c u + lam^2 u^2, c = a + b +
    lam^2. The integrand is divided by its scale a^(-7/2) / u0, u0 = a/c,
    so that mpmath's absolute tolerance acts as a relative one, and the
    breakpoints u0 4^k run geometrically past every scale of Q: 1, 1/u0
    and c/lam^2. Beyond 1e20/u0 the integrand falls at least as
    u^(-3/2) u0^(5/2), so a farther lam scale carries under 1e-10 of
    the integral, and mpmath's last, infinite interval takes it."""
    with mpmath.workdps(25):
        a, b, lam = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(lam)
        c = a + b + lam**2
        u0 = a / c

        def f(u):
            return (1 + u) ** 2 * (1 + (c * u + lam**2 * u**2) / a) ** -3.5 / u0

        top = 1e4 * min(max(1 / u0, c / lam**2 if lam else 1), 1e20 / u0)
        n = int(mpmath.ceil(mpmath.log(top / u0, 4))) + 3
        points = [0] + [u0 * mpmath.mpf(4) ** k for k in range(-3, n)] + [mpmath.inf]
        return float(mpmath.quad(f, points) * u0 / a**3.5)


def _ct_total_reference(spec, lam=1.0, mode="obk", n_segments=12, seg_nodes=24,
                        tail_nodes=64):
    """The angular total by the per-node loop it used before dsigma took
    an angle array: one scalar dsigma call per node, summed in order."""
    theta_min, theta_split = 1e-7, 0.1
    low = theta_min
    if mode == "obk":
        p_a, p_b = spec.energetics.p_a, spec.energetics.p_b
        low = min(theta_min, math.hypot(lam, p_a - p_b) / p_b / 10.0) or theta_min

    def dcs(theta):
        return ct_differential_cross_section(spec, theta, lam, mode)

    def quadrature(seg_n, tail_n):
        edges = np.geomspace(low, theta_split, n_segments + 1)
        edges[0] = 0.0
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
        return total, count

    coarse, _ = quadrature(seg_nodes, tail_nodes)
    fine, count = quadrature(2 * seg_nodes, 2 * tail_nodes)
    return capture.CaptureTotal(value=fine, error=abs(fine - coarse), evaluations=count)


def _ct_total_quad(spec, lam, mode="obk"):
    """2 pi int dsigma sin(theta) dtheta by adaptive quadrature in log theta
    on [e^-60, pi], with breakpoints around the obk forward peak's width
    w = hypot(lam, p_a - p_b) / p_b; about 20 ms a total."""
    p_a, p_b = spec.energetics.p_a, spec.energetics.p_b
    width = math.hypot(lam, p_a - p_b) / p_b
    lo, hi = -60.0, math.log(math.pi)
    points = [math.log(width) + d for d in (-3, -1, 0, 1, 3)] if width else []

    def integrand(u):
        theta = math.exp(u)
        dcs = ct_differential_cross_section(spec, theta, lam, mode)
        return 2.0 * np.pi * math.sin(theta) * theta * dcs

    value, _ = quad(integrand, lo, hi, points=[u for u in points if lo < u < hi]
                    or None, epsrel=1e-11, epsabs=0.0, limit=1000)
    return value


def _sample_iso_exp_reference(U, kappa):
    """The oracle's former sampler: radius gammaincinv(3, u) / kappa."""
    u = np.clip(U, 1e-15, 1.0 - 1e-15)
    r = scipy.special.gammaincinv(3.0, u[:, 0]) / kappa
    mu = 2.0 * u[:, 1] - 1.0
    phi = 2.0 * np.pi * u[:, 2]
    st_ = np.sqrt(1.0 - mu**2)
    vec = np.column_stack((r * st_ * np.cos(phi), r * st_ * np.sin(phi), r * mu))
    density = kappa**3 * np.exp(-kappa * r) / (8.0 * np.pi)
    return vec, r, density


def _oracle_integrand_reference(spec, lam, mode, interaction, p_a_vec, p_b_vec, s, w):
    """The oracle's former integrand: every constant rebuilt per block."""
    Z_B = spec.final.Z_eff
    Z_A = spec.initial.Z_eff
    phi_a = spec.initial.position_wavefunction
    phi_b = spec.final.position_wavefunction
    s_r = np.linalg.norm(s, axis=1)
    w_r = np.linalg.norm(w, axis=1)
    if mode == "obk":
        q_vec = p_a_vec - p_b_vec
        if interaction == "ProtonElectron":
            R = s - w
            V = -Z_B * np.exp(-lam * w_r) / w_r
        else:
            R = w
            V = Z_A * Z_B * np.exp(-lam * w_r) / w_r
        return phi_b(s_r) * phi_a(s_r) * V * np.exp(1j * (R @ q_vec))
    ga = spec.gamma_a
    gb = spec.gamma_b
    c = ga + gb - ga * gb
    if interaction == "ProtonElectron":
        X = (1.0 - ga) * s - w
        V = -Z_B * np.exp(-lam * w_r) / w_r
        r_b_r = w_r
    else:
        X = -ga * s - w
        V = Z_A * Z_B * np.exp(-lam * w_r) / w_r
        r_b_r = np.linalg.norm(s + w, axis=1)
    R_out = c * s + (1.0 - gb) * X
    phase = np.exp(1j * ((X @ p_a_vec) - (R_out @ p_b_vec)))
    return phi_b(r_b_r) * phi_a(s_r) * V * phase


def _oracle_block_means_reference(spec, theta, interaction, samples, lam, mode, seed,
                                  magnitudes=False):
    """Complex block means of one term by the former kernel, one block at
    a time, on the oracle's streams: block b from child b of
    SeedSequence(seed). With magnitudes, also each block's mean of
    |f/p|, the size of the summands before they cancel."""
    kappa_s, kappa_w = _oracle_term(spec, theta, lam, mode, interaction)[:2]
    p_a_vec, p_b_vec = _canonical_vectors(spec, theta)
    n_blocks = max(2, math.ceil(samples / capture.ORACLE_BLOCK))
    means, sizes = [], []
    for stream in np.random.SeedSequence(seed).spawn(n_blocks):
        sob = scipy.stats.qmc.Sobol(d=6, scramble=True,
                                    rng=np.random.default_rng(stream))
        U = sob.random(capture.ORACLE_BLOCK)
        s, _, ps = _sample_iso_exp_reference(U[:, :3], kappa_s)
        w, _, pw = _sample_iso_exp_reference(U[:, 3:], kappa_w)
        vals = _oracle_integrand_reference(
            spec, lam, mode, interaction, p_a_vec, p_b_vec, s, w
        ) / (ps * pw)
        means.append(complex(np.mean(vals)))
        sizes.append(float(np.mean(np.abs(vals))))
    if magnitudes:
        return np.asarray(means), np.asarray(sizes)
    return np.asarray(means)


def _standard_error(means):
    """Standard error of the real parts of block means."""
    return math.sqrt(np.var(means.real, ddof=1) / means.size)


def test_hydrogenic_state_basics():
    st = HydrogenicState(1.0)
    assert st.binding_energy == -0.5
    assert HydrogenicState(2.0).binding_energy == -2.0
    # zero-momentum value of the 1s transform, 8 sqrt(pi) Z^(5/2) / Z^4 at Z=1
    assert st.momentum_wavefunction(0.0) == pytest.approx(8.0 * math.sqrt(math.pi))
    with pytest.raises(DomainError):
        HydrogenicState(0.0)


def test_momentum_wavefunction_is_normalized():
    st = HydrogenicState(1.3)
    val, _ = quad(
        lambda k: 4.0 * np.pi * k**2 * abs(st.momentum_wavefunction(k)) ** 2,
        0.0,
        np.inf,
    )
    assert val / (2.0 * np.pi) ** 3 == pytest.approx(1.0, rel=1e-9)


def test_total_cross_section_matches_frozen_and_closed_form():
    spec = _pp_spec()
    tot = ct_total_cross_section(spec, lam=0.0, mode="jacobi")
    assert tot.value == pytest.approx(1.2590340432703548, rel=1e-9)
    # infinite-nuclear-mass closed form at v = 2 is 0.4 pi; the 0.19%
    # excess is the finite proton mass entering the momentum transfers
    assert tot.value / (0.4 * np.pi) == pytest.approx(1.0, abs=5e-3)
    assert tot.error <= 1e-9 * tot.value


def test_screening_extrapolation_is_gone():
    # every jacobi route is evaluated at lam = 0 directly
    assert not hasattr(pathscat, "richardson_lambda_limit")
    assert "richardson_lambda_limit" not in pathscat.__all__
    assert not hasattr(capture, "richardson_lambda_limit")


def test_amplitude_rotation_invariance():
    spec_pe = _pp_spec()
    spec_nn = _pp_spec(interaction="Internuclear")
    pa, pb = _canonical_vectors(spec_pe, 2e-3)
    rng = np.random.default_rng(11)
    for mode in ("obk", "jacobi"):
        for spec in (spec_pe, spec_nn):
            base = capture_amplitude_vectors(spec, pa, pb, lam=1.0, mode=mode)
            for _ in range(3):
                R = Rotation.random(random_state=rng).as_matrix()
                rot = capture_amplitude_vectors(
                    spec, R @ pa, R @ pb, lam=1.0, mode=mode
                )
                assert abs(rot - base) <= 1e-10 * abs(base)
            # a batch of rotated pairs, one rotation per row
            R = Rotation.random(4, random_state=rng).as_matrix()
            rot = capture_amplitude_vectors(spec, R @ pa, R @ pb, lam=1.0, mode=mode)
            assert rot.shape == (4,)
            assert np.all(np.abs(rot - base) <= 1e-10 * abs(base))


def test_sum_interaction_is_additive():
    theta = 2e-3
    for mode in ("obk", "jacobi"):
        parts = sum(
            capture_amplitude(_pp_spec(interaction=i), theta, mode=mode)
            for i in ("ProtonElectron", "Internuclear")
        )
        whole = capture_amplitude(_pp_spec(interaction="Sum"), theta, mode=mode)
        assert whole == pytest.approx(parts, rel=1e-12)


def test_internuclear_term_matches_momentum_quadrature():
    # where the doubled 3-D sum is converged the two routes agree to
    # about 3e-11; at theta = 5e-3 the 3-D sum itself is off by up to
    # 2e-8 (v = 4), which the looser bound there admits
    for v in (1.0, 2.0, 4.0):
        spec = _pp_spec(v, "Internuclear")
        for theta, rel in ((0.0, 1e-10), (1e-3, 1e-10), (5e-3, 1e-7),
                           (0.1, 1e-10), (1.0, 1e-10)):
            route = capture_amplitude(spec, theta, lam=1.0, mode="jacobi")
            reference = _nn_momentum_reference(spec, 1.0, theta)
            assert route == pytest.approx(reference, rel=rel), f"v={v}, theta={theta}"


def test_internuclear_rule_is_converged(monkeypatch):
    # the Feynman-parameter rule is fixed, so doubling its nodes is its
    # error check, down to lam = 0 where the 3-D sum never settles
    cases = [(lam, v, theta) for lam in (0.0, 0.1, 1.0) for v in (0.5, 2.0, 8.0, 32.0)
             for theta in (0.0, 1e-3, 0.1, 1.0)]

    def amplitudes():
        return [capture_amplitude(_pp_spec(v, "Internuclear"), theta, lam=lam,
                                  mode="jacobi") for lam, v, theta in cases]

    base = amplitudes()
    monkeypatch.setattr(capture, "_FEYNMAN_RULE", capture._feynman_rule(24))
    for case, value, doubled in zip(cases, base, amplitudes()):
        assert math.isfinite(value.real) and value.real > 0.0, case
        assert abs(doubled - value) <= 1e-8 * abs(value), case


FORMER_RULE_SYSTEMS = [(1.0, 1.0, 1.0, 1.0), (1.0, 4.0, 1.0, 2.0),
                       (4.0, 1.0, 2.0, 1.0), (12.0, 1.0, 6.0, 1.0)]


@pytest.mark.parametrize("system", FORMER_RULE_SYSTEMS)
def test_closed_form_t_integral_matches_the_former_2d_rule(system):
    # the t integral in closed form against the 492-node t rule it
    # replaced, on the same s rule; unequal masses and charges tell Z_a
    # from Z_b. A Sum differs from the former rule only by its
    # internuclear part, so it is gated on that part's size: where the
    # two terms cancel, the Sum can be far smaller than either.
    theta = np.append(0.0, np.geomspace(1e-6, np.pi, 20))
    for v in (0.5, 2.0, 8.0, 64.0):
        nn_spec = make_capture_spec(*system, v, "Internuclear")
        sum_spec = make_capture_spec(*system, v, "Sum")
        pa, pb = _canonical_vectors(nn_spec, theta)
        J = nn_spec.gamma_a * pa + nn_spec.gamma_b * pb
        Kb = pa - (1.0 - nn_spec.gamma_b) * pb
        for lam in (0.0, 0.1, 0.5, 1.0, 2.0):
            nn = capture_amplitude(nn_spec, theta, lam=lam, mode="jacobi")
            whole = capture_amplitude(sum_spec, theta, lam=lam, mode="jacobi")
            pe = whole - nn
            for i in range(theta.size):
                want = _nn_feynman_2d_reference(nn_spec, lam, J[i], Kb[i])
                case = (v, lam, theta[i])
                assert abs(nn[i] - want) <= 1e-11 * want, case
                assert abs(whole[i] - (pe[i] + want)) <= 1e-11 * want, case


_MAGNITUDES = st.floats(-2.0, 8.0).map(lambda k: 10.0**k)


@settings(max_examples=20, deadline=None, database=None)
@given(a=_MAGNITUDES,
       b=st.one_of(st.just(0.0), st.floats(-6.0, 14.0).map(lambda k: 10.0**k)),
       lam=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
def test_t_integral_matches_mpmath(a, b, lam):
    want = _t_integral_mpmath(a, b, lam)
    assert abs(_t_integral(a, b, lam) / want - 1) <= 1e-13


def test_t_integral_at_zero_screening():
    # at lam = 0 the three terms sum to one rational function of a and b
    a = np.geomspace(1e-2, 1e8, 11)[:, None]
    b = np.append(0.0, np.geomspace(1e-6, 1e14, 11))
    want = (2.0 / 15.0) * (15.0 * a**2 + 10.0 * a * b + 3.0 * b**2) / (
        (a + b) ** 3 * a**2.5)
    np.testing.assert_allclose(_t_integral(a, b, 0.0), want, rtol=1e-14, atol=0.0)
    # b = 0 is int_0^inf (1+u)^(-3/2) du a^(-7/2)
    assert _t_integral(4.0, 0.0, 0.0) == pytest.approx(2.0 / 4.0**3.5, rel=1e-15)


def test_internuclear_batch_memory_is_bounded():
    # the batch is evaluated in chunks of pairs, so a long angle array
    # costs no more memory than one chunk; chunking moves no value
    spec = make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, "Internuclear")
    theta = np.linspace(0.0, np.pi, 5000)
    tracemalloc.start()
    try:
        whole = capture_amplitude(spec, theta, lam=0.1, mode="jacobi")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40e6  # 139 MB as one (pairs x nodes) evaluation
    parts = np.concatenate([capture_amplitude(spec, theta[i : i + 500], lam=0.1,
                                              mode="jacobi")
                            for i in range(0, theta.size, 500)])
    np.testing.assert_allclose(whole, parts, rtol=1e-14, atol=0.0)


def _post_amplitude(spec, theta):
    """The jacobi ProtonElectron amplitude in post form at lam = 0, from
    closed forms: phi_b~(K_b) times the transform of phi_a(r) V_A(r),
    V_A = -Z_A / r, at K_a, with Z_A = Z_a. The prior form instead pairs
    phi_a~(K_a) with the transform of phi_b V_B at K_b."""
    Z_a, Z_b = spec.initial.Z_eff, spec.final.Z_eff
    ga, gb = spec.gamma_a, spec.gamma_b
    p_a = np.array([0.0, 0.0, spec.energetics.p_a])
    p_b = spec.energetics.p_b * np.array([np.sin(theta), 0.0, np.cos(theta)])
    ka2 = np.sum(((1.0 - ga) * p_a - p_b) ** 2)
    kb2 = np.sum((p_a - (1.0 - gb) * p_b) ** 2)
    phi_b = 8.0 * math.sqrt(math.pi) * Z_b**2.5 / (Z_b**2 + kb2) ** 2
    fold_a = -Z_a * math.sqrt(Z_a**3 / math.pi) * 4.0 * math.pi / (Z_a**2 + ka2)
    return phi_b * fold_a, (Z_b**2 + kb2) / (Z_a**2 + ka2)


POST_ANGLES = (0.0, 1e-3, 5e-3, 0.1, 1.0)


@pytest.mark.parametrize("system", [(1.0, 1.0, 1.0, 1.0), (4.0, 4.0, 2.0, 2.0)])
def test_post_form_equals_prior_for_symmetric_systems(system):
    # on the energy shell the prior and post forms agree; for A = B and
    # Z_a = Z_b the bound states and the kinematics use the same masses
    for v in (0.5, 2.0, 8.0):
        spec = make_capture_spec(*system, v, "ProtonElectron")
        for theta in POST_ANGLES:
            prior = capture_amplitude(spec, theta, lam=0.0, mode="jacobi")
            post, _ = _post_amplitude(spec, theta)
            assert abs(prior / post - 1.0) <= 1e-12, (v, theta)


@pytest.mark.parametrize("system", [(1.0, 4.0, 1.0, 2.0), (4.0, 1.0, 2.0, 1.0),
                                    (12.0, 1.0, 6.0, 1.0)])
def test_post_form_differs_from_prior_by_the_mass_ratio(system):
    # the 1s states carry the electron mass while the kinematics carry
    # the reduced masses m_a and m_b, so for unequal nuclei prior/post is
    # (Z_b^2 + K_b^2) / (Z_a^2 + K_a^2), off 1 by O(m/M)
    for v in (0.5, 2.0, 8.0):
        spec = make_capture_spec(*system, v, "ProtonElectron")
        for theta in POST_ANGLES:
            prior = capture_amplitude(spec, theta, lam=0.0, mode="jacobi")
            post, ratio = _post_amplitude(spec, theta)
            assert abs((prior / post - 1.0) - (ratio - 1.0)) <= 1e-13, (v, theta)
            assert 4e-4 <= abs(ratio - 1.0) <= 5.5e-4, (v, theta)


BENCH_RULE = {"n_segments": 6, "seg_nodes": 8, "tail_nodes": 16}
# Every mode x interaction x speed x screening on the bench rule; the
# default rule on every closed-form case, and on one jacobi case of each
# Feynman-kernel interaction (a default-rule loop there costs ~1.3 s).
# obk at lam = 0 diverges in the forward direction and is left out.
TOTAL_CASES = [
    (mode, interaction, v, lam, rule)
    for mode in ("obk", "jacobi")
    for interaction in ("ProtonElectron", "Internuclear", "Sum")
    for v in (0.7, 2.0, 8.0, 64.0)
    for lam in (0.0, 0.1, 1.0)
    if not (mode == "obk" and lam == 0.0)
    for rule in ("bench", "default")
    if rule == "bench" or mode == "obk" or interaction == "ProtonElectron"
    or (v, lam) == (2.0, 0.1)
]


@pytest.mark.parametrize("mode,interaction,v,lam,rule", TOTAL_CASES)
def test_total_matches_the_per_node_loop(mode, interaction, v, lam, rule):
    spec = _pp_spec(v, interaction)
    options = BENCH_RULE if rule == "bench" else {}
    got = ct_total_cross_section(spec, lam=lam, mode=mode, **options)
    want = _ct_total_reference(spec, lam=lam, mode=mode, **options)
    assert got.evaluations == want.evaluations == (128 if rule == "bench" else 704)
    assert got.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
    # the error is the difference of two totals, so its round-off is theirs,
    # a fraction of the value, however small the error itself is
    assert abs(got.error - want.error) <= 1e-13 * want.value


def test_total_makes_one_dsigma_call_per_rule(monkeypatch):
    sizes = []
    batched = capture.ct_differential_cross_section

    def counted(spec, theta, *args):
        sizes.append(np.size(theta))
        return batched(spec, theta, *args)

    monkeypatch.setattr(capture, "ct_differential_cross_section", counted)
    total = ct_total_cross_section(_pp_spec(), lam=0.0, mode="jacobi")
    # coarse then fine: 12 segments x 24 nodes + 64 tail nodes, doubled
    assert sizes == [352, 704]
    assert total.evaluations == 704


@pytest.mark.parametrize("rule", [
    {"n_segments": -2}, {"seg_nodes": -1}, {"tail_nodes": 0},
    {"n_segments": 0}, {"seg_nodes": 0}, {"tail_nodes": -3},
    {"seg_nodes": 8.5}, {"n_segments": 2.0}, {"seg_nodes": True},
])
def test_total_refuses_an_angular_rule_out_of_range(monkeypatch, rule):
    # no segments once gave a total of 1e-7 with error 0, and no nodes a
    # leggauss error; a negative count is refused before numpy sees it, a
    # float count before it raises a TypeError, and True before it runs as 1
    def no_dsigma(*args):
        raise AssertionError("dsigma evaluated for a rule out of range")

    monkeypatch.setattr(capture, "ct_differential_cross_section", no_dsigma)
    with pytest.raises(DomainError):
        ct_total_cross_section(_pp_spec(), lam=0.0, mode="jacobi", **rule)


def _angles():
    """Angles in [0, pi], with milliradian and smaller ones well represented."""
    small = st.floats(1.0, 8.0).map(lambda k: 10.0**-k)
    return st.one_of(st.floats(0.0, math.pi), small)


@settings(max_examples=40, deadline=None, database=None)
@given(theta=st.lists(_angles(), min_size=1, max_size=6),
       mode=st.sampled_from(capture.MODES),
       interaction=st.sampled_from(capture.INTERACTIONS),
       lam=st.sampled_from((0.0, 0.1, 1.0)))
def test_dsigma_on_an_angle_array_is_elementwise(theta, mode, interaction, lam):
    if mode == "obk" and lam == 0.0:
        lam = 0.1  # theta = 0 diverges there; see the next tests
    spec = _pp_spec(2.0, interaction)
    batch = ct_differential_cross_section(spec, np.array(theta), lam=lam, mode=mode)
    single = [ct_differential_cross_section(spec, t, lam=lam, mode=mode) for t in theta]
    assert all(type(x) is float for x in single)
    assert batch.shape == (len(theta),)
    assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))


@settings(max_examples=40, deadline=None, database=None)
@given(theta=st.lists(_angles(), max_size=5),
       bad=st.one_of(st.floats(max_value=-5e-324), st.floats(min_value=math.pi,
                                                             exclude_min=True),
                     st.just(math.nan)),
       where=st.integers(0, 5),
       mode=st.sampled_from(capture.MODES))
def test_an_angle_outside_zero_pi_anywhere_is_refused(theta, bad, where, mode):
    theta.insert(where % (len(theta) + 1), bad)
    with pytest.raises(DomainError, match=re.escape("theta must lie in [0, pi]")):
        ct_differential_cross_section(_pp_spec(), np.array(theta), mode=mode)


@settings(max_examples=30, deadline=None, database=None)
@given(theta=st.lists(_angles(), max_size=5), where=st.integers(0, 5),
       interaction=st.sampled_from(capture.INTERACTIONS))
def test_zero_momentum_transfer_unscreened_obk_is_refused(theta, where, interaction):
    # p + H(1s) -> H(1s) + p is resonant, p_a = p_b, so theta = 0 is q = 0
    spec = _pp_spec(interaction=interaction)
    assert spec.energetics.p_a == spec.energetics.p_b
    at = where % (len(theta) + 1)
    theta.insert(at, 0.0)
    if interaction == "Sum":
        # Z_A = 1: the Sum's amplitude is 2 pi at q = 0, so dsigma is mu_b^2
        dcs = ct_differential_cross_section(spec, np.array(theta), lam=0.0, mode="obk")
        assert dcs[at] == pytest.approx(spec.kin.mu_b**2, rel=1e-14)
        return
    with pytest.raises(NumericalError, match="diverges at zero momentum transfer"):
        ct_differential_cross_section(spec, np.array(theta), lam=0.0, mode="obk")


def test_oracle_agrees_with_both_routes():
    spec = _pp_spec()
    theta = 1e-3
    for mode in ("obk", "jacobi"):
        est = brute_force_oracle(spec, theta, samples=1 << 17, lam=1.0, mode=mode)
        route = capture_amplitude(spec, theta, lam=1.0, mode=mode)
        # measured 0.13 sigma (obk) and 2.61 sigma (jacobi) at this seed
        assert abs(est.value - route) <= 3.0 * est.error


def test_sum_oracle_error_comes_from_summed_block_means():
    # both terms run on the same Sobol points, so their block means are
    # correlated and adding the two errors in quadrature would be wrong
    spec = _pp_spec(interaction="Sum")
    theta, samples, seed = 1e-3, 1 << 17, 7
    est = brute_force_oracle(spec, theta, samples=samples, lam=1.0, mode="jacobi",
                             seed=seed)
    pe, nn = (
        _oracle_block_means(spec, theta, (term,), samples, 1.0, "jacobi", seed, 1)[0]
        for term in ("ProtonElectron", "Internuclear")
    )
    assert est.value == pytest.approx(np.mean(pe) + np.mean(nn), rel=1e-12)
    assert est.error == pytest.approx(_standard_error(pe + nn), rel=1e-12)
    separate = math.hypot(_standard_error(pe), _standard_error(nn))
    assert abs(est.error - separate) > 0.01 * separate
    assert (est.samples, est.blocks) == (2 * pe.size * capture.ORACLE_BLOCK, pe.size)


def test_oracle_block_kernel_matches_the_former_kernel():
    # each draw stands for its antithetic pair, so the estimate is the
    # mean of the former complex kernel's real parts on the same streams,
    # and its error the standard error of those real parts; the tabulated
    # radial inverse and the real integrand change both by round-off only
    # (measured: value 1.4e-13 of the larger term, error 8.5e-13),
    # and one pool over every block cannot let the thread count change a
    # bit; the unequal masses and charges of the second system tell
    # gamma_a from gamma_b and Z_a from Z_b
    samples, seed = 1 << 17, 7
    cases = [((1.0, 1.0, 1.0, 1.0), mode, theta)
             for mode in ("obk", "jacobi") for theta in (0.0, 1e-3)]
    cases += [((1.0, 4.0, 1.0, 2.0), mode, 1e-3) for mode in ("obk", "jacobi")]
    for system, mode, theta in cases:
        def spec_of(interaction):
            return make_capture_spec(*system, 2.0, interaction)

        terms = {
            term: _oracle_block_means_reference(
                spec_of(term), theta, term, samples, 1.0, mode, seed
            )
            for term in ("ProtonElectron", "Internuclear")
        }
        terms["Sum"] = terms["ProtonElectron"] + terms["Internuclear"]
        # round-off scales with the terms, not with the Sum's cancellation
        value_scale = max(abs(np.mean(m.real)) for m in terms.values())
        for interaction, means in terms.items():
            one, two = (
                brute_force_oracle(spec_of(interaction), theta, samples=samples,
                                   lam=1.0, mode=mode, seed=seed, n_threads=threads)
                for threads in (1, 2)
            )
            case = (system, mode, theta, interaction)
            assert one == two, case
            assert one.value.imag == 0.0, case
            assert abs(one.value - np.mean(means.real)) <= 1e-10 * value_scale, case
            assert one.error == pytest.approx(_standard_error(means), rel=1e-10,
                                              abs=0.0), case


@settings(max_examples=8, deadline=None, database=None)
@given(system=st.tuples(st.floats(1.0, 20.0), st.floats(1.0, 20.0),
                        st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
       v=st.floats(0.5, 8.0), theta=_angles(), lam=st.floats(0.1, 2.0),
       mode=st.sampled_from(capture.MODES),
       interaction=st.sampled_from(("ProtonElectron", "Internuclear")),
       seed=st.integers(0, 2**32 - 1))
def test_oracle_block_means_match_the_former_kernel_on_any_system(
        system, v, theta, lam, mode, interaction, seed):
    # every block mean, on the same streams; heavy masses at high speed
    # and wide angles give phases a.s + b.w up to about 1e6 rad, whose
    # round-off (an ulp of the phase) reaches 1e-10 of a summand in both
    # kernels, so the bound is on the summands' size mean |f/p|, not on
    # the block mean they cancel to (measured over 60 random cases: at
    # most 1.5e-12 of mean |f/p|, and up to 1.0e-9 of |mean|)
    spec = make_capture_spec(*system, v, interaction)
    samples = 1 << 17
    means = _oracle_block_means(spec, theta, (interaction,), samples, lam, mode,
                                seed, 1)[0]
    want, size = _oracle_block_means_reference(spec, theta, interaction, samples,
                                               lam, mode, seed, magnitudes=True)
    assert np.all(np.abs(means - want.real) <= 1e-10 * size)


@settings(max_examples=40, deadline=None, database=None)
@given(system=st.tuples(st.floats(1.0, 20.0), st.floats(1.0, 20.0),
                        st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
       v=st.floats(0.5, 8.0), theta=_angles(), lam=st.floats(0.1, 2.0),
       mode=st.sampled_from(capture.MODES),
       interaction=st.sampled_from(("ProtonElectron", "Internuclear")),
       seed=st.integers(0, 2**32 - 1))
def test_oracle_integrand_is_conjugate_under_reflection(system, v, theta, lam, mode,
                                                        interaction, seed):
    # (s, w) -> (-s, -w) keeps every radius and flips the sign of the
    # phase, so the mean of that antithetic pair is the real part the
    # oracle evaluates
    spec = make_capture_spec(*system, v, interaction)
    p_a_vec, p_b_vec = _canonical_vectors(spec, theta)
    s, w = np.random.default_rng(seed).exponential(1.0, (2, 64, 3)) - 1.0

    def f(s, w):
        return _oracle_integrand_reference(spec, lam, mode, interaction,
                                           p_a_vec, p_b_vec, s, w)

    forward = f(s, w)
    assert np.all(np.abs(f(-s, -w) - np.conj(forward)) <= 1e-12 * np.abs(forward))


def _uniforms():
    """u in [1e-15, 1 - 1e-15], with geometric tails toward both ends."""
    tail = st.floats(1.0, 15.0).map(lambda k: 10.0**-k)
    return st.one_of(st.floats(1e-15, 1.0 - 1e-15), tail, tail.map(lambda t: 1.0 - t))


@settings(max_examples=200, deadline=None, database=None)
@given(u=st.lists(_uniforms(), min_size=1, max_size=64))
def test_gamma3_inverse_matches_gammaincinv(u):
    # clipped as the sampler clips its radial uniforms
    u = np.clip(np.array(u), 1e-15, 1.0 - 1e-15)
    x = _gamma3_inv(u)
    want = scipy.special.gammaincinv(3.0, u)
    assert np.all(np.abs(x - want) <= 1e-12 * want)
    # the round trip, through P below one half and through Q above it
    assert np.all(np.abs(scipy.special.gammainc(3.0, x) - u) <= 1e-12 * u)
    assert np.all(np.abs(scipy.special.gammaincc(3.0, x) - (1.0 - u))
                  <= 1e-12 * (1.0 - u))


def test_gamma3_inverse_switch_points_and_step_count():
    # the series switch is P(3, 1/2), and below it the series is P
    assert capture._U_SERIES == pytest.approx(scipy.special.gammainc(3.0, 0.5),
                                              rel=1e-14)
    x = np.linspace(1e-6, 0.6, 2001)
    assert np.allclose(_p3_series(x), scipy.special.gammainc(3.0, x),
                       rtol=1e-14, atol=0.0)
    tails = np.geomspace(1e-15, 0.5, 400)
    near = np.concatenate([s * (1.0 + np.linspace(-0.02, 0.02, 101))
                           for s in (capture._U_SERIES, 0.5)])
    u = np.concatenate([tails, 1.0 - tails, np.linspace(0.0, 1.0, 1001)[1:-1], near])
    want = scipy.special.gammaincinv(3.0, u)
    # the starting guess, interpolated here by np.interp on the table's
    # tau grid, is within 1e-5 of the root but misses round-off, and the
    # one Halley step of _gamma3_inv reaches it
    tau_max, intervals = capture._TAU_MAX, capture._TAU_INTERVALS
    log_x, _ = _log_gamma3_table()
    tau = np.linspace(-tau_max, tau_max, intervals + 1)
    guess = np.exp(np.interp(scipy.special.logit(u), tau, log_x))
    miss = np.max(np.abs(guess / want - 1.0))
    assert 1e-12 < miss <= 1e-5
    assert np.max(np.abs(_gamma3_inv(u) / want - 1.0)) <= 1e-12


def _gamma3_inv_reference(u):
    """The former _gamma3_inv: the same formula, a fresh array per step."""
    log_x, slope = _log_gamma3_table()
    pos = (np.log(u / (1.0 - u)) + capture._TAU_MAX) * (
        capture._TAU_INTERVALS / (2.0 * capture._TAU_MAX))
    i = pos.astype(np.intp)
    np.clip(i, 0, capture._TAU_INTERVALS - 1, out=i)
    x = np.exp(log_x[i] + (pos - i) * slope[i])
    e = np.exp(-x)
    q = e * (1.0 + x + 0.5 * x * x)
    rest = u * (u < 0.5)
    f = ((1.0 - (u - rest)) - q) - rest
    low = np.flatnonzero(u < capture._U_SERIES)
    f[low] = _p3_series(x[low]) - u[low]
    t = f / (0.5 * x * x * e)
    return x - t / (1.0 - t * (1.0 / x - 0.5))


def test_gamma3_inverse_in_place_is_bit_identical_to_the_former_steps():
    tails = np.geomspace(1e-15, 0.5, 400)
    near = np.concatenate([s * (1.0 + np.linspace(-0.02, 0.02, 101))
                           for s in (capture._U_SERIES, 0.5)])
    u = np.concatenate([tails, 1.0 - tails, np.linspace(0.0, 1.0, 1001)[1:-1], near])
    block = np.clip(np.random.default_rng(3).random(capture.ORACLE_BLOCK),
                    1e-15, 1.0 - 1e-15)
    for values in (u, block):
        before = values.copy()
        assert np.array_equal(_gamma3_inv(values), _gamma3_inv_reference(values))
        assert np.array_equal(values, before)


def test_canonical_frame_and_oracle_phases_lie_in_the_x_z_plane():
    # the oracle forms a.s from the x and z components alone, so every
    # phase vector must have a y component of exactly 0
    theta = np.array([0.0, 1e-8, 1e-3, 0.5 * math.pi, 2.0, math.pi])
    for system in ((1.0, 1.0, 1.0, 1.0), (1.0, 4.0, 1.0, 2.0)):
        spec = make_capture_spec(*system, 2.0)
        for angles in (0.5 * math.pi, theta):
            p_a_vec, p_b_vec = _canonical_vectors(spec, angles)
            assert p_a_vec[1] == 0.0
            assert np.all(p_b_vec[..., 1] == 0.0)
        for angle in theta:
            for mode in capture.MODES:
                for term in ("ProtonElectron", "Internuclear"):
                    _, _, a, b, _ = _oracle_term(spec, angle, 1.0, mode, term)
                    assert a.shape == b.shape == (3,)
                    assert a[1] == 0.0 and b[1] == 0.0, (system, angle, mode, term)


def _direction(mu, phi):
    """A _Draw of unit radius with polar cosine mu and azimuth phi, and
    its unit vector formed by np.cos and np.sin."""
    sin_theta = np.sqrt(1.0 - mu**2)
    vec = np.column_stack((sin_theta * np.cos(phi), sin_theta * np.sin(phi), mu))
    return _Draw.of(np.ones_like(mu), mu, phi), vec


def test_norm_of_sum_by_the_law_of_cosines_matches_the_cartesian_norm():
    # |s + w|^2 from the radii and the dot product of the directions
    # agrees with the norm of the Cartesian sum to 8 eps (s_r + w_r)^2
    # (measured: 4.4 eps on these random pairs, 1.1 eps on the nearly
    # antiparallel ones); near cancellation that leaves |s + w| within sqrt(8 eps)
    # (s_r + w_r), and the square, clamped at 0, never turns it into NaN
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    n = 50000
    s, w = (_direction(rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0 * math.pi, n))
            for _ in range(2))
    pairs = [(s, w, *rng.exponential(3.0, (2, n)))]
    # w opposite s, off by 1e-12 to 1e-2 in mu and phi, with equal radii
    # or radii apart by up to 1e-4
    mu, phi = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
    delta = 10.0 ** rng.uniform(-12.0, -2.0, (2, n)) * rng.uniform(-1.0, 1.0, (2, n))
    s_r = rng.exponential(3.0, n)
    apart = rng.choice([0.0, 1e-12, 1e-8, 1e-4], n) * rng.uniform(-1.0, 1.0, n)
    w_r = s_r * (1.0 + apart)
    pairs.append((_direction(mu, phi), _direction(np.clip(delta[0] - mu, -1.0, 1.0),
                                                  phi + math.pi + delta[1]), s_r, w_r))
    for (s, s_vec), (w, w_vec), s_r, w_r in pairs:
        law = _norm_of_sum(s_r, s, w_r, w)
        want = np.linalg.norm(s_r[:, None] * s_vec + w_r[:, None] * w_vec, axis=1)
        assert np.all(law >= 0.0)
        assert np.all(np.abs(law**2 - want**2) <= 8.0 * eps * (s_r + w_r) ** 2)


# 0, +-pi, 2 pi * 0.5, the floats next to pi, +-3 pi and 101 pi; at all but
# 0, tan(angle/2) is 2e14 to 1.6e16
_HALF_TANGENT_POLES = np.array([
    0.0, math.pi, -math.pi, 2.0 * math.pi * 0.5, np.nextafter(math.pi, 0.0),
    np.nextafter(math.pi, 4.0), 3.0 * math.pi, -3.0 * math.pi, 101.0 * math.pi,
])


@settings(max_examples=200, deadline=None, database=None)
@given(angles=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
def test_cos_sin_by_the_half_angle_tangent_matches_numpy(angles):
    # cos and sin from t = tan(angle/2) are within 4 eps of np.cos and
    # np.sin (measured: 1 eps on 2^20 uniform angles in [-1e6, 1e6]),
    # and finite where t is near 1e16
    eps = np.finfo(float).eps
    angle = np.concatenate((angles, _HALF_TANGENT_POLES))
    assert np.all(np.abs(np.tan(0.5 * _HALF_TANGENT_POLES[1:])) > 1e14)
    before = angle.copy()
    cos, sin = _cos_sin(angle)
    assert np.array_equal(angle, before)
    assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
    assert np.all(np.abs(cos - np.cos(angle)) <= 4.0 * eps)
    assert np.all(np.abs(sin - np.sin(angle)) <= 4.0 * eps)


def test_an_oracle_block_calls_no_cos_or_sin(monkeypatch):
    # every azimuth and phase goes through _cos_sin's tan, and |s + w|
    # through a dot product; the integrands are built first, as
    # _oracle_block_means builds them before any block
    spec = _pp_spec(interaction="Sum")
    integrands = [capture._oracle_integrand(spec, 1e-3, 1.0, "jacobi", term)
                  for term in ("ProtonElectron", "Internuclear")]

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle block called np.cos or np.sin")

    monkeypatch.setattr(np, "cos", refuse)
    monkeypatch.setattr(np, "sin", refuse)
    s, w = capture._oracle_draws(scipy.stats.qmc.Sobol, np.random.SeedSequence(7))
    for integrand in integrands:
        assert np.all(np.isfinite(integrand(s, w)))


def test_oracle_block_memory_peak_is_bounded():
    # a larger peak lets the heap a block frees go back to the OS, to be
    # page-faulted in again by the next block (_oracle_draws); measured on
    # this two-block jacobi Sum call: 3.94 MB, and 4.72 MB when the
    # directions were held as (mu, sin theta, phi, u_x)
    spec = _pp_spec(interaction="Sum")
    args = (spec, 1e-3, ("ProtonElectron", "Internuclear"), capture.ORACLE_BLOCK,
            1.0, "jacobi", 7, 1)
    _oracle_block_means(*args)  # loads scipy and builds the radius table
    tracemalloc.start()
    try:
        _oracle_block_means(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.8e6


def test_oracle_error_shrinks_with_samples():
    spec = _pp_spec()
    small = brute_force_oracle(spec, 1e-3, samples=1 << 17, mode="obk", seed=3)
    large = brute_force_oracle(spec, 1e-3, samples=1 << 19, mode="obk", seed=3)
    assert large.error < small.error
    assert large.samples == 4 * small.samples


def test_oracle_seeds_share_no_block_stream():
    # every block draws from its own child of SeedSequence(seed), so the
    # blocks of neighbouring seeds are not the same blocks shifted by one
    spec = _pp_spec()
    seven, eight = (
        _oracle_block_means(spec, 1e-3, ("ProtonElectron",), 1 << 17, 1.0, "jacobi",
                            seed, 1)[0]
        for seed in (7, 8)
    )
    assert np.unique(np.concatenate((seven, eight))).size == 2 * seven.size


def test_oracle_rejects_thin_sampling():
    with pytest.raises(DomainError):
        brute_force_oracle(_pp_spec(), 1e-3, samples=50000)


def test_oracle_rejects_a_negative_seed():
    # the blocks draw from SeedSequence(seed), which takes no negative seed
    with pytest.raises(DomainError, match="^oracle seed must be at least 0, got -1$"):
        brute_force_oracle(_pp_spec(), 1e-3, samples=1 << 17, seed=-1)


@pytest.mark.parametrize("counts,message", [
    ({"seed": 7.0}, "oracle seed must be an integer, got 7.0"),
    ({"seed": True}, "oracle seed must be an integer, got True"),
    ({"samples": 262144.0}, "oracle samples must be an integer, got 262144.0"),
    ({"samples": True}, "oracle samples must be an integer, got True"),
], ids=["float-seed", "bool-seed", "float-samples", "bool-samples"])
def test_oracle_rejects_counts_that_are_not_integers(monkeypatch, counts, message):
    # a float seed once leaked a TypeError from SeedSequence, and True ran as 1
    monkeypatch.setattr(capture, "_oracle_block_means", _no_sampling)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        brute_force_oracle(_pp_spec(), 1e-3, **{"samples": 1 << 17, **counts})


@pytest.mark.parametrize("n_threads,message", [
    (0, "must be at least 1, got 0"),
    (-2, "must be at least 1, got -2"),
    (2.5, "must be an integer, got 2.5"),
    (True, "must be an integer, got True"),
], ids=["0", "-2", "2.5", "True"])
def test_oracle_rejects_a_thread_count_that_is_not_a_positive_integer(
        monkeypatch, n_threads, message):
    # refused before any Sobol draw, as seed, samples and lam are
    monkeypatch.setattr(capture, "_oracle_block_means", _no_sampling)
    with pytest.raises(DomainError, match=f"^oracle n_threads {re.escape(message)}$"):
        brute_force_oracle(_pp_spec(), 1e-3, samples=1 << 17, n_threads=n_threads)


@pytest.mark.parametrize("cpus,n_threads,workers", [
    (2, 64, [2]),
    (8, 64, [4]),
    (8, 3, [3]),
    (1, 64, []),
    (None, 64, []),
], ids=["cpus", "blocks", "threads", "one-cpu", "unknown-cpus"])
def test_oracle_pool_is_capped_by_cpus_and_blocks(monkeypatch, cpus, n_threads,
                                                  workers):
    # 100,000 samples make 4 blocks; CPU-bound blocks gain nothing from
    # more workers than blocks or CPUs, and one worker is the caller's thread
    spec = _pp_spec()
    serial = brute_force_oracle(spec, 1e-3, samples=100000)
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def no_thread(self):
        raise AssertionError("the oracle started a thread")

    monkeypatch.setattr(capture, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    est = brute_force_oracle(spec, 1e-3, samples=100000, n_threads=n_threads)
    assert started == workers
    assert est == serial


def test_oracle_rejects_negative_screening(monkeypatch):
    # the same refusal as the closed-form routes, before any Sobol draw
    monkeypatch.setattr(capture, "_oracle_block_means", _no_sampling)
    spec = _pp_spec()
    with pytest.raises(DomainError, match="screening constant must be non-negative"):
        capture_amplitude(spec, 1e-3, lam=-0.5, mode="jacobi")
    with pytest.raises(DomainError, match="screening constant must be non-negative"):
        brute_force_oracle(spec, 1e-3, samples=1 << 17, lam=-0.5, mode="jacobi")


def test_closed_channel_is_refused():
    # shallow final state at crawling speed: E_b = E_a + eps_a - eps_b < 0
    spec = make_capture_spec(1.0, 1.0, 1.0, 0.1, 0.001)
    assert spec.energetics.p_b == 0.0
    with pytest.raises(DomainError):
        ct_total_cross_section(spec, lam=0.0, mode="jacobi")
    with pytest.raises(DomainError):
        brute_force_oracle(spec, 1e-3, samples=1 << 17)


@pytest.mark.parametrize("call,message", [
    (lambda: capture_amplitude(_pp_spec(), 1e-3, lam=math.nan),
     "screening constant must be non-negative"),
    (lambda: ct_differential_cross_section(_pp_spec(), 1e-3, lam=math.nan,
                                           mode="jacobi"),
     "screening constant must be non-negative"),
    (lambda: ct_total_cross_section(_pp_spec(), lam=math.nan),
     "screening constant must be non-negative"),
    (lambda: brute_force_oracle(_pp_spec(), 1e-3, samples=1 << 17, lam=math.nan),
     "screening constant must be non-negative"),
    (lambda: HydrogenicState(math.nan), "effective charge must be positive, got nan"),
    (lambda: make_capture_spec(1.0, 1.0, math.nan, 1.0, 2.0),
     "effective charge must be positive, got nan"),
    (lambda: make_capture_spec(1.0, 1.0, 1.0, 1.0, math.nan),
     "relative speed must be positive, got nan"),
], ids=["amplitude", "dsigma", "total", "oracle", "state", "spec-charge",
        "spec-speed"])
def test_nan_arguments_are_refused(monkeypatch, call, message):
    # NaN once passed every range check: amplitudes came back NaN, the
    # oracle drew every block for a NaN estimate, and a NaN charge gave a
    # Closed channel
    monkeypatch.setattr(capture, "_oracle_block_means", _no_sampling)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("spec,lam,mode,message", [
    (make_capture_spec(1.0, 1.0, 1.0, 0.1, 0.001), 1.0, "obk",
     "capture requires an open final channel"),
    (_pp_spec(), 1.0, "bk", "unknown coordinate mode 'bk'; options: ('obk', 'jacobi')"),
    (_pp_spec(), -0.5, "jacobi", "screening constant must be non-negative"),
], ids=["closed", "mode", "lam"])
def test_every_capture_entry_point_refuses_alike(monkeypatch, spec, lam, mode, message):
    # one check serves every entry point, so each gives the same message
    monkeypatch.setattr(capture, "_oracle_block_means", _no_sampling)
    p_a_vec, p_b_vec = _canonical_vectors(spec, 1e-3)
    calls = [
        lambda: capture_amplitude_vectors(spec, p_a_vec, p_b_vec, lam, mode),
        lambda: capture_amplitude(spec, 1e-3, lam, mode),
        lambda: ct_differential_cross_section(spec, 1e-3, lam, mode),
        lambda: ct_total_cross_section(spec, lam, mode),
        lambda: brute_force_oracle(spec, 1e-3, samples=1 << 17, lam=lam, mode=mode),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()


def test_obk_total_at_zero_screening_on_a_resonant_channel_raises(monkeypatch):
    # p_a = p_b puts q = 0 at theta = 0, where dsigma grows as theta^-4;
    # the total once came back 1.86e8 with a quoted error of 4.5e-7
    spec = _pp_spec()
    assert spec.energetics.p_a == spec.energetics.p_b
    monkeypatch.setattr(capture, "ct_differential_cross_section", _no_sampling)
    with pytest.raises(NumericalError, match="diverges at zero momentum transfer"):
        ct_total_cross_section(spec, lam=0.0, mode="obk")


QUAD_CASES = [
    # forward peaks of width w = hypot(lam, p_a - p_b) / p_b far under
    # 1e-7, which a flat cap below 1e-7 once missed and then refused
    *(((1, 1, 1, 1), interaction, 2.0, lam)
      for interaction in ("ProtonElectron", "Internuclear")
      for lam in (1e-3, 1e-6, 1e-10)),
    # peaks 17 and 140 times 1e-7 wide, which the cap missed by 1.2e-5
    # and 3.0e-9 of the total, with a quoted error of 1e-15 of it
    ((1, 1, 1, 1), "ProtonElectron", 64.0, 0.1),
    ((1, 1, 1, 1), "ProtonElectron", 8.0, 0.1),
    # with Z_a = 2 the two peaks of Sum do not cancel; the cap left these
    # 12% and 96% low
    ((4, 4, 2, 2), "Sum", 2.0, 1e-3),
    ((4, 4, 2, 2), "Sum", 2.0, 1e-4),
    # with Z_a = 1 they cancel at q = 0, so lam = 0 is finite
    *(((1, 1, 1, 1), "Sum", v, 0.0) for v in (0.5, 2.0, 8.0)),
    *(((1, 1, 1, 1), interaction, 2.0, lam)
      for interaction in capture.INTERACTIONS for lam in (1e-1, 1e-4, 1e-8)),
]


@pytest.mark.parametrize("system,interaction,v,lam", QUAD_CASES, ids=[
    "{}{}{}{}-{}-{}-{}".format(*system, *rest) for system, *rest in QUAD_CASES
])
def test_obk_total_matches_quadrature_in_log_theta(system, interaction, v, lam):
    spec = make_capture_spec(*system, v, interaction)
    total = ct_total_cross_section(spec, lam=lam, mode="obk")
    want = _ct_total_quad(spec, lam)
    assert abs(total.value - want) <= max(total.error, 1e-13 * total.value)


def test_obk_sum_at_zero_screening_is_refused_unless_z_a_is_1():
    # the terms share 1/(lam^2 + q^2), over Z_B F(0) (Z_A - 1) at q = 0:
    # Z_a = 2 leaves a 1/q^2 there (the Z_a = 1 totals are in QUAD_CASES)
    spec = make_capture_spec(4.0, 4.0, 2.0, 2.0, 2.0, "Sum")
    assert spec.energetics.p_a == spec.energetics.p_b
    with pytest.raises(NumericalError, match="diverges at zero momentum transfer"):
        ct_total_cross_section(spec, lam=0.0, mode="obk")


def _obk_sum_mpmath(spec, theta, lam):
    """The obk Sum pe + nn at 40 digits from the same double momentum
    vectors and masses: its two 1/(lam^2 + q^2) terms cancel in double
    precision at small q, not here; at lam = q = 0 it is the limit."""
    p_b_vec = spec.energetics.p_b * np.array([np.sin(theta), np.cos(theta)])
    with mpmath.workdps(40):
        Z_a, Z_b = (mpmath.mpf(state.Z_eff) for state in (spec.initial, spec.final))
        p_a, p_b = (mpmath.mpf(spec.energetics.p_a), mpmath.mpf(spec.energetics.p_b))
        x, z = (mpmath.mpf(float(c)) for c in p_b_vec)
        q2 = x**2 + (p_a - z) ** 2
        s = Z_a + Z_b

        def form(q2):
            return 8 * mpmath.sqrt(Z_a**3 * Z_b**3) * s / (s**2 + q2) ** 2

        if lam == 0 and q2 == 0:
            # Z_A = 1: F(0) - F(q) over q^2 tends to 2 F(0) / s^2
            amplitude = 4 * mpmath.pi * Z_b * form(0) * 2 / s**2
        else:
            amplitude = 4 * mpmath.pi * Z_b * (Z_a * form(0) - form(q2)) / (lam**2 + q2)
        mu_b = mpmath.mpf(spec.kin.mu_b)
        dcs = (mu_b / (2 * mpmath.pi)) ** 2 * (p_b / p_a) ** 2 * amplitude**2
        return float(amplitude), float(dcs)


@pytest.mark.parametrize("system,lam", [
    ((1.0, 1.0, 1.0, 1.0), 0.0),  # resonant: q = 0 at theta = 0
    ((1.0, 4.0, 1.0, 2.0), 0.0),  # Z_A = 1, Z_B = 2
    ((4.0, 4.0, 2.0, 2.0), 0.3),  # Z_A = 2: the pole term stays
])
def test_obk_sum_matches_mpmath_at_small_angles(system, lam):
    # pe + nn lost 2.8e-6 relative at theta = 1e-9 on the resonant channel
    # and refused theta = 0 there, whose amplitude is 2 pi
    spec = make_capture_spec(*system, 2.0, "Sum")
    for theta in (0.0, 1e-9, 1e-7, 1e-5, 1e-3):
        amplitude, dcs = _obk_sum_mpmath(spec, theta, lam)
        got = capture_amplitude(spec, theta, lam, "obk")
        assert abs(got - amplitude) <= 1e-15 * abs(amplitude), theta
        assert ct_differential_cross_section(spec, theta, lam, "obk") == \
            pytest.approx(dcs, rel=1e-15, abs=0.0), theta


def test_an_overflowing_total_is_refused():
    # at lam = 1e-100 dsigma at the forward peak exceeds the float range
    with pytest.raises(NumericalError,
                       match="^differential cross section overflows at lam = 1e-100$"):
        ct_total_cross_section(_pp_spec(), lam=1e-100, mode="obk")


# At theta = 0 on the resonant channel q = 0, so each transform is
# 4 pi / lam^2. At lam = 1e-150 dsigma overflows; at 1e-160 lam^2 is
# subnormal and the transform overflows; at 1e-170 lam^2 is 0. These
# once returned inf with a RuntimeWarning, or were refused as unscreened
# though lam > 0.
UNDERFLOW_CASES = [("dsigma", 1e-150), ("dsigma", 1e-160), ("amplitude", 1e-160),
                   ("dsigma", 1e-170), ("amplitude", 1e-170), ("total", 1e-170)]


@pytest.mark.parametrize("what,lam", UNDERFLOW_CASES)
def test_an_underflowing_screening_overflows_without_a_warning(what, lam):
    spec = _pp_spec()
    call = {
        "dsigma": lambda: ct_differential_cross_section(spec, 0.0, lam, "obk"),
        "amplitude": lambda: capture_amplitude(spec, 0.0, lam, "obk"),
        "total": lambda: ct_total_cross_section(spec, lam, "obk"),
    }[what]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"overflows at lam = {lam!r}$"):
            call()


def test_total_is_smooth_in_collision_speed():
    # regression guard: a 1% speed change at v = 2 moves the shipped
    # configuration (fixed screening lam = 1) by about 2%, safely inside
    # a 5% band; steeper channels are documented separately
    ref = ct_total_cross_section(_pp_spec(2.0), lam=1.0, mode="obk").value
    bumped = ct_total_cross_section(_pp_spec(2.02), lam=1.0, mode="obk").value
    change = abs(bumped - ref) / ref
    assert change == pytest.approx(0.019703950593079615, rel=1e-6)
    assert change <= 0.05


def test_spec_and_angle_validation():
    with pytest.raises(DomainError):
        make_capture_spec(1.0, 1.0, 1.0, 1.0, 0.0)
    # the collision energy mu_a v^2 / 2 underflows to 0 or overflows
    for v in (1e-200, 1e200, 1e154):
        with pytest.raises(DomainError, match=re.escape(f"v={v}")):
            make_capture_spec(1.0, 1.0, 1.0, 1.0, v)
    with pytest.raises(DomainError):
        capture_amplitude(_pp_spec(), -0.1)
    with pytest.raises(DomainError):
        capture_amplitude(_pp_spec(), 1e-3, mode="cartesian")
