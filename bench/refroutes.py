"""Independent reference routes for the benchmark's correctness checks.

Nothing here calls pathscat. Each function recomputes a quantity the
package returns, from its closed form or by a different algorithm, so a
check compares two routes rather than one route with itself:

* lattice evolution by split-step in the hard-wall sine basis (one
  orthonormal DST-I pair per slice) instead of dense kernel products;
* harmonic-oscillator packet widths and Born totals in closed form;
* capture totals by adaptive quadrature of the closed-form
  proton-electron amplitude instead of the package's Gauss-Legendre
  angular rule.

Atomic units, hbar = 1.
"""

import math

import numpy as np
import scipy.fft
import scipy.integrate

# Proton-to-electron mass ratio; the package fixes the same CODATA value.
PROTON_MASS_RATIO = 1836.152673


# --- lattice -----------------------------------------------------------


def _dst(values):
    return scipy.fft.dst(values, type=1, norm="ortho")


def kinetic_phases(n, dx, eps, mass, kinetic):
    """Per-mode kinetic factor of one slice in the hard-wall box.

    The walls sit one spacing outside the end nodes, so the box is
    (n + 1) dx long and mode j has wavenumber pi j / box.
    """
    k = np.pi * np.arange(1, n + 1) / ((n + 1) * dx)
    lam = k**2 / (2.0 * mass)
    if kinetic == "exact":
        return np.exp(-1j * eps * lam)
    if kinetic == "pade2":
        z = 0.5 * eps * lam
        return (1.0 - 1j * z) / (1.0 + 1j * z)
    raise ValueError(f"no reference route for kinetic={kinetic!r}")


def absorber_damping(x, width, strength, eps):
    """Half-slice damping exp(-eps W / 2) of a quadratic edge ramp W."""
    d = np.minimum(x - x[0], x[-1] - x)
    W = np.where(d < width, strength * ((width - d) / width) ** 2, 0.0)
    return np.exp(-0.5 * eps * W)


def split_step(psi, dx, eps, mass, potentials, kinetic="pade2",
               sampling="endpoint", damping=None):
    """Apply N slices (dx T_j) to psi by split-step, one DST pair each.

    `potentials` is a sequence of N node-potential arrays (or None for
    a free slice), in time order. Endpoint sampling applies the whole
    potential phase after the kinetic step, symmetric sampling half
    before and half after.
    """
    psi = np.asarray(psi, dtype=complex)
    f = kinetic_phases(psi.size, dx, eps, mass, kinetic)
    d = 1.0 if damping is None else damping
    for V in potentials:
        V = 0.0 if V is None else V
        if sampling == "endpoint":
            psi = d * np.exp(-1j * eps * V) * _dst(f * _dst(d * psi))
        elif sampling == "symmetric":
            h = d * np.exp(-0.5j * eps * V)
            psi = h * _dst(f * _dst(h * psi))
        else:
            raise ValueError(f"no reference route for sampling={sampling!r}")
    return psi


def free_kernel_column(n, dx, eps, N, mass, j, kinetic="pade2"):
    """Column j of the N-slice free kernel density, exactly in the sine basis."""
    delta = np.zeros(n)
    delta[j] = 1.0
    f = kinetic_phases(n, dx, eps, mass, kinetic)
    return _dst(f**N * _dst(delta)) / dx


def kernel_element(dx, eps, mass, potentials, ia, ib, n, kinetic="pade2"):
    """K(x_ib, x_ia) of a slice-specific endpoint-sampled product."""
    delta = np.zeros(n, dtype=complex)
    delta[ia] = 1.0 / dx
    return complex(split_step(delta, dx, eps, mass, potentials, kinetic)[ib])


def gaussian_packet(x, x0, p0, sigma0):
    """Normalized minimum-uncertainty packet, |psi|^2 stddev sigma0."""
    return (2.0 * np.pi * sigma0**2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma0**2) + 1j * p0 * x
    )


def lattice_norm(values, dx):
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * dx))


def lattice_width(values, x):
    w = np.abs(values) ** 2
    mean = np.sum(x * w) / np.sum(w)
    return float(np.sqrt(np.sum((x - mean) ** 2 * w) / np.sum(w)))


def harmonic_width(sigma0, omega, t, mass=1.0):
    """Width of a minimum-uncertainty packet in a harmonic well at time t."""
    c = math.cos(omega * t)
    s = math.sin(omega * t)
    return math.sqrt(sigma0**2 * c**2 + (s / (2.0 * mass * omega * sigma0)) ** 2)


def gaussian_potential(V0, width, r):
    return V0 * np.exp(-(np.asarray(r) ** 2) / (2.0 * width**2))


# --- Born --------------------------------------------------------------


def yukawa_born_dcs(V0, alpha, p, mass, theta):
    """(m / 2 pi)^2 (4 pi V0 / (alpha^2 + q^2))^2 at q = 2 p sin(theta / 2)."""
    q2 = (2.0 * p * np.sin(0.5 * np.asarray(theta))) ** 2
    return 4.0 * mass**2 * V0**2 / (alpha**2 + q2) ** 2


def yukawa_born_total(V0, alpha, p, mass):
    """Angular integral of yukawa_born_dcs, done by hand."""
    return 16.0 * math.pi * mass**2 * V0**2 / (alpha**2 * (alpha**2 + 4.0 * p**2))


# --- capture -----------------------------------------------------------


def capture_kinematics(v, A=1.0, B=1.0, Z_a=1.0, Z_b=1.0):
    """Reduced masses, channel momenta and Jacobi mass ratios for 1s -> 1s."""
    MA, MB = A * PROTON_MASS_RATIO, B * PROTON_MASS_RATIO
    total = MA + MB + 1.0
    mu_a = MB * (MA + 1.0) / total
    mu_b = MA * (MB + 1.0) / total
    E_a = 0.5 * mu_a * v**2
    E_b = E_a - 0.5 * Z_a**2 + 0.5 * Z_b**2
    return {
        "mu_a": mu_a,
        "mu_b": mu_b,
        "p_a": math.sqrt(2.0 * mu_a * E_a),
        "p_b": math.sqrt(2.0 * mu_b * E_b),
        "gamma_a": 1.0 / (MA + 1.0),
        "gamma_b": 1.0 / (MB + 1.0),
        "Z_a": Z_a,
        "Z_b": Z_b,
    }


def pe_amplitude(kin, theta, lam, mode):
    """Proton-electron capture amplitude in closed form.

    obk: screened Coulomb transform times the same-center 1s form factor
    at q = |p_a - p_b|. jacobi: the folded interaction at K_b times the
    initial 1s momentum wavefunction at K_a.
    """
    pa, pb = kin["p_a"], kin["p_b"]
    Za, Zb = kin["Z_a"], kin["Z_b"]
    # squared differences of (0, 0, a) and (pb sin, 0, pb cos), written
    # without the cancellation of a^2 + pb^2 - 2 a pb cos at small angles
    s_perp2 = (pb * np.sin(theta)) ** 2
    pb_par = pb * np.cos(theta)
    if mode == "obk":
        q2 = (pa - pb_par) ** 2 + s_perp2
        s = Za + Zb
        form = 8.0 * math.sqrt(Za**3 * Zb**3) * s / (s**2 + q2) ** 2
        return -4.0 * math.pi * Zb / (lam**2 + q2) * form
    ga, gb = kin["gamma_a"], kin["gamma_b"]
    ka2 = ((1.0 - ga) * pa - pb_par) ** 2 + s_perp2
    kb2 = (pa - (1.0 - gb) * pb_par) ** 2 + (1.0 - gb) ** 2 * s_perp2
    folded = -Zb * math.sqrt(Zb**3 / math.pi) * 4.0 * math.pi / ((Zb + lam) ** 2 + kb2)
    phi_a = 8.0 * math.sqrt(math.pi) * Za**2.5 / (Za**2 + ka2) ** 2
    return folded * phi_a


def pe_dcs(kin, theta, lam, mode, flux_ratio_power=2):
    ratio = kin["p_b"] / kin["p_a"]
    A = pe_amplitude(kin, theta, lam, mode)
    return (kin["mu_b"] / (2.0 * math.pi)) ** 2 * ratio**flux_ratio_power * A**2


def pe_total(kin, lam, mode, flux_ratio_power=2):
    """2 pi int dsigma sin(theta) dtheta by adaptive quadrature.

    The forward peak is a few 1/(mu v) wide, so [0, pi] is cut at
    geometric edges and each piece integrated to 1e-11 relative.
    """
    def integrand(t):
        return 2.0 * math.pi * math.sin(t) * pe_dcs(kin, t, lam, mode, flux_ratio_power)

    edges = np.concatenate(([0.0], np.geomspace(1e-7, math.pi, 50)))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = scipy.integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11,
                                      limit=200)
        total += val
    return total
