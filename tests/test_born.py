"""First-order elastic scattering amplitudes and cross sections.

Hand-derived reference values, Yukawa at V0=1, alpha=1, m=1, p=1:
f(theta) = -2 / (q^2 + 1) with q = 2 sin(theta/2), so dsigma is 4 at
theta=0 and 4/25 at theta=pi, and the angular integral gives
sigma = 16 pi / 5.
"""

import numpy as np
import pytest

from pathscat import (
    born_amplitude,
    born_differential_cross_section,
    born_total_cross_section,
    DomainError,
    elastic_record,
    far_field_scattered_wave,
    Gaussian,
    gaussian_packet,
    LatticeSpec,
    momentum_transfer,
    PlaneWaveState,
    radial_flux,
    ScatteringAngles,
    ScreenedCoulomb,
    Yukawa,
)

YUK = Yukawa(1.0, 1.0)


def test_momentum_transfer_geometry():
    assert momentum_transfer(2.0, 0.0) == 0.0
    assert momentum_transfer(2.0, np.pi) == pytest.approx(4.0, rel=1e-15)
    assert momentum_transfer(1.0, np.pi / 2) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_yukawa_endpoint_cross_sections():
    assert born_differential_cross_section(YUK, 1.0, 1.0, 0.0) == pytest.approx(4.0)
    assert born_differential_cross_section(YUK, 1.0, 1.0, np.pi) == pytest.approx(0.16)


def test_yukawa_amplitude_sign_and_reality():
    f = born_amplitude(YUK, 1.0, 1.0, 0.3)
    assert np.imag(f) == 0.0
    assert f < 0.0  # repulsive potential scatters with a negative amplitude


def test_yukawa_total_cross_section_closed_form():
    total = born_total_cross_section(YUK, 1.0, 1.0)
    assert total.value == pytest.approx(16.0 * np.pi / 5.0, rel=1e-8)
    assert total.error <= 1e-10
    assert total.nodes == 128


def test_total_cross_section_node_floor():
    with pytest.raises(DomainError):
        born_total_cross_section(YUK, 1.0, 1.0, n_theta=8)


def test_quadrature_route_agrees_with_closed_form():
    for p in (0.5, 1.0, 2.0, 5.0):
        for theta in np.linspace(0.0, np.pi, 9):
            a = born_amplitude(YUK, p, 1.0, theta, route="auto")
            b = born_amplitude(YUK, p, 1.0, theta, route="quadrature")
            assert b == pytest.approx(a, rel=1e-8)


def test_cross_section_decreases_with_momentum():
    # faster projectiles see a weaker effective potential at fixed angle
    values = [
        born_differential_cross_section(YUK, p, 1.0, np.pi / 3) for p in (0.5, 1, 2, 5)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_rutherford_limit_of_screened_coulomb():
    # at q >> screen the screened transform approaches -4 pi Z / q^2 and
    # the cross section the 4 Z^2 m^2 / q^4 law
    p, theta, Z = 1.0, np.pi / 2, 1.0
    q = momentum_transfer(p, theta)
    pot = ScreenedCoulomb(Z, 1e-4 * q)
    rutherford = 4.0 * Z**2 / q**4
    dcs = born_differential_cross_section(pot, p, 1.0, theta)
    assert dcs == pytest.approx(rutherford, rel=1e-3)


def test_plane_wave_state_kinematics():
    pw = PlaneWaveState((0.0, 0.0, 2.0), mass=2.0)
    assert pw.momentum == pytest.approx(2.0)
    assert pw.E == pytest.approx(1.0)
    assert pw.flux == pytest.approx(1.0)


def test_scattering_angles_validation():
    with pytest.raises(DomainError):
        ScatteringAngles(-0.1)
    with pytest.raises(DomainError):
        ScatteringAngles(3.5)
    assert ScatteringAngles(0.5).phi == 0.0


def test_radial_flux_of_plane_wave_and_real_state():
    # central differences carry a sin(p dx)/(p dx) dispersion factor, so
    # resolve the wave well: p dx = 0.02 puts it at the 1e-4 level
    lat = LatticeSpec(1.0, 30.0, 2048)
    p, m = 1.5, 1.0
    from pathscat import ComplexField1D

    plane = ComplexField1D(lat, np.exp(1j * p * lat.nodes))
    j = radial_flux(plane, m)
    assert np.max(np.abs(j[5:-5] - p / m)) <= 1e-3
    real_state = ComplexField1D(lat, np.exp(-((lat.nodes - 10.0) ** 2)))
    assert np.max(np.abs(radial_flux(real_state, m))) == 0.0


def test_far_field_wave_reproduces_cross_section():
    p_a = np.array([0.0, 0.0, 1.0])
    n_b = np.array([0.0, np.sin(0.4), np.cos(0.4)])
    r_b = 500.0
    psi = far_field_scattered_wave(YUK, p_a, 1.0, r_b, n_b)
    dcs = born_differential_cross_section(YUK, 1.0, 1.0, 0.4)
    assert abs(psi) ** 2 * r_b**2 == pytest.approx(dcs, rel=1e-12)


def test_far_field_guards():
    p_a = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        far_field_scattered_wave(YUK, p_a, 1.0, 50.0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        far_field_scattered_wave(YUK, p_a, 1.0, 500.0, np.array([0.0, 0.1, 1.0]))


def test_elastic_record_assembly():
    thetas = np.linspace(0.0, np.pi, 7)
    rec = elastic_record(Gaussian(-0.2, 1.0), 1.0, 1.0, thetas)
    assert len(rec.angles) == len(rec.dsigma) == 7
    assert all(d >= 0.0 for d in rec.dsigma)
    assert rec.sigma_total > 0.0
    assert "quadrature_error" in rec.params
