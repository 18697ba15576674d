"""Kinematics and channel energetics checks.

Everything here is exact algebra, so tolerances are machine-precision
scale except where a literal was frozen from an independent hand
computation.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import pathscat
from pathscat import (
    channel_energetics,
    CLOSED,
    DomainError,
    OPEN,
    PROTON_MASS_RATIO,
    reduced_masses,
)

# Electron + two protons, masses in electron-mass units. The reduced
# mass of proton against (proton + electron) evaluates to this by hand:
# M (M + 1) / (2 M + 1) with M = 1836.152673.
MU_PP = 918.3262684414053


def test_proton_mass_ratio_value():
    assert PROTON_MASS_RATIO == 1836.152673


def test_symmetric_system_reduced_mass():
    kin = reduced_masses(1.0, 1.0)
    assert kin.mu_a == pytest.approx(MU_PP, rel=1e-12)
    assert kin.mu_b == pytest.approx(MU_PP, rel=1e-12)
    assert kin.M_A == pytest.approx(PROTON_MASS_RATIO, rel=1e-15)


def test_reduced_mass_identities_random_battery():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        A, B = rng.uniform(0.5, 250.0, size=2)
        kin = reduced_masses(A, B)
        # incoming channel: bare projectile B against the composite atom
        # (A + electron); outgoing channel: the mirror arrangement
        assert 1.0 / kin.mu_a == pytest.approx(
            1.0 / kin.M_B + 1.0 / (kin.M_A + kin.m), rel=1e-14
        )
        assert 1.0 / kin.mu_b == pytest.approx(
            1.0 / kin.M_A + 1.0 / (kin.M_B + kin.m), rel=1e-14
        )
        # electron-in-atom reduced masses stay below the electron mass
        assert 0.0 < kin.m_a < kin.m
        assert 0.0 < kin.m_b < kin.m


def test_energy_conservation_and_momenta():
    kin = reduced_masses(1.0, 4.0)
    en = channel_energetics(3.0, -0.5, -0.125, kin)
    assert en.E_b == pytest.approx(en.E_a + en.eps_a - en.eps_b, rel=1e-15)
    assert en.p_a == pytest.approx(np.sqrt(2.0 * kin.mu_a * en.E_a), rel=1e-15)
    assert en.p_b == pytest.approx(np.sqrt(2.0 * kin.mu_b * en.E_b), rel=1e-15)
    assert en.status == OPEN


def test_closed_channel_sets_momentum_sentinel():
    kin = reduced_masses(1.0, 1.0)
    # collision too slow to pay for the more weakly bound final state
    en = channel_energetics(0.1, -0.5, -0.005, kin)
    assert en.E_b < 0.0
    assert en.status == CLOSED
    assert en.p_b == 0.0


def test_threshold_channel_is_open():
    kin = reduced_masses(1.0, 1.0)
    # all terms exactly representable, so E_b is exactly zero
    en = channel_energetics(0.25, -0.5, -0.25, kin)
    assert en.E_b == 0.0
    assert en.status == OPEN


def test_classification_matches_energy_sign_randomly():
    rng = np.random.default_rng(23)
    kin = reduced_masses(1.0, 2.0)
    for _ in range(2000):
        E_a = rng.uniform(1e-3, 10.0)
        eps_a = -rng.uniform(1e-3, 2.0)
        eps_b = -rng.uniform(1e-3, 2.0)
        en = channel_energetics(E_a, eps_a, eps_b, kin)
        if en.E_b < 0:
            assert en.status == CLOSED and en.p_b == 0.0
        else:
            assert en.status == OPEN


def test_nonpositive_collision_energy_rejected():
    kin = reduced_masses(1.0, 1.0)
    with pytest.raises(DomainError):
        channel_energetics(-1.0, -0.5, -0.5, kin)


def test_public_api_fixes_atomic_units_and_numeric_constants():
    # hbar = m_e = 1 and the fixed numeric constants are not arguments:
    # a settable value with one value in use is an untested option
    fixed = {"hbar", "units", "range_factor", "edge_cells", "max_product",
             "block_size", "quad"}
    assert not hasattr(pathscat, "UnitSystem")
    assert not hasattr(pathscat, "ATOMIC_UNITS")
    assert not hasattr(pathscat, "CaptureQuadrature")
    for name in pathscat.__all__:
        obj = getattr(pathscat, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            taken = fixed & set(inspect.signature(obj).parameters)
            assert not taken, f"{name} takes {sorted(taken)}"
