"""First-order elastic scattering amplitudes and cross sections.

Hand-derived reference values, Yukawa at V0=1, alpha=1, m=1, p=1:
f(theta) = -2 / (q^2 + 1) with q = 2 sin(theta/2), so dsigma is 4 at
theta=0 and 4/25 at theta=pi, and the angular integral gives
sigma = 16 pi / 5.
"""

import csv
import dataclasses
import json

import numpy as np
import pytest
import yaml

import pathscat
from pathscat import born, capture, cli
from pathscat import (
    born_amplitude,
    born_differential_cross_section,
    born_total_cross_section,
    ct_total_cross_section,
    DomainError,
    Gaussian,
    gaussian_packet,
    make_capture_spec,
    momentum_transfer,
    NumericalError,
    SoftCoulomb,
    SquareWell,
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
    pot = Yukawa(-Z, 1e-4 * q)
    rutherford = 4.0 * Z**2 / q**4
    dcs = born_differential_cross_section(pot, p, 1.0, theta)
    assert dcs == pytest.approx(rutherford, rel=1e-3)


def _born_cli(tmp_path, potential, angles, **extra):
    """Run born-elastic through cli.main; return its exit code and out dir."""
    config = {"command": "born-elastic", "potential": potential, "mass": 1.0,
              "p": 1.0, "angles": angles, **extra}
    path = tmp_path / "born.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    return cli.main(["born-elastic", "--config", str(path), "--out", str(out)]), out


def test_born_elastic_cli_matches_the_library(tmp_path):
    code, out = _born_cli(
        tmp_path, {"family": "gaussian", "V0": -0.2, "width": 1.0},
        {"min": 0.0, "max": float(np.pi), "n": 7},
    )
    assert code == 0
    pot, thetas = Gaussian(-0.2, 1.0), np.linspace(0.0, np.pi, 7)
    with open(out / "born-elastic.csv", newline="") as fh:
        rows = [[float(c) for c in row] for row in list(csv.reader(fh))[1:]]
    assert rows == [[t, d] for t, d in zip(
        thetas, born_differential_cross_section(pot, 1.0, 1.0, thetas))]
    payload = json.loads((out / "born-elastic.json").read_text())["payload"]
    total = born_total_cross_section(pot, 1.0, 1.0)
    assert payload["sigma_total"] == total.value
    assert payload["quadrature_error"] == total.error
    assert payload["n_theta"] == total.nodes == 128


@pytest.mark.parametrize("module", [pathscat, born])
def test_record_wrappers_are_gone(module):
    for name in ("PlaneWaveState", "ScatteringAngles", "CrossSectionRecord",
                 "elastic_record"):
        assert not hasattr(module, name)
        assert name not in module.__all__


@pytest.mark.parametrize("module", [pathscat, born])
def test_far_field_helpers_are_gone(module):
    for name in ("far_field_scattered_wave", "FAR_FIELD_RANGES", "radial_flux"):
        assert not hasattr(module, name)
        assert name not in module.__all__


def test_total_of_a_coulomb_tail_diverges():
    # dsigma ~ 1/q^4 at small q, so the angular integral has no finite
    # value; a quadrature would return a number that grows with its nodes
    for route in born.ROUTES:
        with pytest.raises(NumericalError, match="diverges at q = 0"):
            born_total_cross_section(SoftCoulomb(1.0, 0.8), 1.0, 1.0, route=route)


def test_born_elastic_cli_refuses_a_divergent_total(tmp_path, capsys):
    code, out = _born_cli(tmp_path, {"family": "soft-coulomb", "Z": 1.0, "soft": 0.8},
                          {"min": 0.1, "max": float(np.pi), "n": 8})
    assert code == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "NumericalError"
    assert "diverges at q = 0" in error["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("route", born.ROUTES)
def test_dsigma_on_an_angle_array_is_elementwise(route):
    # "auto" takes each family's closed form on the whole array;
    # "quadrature" takes one vectorised radial integral on it
    theta = np.linspace(0.0, np.pi, 7)
    families = (YUK, Gaussian(-0.2, 1.0), SquareWell(-0.5, 1.0), Yukawa(-1.0, 0.7))
    for pot in families:
        batch = born_differential_cross_section(pot, 1.0, 1.0, theta, route=route)
        single = [born_differential_cross_section(pot, 1.0, 1.0, t, route=route)
                  for t in theta]
        assert batch.shape == theta.shape
        assert batch == pytest.approx(single, rel=1e-13, abs=0.0), pot
    with pytest.raises(NumericalError):
        born_differential_cross_section(SoftCoulomb(1.0, 0.5), 1.0, 1.0, theta)
    with pytest.raises(DomainError):
        born_differential_cross_section(YUK, 1.0, 1.0, np.array([0.1, -0.1]))


def test_total_makes_one_dsigma_call_per_rule(monkeypatch):
    sizes = []
    batched = born.born_differential_cross_section

    def counted(pot, p, mass, theta, route="auto"):
        sizes.append(np.size(theta))
        return batched(pot, p, mass, theta, route=route)

    monkeypatch.setattr(born, "born_differential_cross_section", counted)
    for route in born.ROUTES:
        born_total_cross_section(YUK, 1.0, 1.0, route=route)
    # one call per total: the 64 coarse and the 128 fine angles together
    assert sizes == [192, 192]


def _two_call_total(dcs, panels):
    """The former born._angular_total, one dsigma call per resolution: the
    reference the batched total must equal bit for bit."""
    totals = []
    for scale in (1, 2):
        rules = [born._panels(scale * n, np.asarray(edges)) for n, edges in panels]
        theta, g = (np.concatenate(part) for part in zip(*rules))
        totals.append(float((2.0 * np.pi * np.sin(theta) * g) @ dcs(theta)))
    coarse, fine = totals
    if not np.all(np.isfinite(totals)):
        raise NumericalError("angular quadrature produced a non-finite total")
    return fine, abs(fine - coarse), theta.size


def _capture_total(mode, interaction, lam):
    spec = make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, interaction)
    return lambda: ct_total_cross_section(spec, lam=lam, mode=mode)


class _YukawaShape:
    """The unit Yukawa as a family with no closed-form transform."""

    def evaluate(self, r):
        return YUK.evaluate(r)


@pytest.mark.parametrize("module,total", [
    (born, lambda: born_total_cross_section(YUK, 1.0, 1.0)),
    (born, lambda: born_total_cross_section(YUK, 1.0, 1.0, route="quadrature")),
    (born, lambda: born_total_cross_section(Gaussian(-0.5, 1.5), 1.0, 1.0,
                                            route="quadrature")),
    (born, lambda: born_total_cross_section(_YukawaShape(), 1.0, 1.0)),
    *[(capture, _capture_total(mode, interaction, 0.1))
      for mode in ("jacobi", "obk")
      for interaction in ("ProtonElectron", "Internuclear", "Sum")],
    (capture, _capture_total("obk", "Sum", 0.0)),
], ids=["born-auto", "born-quadrature", "born-gaussian-quadrature", "born-shape",
        "jacobi-pe", "jacobi-nn", "jacobi-sum", "obk-pe", "obk-nn", "obk-sum",
        "obk-sum-lam0"])
def test_batched_total_equals_the_two_call_total(monkeypatch, module, total):
    # one dsigma call on both resolutions' angles gives the same value,
    # error and node count, bit for bit, as one call per resolution
    batched = total()
    monkeypatch.setattr(module, "_angular_total", _two_call_total)
    assert dataclasses.astuple(batched) == dataclasses.astuple(total())


def test_total_without_a_closed_form_takes_quadrature_per_angle():
    # "auto" falls back to the quadrature route on the whole array
    pot = _YukawaShape()
    total = born_total_cross_section(pot, 1.0, 1.0)
    assert total.value == pytest.approx(
        born_total_cross_section(YUK, 1.0, 1.0).value, rel=1e-8)


@pytest.mark.parametrize("mass", [-1.0, 0.0, float("nan"), float("inf")])
def test_a_mass_that_is_not_positive_is_refused(mass):
    with pytest.raises(DomainError, match="mass must be positive"):
        born_amplitude(YUK, 1.0, mass, 0.3)
    with pytest.raises(DomainError, match="mass must be positive"):
        born_total_cross_section(YUK, 1.0, mass)
