"""The package's public names: what each module exports, and what is gone."""

import inspect
import json
import re
from pathlib import Path

import pytest
import yaml

import pathscat
from pathscat import (
    born, capture, cli, DomainError, errors, influence, potentials, propagator, units,
)

ROOT = Path(__file__).resolve().parents[1]
NAN = float("nan")
INF = float("inf")
# an integer beyond float range, refused as inf is
HUGE = 10**400

MODULES = [born, capture, errors, influence, potentials, propagator, units]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_exist_and_are_reexported(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        assert name in pathscat.__all__, name
        assert getattr(pathscat, name) is getattr(module, name), name


def test_each_public_name_has_one_home():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 54
    assert pathscat.__all__ == sorted(names)


@pytest.mark.parametrize("module,name", [
    (propagator, "short_time_kernel"),
    (propagator, "radial_lattice"),
    (potentials, "evaluate"),
    (potentials, "ScreenedCoulomb"),
    (potentials, "CentralPotential"),
])
def test_unused_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert name not in module.__all__
    assert not hasattr(pathscat, name)
    assert name not in pathscat.__all__


def test_unused_attributes_are_gone():
    assert propagator.KINETIC_FACTORS == ("pade2", "exact")
    lat, grid = propagator.LatticeSpec(-1.0, 1.0, 8), propagator.TimeGrid(0.0, 1.0, 1)
    for kinetic in ("sampled", "pade4"):
        message = f"unknown kinetic factor '{kinetic}'"
        for sampling in propagator.SAMPLING_MODES:
            with pytest.raises(DomainError, match=message):
                propagator.time_sliced_propagator(None, lat, grid, 1.0, kinetic,
                                                  sampling)
    for family in (potentials.Yukawa(1.0, 1.0), potentials.Gaussian(1.0, 1.0),
                   potentials.SoftCoulomb(1.0, 1.0), potentials.SquareWell(1.0, 1.0)):
        assert not hasattr(family, "range_estimate")
        assert not callable(family)
    assert "grid" not in influence.InfluenceResult.__dataclass_fields__
    assert "endpoints" not in influence.InfluenceResult.__dataclass_fields__


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("call,message", [
    (lambda: born.momentum_transfer(NAN, 0.5),
     "momentum magnitude must be non-negative"),
    (lambda: born.born_amplitude(potentials.Yukawa(-1.0, 1.0), NAN, 1.0, 0.5),
     "momentum magnitude must be non-negative"),
    (lambda: born.born_differential_cross_section(potentials.Yukawa(-1.0, 1.0), NAN,
                                                  1.0, 0.5),
     "incident momentum must be positive"),
    (lambda: propagator.free_propagator(0.0, NAN, 0.0, 0.0, 1.0),
     "free propagator requires t_b > t_a"),
    (lambda: potentials.fourier_transform(potentials.Yukawa(-1.0, 1.0), NAN),
     "momentum transfer must be non-negative"),
    (lambda: units.channel_energetics(NAN, -0.5, -0.5,
                                      units.reduced_masses(1.0, 1.0)),
     "incoming relative energy must be >= 0, got nan"),
], ids=["momentum-transfer", "born-amplitude", "born-dsigma", "free-propagator",
        "fourier-transform", "channel-energetics"])
def test_nan_arguments_are_refused(call, message):
    # each range check is written so that NaN fails it; these once
    # returned NaN or a Closed channel
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# p + H at v = 2, an open channel
PP_SPEC = capture.make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0)


@pytest.mark.parametrize("call,message", [
    (lambda: capture.brute_force_oracle(PP_SPEC, 1e-3, samples=100000, lam=INF),
     "screening constant lam must be finite, got inf"),
    (lambda: capture.capture_amplitude(PP_SPEC, 1e-3, lam=INF),
     "screening constant lam must be finite, got inf"),
    (lambda: capture.ct_total_cross_section(PP_SPEC, lam=INF),
     "screening constant lam must be finite, got inf"),
    (lambda: propagator.free_propagator(0.0, 1.0, 0.0, 0.0, INF),
     "mass must be positive and finite, got inf"),
    (lambda: born.born_amplitude(potentials.Yukawa(1, 1), 1.0, INF, 0.5),
     "mass must be positive and finite, got inf"),
    (lambda: born.born_total_cross_section(potentials.Yukawa(1, 1), 1.0, INF),
     "mass must be positive and finite, got inf"),
    (lambda: potentials.Yukawa(INF, 1.0), "Yukawa V0 must be finite, got inf"),
    (lambda: potentials.Gaussian(NAN, 1.0), "Gaussian V0 must be finite, got nan"),
    (lambda: potentials.SoftCoulomb(-INF, 1.0),
     "SoftCoulomb Z must be finite, got -inf"),
    (lambda: potentials.SquareWell(NAN, 1.0), "SquareWell V0 must be finite, got nan"),
    (lambda: capture.make_capture_spec(1, 1, INF, 1, 2),
     "effective charge must be positive and finite, got inf"),
    (lambda: capture.make_capture_spec(INF, 1, 1, 1, 2),
     "nuclear masses must be finite, got A=inf, B=1"),
    (lambda: units.reduced_masses(1.0, [2.0, INF]),
     "nuclear masses must be finite, got A=1.0, B=[2.0, inf]"),
    (lambda: potentials.Yukawa(HUGE, 1.0), f"Yukawa V0 must be finite, got {HUGE}"),
    (lambda: propagator.free_propagator(0.0, 1.0, 0.0, 0.0, HUGE),
     f"mass must be positive and finite, got {HUGE}"),
    (lambda: born.born_amplitude(potentials.Yukawa(1, 1), 1.0, HUGE, 0.5),
     f"mass must be positive and finite, got {HUGE}"),
    (lambda: capture.make_capture_spec(1, 1, HUGE, 1, 2),
     f"effective charge must be positive and finite, got {HUGE}"),
    (lambda: capture.make_capture_spec(HUGE, 1, 1, 1, 2),
     f"nuclear masses must be finite, got A={HUGE}, B=1"),
    (lambda: units.reduced_masses(1.0, [2.0, HUGE]),
     f"nuclear masses must be finite, got A=1.0, B=[2.0, {HUGE}]"),
    (lambda: propagator.LatticeSpec(0, HUGE, 16), "lattice bounds must be finite"),
    (lambda: propagator.TimeGrid(0, HUGE, 4), "time grid bounds must be finite"),
    (lambda: propagator.AbsorbingLayer(HUGE, 1.0),
     f"absorbing layer width must be finite, got {HUGE}"),
    (lambda: propagator.gaussian_packet(propagator.LatticeSpec(-5, 5, 16), 0, HUGE, 1),
     f"packet p0 must be finite, got {HUGE}"),
    (lambda: capture.capture_amplitude(PP_SPEC, 0.1, lam=HUGE),
     f"screening constant lam must be finite, got {HUGE}"),
    (lambda: potentials.Gaussian(1.0, HUGE),
     f"width must be positive and finite, got {HUGE}"),
], ids=["oracle", "amplitude", "total", "free-propagator", "born-amplitude",
        "born-total", "yukawa", "gaussian", "soft-coulomb", "square-well",
        "spec-charge", "spec-mass", "array-mass", "yukawa-huge",
        "free-propagator-huge", "born-amplitude-huge", "spec-charge-huge",
        "spec-mass-huge", "array-mass-huge", "lattice-huge", "time-grid-huge",
        "absorbing-huge", "packet-huge", "amplitude-huge", "gaussian-width-huge"])
def test_infinite_arguments_are_refused(call, message):
    # each of these once returned NaN, inf or 0, built a Closed channel at
    # eps_a = -inf, or failed later without naming its cause; each huge
    # integer once raised a bare OverflowError or TypeError, or was accepted
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: born.born_amplitude(potentials.Yukawa(-1.0, 1.0), 1.0, 1.0, 0.5,
                                 route="closed"),
     "unknown transform route 'closed'; options: ('auto', 'quadrature')"),
    (lambda: born.born_amplitude(potentials.Yukawa(-1.0, 1.0), 1.0, 1.0, 0.5,
                                 route=NAN),
     "unknown transform route nan; options: ('auto', 'quadrature')"),
    (lambda: capture.make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, "Both"),
     "unknown interaction 'Both'; options: "
     "('ProtonElectron', 'Internuclear', 'Sum')"),
    (lambda: propagator.time_sliced_propagator(
        None, propagator.LatticeSpec(-1.0, 1.0, 8), propagator.TimeGrid(0.0, 1.0, 1),
        1.0, sampling="trapezoid"),
     "unknown sampling mode 'trapezoid'; options: "
     "('endpoint', 'midpoint', 'symmetric')"),
    (lambda: potentials.Yukawa(1.0, 0.0), "alpha must be positive, got 0.0"),
    (lambda: potentials.Yukawa(1.0, NAN), "alpha must be positive, got nan"),
    (lambda: potentials.Gaussian(1.0, -1), "width must be positive, got -1"),
    (lambda: potentials.Gaussian(1.0, NAN), "width must be positive, got nan"),
    (lambda: potentials.SoftCoulomb(1.0, -0.5), "soft must be positive, got -0.5"),
    (lambda: potentials.SoftCoulomb(1.0, NAN), "soft must be positive, got nan"),
    (lambda: potentials.SquareWell(1.0, 0), "radius must be positive, got 0"),
    (lambda: potentials.SquareWell(1.0, NAN), "radius must be positive, got nan"),
    (lambda: born.momentum_transfer(1.0, 4.0), "theta must lie in [0, pi]"),
    (lambda: born.momentum_transfer(1.0, [0.5, NAN]), "theta must lie in [0, pi]"),
], ids=["route", "route-nan", "interaction", "sampling", "yukawa", "yukawa-nan",
        "gaussian", "gaussian-nan", "soft-coulomb", "soft-coulomb-nan",
        "square-well", "square-well-nan", "theta", "theta-nan"])
def test_each_refusal_keeps_its_message(call, message):
    # the shared checks in errors.py word these; each was once written
    # out by hand in its own module
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_capture_cross_sections_take_only_the_options_a_caller_sets():
    assert _parameters(capture.ct_differential_cross_section) == [
        "spec", "theta", "lam", "mode"]
    assert _parameters(capture.ct_total_cross_section) == [
        "spec", "lam", "mode", "n_segments", "seg_nodes", "tail_nodes"]
    assert not hasattr(capture, "FLUX_RATIO_POWERS")


def test_born_and_propagator_take_only_the_options_a_caller_sets():
    assert _parameters(born.born_total_cross_section) == ["pot", "p", "mass", "route"]
    assert _parameters(propagator.scattered_component) == [
        "psi_a", "pot", "lattice", "grid", "mass"]
    assert _parameters(propagator.free_propagator) == ["x_b", "t_b", "x_a", "t_a", "mass"]


@pytest.mark.parametrize("key,value", [
    ("flux_ratio_power", 1), ("total", {"seg_nodes": 48}),
], ids=["flux_ratio_power", "total"])
def test_charge_transfer_refuses_the_removed_keys(tmp_path, capsys, key, value):
    config = yaml.safe_load((ROOT / "demos" / "configs" / "charge-transfer.yaml")
                            .read_text())
    config[key] = value
    path = tmp_path / "charge-transfer.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert cli.main(["charge-transfer", "--config", str(path), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError",
                     "message": f"unknown key {key!r} in config"}
    assert not any(out.iterdir())


@pytest.mark.parametrize("key,value,message", [
    ("n_theta", 64, "unknown key 'n_theta' in config"),
    ("potential", {"family": "screened-coulomb", "Z": 1.0, "screen": 1.0},
     "config.potential.family must be one of ('yukawa', 'gaussian', 'soft-coulomb', "
     "'square-well'), got 'screened-coulomb'; did you mean 'soft-coulomb'?"),
], ids=["n_theta", "screened-coulomb"])
def test_born_elastic_refuses_the_removed_keys(tmp_path, capsys, key, value, message):
    config = yaml.safe_load((ROOT / "demos" / "configs" / "born-elastic.yaml").read_text())
    config[key] = value
    path = tmp_path / "born-elastic.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert cli.main(["born-elastic", "--config", str(path), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": message}
    assert not any(out.iterdir())


def test_kernel_configs_refuse_pade4(tmp_path, capsys):
    config = yaml.safe_load((ROOT / "demos" / "configs" / "evolve.yaml").read_text())
    config.setdefault("scheme", {})["kinetic"] = "pade4"
    path = tmp_path / "evolve.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(
        "config.scheme.kinetic must be one of ('pade2', 'exact'), got 'pade4'")
    assert not any(out.iterdir())


def test_threads_is_an_oracle_flag_only(tmp_path, capsys):
    config = ROOT / "demos" / "configs" / "evolve.yaml"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--config", str(config), "--out", str(out),
                  "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_refused(tmp_path, capsys, threads):
    # the library refuses n_threads < 1; the flag must not round it up to 1
    config = ROOT / "demos" / "configs" / "oracle.yaml"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--config", str(config), "--out", str(out),
                  "--threads", threads])
    assert exc.value.code == 2
    assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()
