"""The package's public names: what each module exports, and what is gone."""

import pytest

import pathscat
from pathscat import born, capture, DomainError, influence, potentials, propagator

MODULES = [born, capture, influence, potentials, propagator]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_exist_and_are_reexported(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        assert name in pathscat.__all__, name
        assert getattr(pathscat, name) is getattr(module, name), name


@pytest.mark.parametrize("module,name", [
    (propagator, "short_time_kernel"),
    (propagator, "radial_lattice"),
    (potentials, "evaluate"),
])
def test_unused_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert name not in module.__all__
    assert not hasattr(pathscat, name)
    assert name not in pathscat.__all__


def test_unused_attributes_are_gone():
    assert propagator.KINETIC_FACTORS == ("pade2", "pade4", "exact")
    lat, grid = propagator.LatticeSpec(-1.0, 1.0, 8), propagator.TimeGrid(0.0, 1.0, 1)
    for sampling in propagator.SAMPLING_MODES:
        with pytest.raises(DomainError, match="unknown kinetic factor 'sampled'"):
            propagator.time_sliced_propagator(None, lat, grid, 1.0, "sampled", sampling)
    for family in (potentials.Yukawa(1.0, 1.0), potentials.Gaussian(1.0, 1.0),
                   potentials.SoftCoulomb(1.0, 1.0), potentials.ScreenedCoulomb(1.0, 1.0),
                   potentials.SquareWell(1.0, 1.0)):
        assert not hasattr(family, "range_estimate")
        assert not callable(family)
    assert "grid" not in influence.InfluenceResult.__dataclass_fields__
