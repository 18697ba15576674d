"""Potential families and their momentum-space transforms.

The closed-form transforms are checked against the radial quadrature
route, which is coded independently (a vectorised sinc integral, or the
weighted sine rule at many cycles over the support). Spot values below
were worked out by hand from the standard 3-D Fourier conventions with
hbar = 1:

    v(q) = integral d^3r V(r) exp(-i q.r) = (4 pi / q) integral dr r V(r) sin(q r)
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscat import (
    born_total_cross_section,
    DomainError,
    fourier_transform,
    fourier_transform_quadrature,
    Gaussian,
    NumericalError,
    PairPotentials,
    SoftCoulomb,
    SquareWell,
    Yukawa,
)
from pathscat import potentials


def test_yukawa_spot_values():
    pot = Yukawa(1.0, 1.0)
    # 4 pi / (q^2 + 1) at q = 0 and q = 1
    assert fourier_transform(pot, 0.0) == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert fourier_transform(pot, 1.0) == pytest.approx(2.0 * np.pi, rel=1e-15)


def test_square_well_transform_zero_momentum_is_volume_integral():
    pot = SquareWell(-0.7, 2.0)
    assert fourier_transform(pot, 0.0) == pytest.approx(
        4.0 * np.pi * (-0.7) * 8.0 / 3.0, rel=1e-15
    )


def test_square_well_transform_at_small_kr():
    # sin(kR) - kR cos(kR) cancels at small kR; against its 10-term Taylor
    # series the closed form alone was off by 7.8e-5 at kR = 1e-6
    pot = SquareWell(-0.7, 2.0)
    volume = 4.0 * np.pi * (-0.7) * 8.0 / 3.0

    def series(x):
        return volume * sum((-1) ** n * 6.0 * (n + 1) * x ** (2 * n)
                            / math.factorial(2 * n + 3) for n in range(10))

    for kR in (1e-8, 1e-6, 1e-4, 1e-3, 1e-2):
        assert pot.analytic_ft(kR / 2.0) == pytest.approx(series(kR), rel=1e-14)
    switch = potentials._SQUARE_WELL_SWITCH
    below, above = (pot.analytic_ft(x / 2.0)
                    for x in (np.nextafter(switch, 0.0), switch))
    assert below == pytest.approx(above, rel=1e-14)
    assert above == pytest.approx(series(switch), rel=1e-14)
    assert pot.analytic_ft(0.0) == volume


@pytest.mark.parametrize(
    "pot",
    [
        Yukawa(1.3, 0.8),
        Gaussian(-0.4, 1.7),
        Yukawa(-1.0, 1.0),
        SquareWell(0.25, 3.0),
    ],
)
def test_quadrature_route_matches_closed_form(pot):
    # certify one decade tighter than the comparison so the assert is
    # on real agreement, not on the error gate
    for q in np.concatenate(([1e-3, 1e-2], np.linspace(0.1, 50.0, 23))):
        closed = pot.analytic_ft(q)
        quad = fourier_transform_quadrature(pot, q, rel_tol=1e-9, abs_tol=1e-12)
        assert quad == pytest.approx(closed, rel=1e-8, abs=1e-12)


def _fourier_transform_quadrature_reference(pot, q, rel_tol=1e-10, abs_tol=1e-14):
    """The former scalar route, kept as the oracle of the vectorised one:
    the q = 0 moment, a sinc integrand below two sine cycles over the
    support, and the sine-weighted rule above, each by its own quad.

    Each quad is asked for a hundredth of the tolerance and its estimate
    is then checked against the tolerance itself: QUADPACK's estimate is
    not a bound, and at the stated tolerance the sine rule returned
    -3.25e-13 for SquareWell(1e-6, 0.3046875) at q = 1318.47 with an
    estimate of 9.8e-13, where the transform is -2.03e-12."""
    if isinstance(pot, SquareWell):
        R_cut = pot.radius
    else:
        R_cut = potentials._cutoff_radius(pot)
    if q == 0:
        return _reference_quad(
            pot, q, lambda r: 4.0 * np.pi * r * potentials._r_times_v(pot, r),
            R_cut, rel_tol, abs_tol, limit=200,
        )
    if R_cut is not None and q * R_cut < 4.0 * np.pi:
        return _reference_quad(
            pot, q, lambda r: 4.0 * np.pi * r * potentials._r_times_v(pot, r)
            * np.sinc(q * r / np.pi),
            R_cut, rel_tol, abs_tol, limit=200,
        )
    upper = R_cut if R_cut is not None else np.inf
    return _reference_quad(
        pot, q, lambda r: (4.0 * np.pi / q) * potentials._r_times_v(pot, r),
        upper, rel_tol, abs_tol, weight="sin", wvar=q, limit=400,
    )


def _reference_quad(pot, q, integrand, upper, rel_tol, abs_tol, **rule):
    """One reference quad over [0, upper], its estimate checked against
    the tolerance. Where QUADPACK warns that it could not reach the
    hundredth it was asked for (round-off, seen on the Gaussian's sine
    rule at q of 2.6 to 6.1), the value is used only if it also lies
    within the tolerance of the family's closed form."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
        val, est = scipy.integrate.quad(
            integrand, 0.0, upper, epsabs=1e-2 * abs_tol, epsrel=1e-2 * rel_tol, **rule
        )
    val = potentials._checked(val, est, rel_tol, abs_tol)
    if caught:
        closed = pot.analytic_ft(q)
        assert abs(val - closed) <= max(rel_tol * abs(closed), abs_tol), (
            pot, q, str(caught[0].message))
    return val


_potentials = st.one_of(
    st.builds(Yukawa, st.floats(-2.0, 2.0).filter(bool), st.floats(0.3, 2.0)),
    st.builds(Gaussian, st.floats(-2.0, 2.0).filter(bool), st.floats(0.5, 2.0)),
    st.builds(SquareWell, st.floats(-2.0, 2.0).filter(bool), st.floats(0.3, 3.0)),
)


def _momenta(pot, spread):
    """q = 0, a pair straddling the oscillatory switch, and spread up to 50."""
    if isinstance(pot, SquareWell):
        R_cut = pot.radius
    else:
        R_cut = potentials._cutoff_radius(pot)
    edge = potentials._OSCILLATORY_SWITCH / R_cut
    return np.concatenate(([0.0, 0.999 * edge, 1.001 * edge], spread))


_spread = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5)
_REL, _ABS = 1e-9, 1e-12


@settings(max_examples=20, deadline=None, database=None)
@given(pot=_potentials, spread=_spread)
def test_vectorised_quadrature_matches_the_former_route(pot, spread):
    q = _momenta(pot, spread)
    values = fourier_transform_quadrature(pot, q, rel_tol=_REL, abs_tol=_ABS)
    for qi, v in zip(q, values):
        ref = _fourier_transform_quadrature_reference(pot, qi, rel_tol=_REL, abs_tol=_ABS)
        assert abs(v - ref) <= 2.0 * _REL * abs(ref) + _ABS, (pot, qi)


@settings(max_examples=20, deadline=None, database=None)
@given(pot=_potentials, spread=_spread)
def test_array_quadrature_is_elementwise(pot, spread):
    q = _momenta(pot, spread)
    values = fourier_transform_quadrature(pot, q, rel_tol=_REL, abs_tol=_ABS)
    assert values.shape == q.shape
    for qi, v in zip(q, values):
        one = fourier_transform_quadrature(pot, qi, rel_tol=_REL, abs_tol=_ABS)
        assert isinstance(one, float)
        assert abs(v - one) <= 2.0 * _REL * abs(one) + _ABS, (pot, qi)


def _scaled(pot, c):
    """The same family and shape with its strength times c."""
    return dataclasses.replace(pot, V0=c * pot.V0)


@settings(max_examples=40, deadline=None, database=None)
@given(pot=_potentials,
       c=st.floats(-12.0, 12.0).map(lambda k: 10.0**k),
       sign=st.sampled_from((1.0, -1.0)))
def test_cutoff_radius_ignores_the_potential_scale(pot, c, sign):
    # v(q) is linear in V, so where it is truncated must not depend on
    # how strong V is
    scaled = _scaled(pot, sign * c)
    assert potentials._cutoff_radius(scaled) == potentials._cutoff_radius(pot)


def test_weak_potential_meets_its_absolute_tolerance():
    # an absolute cutoff |V(R)| R^2 < 1e-14 truncated this weak screened
    # Coulomb at R = 40 instead of 160: the value was 1.2e-13 off, above
    # abs_tol, yet passed the error gate
    pot = Yukawa(-1.1358e-9, 0.3865)
    assert potentials._cutoff_radius(pot) == potentials._cutoff_radius(
        Yukawa(-1.0, 0.3865)) == 160.0
    q = 1.99 / 40.0
    quad = fourier_transform_quadrature(pot, q, rel_tol=1e-10, abs_tol=1e-14)
    assert abs(quad - pot.analytic_ft(q)) <= 1e-14


def test_born_total_by_quadrature_evaluates_in_batches(monkeypatch):
    # one Born total transforms 64 + 128 momenta; the former route called
    # evaluate 30,936 times, one radius at a time
    calls = []
    scalar = Yukawa.evaluate

    def counted(self, r):
        calls.append(np.size(r))
        return scalar(self, r)

    monkeypatch.setattr(Yukawa, "evaluate", counted)
    total = born_total_cross_section(Yukawa(1.0, 1.0), 1.0, 1.0, route="quadrature")
    assert len(calls) < 64 + 128
    assert total.value == pytest.approx(16.0 * np.pi / 5.0, rel=1e-8)


def test_unreachable_tolerance_raises():
    # below round-off no rule can certify the error; the subdivision cap
    # stops the vectorised rule instead of letting it run on
    with pytest.raises(NumericalError) as info:
        fourier_transform_quadrature(
            Yukawa(1.0, 1.0), np.linspace(0.1, 3.0, 10), rel_tol=1e-17, abs_tol=1e-20
        )
    assert 0.0 < info.value.estimate < np.inf


def test_quadrature_route_at_zero_momentum():
    assert fourier_transform_quadrature(Yukawa(1.0, 2.0), 0.0) == pytest.approx(
        np.pi, rel=1e-9
    )


def test_soft_coulomb_transform_against_quadrature():
    # the transform decays like exp(-soft q), so certify absolute error
    # at large q where the value itself is exponentially small
    pot = SoftCoulomb(1.0, 0.5)
    for q in (0.3, 1.0, 4.0, 12.0):
        closed = pot.analytic_ft(q)
        quad = fourier_transform_quadrature(pot, q, rel_tol=1e-7, abs_tol=1e-8)
        assert quad == pytest.approx(closed, rel=1e-7, abs=1e-8)


def test_soft_coulomb_diverges_at_zero_momentum():
    pot = SoftCoulomb(1.0, 0.5)
    with pytest.raises(NumericalError):
        fourier_transform(pot, 0.0)
    with pytest.raises(NumericalError):
        fourier_transform_quadrature(pot, 0.0)


def test_transforms_are_real():
    # central potentials have purely real transforms in this convention
    for pot in (Yukawa(1.0, 1.0), Gaussian(0.5, 2.0), SquareWell(-1.0, 1.5)):
        v = fourier_transform(pot, 3.2)
        assert np.imag(v) == 0.0


def test_parameter_validation():
    with pytest.raises(DomainError):
        Yukawa(1.0, -1.0)
    with pytest.raises(DomainError):
        Gaussian(1.0, 0.0)
    with pytest.raises(DomainError):
        SquareWell(1.0, -2.0)


def test_pair_container_allows_missing_members():
    pots = PairPotentials(None, Yukawa(1.0, 1.0), None)
    assert pots.V_A is None
    assert pots.V_B is not None
