"""
Elastic cross sections at first order
=====================================

The first Born approximation turns a central potential into a
scattering amplitude through a single 3-D Fourier transform at the
momentum transfer q = 2 p sin(theta/2). Two independent routes to that
transform live in the package: closed forms where the family has one,
and a radial quadrature for everything else (one vectorised sinc
integral below 64 sine cycles over the support, a sine-weighted rule
per momentum above that or on a long-range tail).
"""

import numpy as np

from pathscat import NumericalError, SoftCoulomb, Yukawa
from pathscat.born import born_differential_cross_section, born_total_cross_section

p, mass = 1.0, 1.0
pot = Yukawa(1.0, 1.0)  # e^{-r}/r, strength 1

# both transform routes at a few angles; they agree to ~1e-12
print("theta      closed route     quadrature route")
for theta in (0.0, 0.5, 1.5, np.pi):
    a = born_differential_cross_section(pot, p, mass, theta)
    b = born_differential_cross_section(pot, p, mass, theta, route="quadrature")
    print(f"{theta:5.2f}   {a:.12e}   {b:.12e}")

# the angular integral has a hand-computable value at these parameters:
# sigma = 16 pi / 5
total = born_total_cross_section(pot, p, mass)
print("\ntotal:", total.value)
print("16pi/5:", 16.0 * np.pi / 5.0)
print("quadrature error estimate:", total.error)

# ----------------------------------------------------------------------
# Screening and the Rutherford limit
# ----------------------------------------------------------------------
# As the screening length diverges the screened-Coulomb cross section
# approaches 4 Z^2 m^2 / q^4. Watch the 90-degree point converge. A
# screened Coulomb attraction -Z exp(-screen r) / r is an attractive
# Yukawa, Yukawa(-Z, screen).

theta = np.pi / 2.0
q2 = 2.0 * p**2 * (1.0 - np.cos(theta))
print("\nscreen     dcs(90deg)        Rutherford 4/q^4 =", 4.0 / q2**2)
for screen in (1.0, 0.1, 0.01, 1e-3):
    dcs = born_differential_cross_section(Yukawa(-1.0, screen), p, mass, theta)
    print(f"{screen:7.3f}   {dcs:.10f}")

# the soft-core potential's transform is closed form too,
# -4 pi Z a K1(a q) / q; its 1/r tail makes v(q) diverge at q = 0, so
# dsigma ~ 1/q^4 there and the total cross section diverges:
# born_total_cross_section raises NumericalError rather than return a
# number. The differential cross section away from theta = 0 is finite.
soft = SoftCoulomb(1.0, 0.8)
try:
    born_total_cross_section(soft, p, mass)
except NumericalError as exc:
    print("\nsoft-core total:", exc)
thetas = np.linspace(0.1, np.pi, 8)
dsigma = born_differential_cross_section(soft, p, mass, thetas)
print("\nsoft-core dcs over angles (plot-ready):")
for theta, d in zip(thetas, dsigma):
    print(f"  {theta:6.4f}  {d:.8e}")
