"""
Time-sliced propagators on a lattice
====================================

A transition amplitude K(b, a) can be built as the N-fold product of
short-time kernels. This walkthrough builds that product for a free
particle and for a harmonic well, and watches the error fall as the
time step shrinks.

Everything is in atomic units: hbar = 1, electron mass = 1.
"""

import numpy as np

from pathscat import (
    LatticeSpec,
    TimeGrid,
    evolve,
    free_propagator_matrix,
    gaussian_packet,
    packet_width,
    time_sliced_propagator,
)

# ----------------------------------------------------------------------
# 1. A lattice and a probe packet
# ----------------------------------------------------------------------
# 512 points on [-20, 20]. The hard walls sit one spacing outside the
# end nodes; everything stays far from them in this demo.

lattice = LatticeSpec(-20.0, 20.0, 512)
packet = gaussian_packet(lattice, x0=-3.0, p0=1.5, sigma0=1.2)
print("lattice spacing dx =", lattice.dx)
print("initial norm       =", packet.norm())

# ----------------------------------------------------------------------
# 2. Convergence of the sliced free propagator
# ----------------------------------------------------------------------
# The exact free kernel is a closed-form Gaussian. The sliced product
# approaches it as the slice count N grows; the default kinetic factor
# is a second-order Cayley form, so expect the error to drop by about
# 4x per doubling. K.apply pushes the packet through the N slices by
# split-step; reading K.entries would form the dense product instead.

exact = free_propagator_matrix(lattice, TimeGrid(0.0, 1.0, 1), mass=1.0)
want = (exact.entries @ packet.values) * lattice.dx
interior = np.abs(lattice.nodes) <= 8.0

print("\n  N    packet error")
for N in (32, 64, 128, 256, 512):
    K = time_sliced_propagator(None, lattice, TimeGrid(0.0, 1.0, N), mass=1.0)
    got = K.apply(packet.values)
    err = np.max(np.abs((got - want)[interior])) / np.max(np.abs(want[interior]))
    print(f"{N:5d}    {err:.3e}")

# ----------------------------------------------------------------------
# 3. A packet spreading freely
# ----------------------------------------------------------------------
# The width of a minimum-uncertainty packet grows like
# sigma(t) = sigma0 sqrt(1 + (t / 2 sigma0^2)^2). evolve() applies the
# kernel with the dx weight and warns if amplitude reaches the walls.

sigma0 = 1.0
print("\n  t    measured width    sigma(t)")
for t in (1.0, 2.5, 5.0):
    K = time_sliced_propagator(
        None, lattice, TimeGrid(0.0, t, 64), mass=1.0, kinetic="exact"
    )
    psi_t = evolve(gaussian_packet(lattice, 0.0, 0.0, sigma0), K)
    law = sigma0 * np.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)
    print(f"{t:4.1f}   {packet_width(psi_t):.6f}         {law:.6f}")

# ----------------------------------------------------------------------
# 4. The harmonic oscillator against its analytic kernel
# ----------------------------------------------------------------------
# With symmetric (Strang) potential sampling and the exact band-limited
# kinetic factor the sliced kernel reproduces the analytic oscillator
# kernel to a few parts in 1e6 at N = 512.

omega, t = 1.0, 1.0
K = time_sliced_propagator(
    lambda x: 0.5 * omega**2 * x**2,
    lattice,
    TimeGrid(0.0, t, 512),
    mass=1.0,
    kinetic="exact",
    sampling="symmetric",
)
x = lattice.nodes
s = np.sin(omega * t)
xa, xb = np.meshgrid(x, x, indexing="xy")
mehler = np.sqrt(omega / (2 * np.pi * s)) * np.exp(-1j * np.pi / 4) * np.exp(
    1j * omega / (2 * s) * ((xa**2 + xb**2) * np.cos(omega * t) - 2 * xa * xb)
)
got = K.apply(packet.values)
want = (mehler @ packet.values) * lattice.dx
err = np.max(np.abs((got - want)[interior])) / np.max(np.abs(want[interior]))
print("\noscillator kernel error at N = 512:", f"{err:.3e}")
