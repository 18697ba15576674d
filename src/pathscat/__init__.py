"""Path-integral tools for potential scattering and electron capture.

The package builds nonrelativistic quantum amplitudes directly from
time-sliced sums over paths: lattice propagators in one dimension,
influence-functional reductions for a quantum particle coupled to a
classically prescribed heavy trajectory, first-order elastic cross
sections from momentum-space potentials, and total cross sections for
electron transfer between two moving attractive centers. Every closed
form is backed by an independent numerical route (quadrature or
quasirandom integration) so results can be cross-checked in one call.

Atomic units throughout: hbar = m_e = e = a_0 = 1. No function takes
a unit argument; heavy masses enter as multiples of PROTON_MASS_RATIO.

Each public name is listed once, in the `__all__` of the module that
defines it; the package exports the union of those lists.
"""

from . import born, capture, errors, influence, potentials, propagator, units
from .born import *  # noqa: F403
from .capture import *  # noqa: F403
from .errors import *  # noqa: F403
from .influence import *  # noqa: F403
from .potentials import *  # noqa: F403
from .propagator import *  # noqa: F403
from .units import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (born, capture, errors, influence, potentials, propagator, units)
    for name in module.__all__
)
