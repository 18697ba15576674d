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
"""

from .born import (
    born_amplitude,
    born_differential_cross_section,
    born_total_cross_section,
    momentum_transfer,
    TotalCrossSection,
)
from .capture import (
    brute_force_oracle,
    capture_amplitude,
    capture_amplitude_vectors,
    CaptureChannelSpec,
    CaptureTotal,
    ct_differential_cross_section,
    ct_total_cross_section,
    HydrogenicState,
    make_capture_spec,
    OracleEstimate,
)
from .errors import (
    AccuracyWarning,
    ConfigError,
    DomainError,
    NumericalError,
    PathscatError,
)
from .influence import (
    FixedPath,
    influence_K1,
    influence_K2,
    InfluenceResult,
    reconstruct_full_amplitude,
)
from .potentials import (
    fourier_transform,
    fourier_transform_quadrature,
    Gaussian,
    PairPotentials,
    SoftCoulomb,
    SquareWell,
    Yukawa,
)
from .propagator import (
    AbsorbingLayer,
    boundary_leak_fraction,
    ComplexField1D,
    evolve,
    free_deviation_diagnostic,
    free_propagator,
    free_propagator_matrix,
    gaussian_packet,
    HardWall,
    LatticeSpec,
    packet_width,
    PropagatorMatrix,
    scattered_component,
    TimeGrid,
    time_sliced_propagator,
)
from .units import (
    channel_energetics,
    ChannelEnergetics,
    CLOSED,
    CollisionKinematics,
    OPEN,
    PROTON_MASS_RATIO,
    reduced_masses,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorbingLayer",
    "AccuracyWarning",
    "CLOSED",
    "CaptureChannelSpec",
    "CaptureTotal",
    "ChannelEnergetics",
    "CollisionKinematics",
    "ComplexField1D",
    "ConfigError",
    "DomainError",
    "FixedPath",
    "Gaussian",
    "HardWall",
    "HydrogenicState",
    "InfluenceResult",
    "LatticeSpec",
    "NumericalError",
    "OPEN",
    "OracleEstimate",
    "PROTON_MASS_RATIO",
    "PairPotentials",
    "PathscatError",
    "PropagatorMatrix",
    "SoftCoulomb",
    "SquareWell",
    "TimeGrid",
    "TotalCrossSection",
    "Yukawa",
    "born_amplitude",
    "born_differential_cross_section",
    "born_total_cross_section",
    "boundary_leak_fraction",
    "brute_force_oracle",
    "capture_amplitude",
    "capture_amplitude_vectors",
    "channel_energetics",
    "ct_differential_cross_section",
    "ct_total_cross_section",
    "evolve",
    "fourier_transform",
    "fourier_transform_quadrature",
    "free_deviation_diagnostic",
    "free_propagator",
    "free_propagator_matrix",
    "gaussian_packet",
    "influence_K1",
    "influence_K2",
    "make_capture_spec",
    "momentum_transfer",
    "packet_width",
    "reconstruct_full_amplitude",
    "reduced_masses",
    "scattered_component",
    "time_sliced_propagator",
]
