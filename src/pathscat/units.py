"""Collision kinematics and channel energetics in atomic units.

Everything internal runs in Hartree atomic units (hbar = m_e = e = 1).
Heavy-particle masses are given in proton masses; the rearrangement
collision B+ + (A+ + e-) -> (B+ + e-) + A+ is described in the
center-of-mass frame by the reduced masses of the incoming and outgoing
relative motion and by the inner reduced masses of each bound pair.
"""

from dataclasses import dataclass

import numpy as np

from .errors import _finite, DomainError

__all__ = [
    "PROTON_MASS_RATIO",
    "CollisionKinematics",
    "reduced_masses",
    "OPEN",
    "CLOSED",
    "ChannelEnergetics",
    "channel_energetics",
]

PROTON_MASS_RATIO = 1836.152673


@dataclass(frozen=True)
class CollisionKinematics:
    """Masses of the three-body rearrangement problem.

    A and B are the nuclear masses in proton masses. mu_a / mu_b are the
    reduced masses of the relative motion in the incoming / outgoing
    channel; m_a / m_b are the inner reduced masses of the (A,e) and (B,e)
    bound pairs.
    """

    A: float
    B: float
    m: float
    M: float
    mu_a: float
    mu_b: float
    m_a: float
    m_b: float

    @property
    def M_A(self):
        return self.A * self.M

    @property
    def M_B(self):
        return self.B * self.M


def reduced_masses(A, B):
    """Build CollisionKinematics from nuclear masses A, B (proton masses).

    With M_A = A*M and M_B = B*M (M the proton mass) the four reduced
    masses of the rearrangement collision are

        mu_a = M_B (M_A + m) / (M_A + M_B + m)   incoming relative motion
        mu_b = M_A (M_B + m) / (M_A + M_B + m)   outgoing relative motion
        m_a  = M_A m / (M_A + m)                 electron bound to A
        m_b  = M_B m / (M_B + m)                 electron bound to B

    A and B may be arrays that broadcast; each mass is then an array.
    """
    if not (np.all(np.greater(A, 0)) and np.all(np.greater(B, 0))):
        raise DomainError(f"nuclear masses must be positive, got A={A}, B={B}")
    if not (_finite(A) and _finite(B)):
        raise DomainError(f"nuclear masses must be finite, got A={A}, B={B}")
    m = 1.0  # the electron mass in atomic units
    M = PROTON_MASS_RATIO
    MA, MB = A * M, B * M
    total = MA + MB + m
    return CollisionKinematics(
        A=A,
        B=B,
        m=m,
        M=M,
        mu_a=MB * (MA + m) / total,
        mu_b=MA * (MB + m) / total,
        m_a=MA * m / (MA + m),
        m_b=MB * m / (MB + m),
    )


OPEN = "Open"
CLOSED = "Closed"


@dataclass(frozen=True)
class ChannelEnergetics:
    """Energy bookkeeping between the incoming and outgoing channels.

    E_b = E_a + eps_a - eps_b expresses total-energy conservation when the
    electron moves from a level with binding energy eps_a on A to one with
    eps_b on B. The channel is Open when the outgoing relative motion has
    non-negative energy; a Closed channel carries p_b = 0 as a sentinel.
    """

    E_a: float
    eps_a: float
    eps_b: float
    E_b: float
    p_a: float
    p_b: float
    status: str


def channel_energetics(E_a, eps_a, eps_b, kin):
    """Classify the outgoing channel and populate the relative momenta.

    Arrays that broadcast, kin's masses included, give one channel per
    element: status is then an array of OPEN and CLOSED.
    """
    if not np.all(np.greater_equal(E_a, 0)):
        raise DomainError(f"incoming relative energy must be >= 0, got {E_a}")
    E_b = E_a + eps_a - eps_b
    is_open = E_b >= 0
    status = np.where(is_open, OPEN, CLOSED)
    p_a = np.sqrt(2.0 * kin.mu_a * E_a)
    p_b = np.sqrt(2.0 * kin.mu_b * np.where(is_open, E_b, 0.0))
    if status.ndim == 0:
        status, p_a, p_b = str(status), float(p_a), float(p_b)
    return ChannelEnergetics(
        E_a=E_a, eps_a=eps_a, eps_b=eps_b, E_b=E_b, p_a=p_a, p_b=p_b, status=status
    )
