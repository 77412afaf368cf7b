"""Membrane oscillator characterization.

Zero-point motion, thermal occupation, spring constant, and Q extracted
from mechanical ringdown.  The Q <-> tau conversion uses the amplitude-decay
convention Q = omega_m tau / 2 exclusively; the energy-decay convention is
deliberately not exposed.
"""

from __future__ import annotations

import numpy as np

from .elementwise import sqrt
from .errors import ValidationError
from .fitting import fit_exponential_decay, require_positive
from .params import HBAR, K_B

# Below this bath occupation the classical-bath assumption n_bar >> 1 breaks.
CLASSICAL_NBAR_MIN = 10.0


def zero_point_amplitude(m: float, omega_m: float) -> float:
    """RMS ground-state displacement sqrt(hbar / (2 m omega_m)) [m].

    Like thermal_occupation, elementwise and unchecked on arrays: a sweep
    grid reports its invalid points through params.grid_violations.
    """
    if not isinstance(m, np.ndarray) and (m <= 0 or omega_m <= 0):
        raise ValidationError("m and omega_m must be positive")
    return sqrt(HBAR / (2.0 * m * omega_m))


def thermal_occupation(T: float, omega_m: float) -> float:
    """Bath mean phonon number k_B T / (hbar omega_m), classical limit.

    Valid for n_bar >> 1; callers should check is_classical_bath() before
    leaning on the high-temperature form.
    """
    if not isinstance(T, np.ndarray):
        if T < 0:
            raise ValidationError(f"T must be >= 0 (got {T})")
        if omega_m <= 0:
            raise ValidationError(f"omega_m must be positive (got {omega_m})")
    return K_B * T / (HBAR * omega_m)


def is_classical_bath(n_bar: float) -> bool:
    return n_bar >= CLASSICAL_NBAR_MIN


def spring_constant(m: float, omega_m: float) -> float:
    """k = m omega_m^2 [N/m]."""
    require_positive(m=m, omega_m=omega_m)
    return m * omega_m**2


def q_from_ringdown(tau: float, omega_m: float) -> float:
    """Quality factor from the amplitude ringdown time, Q = omega_m tau / 2."""
    require_positive(tau=tau, omega_m=omega_m)
    return omega_m * tau / 2.0


def ringdown_time_from_q(Q: float, omega_m: float) -> float:
    """Inverse of q_from_ringdown: tau = 2 Q / omega_m [s]."""
    require_positive(Q=Q, omega_m=omega_m)
    return 2.0 * Q / omega_m


def fit_mech_ringdown(t, amplitude, with_offset: bool = False) -> float:
    """Exponential envelope fit of a mechanical ringdown; returns tau [s].

    Amplitude decay, no offset by default.
    """
    return fit_exponential_decay(t, amplitude, with_offset=with_offset).tau
