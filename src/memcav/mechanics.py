"""Membrane oscillator characterization.

Zero-point motion, thermal occupation, spring constant, and Q extracted
from mechanical ringdown.  The Q <-> tau conversion uses the amplitude-decay
convention Q = omega_m tau / 2 exclusively; the energy-decay convention is
deliberately not exposed.  The checked functions take floats; the jump budget,
of one parameter set or of a sweep grid, and qnd's formulas call their cores,
which check nothing.
"""

from __future__ import annotations

import math

from .errors import SingularityError, ValidationError
from .params import HBAR, K_B, float_result, require_positive

# Below this bath occupation the classical-bath assumption n_bar >> 1 breaks.
CLASSICAL_NBAR_MIN = 10.0


def sqrt(x):
    """math.sqrt of a number; a sweep grid's column (sweep.LibmArray) takes its own."""
    return x.sqrt() if hasattr(x, "sqrt") else math.sqrt(x)


def _zero_point(m, omega_m):
    return sqrt(HBAR / (2.0 * m * omega_m))


def _bath_occupation(T, omega_m):
    return K_B * T / (HBAR * omega_m)


def zero_point_amplitude(m: float, omega_m: float) -> float:
    """RMS ground-state displacement sqrt(hbar / (2 m omega_m)) [m]."""
    require_positive(m=m, omega_m=omega_m)
    return float_result("zero-point amplitude", lambda: _zero_point(m, omega_m))


def thermal_occupation(T: float, omega_m: float) -> float:
    """Bath mean phonon number k_B T / (hbar omega_m), classical limit.

    Valid for n_bar >> 1, which is_classical_bath() checks.  Raises
    SingularityError where hbar omega_m underflows to 0 or the result
    overflows; T = 0 gives 0.
    """
    if T < 0:
        raise ValidationError(f"T must be >= 0 (got {T})")
    if omega_m <= 0:
        raise ValidationError(f"omega_m must be positive (got {omega_m})")
    if not (math.isfinite(T) and math.isfinite(omega_m)):   # NaN passes the tests above
        raise ValidationError(f"T and omega_m must be finite (got {T}, {omega_m})")
    if HBAR * omega_m == 0.0:
        raise SingularityError(f"hbar omega_m underflowed to 0 (omega_m = {omega_m})")
    n_bar = _bath_occupation(T, omega_m)
    if n_bar == math.inf:
        raise SingularityError("thermal occupation left the float range")
    return n_bar


def is_classical_bath(n_bar: float) -> bool:
    return n_bar >= CLASSICAL_NBAR_MIN


def spring_constant(m: float, omega_m: float) -> float:
    """k = m omega_m^2 [N/m]."""
    require_positive(m=m, omega_m=omega_m)
    return float_result("spring constant", lambda: m * omega_m**2)


def q_from_ringdown(tau: float, omega_m: float) -> float:
    """Quality factor from the amplitude ringdown time, Q = omega_m tau / 2."""
    require_positive(tau=tau, omega_m=omega_m)
    return float_result("quality factor", lambda: omega_m * tau / 2.0)


def ringdown_time_from_q(Q: float, omega_m: float) -> float:
    """Inverse of q_from_ringdown: tau = 2 Q / omega_m [s]."""
    require_positive(Q=Q, omega_m=omega_m)
    return float_result("ringdown time", lambda: 2.0 * Q / omega_m)


def fit_mech_ringdown(t, amplitude) -> float:
    """Exponential envelope fit of a mechanical ringdown, without offset; returns tau [s]."""
    from .fitting import fit_exponential_decay   # here, so the budget commands load no fitting
    return fit_exponential_decay(t, amplitude, with_offset=False).tau
