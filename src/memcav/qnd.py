"""Analytic budget for resolving a single phonon jump.

Everything needed to decide whether a jump out of the mechanical ground
state is observable: the cavity shift per phonon, the shot-noise-limited
frequency readout floor, the three processes that end the ground state's
life (thermal excitation, counter-rotating two-phonon excitation, and
residual linear coupling from imperfect positioning), and the resulting
signal-to-noise ratio.

The probe is locked to the cavity (detuning 0) throughout.  The per-phonon
shift uses the near-unity-reflectivity form with sqrt(2 (1 - r_c)); it is
meaningful only for r_c close to 1, which is the operating regime here.
A membrane parked exactly at the extremum (x0 = 0) has no linear coupling:
that channel is then reported as an infinite lifetime and simply omitted
from the total decay rate.

The public formulas take floats, and raise SingularityError where a step or
the result leaves the float range (params.float_result): a power overflows,
a divisor underflows to 0, or the result is not positive and finite.  A grid
goes through sweep.budget_grid, which calls the same cores on its columns,
sweep.LibmArrays; this module uses the standard library alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import mechanics
from .errors import SingularityError, ValidationError
from .params import (C_LIGHT, ExperimentParams, HBAR, K_B, as_dict, float_result,
                     in_float_range, require_positive, validate)


def _kappa(L, F) -> float:
    """Cavity energy damping rate pi c / (L F) [rad/s]."""
    return math.pi * C_LIGHT / (L * F)


def _one_minus_rc(r_c: float) -> float:
    """1 - r_c, which every near-unity-reflectivity form divides by or roots."""
    one_minus = 1.0 - r_c
    if one_minus <= 0.0:
        raise SingularityError("1 - r_c is not positive in a near-unity-reflectivity form")
    return one_minus


def near_unity_gap(r_c: float, L: float) -> float:
    """Band gap at the extremum, (c/L) sqrt(8 (1 - r_c)) [rad/s], unchecked and
    elementwise on a sweep grid's columns."""
    return (C_LIGHT / L) * mechanics.sqrt(8.0 * (1.0 - r_c))


# The formulas' cores: each takes the quantities it shares with the others
# (x_m^2, 1 - r_c, kappa) ready-made, checks nothing, and runs on floats or
# on a sweep grid's columns, which broadcast.  The public formulas below and
# _budget call them.

def _shift(x_m2, L, lam, one_minus_rc):
    return 16.0 * math.pi**2 * C_LIGHT * x_m2 / (L * lam**2 * mechanics.sqrt(2.0 * one_minus_rc))


def _readout_floor(kappa, F, L, lam, P_in):
    """(S_omega, N_bar) of pdh_noise_psd."""
    n_bar = P_in * lam / (math.pi * HBAR * C_LIGHT * kappa)
    return math.pi**3 * HBAR * C_LIGHT**3 / (16.0 * F**2 * L**2 * lam * P_in), n_bar


def _tau_thermal(Q, T):
    return Q * HBAR / (K_B * T)


def _tau_rwa(lam, L, one_minus_rc, m, omega_m, kappa, x_m2, P_in):
    return (lam**3 * L**2 * one_minus_rc * m * omega_m * (omega_m**2 + kappa**2 / 16.0)
            / (8.0 * math.pi**3 * x_m2 * C_LIGHT * P_in))


def _tau_lin(m, omega_m, L, lam, one_minus_rc, kappa, P_in, x0):
    """linear_lifetime's tau, math.inf where x0 = 0; a sweep grid's x0 column
    (sweep.LibmArray) sets its own points at x0 = 0."""
    grid = hasattr(x0, "inf_where_zero")
    if not grid and x0 == 0.0:
        return math.inf
    tau = (m * omega_m * L**2 * lam**3 * one_minus_rc * (4.0 * omega_m**2 + kappa**2)
           / (256.0 * math.pi**3 * P_in * C_LIGHT * x0**2))
    return x0.inf_where_zero(tau) if grid else tau


def detuning_per_phonon(p: ExperimentParams) -> float:
    """Cavity shift per phonon, 16 pi^2 c x_m^2 / (L lam^2 sqrt(2(1-r_c)))."""
    require_positive(m=p.m, omega_m=p.omega_m)
    return float_result("per-phonon detuning", lambda: _shift(
        mechanics._zero_point(p.m, p.omega_m)**2, p.L, p.lam, _one_minus_rc(p.r_c)))


class PdhNoise(NamedTuple):
    s_omega: float          # rad^2/s, white frequency-noise PSD
    kappa: float            # rad/s, cavity damping pi c / (L F)
    n_bar_photons: float    # mean circulating photon number


def pdh_noise_psd(p: ExperimentParams) -> PdhNoise:
    """Shot-noise-limited frequency readout floor of the locked probe.

    S_omega = pi^3 hbar c^3 / (16 F^2 L^2 lambda P_in), which equals
    kappa / (16 N_bar) with N_bar kappa = P_in lambda / (pi hbar c).
    """
    what = "readout noise floor"
    try:
        kappa = _kappa(p.L, p.F)
        s_omega, n_bar = _readout_floor(kappa, p.F, p.L, p.lam, p.P_in)
    except (ZeroDivisionError, OverflowError):  # e.g. L^2 overflows
        raise SingularityError(f"{what} left the float range") from None
    return PdhNoise(in_float_range(s_omega, what), in_float_range(kappa, what),
                    in_float_range(n_bar, what))


def thermal_lifetime(p: ExperimentParams) -> float:
    """Ground-state lifetime against the thermal bath, Q hbar / (k_B T) [s]."""
    return float_result("thermal lifetime", lambda: _tau_thermal(p.Q, p.T))


def rwa_lifetime(p: ExperimentParams) -> float:
    """Ground-state lifetime against the counter-rotating two-phonon channel [s].

    Closed form
        tau = lam^3 L^2 (1-r_c) m omega_m (omega_m^2 + kappa^2/16)
              / (8 pi^3 x_m^2 c P_in),
    equal to the golden-rule route 1 / ((shift/phonon)^2 S_NN(-2 omega_m) / 2).
    """
    require_positive(m=p.m, omega_m=p.omega_m)
    return float_result("counter-rotating lifetime", lambda: _tau_rwa(
        p.lam, p.L, _one_minus_rc(p.r_c), p.m, p.omega_m, _kappa(p.L, p.F),
        mechanics._zero_point(p.m, p.omega_m)**2, p.P_in))


def linear_lifetime(p: ExperimentParams) -> float:
    """Ground-state lifetime against residual linear coupling at offset x0 [s].

    tau = m omega_m L^2 lam^3 (1-r_c) (4 omega_m^2 + kappa^2)
          / (256 pi^3 P_in c x0^2).

    Returns math.inf for x0 = 0 (no linear coupling channel).
    """
    what = "linear-coupling lifetime"
    try:
        tau = _tau_lin(p.m, p.omega_m, p.L, p.lam, _one_minus_rc(p.r_c), _kappa(p.L, p.F),
                       p.P_in, p.x0)
    except (ZeroDivisionError, OverflowError):  # a power overflows, a divisor underflows
        raise SingularityError(f"{what} left the float range") from None
    # x0 = 0's infinite lifetime is by design
    return tau if p.x0 == 0.0 else in_float_range(tau, what)


class QndFlags(NamedTuple):
    """The budget's validity flags: bools for one parameter set, bool columns for a grid."""

    qnd_time_ok: bool        # tau_total * omega_m > 1
    gap_ok: bool             # mode gap > omega_m
    classical_bath_ok: bool  # n_bar >> 1
    good_cavity: bool        # omega_m > kappa

    def all_ok(self) -> bool:
        return all(self)


class QndBudget(NamedTuple):
    """The jump budget: floats for one parameter set, flat row-major columns for a grid."""

    delta_omega: float     # rad/s, shift per phonon
    kappa: float           # rad/s
    n_bar_photons: float
    s_omega: float         # rad^2/s
    tau_thermal: float     # s
    tau_rwa: float         # s
    tau_lin: float         # s (inf when x0 = 0)
    tau_total: float       # s
    snr: float
    gap: float             # rad/s
    n_bar_thermal: float
    flags: QndFlags


# Output names of QndBudget's first ten fields, which are in the same order.
BUDGET_NAMES = ("delta_omega_rad_s", "kappa_rad_s", "n_bar_photons", "s_omega_rad2_s",
                "tau_thermal_s", "tau_rwa_s", "tau_lin_s", "tau_total_s", "snr", "gap_rad_s")
FLAG_NAMES = QndFlags._fields
_FLOAT_RANGE = "jump budget left the float range"


def _budget(p) -> QndBudget:
    """The budget of p, without validating p, on floats or on a sweep grid's columns.

    x_m^2, 1 - r_c and kappa are computed once and handed to the formulas'
    cores, whose results are not range-checked one by one: on floats, a step
    that leaves the float range raises SingularityError, and a result that
    leaves it stays for _left_float_range to mark, as on arrays.
    """
    L, lam, F, P_in, T, m, omega_m, Q, r_c, x0 = (p.L, p.lam, p.F, p.P_in, p.T, p.m, p.omega_m,
                                                  p.Q, p.r_c, p.x0)
    try:
        x_m2 = mechanics._zero_point(m, omega_m)**2
        one_minus_rc = 1.0 - r_c   # > 0 wherever r_c passes validation
        kappa = _kappa(L, F)
        dw = _shift(x_m2, L, lam, one_minus_rc)
        s_omega, n_bar_photons = _readout_floor(kappa, F, L, lam, P_in)
        tau_t = _tau_thermal(Q, T)
        tau_r = _tau_rwa(lam, L, one_minus_rc, m, omega_m, kappa, x_m2, P_in)
        tau_l = _tau_lin(m, omega_m, L, lam, one_minus_rc, kappa, P_in, x0)
        # an absent channel's infinite lifetime adds a rate of 0
        tau_total = 1.0 / (1.0 / tau_t + 1.0 / tau_r + 1.0 / tau_l)
        snr = dw**2 * tau_total / s_omega
        gap = near_unity_gap(r_c, L)
        n_bar = mechanics._bath_occupation(T, omega_m)
    except (ZeroDivisionError, OverflowError):  # e.g. a divisor underflows to 0
        raise SingularityError(_FLOAT_RANGE) from None
    flags = QndFlags(tau_total * omega_m > 1.0, gap > omega_m,
                     mechanics.is_classical_bath(n_bar), omega_m > kappa)
    return QndBudget(dw, kappa, n_bar_photons, s_omega, tau_t, tau_r, tau_l, tau_total, snr, gap,
                     n_bar, flags)


def _left_float_range(b: QndBudget, x0):
    """Whether a budget has left the float range, elementwise on grid columns.

    It has when any of its numbers is not finite, bar tau_lin at x0 = 0
    (infinite by design), or when tau_total, the photon number or the shift
    per phonon is 0.  For valid parameters the formulas' results are
    positive unless they underflow to 0, and a 0 of any other of them
    divides by 0 further on, which raises on a float and leaves inf or NaN
    in an array.
    """
    dw, kappa, n_photons, s_omega, tau_t, tau_r, tau_lin, tau_total, snr, gap, n_bar, _ = b
    # v - v is 0 for a finite v and NaN for any other, which makes the sum NaN
    spread = ((dw - dw) + (kappa - kappa) + (n_photons - n_photons) + (s_omega - s_omega)
              + (tau_t - tau_t) + (tau_r - tau_r) + (tau_total - tau_total) + (snr - snr)
              + (gap - gap) + (n_bar - n_bar))
    return ((spread != 0.0) | (tau_total == 0.0) | (n_photons == 0.0) | (dw == 0.0)
            | (tau_lin - tau_lin != 0.0) & (x0 != 0.0))


def jump_budget(p: ExperimentParams) -> QndBudget:
    """The full ground-state jump budget of one parameter set.

    tau_total is the harmonic sum of the finite channel lifetimes, and
    SNR = (shift per phonon)^2 tau_total / S_omega.  Raises ValidationError
    for invalid parameters and SingularityError for a budget that leaves
    the float range.
    """
    violations = validate(p)
    if violations:
        raise ValidationError("; ".join(violations))
    b = _budget(p)
    if _left_float_range(b, p.x0):
        raise SingularityError(_FLOAT_RANGE)
    return b


def budget_fields(b: QndBudget) -> dict:
    """BUDGET_NAMES mapped to b's values, in order; tau_lin is None when x0 = 0."""
    out = dict(zip(BUDGET_NAMES, b))
    if math.isinf(b.tau_lin):
        out["tau_lin_s"] = None
    return out


def budget_report(p: ExperimentParams) -> dict:
    """JSON-ready budget with input echo; field order is fixed."""
    b = jump_budget(p)
    return {"params": as_dict(p), **budget_fields(b),
            "n_bar_thermal": b.n_bar_thermal, "flags": b.flags._asdict()}
