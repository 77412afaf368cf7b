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

Each formula runs on floats or on arrays that broadcast (a sweep grid); on floats
it raises SingularityError where a step or its result leaves the float range:
a power overflows, a divisor underflows to 0, or the result is not positive
and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cavity, mechanics
from .elementwise import sqrt
from .errors import SingularityError, ValidationError
from .params import (C_LIGHT, ExperimentParams, HBAR, K_B, as_dict, grid_violations,
                     in_float_range, validate)


def _kappa(p: ExperimentParams) -> float:
    """Cavity energy damping rate pi c / (L F) [rad/s]."""
    return math.pi * C_LIGHT / (p.L * p.F)


def _one_minus_rc(p: ExperimentParams) -> float:
    """1 - r_c, which every near-unity-reflectivity form divides by or roots."""
    one_minus = 1.0 - p.r_c
    # a grid leaves r_c >= 1 to params.grid_violations
    if not isinstance(one_minus, np.ndarray) and one_minus <= 0.0:
        raise SingularityError("1 - r_c underflowed in a near-unity-reflectivity form")
    return one_minus


def _x_m2(p) -> float:
    """Squared zero-point amplitude hbar / (2 m omega_m) [m^2], as x_m**2."""
    return mechanics.zero_point_amplitude(p.m, p.omega_m)**2


def detuning_per_phonon(p: ExperimentParams) -> float:
    """Cavity shift per phonon, 16 pi^2 c x_m^2 / (L lam^2 sqrt(2(1-r_c)))."""
    what = "per-phonon detuning"
    try:
        return in_float_range(16.0 * math.pi**2 * C_LIGHT * _x_m2(p)
                              / (p.L * p.lam**2 * sqrt(2.0 * _one_minus_rc(p))), what)
    except (ZeroDivisionError, OverflowError):  # x_m^2 or lam^2 leaves the float range
        raise SingularityError(f"{what} left the float range") from None


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
        kappa = _kappa(p)
        n_bar = p.P_in * p.lam / (math.pi * HBAR * C_LIGHT * kappa)
        s_omega = math.pi**3 * HBAR * C_LIGHT**3 / (16.0 * p.F**2 * p.L**2 * p.lam * p.P_in)
    except (ZeroDivisionError, OverflowError):  # e.g. L^2 overflows
        raise SingularityError(f"{what} left the float range") from None
    return PdhNoise(in_float_range(s_omega, what), in_float_range(kappa, what),
                    in_float_range(n_bar, what))


def thermal_lifetime(p: ExperimentParams) -> float:
    """Ground-state lifetime against the thermal bath, Q hbar / (k_B T) [s]."""
    what = "thermal lifetime"
    try:
        return in_float_range(p.Q * HBAR / (K_B * p.T), what)
    except ZeroDivisionError:  # k_B T underflows to 0
        raise SingularityError(f"{what} left the float range") from None


def rwa_lifetime(p: ExperimentParams) -> float:
    """Ground-state lifetime against the counter-rotating two-phonon channel [s].

    Closed form
        tau = lam^3 L^2 (1-r_c) m omega_m (omega_m^2 + kappa^2/16)
              / (8 pi^3 x_m^2 c P_in),
    equal to the golden-rule route 1 / ((shift/phonon)^2 S_NN(-2 omega_m) / 2).
    """
    what = "counter-rotating lifetime"
    try:
        return in_float_range(p.lam**3 * p.L**2 * _one_minus_rc(p) * p.m * p.omega_m
                              * (p.omega_m**2 + _kappa(p)**2 / 16.0)
                              / (8.0 * math.pi**3 * _x_m2(p) * C_LIGHT * p.P_in), what)
    except (ZeroDivisionError, OverflowError):  # a power overflows, a divisor underflows
        raise SingularityError(f"{what} left the float range") from None


def linear_lifetime(p: ExperimentParams) -> float:
    """Ground-state lifetime against residual linear coupling at offset x0 [s].

    tau = m omega_m L^2 lam^3 (1-r_c) (4 omega_m^2 + kappa^2)
          / (256 pi^3 P_in c x0^2).

    Returns math.inf for x0 = 0 (no linear coupling channel).
    """
    grid = isinstance(p.x0, np.ndarray)
    if not grid and p.x0 == 0.0:
        return math.inf
    what = "linear-coupling lifetime"
    try:
        tau = in_float_range(p.m * p.omega_m * p.L**2 * p.lam**3 * _one_minus_rc(p)
                             * (4.0 * p.omega_m**2 + _kappa(p)**2)
                             / (256.0 * math.pi**3 * p.P_in * C_LIGHT * p.x0**2), what)
    except (ZeroDivisionError, OverflowError):  # a power overflows, a divisor underflows
        raise SingularityError(f"{what} left the float range") from None
    return np.where(p.x0 == 0.0, math.inf, tau) if grid else tau


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
    """The budget of p, without validating p, on floats or on arrays that broadcast.

    On floats, a step that leaves the float range raises SingularityError; on
    arrays it leaves inf, NaN or a zero tau_total, which _left_float_range marks.
    """
    try:
        dw = detuning_per_phonon(p)
        s_omega, kappa, n_bar_photons = pdh_noise_psd(p)
        tau_t = thermal_lifetime(p)
        tau_r = rwa_lifetime(p)
        tau_l = linear_lifetime(p)
        # an absent channel's infinite lifetime adds a rate of 0
        tau_total = 1.0 / (1.0 / tau_t + 1.0 / tau_r + 1.0 / tau_l)
        snr = dw**2 * tau_total / s_omega
        gap = cavity.near_unity_gap(p.r_c, p.L)
        n_bar = mechanics.thermal_occupation(p.T, p.omega_m)
    except (ZeroDivisionError, OverflowError, SingularityError):  # e.g. an underflow to 0
        raise SingularityError(_FLOAT_RANGE) from None
    flags = QndFlags(tau_total * p.omega_m > 1.0, gap > p.omega_m,
                     mechanics.is_classical_bath(n_bar), p.omega_m > kappa)
    return QndBudget(dw, kappa, n_bar_photons, s_omega, tau_t, tau_r, tau_l, tau_total, snr, gap,
                     n_bar, flags)


def _left_float_range(b: QndBudget, x0):
    """Whether a budget has left the float range, elementwise on grid columns.

    It has when any of its numbers is not finite, bar tau_lin at x0 = 0
    (infinite by design), or when tau_total or the photon number is 0.  The
    photon number is the one result whose 0, where pdh_noise_psd raises on a
    float, can leave every other number finite.
    """
    dw, kappa, n_photons, s_omega, tau_t, tau_r, tau_lin, tau_total, snr, gap, n_bar, _ = b
    # v - v is 0 for a finite v and NaN for any other, which makes the sum NaN
    spread = ((dw - dw) + (kappa - kappa) + (n_photons - n_photons) + (s_omega - s_omega)
              + (tau_t - tau_t) + (tau_r - tau_r) + (tau_total - tau_total) + (snr - snr)
              + (gap - gap) + (n_bar - n_bar))
    return ((spread != 0.0) | (tau_total == 0.0) | (n_photons == 0.0)
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


@dataclass(frozen=True)
class BudgetGrid:
    """jump_budget at every point of a grid, as flat row-major columns.

    `values` is a QndBudget whose fields, and whose flags' fields, are the
    columns; they hold NaN and False at the `failed` points.  `errors` is
    an object column of the message jump_budget raises at each point, ""
    where it raises none; `failed` is where it is not "".
    """

    values: QndBudget
    errors: np.ndarray
    failed: np.ndarray
    feasible: np.ndarray


def budget_grid(p) -> BudgetGrid:
    """The budget of every point of p, whose fields are LibmArrays that broadcast.

    One broadcast pass through jump_budget's formulas and float-range rule,
    so every point fails, or not, as jump_budget does there, and every
    value is bit-identical to jump_budget's.
    """
    shape = np.broadcast_shapes(*(v.shape for v in vars(p).values()))
    errors = grid_violations(p, shape)

    def flat(v):
        return np.broadcast_to(v, shape).flatten()

    with np.errstate(all="ignore"):
        b = _budget(p)
        b = QndBudget(*map(flat, b[:-1]), QndFlags(*map(flat, b.flags)))
        out_of_range = _left_float_range(b, flat(p.x0))
    errors[out_of_range & (errors == "")] = _FLOAT_RANGE
    failed = errors != ""
    for col in b[:-1]:
        col[failed] = np.nan
    feasible = ~failed
    for col in b.flags:
        col[failed] = False
        feasible &= col
    return BudgetGrid(b, errors, failed, feasible)


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
