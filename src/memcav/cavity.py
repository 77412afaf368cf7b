"""1-D dispersive band structure and cavity optics.

The membrane sits inside a rigid two-mirror Fabry-Perot of length L.  Its
displacement x detunes the cavity periodically:

    omega_cav(x) = (c/L) arccos(r_c cos(4 pi x / lambda))

Two membrane models are used.  The zero-thickness sheet with prescribed
field reflectivity r_c is the reference model behind the formula above; the
finite-thickness dielectric slab (MembraneSpec) is used when real membrane
geometry is supplied.  Mirrors are modeled as lossless sheets whose
reflectivity follows from the finesse via F = pi sqrt(R)/(1 - R).

All transfer matrices act on (E+, E-) amplitude pairs with the convention
(left side) = M (right side), so the amplitude transmission of a chain is
1/M[0,0] and the reflection M[1,0]/M[0,0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularityError, ValidationError
from .params import C_LIGHT, MembraneSpec, float_result, in_float_range, require_positive
from .textio import Table

# Membrane-induced optical loss: measured upper limit only, kept as metadata.
# No loss model is built on it; the optics here stay lossless.
MEMBRANE_LOSS_UPPER_LIMIT = 1.2e-5


def omega_fsr(L: float) -> float:
    """Free spectral range pi c / L [rad/s].

    Raises ValidationError for an L that is not positive and finite, and
    SingularityError when pi c / L overflows.
    """
    require_positive(L=L)
    return in_float_range(math.pi * C_LIGHT / L, "free spectral range")


def dispersive_detuning(x, r_c: float, L: float, lam: float):
    """Cavity frequency (c/L) arccos(r_c cos(4 pi x / lambda)) [rad/s].

    Principal arccos branch, so values lie in
    [(c/L) arccos(r_c), (c/L) arccos(-r_c)].  Vectorized over x.  Raises
    ValidationError when a phase 4 pi x / lambda is not finite, and
    SingularityError when a frequency overflows.
    """
    _check_rc(r_c)
    require_positive(L=L, lam=lam)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):   # a phase out of range, checked below
        phase = 4.0 * np.pi * x / lam
    if not np.isfinite(phase).all():
        raise ValidationError("x puts the phase 4 pi x / lambda out of the float range")
    out = (C_LIGHT / L) * np.arccos(r_c * np.cos(phase))
    if not np.isfinite(out).all():
        raise SingularityError("cavity frequency left the float range")
    return float(out) if out.ndim == 0 else out


def detuning_derivatives(x0: float, r_c: float, L: float, lam: float) -> tuple[float, float, float]:
    """Expansion of omega_cav about an extremum, to lowest order in x0.

    Returns (omega0, omega1, omega2):
        omega0 = c arccos(r_c) / L                       [rad/s]
        omega1 = 16 pi^2 c r_c / (L lam^2 sqrt(1-r_c^2)) * x0   [rad/s/m]
        omega2 = 16 pi^2 c r_c / (L lam^2 sqrt(1-r_c^2))        [rad/s/m^2]

    With r_c = 0 there is no quadratic coupling (omega2 = 0).
    """
    _check_rc(r_c)
    require_positive(L=L, lam=lam)
    if not math.isfinite(x0):
        raise ValidationError(f"x0 must be finite (got {x0})")
    omega0 = in_float_range(C_LIGHT * math.acos(r_c) / L, "omega0")
    if r_c == 0.0:
        return omega0, 0.0, 0.0
    root = math.sqrt((1.0 - r_c) * (1.0 + r_c))   # >= 1e-8, as r_c < 1 is at least 2^-53 below 1
    omega2 = float_result("omega2", lambda: 16.0 * math.pi**2 * C_LIGHT * r_c / (L * lam**2 * root))
    if not math.isfinite(omega2 * x0):
        raise SingularityError("omega1 left the float range")
    return omega0, omega2 * x0, omega2


class ModeGap(NamedTuple):
    """Avoided-crossing gap between adjacent bands at a detuning extremum."""

    approx: float     # (c/L) sqrt(8 (1 - r_c))  [rad/s]
    exact: float      # 2 (c/L) arccos(r_c)      [rad/s]
    rel_error: float  # |approx - exact| / exact


def mode_gap(r_c: float, L: float) -> ModeGap:
    """Minimum gap between adjacent cavity bands, exact and near-unity form."""
    from .qnd import near_unity_gap   # here, so the cavity commands load no qnd
    _check_rc(r_c)
    require_positive(L=L)
    approx = in_float_range(near_unity_gap(r_c, L), "mode gap")
    exact = in_float_range(2.0 * (C_LIGHT / L) * math.acos(r_c), "mode gap")
    return ModeGap(approx, exact, abs(approx - exact) / exact)


@dataclass(frozen=True)
class BandStructure:
    """Sampled omega_{j,+/-}(x) = (c/L)(2 pi j +/- theta(x)) curves."""

    x_samples: np.ndarray
    bands: list  # [((j, sign), omega_samples)] in ascending frequency order
    omega_fsr: float


def band_structure(r_c: float, L: float, lam: float, x_range, n_samples: int,
                   n_bands: int) -> BandStructure:
    """Sample n_bands consecutive bands over a displacement window.

    Bands are ordered (1, -), (1, +), (2, -), ... which is ascending in
    frequency since theta(x) stays inside (0, pi).
    """
    _check_rc(r_c)
    require_positive(L=L, lam=lam)
    if n_samples < 2:
        raise ValidationError("n_samples must be >= 2")
    if n_bands < 1:
        raise ValidationError("n_bands must be >= 1")
    # the phase 4 pi x / lambda is largest at an end; finite there, it is finite
    # throughout and so is the span of the range
    if not all(math.isfinite(4.0 * math.pi * float(x) / float(lam)) for x in x_range):
        raise ValidationError(f"x range ({x_range[0]}, {x_range[1]}) puts the phase "
                              "4 pi x / lambda out of the float range")
    xs = np.linspace(x_range[0], x_range[1], n_samples)
    theta = np.arccos(r_c * np.cos(4.0 * np.pi * xs / lam))
    bands = []
    with np.errstate(over="ignore"):   # an overflow leaves inf, checked below
        for k in range(n_bands):
            j, sign = k // 2 + 1, 1 if k % 2 else -1
            bands.append(((j, sign), (C_LIGHT / L) * (2.0 * np.pi * j + sign * theta)))
    # the bands ascend from above omega_fsr, so it and every band are finite if
    # the last band is
    if not np.isfinite(bands[-1][1]).all():
        raise ValidationError(f"L = {L} puts the band frequencies out of the float range")
    return BandStructure(xs, bands, omega_fsr(L))


def band_structure_rows(bs: BandStructure):
    """CSV header and Table for a BandStructure (x_m, then one band per column)."""
    header = ["x_m"] + [f"band_{j}_{'+' if s > 0 else '-'}" for (j, s), _ in bs.bands]
    return header, Table(bs.x_samples, *(om for _, om in bs.bands))


# ---------------------------------------------------------------------------
# Thin-film membrane optics
# ---------------------------------------------------------------------------

def membrane_reflectivity(spec: MembraneSpec, lam: float) -> float:
    """|r| of a lossless dielectric slab in vacuum at normal incidence.

    Exact two-interface interference formula:
        r = r12 (1 - e^{2 i delta}) / (1 - r12^2 e^{2 i delta}),
    with r12 = (1 - n)/(1 + n) and delta = 2 pi n d / lambda.
    """
    require_positive(lam=lam)
    with np.errstate(all="ignore"):   # a phase or wavenumber out of range shows as NaN
        r = abs(slab_reflection_amplitude(spec.n_index, spec.d, 2.0 * np.pi / lam))
    if not math.isfinite(r):
        raise SingularityError("membrane reflectivity left the float range")
    return r


def slab_reflection_amplitude(n: float, d: float, k) -> complex:
    """Complex field reflection of the bare slab at vacuum wavenumber k."""
    r12 = (1.0 - n) / (1.0 + n)
    phase = np.exp(2j * n * k * d)
    return r12 * (1.0 - phase) / (1.0 - r12**2 * phase)


def sheet_strength(r_c: float) -> float:
    """Polarizability zeta of a zero-thickness sheet with |r| = r_c."""
    _check_rc(r_c)
    return r_c / math.sqrt(1.0 - r_c**2)


def mirror_reflectivity_from_finesse(F: float) -> float:
    """Power reflectivity R of identical lossless mirrors, F = pi sqrt(R)/(1-R)."""
    if not 1.0 <= F < math.inf:
        raise ValidationError(f"finesse must be finite and >= 1 (got {F})")
    try:
        s = (-math.pi + math.sqrt(math.pi**2 + 4.0 * F**2)) / (2.0 * F)  # sqrt(R)
    except OverflowError:   # F**2; short of it, 4 F^2 overflows to inf
        s = math.inf
    return in_float_range(s * s, f"finesse {F}")


def _row_mul(a, B):
    """Row vector a times the 2x2 matrix B (row-major); row i of A B is row i of A times B."""
    return (a[0] * B[0] + a[1] * B[2], a[0] * B[1] + a[1] * B[3])


def _sheet_matrix(zeta):
    return (1 - 1j * zeta, -1j * zeta, 1j * zeta, 1 + 1j * zeta)


def _prop_matrix(k, d):
    ph = np.exp(-1j * k * d)
    return (ph, 0j, 0j, 1.0 / ph)   # products with the zeros stay: inf * 0 must give NaN


def _interface_matrix(n1, n2):
    r12 = (n1 - n2) / (n1 + n2)
    t12 = 2.0 * n1 / (n1 + n2)
    return (1.0 / t12, r12 / t12, r12 / t12, 1.0 / t12)


def _slab_matrix(n, d, k):
    enter, prop = _interface_matrix(1.0, n), _prop_matrix(n * k, d)
    leave = _interface_matrix(n, 1.0)
    return (*_row_mul(_row_mul(enter[:2], prop), leave),
            *_row_mul(_row_mul(enter[2:], prop), leave))


def cavity_transmission(omega, x, F: float, L: float,
                        r_c: float | None = None,
                        membrane: MembraneSpec | None = None):
    """Normalized transmitted power of mirror / membrane / mirror at omega.

    omega is the absolute optical angular frequency; the membrane (sheet of
    reflectivity r_c, or dielectric slab) is centered a displacement x from
    the cavity midpoint.  omega and x broadcast against each other.  Mirrors
    are lossless sheets matched to the finesse.
    """
    if (r_c is None) == (membrane is None):
        raise ValidationError("provide exactly one of r_c or membrane")
    k = np.asarray(omega, dtype=float) / C_LIGHT
    x = np.asarray(x, dtype=float)
    R = mirror_reflectivity_from_finesse(F)
    if R == 1.0:
        raise SingularityError(f"finesse {F} rounds the mirror reflectivity to 1")
    mirror = _sheet_matrix(math.sqrt(R / (1.0 - R)))
    # a product that leaves the float range shows as a non-finite result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if membrane is None:
            mid, half_d = _sheet_matrix(sheet_strength(r_c)), 0.0
        else:
            mid, half_d = _slab_matrix(membrane.n_index, membrane.d, k), membrane.d / 2.0
        d1, d2 = L / 2.0 + x - half_d, L / 2.0 - x - half_d
        if not (np.all(d1 > 0) and np.all(d2 > 0)):
            raise ValidationError("membrane displacement places it outside the cavity")
        row = _row_mul(_row_mul(_row_mul(mirror[:2], _prop_matrix(k, d1)), mid),
                       _prop_matrix(k, d2))
        out = np.abs(1.0 / (row[0] * mirror[0] + row[1] * mirror[2])) ** 2   # 1 / |M[0]|^2
    if not np.all(np.isfinite(out)):
        raise SingularityError("cavity transmission left the float range")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TransmissionMap:
    """Transmission vs (detuning from omega_base, membrane position)."""

    detuning_grid: np.ndarray   # rad/s
    x_grid: np.ndarray          # m
    intensity: np.ndarray       # shape (len(detuning_grid), len(x_grid)), in [0, 1]
    omega_base: float           # rad/s


def transmission_map(F: float, L: float, lam: float, detuning_grid, x_grid,
                     r_c: float | None = None,
                     membrane: MembraneSpec | None = None) -> TransmissionMap:
    """Evaluate cavity_transmission on a (detuning x position) grid.

    Detunings are taken from omega_base, the longitudinal mode nearest the
    design wavelength, round(2 L / lambda) * omega_FSR.
    """
    require_positive(L=L, lam=lam)
    detuning_grid = np.asarray(detuning_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if detuning_grid.size == 0 or x_grid.size == 0:
        raise ValidationError("grids must be non-empty")
    modes = 2.0 * L / lam
    if not math.isfinite(modes):
        raise ValidationError(f"2 L / lambda leaves the float range (L = {L}, lambda = {lam})")
    try:
        omega_base = round(modes) * omega_fsr(L)
    except SingularityError:   # L below ~5e-300: cavity_transmission reports the fault, as
        omega_base = math.nan  # a membrane outside the cavity or a result out of range
    intensity = cavity_transmission((omega_base + detuning_grid)[:, None], x_grid[None, :],
                                    F, L, r_c=r_c, membrane=membrane)
    return TransmissionMap(detuning_grid, x_grid, intensity, float(omega_base))


def transmission_rows(tm: TransmissionMap):
    """Long-form CSV (detuning_rad_s, x_m, intensity) for a TransmissionMap: header and Table."""
    header = ["detuning_rad_s", "x_m", "intensity"]
    det, x = tm.detuning_grid, tm.x_grid
    return header, Table(np.repeat(det, len(x)), np.tile(x, len(det)), tm.intensity.ravel())


def locate_resonance(x: float, center: float, half_width: float, F: float, L: float,
                     r_c: float | None = None, membrane: MembraneSpec | None = None,
                     n_scan: int = 4001) -> tuple[float, float]:
    """Peak of cavity_transmission in [center - half_width, center + half_width].

    A dense scan, then sweep.golden_section between the scan's neighbours
    of its best point, in detuning-from-center coordinates.  Its 40 steps
    shrink that bracket by 0.618**40 ~ 4.4e-9: to ~4e-3 rad/s for the
    default scan of a 1e9 rad/s half width, below the ~0.5 rad/s ulp of an
    optical frequency.  Returns (omega_peak, transmission_at_peak).
    """
    from .sweep import golden_section   # here, so the cavity commands load no sweep or qnd

    delta = np.linspace(-half_width, half_width, n_scan)
    ts = cavity_transmission(center + delta, x, F, L, r_c=r_c, membrane=membrane)
    i = int(np.argmax(ts))
    peak, t_peak = golden_section(
        lambda d: cavity_transmission(center + float(d), x, F, L, r_c=r_c, membrane=membrane),
        delta[max(i - 1, 0)], delta[min(i + 1, n_scan - 1)])
    return center + float(peak), t_peak


# ---------------------------------------------------------------------------
# Ringdown and finesse
# ---------------------------------------------------------------------------

def decay_time(F: float, L: float) -> float:
    """Cavity energy decay time tau = L F / (pi c) [s] of finesse F and length L [m]."""
    require_positive(F=F, L=L)
    return in_float_range(L * F / (math.pi * C_LIGHT), "decay time")


def finesse_from_decay(tau: float, L: float) -> float:
    """Finesse F = pi c tau / L of energy decay time tau [s] and length L [m]."""
    require_positive(tau=tau, L=L)
    return in_float_range(math.pi * C_LIGHT * tau / L, "finesse")


def _check_rc(r_c: float) -> None:
    if not 0.0 <= r_c < 1.0:
        raise ValidationError(f"r_c must be in [0, 1) (got {r_c})")
