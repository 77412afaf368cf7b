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

from .elementwise import sqrt
from .errors import SingularityError, ValidationError
from .fitting import require_positive
from .params import C_LIGHT, MembraneSpec

# Membrane-induced optical loss: measured upper limit only, kept as metadata.
# No loss model is built on it; the optics here stay lossless.
MEMBRANE_LOSS_UPPER_LIMIT = 1.2e-5


def omega_fsr(L: float) -> float:
    """Free spectral range pi c / L [rad/s]."""
    return math.pi * C_LIGHT / L


def dispersive_detuning(x, r_c: float, L: float, lam: float):
    """Cavity frequency (c/L) arccos(r_c cos(4 pi x / lambda)) [rad/s].

    Principal arccos branch, so values lie in
    [(c/L) arccos(r_c), (c/L) arccos(-r_c)].  Vectorized over x.
    """
    _check_rc(r_c)
    _check_lengths(L, lam)
    x = np.asarray(x, dtype=float)
    out = (C_LIGHT / L) * np.arccos(r_c * np.cos(4.0 * np.pi * x / lam))
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
    _check_lengths(L, lam)
    omega0 = C_LIGHT * math.acos(r_c) / L
    if r_c == 0.0:
        return omega0, 0.0, 0.0
    root = math.sqrt((1.0 - r_c) * (1.0 + r_c))
    if root == 0.0:
        raise SingularityError("1 - r_c underflowed; curvature diverges")
    omega2 = 16.0 * math.pi**2 * C_LIGHT * r_c / (L * lam**2 * root)
    return omega0, omega2 * x0, omega2


class ModeGap(NamedTuple):
    """Avoided-crossing gap between adjacent bands at a detuning extremum."""

    approx: float     # (c/L) sqrt(8 (1 - r_c))  [rad/s]
    exact: float      # 2 (c/L) arccos(r_c)      [rad/s]
    rel_error: float  # |approx - exact| / exact


def near_unity_gap(r_c: float, L: float) -> float:
    """(c/L) sqrt(8 (1 - r_c)) [rad/s], unchecked and elementwise on arrays."""
    return (C_LIGHT / L) * sqrt(8.0 * (1.0 - r_c))


def mode_gap(r_c: float, L: float) -> ModeGap:
    """Minimum gap between adjacent cavity bands, exact and near-unity form."""
    _check_rc(r_c)
    approx = near_unity_gap(r_c, L)
    exact = 2.0 * (C_LIGHT / L) * math.acos(r_c)
    return ModeGap(approx, exact, abs(approx - exact) / exact)


@dataclass(frozen=True)
class BandStructure:
    """Sampled omega_{j,+/-}(x) = (c/L)(2 pi j +/- theta(x)) curves."""

    x_samples: np.ndarray
    bands: list  # [((j, sign), omega_samples)] in ascending frequency order
    omega_fsr: float


def band_structure(r_c: float, L: float, lam: float, x_range, n_samples: int,
                   n_bands: int, j_start: int = 1) -> BandStructure:
    """Sample n_bands consecutive bands over a displacement window.

    Bands are ordered (j_start, -), (j_start, +), (j_start+1, -), ... which
    is ascending in frequency since theta(x) stays inside (0, pi).
    """
    _check_rc(r_c)
    _check_lengths(L, lam)
    if n_samples < 2:
        raise ValidationError("n_samples must be >= 2")
    if n_bands < 1:
        raise ValidationError("n_bands must be >= 1")
    xs = np.linspace(x_range[0], x_range[1], n_samples)
    theta = np.arccos(r_c * np.cos(4.0 * np.pi * xs / lam))
    bands = []
    j, sign = j_start, -1
    for _ in range(n_bands):
        omega = (C_LIGHT / L) * (2.0 * np.pi * j + sign * theta)
        bands.append(((j, sign), omega))
        if sign < 0:
            sign = +1
        else:
            sign = -1
            j += 1
    return BandStructure(xs, bands, omega_fsr(L))


def band_structure_rows(bs: BandStructure):
    """CSV columns and rows for a BandStructure (x_m, then one band per column)."""
    header = ["x_m"] + [f"band_{j}_{'+' if s > 0 else '-'}" for (j, s), _ in bs.bands]
    table = np.column_stack([bs.x_samples] + [om for _, om in bs.bands])
    return header, table


# ---------------------------------------------------------------------------
# Thin-film membrane optics
# ---------------------------------------------------------------------------

def membrane_reflectivity(spec: MembraneSpec, lam: float) -> float:
    """|r| of a lossless dielectric slab in vacuum at normal incidence.

    Exact two-interface interference formula:
        r = r12 (1 - e^{2 i delta}) / (1 - r12^2 e^{2 i delta}),
    with r12 = (1 - n)/(1 + n) and delta = 2 pi n d / lambda.
    """
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    return abs(slab_reflection_amplitude(spec.n_index, spec.d, 2.0 * np.pi / lam))


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
    s = (-math.pi + math.sqrt(math.pi**2 + 4.0 * F**2)) / (2.0 * F)  # sqrt(R)
    return s * s


def _mat_mul(A, B):
    return (A[0] * B[0] + A[1] * B[2], A[0] * B[1] + A[1] * B[3],
            A[2] * B[0] + A[3] * B[2], A[2] * B[1] + A[3] * B[3])


def _sheet_matrix(zeta, like):
    one = np.ones_like(like)
    return ((1 - 1j * zeta) * one, -1j * zeta * one, 1j * zeta * one, (1 + 1j * zeta) * one)


def _prop_matrix(k, d):
    ph = np.exp(-1j * k * d)
    zero = np.zeros_like(ph)
    return (ph, zero, zero, 1.0 / ph)


def _interface_matrix(n1, n2, like):
    r12 = (n1 - n2) / (n1 + n2)
    t12 = 2.0 * n1 / (n1 + n2)
    one = np.ones_like(like)
    return (one / t12, (r12 / t12) * one, (r12 / t12) * one, one / t12)


def _slab_matrix(n, d, k):
    inner = _mat_mul(_interface_matrix(1.0, n, k + 0j), _prop_matrix(n * k, d))
    return _mat_mul(inner, _interface_matrix(n, 1.0, k + 0j))


def cavity_transmission(omega, x: float, F: float, L: float,
                        r_c: float | None = None,
                        membrane: MembraneSpec | None = None):
    """Normalized transmitted power of mirror / membrane / mirror at omega.

    omega is the absolute optical angular frequency (vectorized); the
    membrane (sheet of reflectivity r_c, or dielectric slab) is centered a
    displacement x from the cavity midpoint.  Mirrors are lossless sheets
    matched to the finesse.
    """
    if (r_c is None) == (membrane is None):
        raise ValidationError("provide exactly one of r_c or membrane")
    k = np.asarray(omega, dtype=float) / C_LIGHT
    R = mirror_reflectivity_from_finesse(F)
    zeta_m = math.sqrt(R / (1.0 - R))
    mirror = _sheet_matrix(zeta_m, k + 0j)
    if membrane is None:
        mid = _sheet_matrix(sheet_strength(r_c), k + 0j)
        d1 = L / 2.0 + x
        d2 = L / 2.0 - x
    else:
        mid = _slab_matrix(membrane.n_index, membrane.d, k)
        d1 = L / 2.0 + x - membrane.d / 2.0
        d2 = L / 2.0 - x - membrane.d / 2.0
    if d1 <= 0 or d2 <= 0:
        raise ValidationError("membrane displacement places it outside the cavity")
    M = _mat_mul(mirror, _prop_matrix(k, d1))
    M = _mat_mul(M, mid)
    M = _mat_mul(M, _prop_matrix(k, d2))
    M = _mat_mul(M, mirror)
    out = np.abs(1.0 / M[0]) ** 2
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
                     membrane: MembraneSpec | None = None,
                     omega_base: float | None = None) -> TransmissionMap:
    """Evaluate cavity_transmission on a (detuning x position) grid.

    omega_base defaults to the longitudinal mode nearest the design
    wavelength, round(2 L / lambda) * omega_FSR.
    """
    _check_lengths(L, lam)
    detuning_grid = np.asarray(detuning_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if detuning_grid.size == 0 or x_grid.size == 0:
        raise ValidationError("grids must be non-empty")
    if omega_base is None:
        omega_base = round(2.0 * L / lam) * omega_fsr(L)
    intensity = np.empty((len(detuning_grid), len(x_grid)))
    for j, x in enumerate(x_grid):
        intensity[:, j] = cavity_transmission(
            omega_base + detuning_grid, float(x), F, L, r_c=r_c, membrane=membrane
        )
    return TransmissionMap(detuning_grid, x_grid, intensity, float(omega_base))


def transmission_rows(tm: TransmissionMap):
    """Long-form CSV (detuning_rad_s, x_m, intensity) for a TransmissionMap."""
    header = ["detuning_rad_s", "x_m", "intensity"]
    dg, xg = np.meshgrid(tm.detuning_grid, tm.x_grid, indexing="ij")
    table = np.column_stack([dg.ravel(), xg.ravel(), tm.intensity.ravel()])
    return header, table


def locate_resonance(x: float, center: float, half_width: float, F: float, L: float,
                     r_c: float | None = None, membrane: MembraneSpec | None = None,
                     n_scan: int = 4001) -> tuple[float, float]:
    """Peak of cavity_transmission in [center - half_width, center + half_width].

    Dense scan followed by bounded refinement.  The refinement runs in
    detuning-from-center coordinates: at optical frequencies ~1e15 rad/s the
    sqrt(eps)*|x| term of the scalar minimizer would otherwise dominate the
    linewidth.  Returns (omega_peak, transmission_at_peak).
    """
    # deferred like the fits' import: see fitting.least_squares
    from scipy.optimize import minimize_scalar

    delta = np.linspace(-half_width, half_width, n_scan)
    ts = cavity_transmission(center + delta, x, F, L, r_c=r_c, membrane=membrane)
    i = int(np.argmax(ts))
    lo, hi = delta[max(i - 1, 0)], delta[min(i + 1, n_scan - 1)]
    res = minimize_scalar(
        lambda d: -cavity_transmission(center + float(d), x, F, L, r_c=r_c, membrane=membrane),
        bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-4, "maxiter": 500},
    )
    return center + float(res.x), float(-res.fun)


# ---------------------------------------------------------------------------
# Ringdown and finesse
# ---------------------------------------------------------------------------

def finesse_ringdown(value: float, direction: str, L: float) -> float:
    """Convert between finesse and cavity energy decay time tau = L F / (pi c).

    direction is "finesse_to_tau" or "tau_to_finesse".
    """
    require_positive(value=value, L=L)
    if direction == "finesse_to_tau":
        return L * value / (math.pi * C_LIGHT)
    if direction == "tau_to_finesse":
        return math.pi * C_LIGHT * value / L
    raise ValidationError(f"unknown direction '{direction}'")


def _check_rc(r_c: float) -> None:
    if not 0.0 <= r_c < 1.0:
        raise ValidationError(f"r_c must be in [0, 1) (got {r_c})")


def _check_lengths(L: float, lam: float) -> None:
    if not (0.0 < L < math.inf and 0.0 < lam < math.inf):
        raise ValidationError(f"L and lambda must be finite and positive (got {L} and {lam})")
