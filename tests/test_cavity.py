import math

import numpy as np
import pytest
from scipy.optimize import brentq

from memcav import cavity
from memcav.errors import FitError, ValidationError
from memcav.fitting import fit_exponential_decay
from memcav.params import C_LIGHT, MembraneSpec

from oracles import central_second_derivative, slab_amplitudes

L_REF = 0.067
LAM_REF = 5.32e-7


# ---------------------------------------------------------------------------
# dispersive detuning and its expansion
# ---------------------------------------------------------------------------

def test_detuning_transparent_membrane_constant():
    xs = np.linspace(-1e-6, 1e-6, 7)
    om = cavity.dispersive_detuning(xs, 0.0, L_REF, LAM_REF)
    assert np.allclose(om, (C_LIGHT / L_REF) * np.pi / 2, rtol=1e-15)


def test_detuning_quarter_wavelength_point():
    om = cavity.dispersive_detuning(LAM_REF / 4, 0.5, L_REF, LAM_REF)
    assert math.isclose(om, (C_LIGHT / L_REF) * 2 * np.pi / 3, rel_tol=1e-12)


def test_detuning_range_and_branch():
    xs = np.linspace(-LAM_REF, LAM_REF, 2001)
    om = cavity.dispersive_detuning(xs, 0.31, L_REF, LAM_REF)
    lo = (C_LIGHT / L_REF) * math.acos(0.31)
    hi = (C_LIGHT / L_REF) * math.acos(-0.31)
    assert om.min() >= lo * (1 - 1e-12) and om.max() <= hi * (1 + 1e-12)


def test_detuning_rejects_rc_one():
    with pytest.raises(ValidationError):
        cavity.dispersive_detuning(0.0, 1.0, L_REF, LAM_REF)


@pytest.mark.parametrize("rc", [0.31, 0.9, 0.999])
def test_detuning_periodicity_half_wavelength(rc):
    xs = np.linspace(-LAM_REF / 4, LAM_REF / 4, 101)
    a = cavity.dispersive_detuning(xs, rc, L_REF, LAM_REF)
    b = cavity.dispersive_detuning(xs + LAM_REF / 2, rc, L_REF, LAM_REF)
    assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_detuning_extremum_slopes_vanish():
    eps = 1e-12  # m
    for x0 in (0.0, LAM_REF / 4):
        f = lambda x: cavity.dispersive_detuning(x, 0.31, L_REF, LAM_REF)
        slope = (f(x0 + eps) - f(x0 - eps)) / (2 * eps)
        assert abs(slope) < 1e-9 * cavity.omega_fsr(L_REF) / LAM_REF


def test_derivatives_at_exact_extremum():
    om0, om1, om2 = cavity.detuning_derivatives(0.0, 0.31, L_REF, LAM_REF)
    assert om1 == 0.0
    assert math.isclose(om0, C_LIGHT * math.acos(0.31) / L_REF, rel_tol=1e-15)
    assert om2 > 0


def test_derivatives_match_finite_differences():
    rc = 0.999
    f = lambda x: cavity.dispersive_detuning(x, rc, L_REF, LAM_REF)
    _, _, om2 = cavity.detuning_derivatives(0.0, rc, L_REF, LAM_REF)
    fd = central_second_derivative(f, 0.0, 4e-13)
    assert math.isclose(om2, fd, rel_tol=1e-6)


def test_derivatives_first_order_in_offset():
    rc, x0 = 0.9, 2e-11
    f = lambda x: cavity.dispersive_detuning(x, rc, L_REF, LAM_REF)
    _, om1, _ = cavity.detuning_derivatives(x0, rc, L_REF, LAM_REF)
    fd = (f(x0 + 1e-12) - f(x0 - 1e-12)) / 2e-12
    assert math.isclose(om1, fd, rel_tol=1e-4)  # lowest order in x0


def test_derivatives_near_unity_prefactor():
    # sqrt(1-rc^2) -> sqrt(2(1-rc)) as rc -> 1
    rc = 1 - 1e-9
    _, _, om2 = cavity.detuning_derivatives(0.0, rc, L_REF, LAM_REF)
    approx = 16 * np.pi**2 * C_LIGHT / (L_REF * LAM_REF**2 * math.sqrt(2 * (1 - rc)))
    assert math.isclose(om2, approx, rel_tol=1e-6)


def test_derivatives_no_quadratic_coupling_for_rc_zero():
    om0, om1, om2 = cavity.detuning_derivatives(1e-12, 0.0, L_REF, LAM_REF)
    assert om1 == 0.0 and om2 == 0.0


# ---------------------------------------------------------------------------
# band structure
# ---------------------------------------------------------------------------

def test_band_structure_periodic_and_ordered():
    bs = cavity.band_structure(0.31, L_REF, LAM_REF, (0.0, LAM_REF), 401, 4)
    for (_, om), (_, om_next) in zip(bs.bands, bs.bands[1:]):
        assert np.all(om_next > om)  # adjacent bands never cross
    half = 200  # lambda/2 is sample 200 of 400 spanning lambda
    for _, om in bs.bands:
        assert np.allclose(om[: half + 1], om[half:], rtol=1e-12)


def test_band_amplitude_rc031():
    bs = cavity.band_structure(0.31, L_REF, LAM_REF, (0.0, LAM_REF / 2), 4001, 1)
    _, om = bs.bands[0]
    amp = (om.max() - om.min()) / bs.omega_fsr
    expected = (math.acos(-0.31) - math.acos(0.31)) / math.pi
    assert math.isclose(amp, expected, rel_tol=1e-6)
    assert math.isclose(amp, 0.2006, rel_tol=5e-4)


def test_band_gap_at_extremum_matches_mode_gap():
    rc = 0.999
    bs = cavity.band_structure(rc, L_REF, LAM_REF, (-1e-9, 1e-9), 3, 2)
    (_, om_minus), (_, om_plus) = bs.bands[0], bs.bands[1]
    gap_at_zero = om_plus[1] - om_minus[1]
    assert math.isclose(gap_at_zero, cavity.mode_gap(rc, L_REF).exact, rel_tol=1e-9)


def test_band_continuity_bounded_by_max_slope():
    rc = 0.9
    bs = cavity.band_structure(rc, L_REF, LAM_REF, (0.0, LAM_REF / 2), 501, 2)
    dx = bs.x_samples[1] - bs.x_samples[0]
    bound = (C_LIGHT / L_REF) * (4 * np.pi / LAM_REF) * rc * dx
    for _, om in bs.bands:
        assert np.max(np.abs(np.diff(om))) <= bound * 1.0001


def test_band_structure_rows_header():
    bs = cavity.band_structure(0.5, L_REF, LAM_REF, (0.0, 1e-7), 5, 3)
    header, table = cavity.band_structure_rows(bs)
    assert header == ["x_m", "band_1_-", "band_1_+", "band_2_-"]
    assert table.shape == (5, 4)


# ---------------------------------------------------------------------------
# mode gap
# ---------------------------------------------------------------------------

def test_mode_gap_values():
    gap = cavity.mode_gap(0.999, L_REF)
    assert math.isclose(gap.approx, 4.002e8, rel_tol=1e-3)
    gap_tiny = cavity.mode_gap(1 - 1e-8, L_REF)
    assert math.isclose(gap_tiny.approx, 1.266e6, rel_tol=1e-3)
    assert gap_tiny.approx > 6.28e5  # still larger than the mechanical frequency


def test_mode_gap_rc_zero_is_fsr():
    gap = cavity.mode_gap(0.0, L_REF)
    assert math.isclose(gap.exact, cavity.omega_fsr(L_REF), rel_tol=1e-15)


@pytest.mark.parametrize("rc", [0.9, 0.99, 0.999])
def test_mode_gap_error_scaling(rc):
    # exact - approx is O((1-rc)^{3/2}): arccos(1-e) = sqrt(2e)(1 + e/12 + ...)
    gap = cavity.mode_gap(rc, L_REF)
    eps = 1 - rc
    predicted = gap.approx * eps / 12.0
    assert math.isclose(gap.exact - gap.approx, predicted, rel_tol=0.05)


# ---------------------------------------------------------------------------
# membrane thin-film optics
# ---------------------------------------------------------------------------

def test_membrane_reflectivity_no_contrast():
    assert cavity.membrane_reflectivity(MembraneSpec(1.0, 50e-9), 1064e-9) == 0.0


def test_membrane_reflectivity_vanishing_thickness():
    assert cavity.membrane_reflectivity(MembraneSpec(2.0, 1e-18), 1064e-9) < 1e-8


def test_membrane_reflectivity_sin_50nm():
    r = cavity.membrane_reflectivity(MembraneSpec(2.0, 50e-9), 1064e-9)
    assert math.isclose(r, 0.385, rel_tol=2e-3)


def test_membrane_reflectivity_matches_matrix_oracle():
    for n, d, lam in [(2.0, 50e-9, 1064e-9), (1.8, 50e-9, 1064e-9), (3.5, 120e-9, 532e-9)]:
        closed = cavity.membrane_reflectivity(MembraneSpec(n, d), lam)
        r, _ = slab_amplitudes(n, d, lam)
        assert math.isclose(closed, abs(r), rel_tol=1e-12)


def test_index_reproducing_measured_reflectivity():
    target = 0.31
    f = lambda n: cavity.membrane_reflectivity(MembraneSpec(n, 50e-9), 1064e-9) - target
    n_fit = brentq(f, 1.05, 3.0, xtol=1e-10)
    assert 1.77 <= n_fit <= 1.86  # ~1.8, consistent with SiN


def test_slab_unitarity():
    for n, d, lam in [(2.0, 50e-9, 1064e-9), (1.5, 2e-7, 6e-7), (3.0, 1e-8, 1.5e-6)]:
        r, t = slab_amplitudes(n, d, lam)
        assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# transfer-matrix transmission
# ---------------------------------------------------------------------------

def test_empty_cavity_peak_transmission_unity():
    F, L = 1e3, 1.0
    base = round(2 * L / LAM_REF) * cavity.omega_fsr(L)
    peak, t_peak = cavity.locate_resonance(0.0, base, 1.05 * cavity.omega_fsr(L),
                                           F, L, r_c=0.0, n_scan=300001)
    assert abs(t_peak - 1.0) < 1e-9


def test_empty_cavity_linewidth_matches_finesse():
    F, L = 1e3, 1.0
    fsr = cavity.omega_fsr(L)
    base = round(2 * L / LAM_REF) * fsr
    peak, _ = cavity.locate_resonance(0.0, base, 1.05 * fsr, F, L, r_c=0.0,
                                      n_scan=300001)
    kappa = np.pi * C_LIGHT / (L * F)
    half = cavity.cavity_transmission(peak + kappa / 2, 0.0, F, L, r_c=0.0)
    assert abs(half - 0.5) < 5e-3  # half max at +/- kappa/2


def test_transmission_rc0_ridges_independent_of_x():
    F, L = 200.0, 1.0
    fsr = cavity.omega_fsr(L)
    base = round(2 * L / LAM_REF) * fsr
    det = np.linspace(-0.5 * fsr, 0.5 * fsr, 1201)
    tm = cavity.transmission_map(F, L, LAM_REF, det, np.linspace(0, LAM_REF / 2, 7),
                                 r_c=0.0, omega_base=base)
    ridge = tm.detuning_grid[np.argmax(tm.intensity, axis=0)]
    assert np.ptp(ridge) < fsr / 1000


def test_transmission_rc0_ridge_spacing_is_fsr():
    F, L = 500.0, 1.0
    fsr = cavity.omega_fsr(L)
    base = round(2 * L / LAM_REF) * fsr
    first, _ = cavity.locate_resonance(0.0, base, 0.55 * fsr, F, L, r_c=0.0,
                                       n_scan=200001)
    peaks = [first]
    for _ in range(2):
        nxt, _ = cavity.locate_resonance(0.0, peaks[-1] + fsr, 0.4 * fsr, F, L,
                                         r_c=0.0, n_scan=200001)
        peaks.append(nxt)
    spacings = np.diff(peaks)
    assert np.allclose(spacings, fsr, rtol=1e-6)


def test_transmission_map_intensity_range(row1):
    det = np.linspace(-1e8, 1e8, 41)
    xs = np.linspace(0, LAM_REF / 2, 11)
    tm = cavity.transmission_map(1e3, 1.0, LAM_REF, det, xs, r_c=0.31)
    assert np.all(tm.intensity >= 0) and np.all(tm.intensity <= 1 + 1e-12)


def test_transmission_map_rejects_bad_finesse():
    with pytest.raises(ValidationError):
        cavity.transmission_map(0.5, 1.0, LAM_REF, [0.0], [0.0], r_c=0.31)


def _track_ridge(rc, F, L, lam, xs):
    fsr = cavity.omega_fsr(L)
    base = round(2 * L / lam) * fsr
    kappa = np.pi * C_LIGHT / (L * F)
    anchor, _ = cavity.locate_resonance(float(xs[0]), base, 1.05 * fsr, F, L,
                                        r_c=rc, n_scan=3_000_001)
    slope_max = (C_LIGHT / L) * (4 * np.pi / lam) * rc
    track = np.empty(len(xs))
    track[0] = anchor
    for i in range(1, len(xs)):
        half = slope_max * (xs[i] - xs[i - 1]) * 1.3 + 10 * kappa
        track[i], _ = cavity.locate_resonance(float(xs[i]), track[i - 1], half,
                                              F, L, r_c=rc)
    return track


def test_sheet_model_ridge_matches_analytic_band():
    """Transfer-matrix resonances vs the dispersive formula, offset removed."""
    rc, F, L, lam = 0.31, 1e5, 1.0, 532e-9
    xs = np.linspace(0.0, lam / 2, 21)
    track = _track_ridge(rc, F, L, lam, xs)
    theta = np.arccos(rc * np.cos(4 * np.pi * xs / lam))
    best = np.inf
    for sign in (+1, -1):
        band = sign * (C_LIGHT / L) * theta
        resid = track - band - np.mean(track - band)
        best = min(best, np.max(np.abs(resid) / np.abs(band)))
    assert best < 1e-6


def test_thin_slab_cavity_behaves_like_matched_sheet():
    # a slab much thinner than the wavelength is the sheet model up to O(d/lam)
    F, L, lam = 1e3, 1.0, 532e-9
    spec = MembraneSpec(2.0, 10e-9)
    rc_equiv = cavity.membrane_reflectivity(spec, lam)
    fsr = cavity.omega_fsr(L)
    base = round(2 * L / lam) * fsr
    x = 0.05 * lam
    w_slab, t_slab = cavity.locate_resonance(x, base, 1.05 * fsr, F, L,
                                             membrane=spec, n_scan=600001)
    w_sheet, _ = cavity.locate_resonance(x, w_slab, 0.1 * fsr, F, L,
                                         r_c=rc_equiv, n_scan=20001)
    assert t_slab > 0.5
    assert abs(w_slab - w_sheet) < 0.05 * fsr


def test_slab_cavity_map_intensity_bounded():
    det = np.linspace(-5e8, 5e8, 31)
    xs = np.linspace(0, 2e-7, 5)
    tm = cavity.transmission_map(300.0, 1.0, 532e-9, det, xs,
                                 membrane=MembraneSpec(2.0, 50e-9))
    assert np.all(tm.intensity >= 0) and np.all(tm.intensity <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# ringdown and finesse
# ---------------------------------------------------------------------------

def test_fit_ringdown_exact_exponential():
    tau = 1.145e-6
    t = np.linspace(0, 6e-6, 200)
    power = 2.5 * np.exp(-t / tau) + 0.3
    fit = fit_exponential_decay(t, power)
    assert math.isclose(fit.tau, tau, rel_tol=1e-9)
    assert math.isclose(fit.offset, 0.3, rel_tol=1e-6)
    assert fit.residual_rms < 1e-12


def test_fit_ringdown_with_noise_hundred_trials():
    tau = 1.145e-6
    t = np.linspace(0, 6 * tau, 400)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        power = np.exp(-t / tau) + 0.05 + rng.normal(0, 0.01, len(t))
        fit = fit_exponential_decay(t, power)
        assert abs(fit.tau / tau - 1) < 0.02


def test_fit_ringdown_constant_trace_errors():
    t = np.linspace(0, 1e-5, 50)
    with pytest.raises(FitError):
        fit_exponential_decay(t, np.full_like(t, 3.0))


def test_fit_ringdown_needs_samples():
    with pytest.raises(ValidationError):
        fit_exponential_decay(np.linspace(0, 1, 5), np.exp(-np.linspace(0, 1, 5)))


def test_finesse_ringdown_values():
    tau = cavity.finesse_ringdown(16100, "finesse_to_tau", L_REF)
    assert math.isclose(tau, 1.145e-6, rel_tol=5e-4)
    F = cavity.finesse_ringdown(1.081e-6, "tau_to_finesse", L_REF)
    assert math.isclose(F, 15200, rel_tol=5e-4)


def test_finesse_ringdown_roundtrip():
    F = 16100.0
    tau = cavity.finesse_ringdown(F, "finesse_to_tau", L_REF)
    back = cavity.finesse_ringdown(tau, "tau_to_finesse", L_REF)
    assert math.isclose(back, F, rel_tol=1e-12)


def test_finesse_ringdown_rejects_bad_input():
    with pytest.raises(ValidationError):
        cavity.finesse_ringdown(-1.0, "finesse_to_tau", L_REF)
    with pytest.raises(ValidationError):
        cavity.finesse_ringdown(1.0, "sideways", L_REF)
