import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from memcav import cavity
from memcav.errors import FitError, MemcavError, SingularityError, ValidationError
from memcav.fitting import fit_exponential_decay
from memcav.params import C_LIGHT, MembraneSpec

from oracles import central_second_derivative, full_chain_transmission, slab_amplitudes

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
    assert (len(table), len(table.columns)) == (5, 4)
    assert all(np.array_equal(col, om) for col, (_, om) in zip(table.columns[1:], bs.bands))


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
    det = np.linspace(-0.5 * fsr, 0.5 * fsr, 1201)
    tm = cavity.transmission_map(F, L, LAM_REF, det, np.linspace(0, LAM_REF / 2, 7), r_c=0.0)
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


@pytest.mark.parametrize("F", [1e17, 1e200])
def test_transmission_map_rejects_finesse_beyond_float_range(F):
    # 1 - R rounds to 0 at F = 1e17, and F**2 overflows at 1e200
    with pytest.raises(SingularityError, match="finesse"):
        cavity.transmission_map(F, 1.0, LAM_REF, [0.0], [0.0], r_c=0.31)


def test_transmission_map_rejects_non_finite_transmission():
    # the slab's interface matrix overflows for an index of 1e308
    with pytest.raises(SingularityError, match="float range"):
        cavity.transmission_map(200.0, 1.0, LAM_REF, [0.0], [0.0],
                                membrane=MembraneSpec(1e308, 5e-8))


def test_transmission_map_rejects_mode_number_beyond_float_range():
    with pytest.raises(ValidationError, match="float range"):
        cavity.transmission_map(200.0, 1e308, LAM_REF, [0.0], [0.0], r_c=0.31)


@pytest.mark.parametrize("x_range", [(1e308, LAM_REF / 2), (-1e307, 1e307)])
def test_band_structure_rejects_phase_beyond_float_range(x_range):
    with pytest.raises(ValidationError, match="float range"):
        cavity.band_structure(0.31, L_REF, LAM_REF, x_range, 5, 2)


@pytest.mark.parametrize("L, n_bands", [(5e-324, 4), (1.7e-300, 20)])
def test_band_structure_rejects_bands_beyond_float_range(L, n_bands):
    # c / L overflows at L = 5e-324; at 1.7e-300 it is finite, but the upper bands overflow
    with pytest.raises(ValidationError, match="float range"):
        cavity.band_structure(0.31, L, LAM_REF, (0.0, LAM_REF / 2), 3, n_bands)


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


@pytest.mark.parametrize("membrane", [dict(r_c=0.31), dict(membrane=MembraneSpec(2.0, 50e-9))],
                         ids=["sheet", "slab"])
def test_transmission_map_columns_equal_pointwise_transmission(membrane):
    F, L = 200.0, 1.0
    det = np.linspace(-1e9, 1e9, 41)
    xs = np.linspace(-LAM_REF / 3, LAM_REF / 2, 13)
    tm = cavity.transmission_map(F, L, LAM_REF, det, xs, **membrane)
    for j, x in enumerate(xs):
        column = cavity.cavity_transmission(tm.omega_base + det, float(x), F, L, **membrane)
        assert tm.intensity[:, j].tobytes() == column.tobytes()
    # one position past the mirror fails the whole map
    with pytest.raises(ValidationError, match="outside the cavity"):
        cavity.transmission_map(F, L, LAM_REF, det, np.append(xs, 0.6 * L), **membrane)
    with pytest.raises(ValidationError, match="outside the cavity"):
        cavity.transmission_map(F, L, LAM_REF, det, np.insert(xs, 0, -L), **membrane)


def test_slab_cavity_map_intensity_bounded():
    det = np.linspace(-5e8, 5e8, 31)
    xs = np.linspace(0, 2e-7, 5)
    tm = cavity.transmission_map(300.0, 1.0, 532e-9, det, xs,
                                 membrane=MembraneSpec(2.0, 50e-9))
    assert np.all(tm.intensity >= 0) and np.all(tm.intensity <= 1 + 1e-12)


def test_row_chain_gives_the_full_products_bits_and_errors():
    """cavity_transmission carries row 0 of mirror P(d1) mid P(d2) mirror; the
    full 2x2 product, zero planes and all, gives the same bytes and raises the
    same error type where a product leaves the float range."""
    F, L = 200.0, 1.0
    omega = (round(2 * L / LAM_REF) * cavity.omega_fsr(L) + np.linspace(-1e9, 1e9, 101))[:, None]
    xs = np.linspace(-LAM_REF / 3, LAM_REF / 2, 37)
    for membrane in (dict(r_c=0.31), dict(r_c=0.9999), dict(membrane=MembraneSpec(2.0, 50e-9))):
        for args in ((omega, xs, F, L), (float(omega[50, 0]), float(xs[5]), 1.5e4, L_REF)):
            row = cavity.cavity_transmission(*args, **membrane)
            full = full_chain_transmission(*args, **membrane)
            assert np.asarray(row).tobytes() == np.asarray(full).tobytes()
    # 1 - R rounds to 0 at F = 1e17, F**2 overflows at 1e200, and an index of
    # 1e308 overflows the slab's interface matrix, whose inf * 0 gives NaN
    for F_out, membrane in ((1e17, dict(r_c=0.31)), (1e200, dict(r_c=0.31)),
                            (F, dict(membrane=MembraneSpec(1e308, 5e-8)))):
        with pytest.raises(MemcavError) as full_error:
            full_chain_transmission(omega, xs, F_out, L, **membrane)
        with pytest.raises(MemcavError) as row_error:
            cavity.cavity_transmission(omega, xs, F_out, L, **membrane)
        assert type(row_error.value) is type(full_error.value) is SingularityError


@pytest.mark.parametrize("membrane", [dict(r_c=0.31), dict(membrane=MembraneSpec(2.0, 50e-9))],
                         ids=["sheet", "slab"])
def test_transmission_map_peak_memory(membrane):
    """A 300 x 300 map stays within its measured peak.

    tracemalloc read 10.1 MB for the sheet and for the slab, 112 bytes a
    cell; the full 2x2 product with zero planes off P's diagonal read 17.3 MB.
    """
    det = np.linspace(-1e9, 1e9, 300)
    xs = np.linspace(-LAM_REF / 3, LAM_REF / 2, 300)
    tracemalloc.start()
    try:
        cavity.transmission_map(200.0, 1.0, LAM_REF, det, xs, **membrane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


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
    tau = cavity.decay_time(16100, L_REF)
    assert math.isclose(tau, 1.145e-6, rel_tol=5e-4)
    F = cavity.finesse_from_decay(1.081e-6, L_REF)
    assert math.isclose(F, 15200, rel_tol=5e-4)


def test_finesse_ringdown_roundtrip():
    F = 16100.0
    tau = cavity.decay_time(F, L_REF)
    back = cavity.finesse_from_decay(tau, L_REF)
    assert math.isclose(back, F, rel_tol=1e-12)


def test_finesse_ringdown_rejects_bad_input():
    with pytest.raises(ValidationError):
        cavity.decay_time(-1.0, L_REF)
    with pytest.raises(ValidationError):
        cavity.finesse_from_decay(-1.0, L_REF)
    with pytest.raises(ValidationError):
        cavity.finesse_from_decay(1.0, 0.0)


# ---------------------------------------------------------------------------
# the scalar helpers give finite floats or raise a MemcavError
# ---------------------------------------------------------------------------

_SPEC = MembraneSpec(2.0, 50e-9)


@pytest.mark.parametrize("call, error", [
    (lambda: cavity.mode_gap(0.5, 0.0), ValidationError),
    (lambda: cavity.mode_gap(0.5, -1.0), ValidationError),
    (lambda: cavity.mode_gap(0.5, 1e-320), SingularityError),           # c / L overflows
    (lambda: cavity.membrane_reflectivity(_SPEC, math.nan), ValidationError),
    (lambda: cavity.membrane_reflectivity(_SPEC, math.inf), ValidationError),
    (lambda: cavity.membrane_reflectivity(_SPEC, 5e-324), SingularityError),   # 2 pi / lam
    (lambda: cavity.detuning_derivatives(math.nan, 0.31, L_REF, LAM_REF), ValidationError),
    (lambda: cavity.detuning_derivatives(0.0, 0.31, L_REF, math.inf), ValidationError),
    (lambda: cavity.detuning_derivatives(0.0, 0.31, 5e-324, LAM_REF), SingularityError),
    (lambda: cavity.detuning_derivatives(0.0, 0.31, L_REF, 1e200), SingularityError),  # lam**2
    (lambda: cavity.detuning_derivatives(0.0, 0.31, 5e-324, 0.1), SingularityError),   # L lam^2 = 0
    (lambda: cavity.detuning_derivatives(1e300, 0.31, L_REF, LAM_REF), SingularityError),
    (lambda: cavity.mirror_reflectivity_from_finesse(1e154), SingularityError),   # 4 F^2
    (lambda: cavity.finesse_from_decay(1.0, 1e-320), SingularityError),
    (lambda: cavity.decay_time(1e-320, 1e-10), SingularityError),
    (lambda: cavity.omega_fsr(0.0), ValidationError),
    (lambda: cavity.omega_fsr(-1.0), ValidationError),
    (lambda: cavity.omega_fsr(math.nan), ValidationError),
    (lambda: cavity.omega_fsr(1e-320), SingularityError),                  # pi c / L overflows
    (lambda: cavity.dispersive_detuning(0.0, 0.31, 1e-320, LAM_REF), SingularityError),
    (lambda: cavity.dispersive_detuning(math.nan, 0.31, L_REF, LAM_REF), ValidationError),
    (lambda: cavity.dispersive_detuning(1e307, 0.31, L_REF, LAM_REF), ValidationError),  # 4 pi x
    (lambda: cavity.dispersive_detuning(math.inf, 0.31, L_REF, LAM_REF), ValidationError),
], ids=["gap-L0", "gap-L-negative", "gap-L-tiny", "reflectivity-lam-nan", "reflectivity-lam-inf",
        "reflectivity-lam-tiny", "derivatives-x0-nan", "derivatives-lam-inf", "derivatives-L-tiny",
        "derivatives-lam-huge", "derivatives-divisor-zero", "derivatives-omega1-huge",
        "reflectivity-4F2-overflows", "finesse-overflows", "tau-underflows", "fsr-L0",
        "fsr-L-negative", "fsr-L-nan", "fsr-L-tiny", "detuning-L-tiny", "detuning-x-nan",
        "detuning-phase-huge", "detuning-x-inf"])
def test_scalar_helpers_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


_EDGE = st.sampled_from([0.0, -1.0, 5e-324, 1e-320, 1e-160, 0.31, 0.9999999999999999, 1.0,
                         2.0, 1e154, 1e300, 1.7e308, math.inf, math.nan])
_FLOAT = st.one_of(_EDGE, st.floats())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x0=_FLOAT, r_c=_FLOAT, L=_FLOAT, lam=_FLOAT, n=_FLOAT, d=_FLOAT, value=_FLOAT)
@example(x0=math.nan, r_c=0.31, L=L_REF, lam=LAM_REF, n=2.0, d=50e-9, value=1.0)
@example(x0=1e300, r_c=0.31, L=1e-320, lam=math.inf, n=1e20, d=5e-324, value=1e-320)
@example(x0=0.0, r_c=0.5, L=-1.0, lam=5e-324, n=1e300, d=1e10, value=1e200)
def test_scalar_helpers_give_finite_floats_or_memcav_error(x0, r_c, L, lam, n, d, value):
    """Each scalar helper gives finite floats or raises; none warns or raises otherwise."""
    calls = {
        "omega_fsr": lambda: cavity.omega_fsr(L),
        "dispersive_detuning": lambda: cavity.dispersive_detuning(x0, r_c, L, lam),
        "detuning_derivatives": lambda: cavity.detuning_derivatives(x0, r_c, L, lam),
        "mode_gap": lambda: cavity.mode_gap(r_c, L),
        "membrane_reflectivity": lambda: cavity.membrane_reflectivity(MembraneSpec(n, d), lam),
        "sheet_strength": lambda: cavity.sheet_strength(r_c),
        "mirror_reflectivity_from_finesse": lambda: cavity.mirror_reflectivity_from_finesse(value),
        "decay_time": lambda: cavity.decay_time(value, L),
        "finesse_from_decay": lambda: cavity.finesse_from_decay(value, L),
    }
    for name, call in calls.items():
        try:
            out = call()
        except MemcavError:
            continue
        assert all(isinstance(v, float) and math.isfinite(v)
                   for v in (out if isinstance(out, tuple) else (out,))), (name, out)
