import math

import numpy as np
import pytest
from scipy.integrate import quad

from memcav import cooling
from memcav.errors import EstimationError, ValidationError
from memcav.params import K_B
from memcav.cooling import PsdTrace


M_REF = 4e-11
OMEGA_REF = 2 * np.pi * 1.34e5


def _synthetic_trace(t_eff, q_eff, floor=0.0, span_linewidths=60, n=4001,
                     noise=0.0, seed=0, m=M_REF, omega=OMEGA_REF):
    gamma = omega / q_eff
    lo = max(omega - span_linewidths * gamma, 0.0)
    hi = omega + span_linewidths * gamma
    freq = np.linspace(lo, hi, n) / (2 * np.pi)
    psd = cooling.psd_model(2 * np.pi * freq, m, t_eff, omega, gamma) + floor
    if noise:
        rng = np.random.default_rng(seed)
        psd = psd * (1 + rng.normal(0, noise, n))
    return freq, psd


# ---------------------------------------------------------------------------
# PSD model
# ---------------------------------------------------------------------------

def test_psd_normalization_equipartition():
    m, t_eff, om, gam = M_REF, 300.0, OMEGA_REF, OMEGA_REF / 25
    f = lambda nu: cooling.psd_model(2 * np.pi * nu, m, t_eff, om, gam)
    nu0, gnu = om / (2 * np.pi), gam / (2 * np.pi)
    cuts = [0.0, nu0 - 5 * gnu, nu0 + 5 * gnu, 20 * nu0]
    area = sum(quad(f, a, b, limit=400)[0] for a, b in zip(cuts, cuts[1:]))
    area += quad(f, cuts[-1], np.inf, limit=400)[0]
    expected = K_B * t_eff / (m * om**2)
    assert math.isclose(area, expected, rel_tol=1e-4)


def test_psd_peak_location_small_damping():
    om, gam = OMEGA_REF, OMEGA_REF / 1e5
    ws = np.linspace(om * (1 - 1e-4), om * (1 + 1e-4), 200001)
    s = cooling.psd_model(ws, M_REF, 1.0, om, gam)
    w_peak = ws[np.argmax(s)]
    # true max sits at om sqrt(1 - gamma^2/(2 om^2)), -> om as gamma -> 0
    assert abs(w_peak / om - 1) < 1e-6


def test_psd_fwhm_is_gamma():
    om = OMEGA_REF
    gam = om / 1000
    ws = np.linspace(om - 6 * gam, om + 6 * gam, 400001)
    s = cooling.psd_model(ws, M_REF, 1.0, om, gam)
    half = s.max() / 2
    above = ws[s >= half]
    fwhm = above[-1] - above[0]
    assert abs(fwhm / gam - 1) < 0.01


def test_psd_model_rejects_bad_params():
    with pytest.raises(ValidationError):
        cooling.psd_model(1.0, -1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# temperature estimators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t_eff, q_eff", [(300.0, 25.0), (6.82e-3, 25.0),
                                          (300.0, 10.0), (1.0, 1e6)])
def test_teff_from_area_recovers_injected(t_eff, q_eff):
    freq, psd = _synthetic_trace(t_eff, q_eff)
    trace = PsdTrace(freq, psd)
    rec = cooling.teff_from_area(trace, M_REF, OMEGA_REF)
    assert abs(rec / t_eff - 1) < 0.01


def test_teff_from_area_floor_subtraction():
    t_eff = 10.0
    floor = 1e-30
    freq, psd = _synthetic_trace(t_eff, 50.0, floor=floor)
    trace = PsdTrace(freq, psd, noise_floor=floor)
    rec = cooling.teff_from_area(trace, M_REF, OMEGA_REF)
    assert abs(rec / t_eff - 1) < 0.01


def test_teff_from_area_pure_floor_errors():
    freq = np.linspace(1e5, 2e5, 200)
    trace = PsdTrace(freq, np.full_like(freq, 1e-30), noise_floor=1e-30)
    with pytest.raises(EstimationError):
        cooling.teff_from_area(trace, M_REF, OMEGA_REF)


def test_teff_from_q_no_cooling():
    assert cooling.teff_from_q(294.0, 1.1e6, 1.1e6) == 294.0


def test_teff_from_q_coldest_point():
    q_eff = 6.82e-3 * 1.1e6 / 294.0  # inverted from the achieved temperature
    t = cooling.teff_from_q(294.0, q_eff, 1.1e6)
    assert math.isclose(t, 6.82e-3, rel_tol=1e-12)
    factor = 294.0 / t
    assert math.isclose(factor, 4.31e4, rel_tol=5e-3)
    assert abs(factor / 4.4e4 - 1) < 0.05


# ---------------------------------------------------------------------------
# PSD fitting
# ---------------------------------------------------------------------------

def test_fit_psd_noiseless_exact():
    t_eff, q_eff = 50.0, 25.0
    gamma = OMEGA_REF / q_eff
    floor = 1e-31
    freq, psd = _synthetic_trace(t_eff, q_eff, floor=floor, span_linewidths=20, n=2001)
    trace = cooling.fit_psd(freq, psd, m=M_REF, omega_m=OMEGA_REF)
    assert abs(trace.fit.omega_eff / OMEGA_REF - 1) < 1e-6
    assert abs(trace.fit.gamma_eff / gamma - 1) < 1e-6
    assert abs(trace.fit.q_eff / q_eff - 1) < 1e-6
    assert abs(trace.fit.floor / floor - 1) < 1e-3


def test_fit_psd_masked_empty_band_is_identity():
    freq, psd = _synthetic_trace(20.0, 25.0, span_linewidths=20, n=2001)
    plain = cooling.fit_psd(freq, psd)
    masked = cooling.fit_psd(freq, psd, exclude_bands=((1e9, 2e9),))
    assert plain.fit.omega_eff == masked.fit.omega_eff
    assert plain.fit.gamma_eff == masked.fit.gamma_eff


@pytest.mark.parametrize("band", [(1.4e5, 1.3e5), (1.3e5, 1.3e5), (math.nan, 1.4e5),
                                  (1.3e5, math.nan), (-math.inf, 1.4e5), (1.3e5, math.inf)])
def test_fit_psd_rejects_bad_exclude_band(band):
    # such a band masks no sample, so the fit would silently run on the whole trace
    freq, psd = _synthetic_trace(20.0, 25.0, span_linewidths=20, n=2001)
    with pytest.raises(ValidationError, match="exclude band"):
        cooling.fit_psd(freq, psd, exclude_bands=(band,))


def test_fit_psd_mask_removes_contamination():
    freq, psd = _synthetic_trace(20.0, 25.0, span_linewidths=20, n=2001)
    spur_lo, spur_hi = freq[100], freq[160]
    spoiled = psd.copy()
    spoiled[100:161] *= 30.0
    clean = cooling.fit_psd(freq, psd)
    fixed = cooling.fit_psd(freq, spoiled, exclude_bands=((spur_lo, spur_hi),))
    assert abs(fixed.fit.q_eff / clean.fit.q_eff - 1) < 1e-6


def test_fit_psd_noise_monte_carlo():
    t_eff, q_eff = 10.0, 25.0
    gamma = OMEGA_REF / q_eff
    ok = 0
    for seed in range(200):
        freq, psd = _synthetic_trace(t_eff, q_eff, floor=2e-32, span_linewidths=20,
                                     n=1500, noise=0.05, seed=seed)
        trace = cooling.fit_psd(freq, psd, m=M_REF, omega_m=OMEGA_REF)
        ok += abs(trace.fit.q_eff / q_eff - 1) < 0.05
    assert ok >= 190


def test_fit_psd_needs_enough_samples():
    freq = np.linspace(1e5, 2e5, 30)
    with pytest.raises(ValidationError):
        cooling.fit_psd(freq, np.ones_like(freq))


@pytest.mark.parametrize("column", ["freq", "psd"])
def test_fit_psd_rejects_non_finite_samples(column):
    freq, psd = _synthetic_trace(20.0, 25.0, span_linewidths=20, n=2001)
    spoiled = {"freq": freq.copy(), "psd": psd.copy()}
    spoiled[column][[3, 40, 500]] = [np.nan, np.inf, np.nan]
    with pytest.raises(ValidationError, match="3 of 2001 samples"):
        cooling.fit_psd(spoiled["freq"], spoiled["psd"])


def test_fit_psd_populates_both_temperatures():
    t_eff, q_eff = 5.0, 25.0
    freq, psd = _synthetic_trace(t_eff, q_eff)
    trace = cooling.fit_psd(freq, psd, m=M_REF, omega_m=OMEGA_REF,
                            t_bath=294.0, q_intrinsic=1.1e6)
    assert abs(trace.fit.t_eff_area / t_eff - 1) < 0.01
    expected_tq = 294.0 * trace.fit.q_eff / 1.1e6
    assert math.isclose(trace.fit.t_eff_q, expected_tq, rel_tol=1e-12)


def test_matched_synthetic_estimators_agree():
    # same data -> the two temperature estimates agree well inside 2%
    t_eff, q_eff, q_int = 0.05, 40.0, 1.1e6
    t_bath = t_eff * q_int / q_eff
    freq, psd = _synthetic_trace(t_eff, q_eff)
    trace = cooling.fit_psd(freq, psd, m=M_REF, omega_m=OMEGA_REF,
                            t_bath=t_bath, q_intrinsic=q_int)
    assert abs(trace.fit.t_eff_area / trace.fit.t_eff_q - 1) < 0.02


# ---------------------------------------------------------------------------
# figure of merit
# ---------------------------------------------------------------------------

def test_shot_thermal_ratio_value(row1):
    assert math.isclose(cooling.shot_thermal_ratio(row1), 2.795e8, rel_tol=1e-3)


@pytest.mark.parametrize("field, factor, expected", [
    ("P_in", 2.0, 2.0),
    ("T", 2.0, 0.5),
    ("F", 2.0, 4.0),
    ("Q", 3.0, 3.0),
    ("m", 2.0, 0.5),
    ("omega_m", 2.0, 0.5),
    ("lam", 2.0, 0.5),
])
def test_shot_thermal_ratio_scalings(row1, field, factor, expected):
    from memcav.params import with_value
    base = cooling.shot_thermal_ratio(row1)
    scaled = cooling.shot_thermal_ratio(
        with_value(row1, field, getattr(row1, field) * factor))
    assert math.isclose(scaled / base, expected, rel_tol=1e-12)
