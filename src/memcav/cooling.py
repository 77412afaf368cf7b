"""Displacement PSD model, effective-temperature estimators, Lorentzian
fitting, and the radiation-pressure/thermal force-noise figure of merit.

The PSD is the one-sided displacement spectrum of a thermally driven damped
oscillator,

    S_x(omega) = (4 k_B T_eff gamma_eff / m) / ((omega_eff^2 - omega^2)^2
                                                + gamma_eff^2 omega^2),

normalized so that integrating over ordinary frequency nu (Hz) gives the
equipartition variance <x^2> = k_B T_eff / (m omega_eff^2).  With that
convention the numerical value of S_x at omega = 2 pi nu is already the
per-Hz density, so no conversion factor appears anywhere.

How the optical cooling sets Q_eff is out of scope here: Q_eff is either an
input or a fit output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, FitError, ValidationError
from .fitting import check_samples, least_squares, require_positive
from .params import ExperimentParams, HBAR, K_B, C_LIGHT


@dataclass(frozen=True)
class PsdFit:
    omega_eff: float      # rad/s
    gamma_eff: float      # rad/s
    q_eff: float
    t_eff_area: float | None   # K, None when m/omega_m were not supplied
    t_eff_q: float | None      # K, None when bath T / intrinsic Q not supplied
    floor: float          # m^2/Hz
    residual_rms: float


@dataclass(frozen=True)
class PsdTrace:
    """One-sided displacement PSD samples, optionally with fit results."""

    freq_samples: np.ndarray   # Hz
    psd: np.ndarray            # m^2/Hz
    noise_floor: float = 0.0   # m^2/Hz
    fit: PsdFit | None = None


def psd_model(omega, m: float, t_eff: float, omega_eff: float, gamma_eff: float):
    """Thermally driven damped oscillator PSD at omega = 2 pi nu [m^2/Hz]."""
    require_positive(m=m, t_eff=t_eff, omega_eff=omega_eff, gamma_eff=gamma_eff)
    omega = np.asarray(omega, dtype=float)
    out = (4.0 * K_B * t_eff * gamma_eff / m) / (
        (omega_eff**2 - omega**2) ** 2 + (gamma_eff * omega) ** 2
    )
    return float(out) if out.ndim == 0 else out


def teff_from_area(trace: PsdTrace, m: float, omega_m: float) -> float:
    """Effective temperature m omega_m^2 <x^2> / k_B from the spectrum area.

    <x^2> is the trapezoidal integral of (psd - noise_floor) over frequency;
    the trace should span the resonance by many linewidths for the tails to
    be negligible.
    """
    require_positive(m=m, omega_m=omega_m)
    area = float(np.trapezoid(trace.psd - trace.noise_floor, trace.freq_samples))
    if area <= 0:
        raise EstimationError("non-positive spectrum area after floor subtraction")
    return m * omega_m**2 * area / K_B


def teff_from_q(t_bath: float, q_eff: float, q: float) -> float:
    """Effective temperature T Q_eff / Q from the fitted effective Q."""
    require_positive(t_bath=t_bath, q_eff=q_eff, q=q)
    return t_bath * q_eff / q


def _lorentzian(omega, amp, omega_eff, gamma_eff, floor):
    return amp / ((omega_eff**2 - omega**2) ** 2 + (gamma_eff * omega) ** 2) + floor


def fit_psd(freq_hz, psd, m: float | None = None, omega_m: float | None = None,
            t_bath: float | None = None, q_intrinsic: float | None = None,
            exclude_bands=()) -> PsdTrace:
    """Nonlinear least-squares fit of the oscillator PSD plus constant floor.

    Free parameters: amplitude, omega_eff, gamma_eff, floor.  Frequency
    intervals in exclude_bands (pairs of Hz) are masked out of the fit, e.g.
    to drop a spurious feature.  Supplying m (and optionally omega_m,
    t_bath, q_intrinsic) additionally populates the temperature estimates.
    """
    freq_hz, psd = check_samples(freq_hz, psd, ("frequency", "PSD"), 50)
    keep = np.ones_like(freq_hz, dtype=bool)
    for lo, hi in exclude_bands:
        keep &= ~((freq_hz >= lo) & (freq_hz <= hi))
    if keep.sum() < 50:
        raise ValidationError("masking left fewer than 50 samples")
    f = freq_hz[keep]
    s = psd[keep]

    floor0 = float(np.median(np.sort(s)[: max(len(s) // 4, 2)]))
    ipk = int(np.argmax(s))
    omega0 = 2.0 * np.pi * f[ipk]
    peak = s[ipk] - floor0
    if peak <= 0:
        raise FitError("no peak above the estimated floor")
    above = s - floor0 > 0.5 * peak
    gamma0 = 2.0 * np.pi * max(np.ptp(f[above]), f[1] - f[0])
    amp0 = peak * (gamma0 * omega0) ** 2

    popt, rms = least_squares(_lorentzian, 2.0 * np.pi * f, s,
                              (amp0, omega0, gamma0, floor0), 20000, "PSD")
    # the model depends on omega_eff and gamma_eff only through their squares
    omega_eff, gamma_eff, floor = abs(float(popt[1])), abs(float(popt[2])), float(popt[3])
    require_positive(FitError, gamma_eff=gamma_eff)
    q_eff = omega_eff / gamma_eff

    t_area = None
    if m is not None:
        om_ref = omega_m if omega_m is not None else omega_eff
        # integrate the cleaned samples so a masked spur cannot leak into <x^2>
        t_area = teff_from_area(PsdTrace(f, s, noise_floor=floor), m, om_ref)
    t_q = None
    if t_bath is not None and q_intrinsic is not None:
        t_q = teff_from_q(t_bath, q_eff, q_intrinsic)
    fit = PsdFit(omega_eff, gamma_eff, q_eff, t_area, t_q, floor, rms)
    return PsdTrace(freq_hz, psd, noise_floor=floor, fit=fit)


def shot_thermal_ratio(p: ExperimentParams) -> float:
    """Radiation-pressure shot noise over thermal force noise,

    R = 16 hbar P_in Q F^2 / (lambda c pi k_B T m omega_m).
    """
    return (16.0 * HBAR * p.P_in * p.Q * p.F**2) / (
        p.lam * C_LIGHT * np.pi * K_B * p.T * p.m * p.omega_m
    )
