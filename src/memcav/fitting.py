"""Shared nonlinear least-squares helpers for exponential decays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError


@dataclass(frozen=True)
class ExpDecayFit:
    amplitude: float
    tau: float
    offset: float
    residual_rms: float


def fit_exponential_decay(t, y, with_offset: bool = True, min_samples: int = 10) -> ExpDecayFit:
    """Fit y(t) = A exp(-t/tau) + B (B fixed to 0 when with_offset is False).

    Initial guesses come from a log-linear regression of (y - min) over the
    samples still well above the floor, then curve_fit refines.  Raises
    FitError for flat traces, non-convergence, or tau <= 0.
    """
    from scipy.optimize import curve_fit  # deferred: see cavity.locate_resonance

    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValidationError("t and y must be 1-D arrays of equal length")
    if len(t) < min_samples:
        raise ValidationError(f"need at least {min_samples} samples, got {len(t)}")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("t samples must be strictly increasing")

    ymin, ymax = float(y.min()), float(y.max())
    amp0 = ymax - ymin
    if amp0 <= 0 or amp0 < 1e-12 * max(abs(ymax), 1e-300):
        raise FitError("trace has no decay (flat within precision)")

    mask = (y - ymin) > 0.1 * amp0
    if mask.sum() < 3:
        raise FitError("too few samples above the floor for an initial slope")
    slope, _ = np.polyfit(t[mask], np.log(y[mask] - ymin), 1)
    tau0 = -1.0 / slope if slope < 0 else (t[-1] - t[0])

    try:
        if with_offset:
            model = lambda tt, A, tau, B: A * np.exp(-tt / tau) + B
            popt, _ = curve_fit(model, t, y, p0=(amp0, tau0, ymin), maxfev=10000)
            A, tau, B = popt
        else:
            model = lambda tt, A, tau: A * np.exp(-tt / tau)
            popt, _ = curve_fit(model, t, y, p0=(amp0, tau0), maxfev=10000)
            A, tau = popt
            B = 0.0
    except RuntimeError as exc:
        raise FitError(f"exponential fit did not converge: {exc}") from exc

    if tau <= 0:
        raise FitError(f"fitted tau is not positive ({tau})")
    resid = y - (A * np.exp(-t / tau) + B)
    return ExpDecayFit(float(A), float(tau), float(B), float(np.sqrt(np.mean(resid**2))))
