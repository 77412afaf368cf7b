"""The fit core.  The ringdown fits (fit_exponential_decay) and
cooling.fit_psd check their samples with `check_samples`, fit with
`least_squares` and check the scalars they derive with `require_positive`,
so all take the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError


def require_positive(error: type = ValidationError, /, **values: float) -> None:
    """Raise `error` unless every value is positive and finite (NaN is not)."""
    bad = {name: value for name, value in values.items() if not 0.0 < value < math.inf}
    if bad:
        raise error(f"{', '.join(bad)} must be positive and finite "
                    f"(got {', '.join(map(str, bad.values()))})")


def check_samples(x, y, names: tuple[str, str],
                  min_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as float arrays: 1-D, of equal length, finite and at least min_samples long."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValidationError(f"{' and '.join(names)} must be 1-D arrays of equal length")
    bad = int(np.count_nonzero(~(np.isfinite(x) & np.isfinite(y))))
    if bad:
        raise ValidationError(f"{bad} of {len(x)} samples have a non-finite {' or '.join(names)}")
    if len(x) < min_samples:
        raise ValidationError(f"need at least {min_samples} samples, got {len(x)}")
    return x, y


def least_squares(model, x, y, p0, maxfev: int, what: str) -> tuple[np.ndarray, float]:
    """(params, residual RMS) of model(x, *params) fitted to y from p0.

    Parameters of model beyond those in p0 keep their defaults.
    """
    # imported here, not at module level: scipy.optimize takes ~0.45 s to
    # import, and only the fits (and cavity.locate_resonance) need it
    from scipy.optimize import curve_fit

    try:
        popt, _ = curve_fit(model, x, y, p0=p0, maxfev=maxfev)
    except RuntimeError as exc:
        raise FitError(f"{what} fit did not converge: {exc}") from exc
    resid = y - model(x, *popt)
    return popt, float(np.sqrt(np.mean(resid**2)))


@dataclass(frozen=True)
class ExpDecayFit:
    amplitude: float
    tau: float
    offset: float
    residual_rms: float


def _decay(t, A, tau, B=0.0):
    return A * np.exp(-t / tau) + B


def fit_exponential_decay(t, y, with_offset: bool = True, min_samples: int = 10) -> ExpDecayFit:
    """Fit y(t) = A exp(-t/tau) + B (B fixed to 0 when with_offset is False).

    Initial guesses come from a log-linear regression of (y - min) over the
    samples still well above the floor, then curve_fit refines.  Raises
    FitError for flat traces, non-convergence, or tau <= 0.
    """
    t, y = check_samples(t, y, ("time", "value"), min_samples)
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

    # leaving B out of p0 fixes it at its default of 0
    p0 = (amp0, tau0, ymin) if with_offset else (amp0, tau0)
    popt, rms = least_squares(_decay, t, y, p0, 10000, "exponential")
    A, tau, B = popt if with_offset else (*popt, 0.0)
    require_positive(FitError, tau=tau)
    return ExpDecayFit(float(A), float(tau), float(B), rms)
