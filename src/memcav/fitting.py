"""The fit core.  The ringdown fits (fit_exponential_decay) and
cooling.fit_psd check their samples with `check_samples`, fit with
`least_squares` and check the scalars they derive with
`params.require_positive`, so all take the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .params import require_positive


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


# MINPACK's default tolerance on the relative fall of the sum of squares
# (ftol), and its relative forward-difference step
_TOL = 1.49012e-8
_DIFF_STEP = math.sqrt(np.finfo(float).eps)
_MAX_DAMPING = 1e16


def least_squares(model, x, y, p0, maxfev: int, what: str) -> tuple[np.ndarray, float]:
    """(params, residual RMS) of model(x, *params) fitted to y from p0.

    Parameters of model beyond those in p0 keep their defaults.  A
    Levenberg-Marquardt solver: forward-difference Jacobian, Marquardt's
    damping on diag(J^T J), and a step taken only if the sum of squares is
    finite and no larger; it stops once a step lowers the sum by less than
    _TOL of itself.  Raises FitError if maxfev model calls run out, the
    damping blows up, or the Jacobian or the normal equations are singular.
    """
    calls = 0

    def fail(reason: str):
        return FitError(f"{what} fit did not converge: {reason}")

    # residuals in units of the largest sample, so that no sum of squares
    # over- or underflows
    unit = float(np.abs(y).max(initial=0.0)) or 1.0
    scaled_y = y / unit

    def residuals(params):
        nonlocal calls
        calls += 1
        return model(x, *params) / unit - scaled_y

    # MINPACK's step sqrt(eps)|p_j| on a floor decades below the peak moves
    # the residuals by less than their rounding; a step that moves them by
    # less than 1e-10 of the data is enlarged to move them by sqrt(eps) of it
    size = math.sqrt(float(scaled_y @ scaled_y))

    def column(p, r, j):
        """(dr/dp_j / |dr/dp_j|, 1 / |dr/dp_j|) by a forward difference."""
        h = float(_DIFF_STEP * abs(p[j])) or _DIFF_STEP
        for _ in range(3):
            q = p.copy()
            q[j] += h
            diff = residuals(q) - r
            moved = math.sqrt(diff @ diff)
            if not moved < 1e-10 * size:   # also for NaN
                break
            h *= _DIFF_STEP * size / moved if moved else 1.0 / _DIFF_STEP
        if not 0.0 < moved < math.inf:
            raise fail("singular or non-finite Jacobian")
        return diff / moved, h / moved

    # a trial step may overflow the model; its sum of squares is then not
    # finite, and the step is refused
    with np.errstate(all="ignore"):
        p = np.array(p0, dtype=float)
        r = residuals(p)
        cost = float(r @ r)
        if not math.isfinite(cost):
            raise fail("the model is not finite at the initial guess")
        damping = 0.1   # 1e-3 let some spur-ridden PSD fits run off to a flat line
        while True:
            # the Jacobian's columns scaled to unit norm, so diag(J^T J)
            # becomes the identity; the scale of each is 1 / |dr/dp_j|
            columns, scale = zip(*(column(p, r, j) for j in range(p.size)))
            jac, scale = np.column_stack(columns), np.array(scale)
            normal, grad = jac.T @ jac, jac.T @ r
            while True:
                if calls >= maxfev:
                    raise fail(f"{maxfev} model calls ran out")
                if damping > _MAX_DAMPING:
                    raise fail("the damping blew up")
                try:
                    scaled_step = np.linalg.solve(normal + damping * np.eye(p.size), -grad)
                except np.linalg.LinAlgError:
                    raise fail("singular normal equations") from None
                trial = p + scaled_step * scale
                r_trial = residuals(trial)
                cost_trial = float(r_trial @ r_trial)
                if cost_trial <= cost:   # False for NaN
                    break
                damping *= 10.0
            done = cost - cost_trial <= _TOL * cost
            p, r, cost = trial, r_trial, cost_trial
            damping /= 10.0
            if done:
                return p, unit * float(np.sqrt(np.mean(r**2)))


@dataclass(frozen=True)
class ExpDecayFit:
    amplitude: float
    tau: float
    offset: float
    residual_rms: float


def _decay(t, A, tau, B=0.0):
    return A * np.exp(-t / tau) + B


def fit_exponential_decay(t, y, with_offset: bool = True) -> ExpDecayFit:
    """Fit y(t) = A exp(-t/tau) + B (B fixed to 0 when with_offset is False).

    Initial guesses come from a log-linear regression of (y - min) over the
    samples still well above the floor, then least_squares refines.  Takes at
    least 10 samples; raises FitError for flat traces, non-convergence, or
    tau <= 0.
    """
    t, y = check_samples(t, y, ("time", "value"), 10)
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
