"""fitting.least_squares against scipy's curve_fit (oracles.curve_fit_params).

Each problem is what a package fit hands its solver: the model, the
samples, the initial guess and the call budget, recorded from
fit_exponential_decay or cooling.fit_psd on a generated trace.
"""

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from memcav import cooling, fitting
from memcav.errors import FitError
from memcav.params import K_B
from memcav.textio import read_csv

from oracles import complex_step_jacobian, curve_fit_params


class _Recorded(Exception):
    """Carries the arguments a fit handed to least_squares."""


def _record(*args):
    raise _Recorded(args)


def _problem(fit, *args, **kwargs):
    """(model, x, y, p0, maxfev) that `fit` hands to least_squares."""
    with mock.patch.object(fitting, "least_squares", _record), \
            mock.patch.object(cooling, "least_squares", _record), \
            pytest.raises(_Recorded) as recorded:
        fit(*args, **kwargs)
    return recorded.value.args[0][:5]


@dataclass(frozen=True)
class Decay:
    """A*exp(-t/tau) + offset on n samples over span*tau; the noise, relative
    to A, is additive with an offset and multiplicative without one."""
    amplitude: float
    tau: float
    offset: float | None
    noise: float
    n: int
    span: float
    seed: int

    def problem(self):
        rng = np.random.default_rng(self.seed)
        t = np.linspace(0.0, self.span * self.tau, self.n)
        y = self.amplitude * np.exp(-t / self.tau)
        if self.offset is None:
            y = y * (1.0 + rng.normal(0.0, self.noise, self.n))
        else:
            y = y + self.offset + rng.normal(0.0, self.noise * self.amplitude, self.n)
        return _problem(fitting.fit_exponential_decay, t, y, self.offset is not None)


@dataclass(frozen=True)
class Psd:
    """A Lorentzian of the given peak at omega0 and quality q, plus a floor,
    over +-span linewidths with multiplicative noise; a five-sample spur
    (x30) at fraction `spur` of the trace is masked out of the fit."""
    omega0: float
    q: float
    peak: float
    floor: float
    noise: float
    n: int
    span: float
    spur: float | None
    seed: int

    def problem(self):
        rng = np.random.default_rng(self.seed)
        gamma = self.omega0 / self.q
        omega = np.linspace(max(self.omega0 - self.span * gamma, 0.0),
                            self.omega0 + self.span * gamma, self.n)
        amp = self.peak * (gamma * self.omega0) ** 2
        psd = amp / ((self.omega0**2 - omega**2) ** 2 + (gamma * omega) ** 2)
        psd = psd * (1.0 + rng.normal(0.0, self.noise, self.n)) + self.floor
        freq = omega / (2 * np.pi)
        bands = ()
        if self.spur is not None:
            i = min(max(int(self.spur * self.n), 2), self.n - 3)
            psd[i - 2: i + 3] *= 30.0
            step = freq[1] - freq[0]
            bands = ((freq[i] - 4 * step, freq[i] + 4 * step),)
        return _problem(cooling.fit_psd, freq, psd, exclude_bands=bands)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_NOISE = st.one_of(st.just(0.0), _log_uniform(1e-5, 1e-2))
_SEED = st.integers(0, 2**32 - 1)

_DECAYS = st.builds(
    Decay, amplitude=_log_uniform(1e-3, 1e3), tau=_log_uniform(1e-7, 10.0),
    offset=st.none(), noise=_NOISE, n=st.integers(50, 400), span=st.floats(2.0, 8.0),
    seed=_SEED,
).flatmap(lambda d: st.one_of(
    st.just(d), _log_uniform(0.02, 1.0).map(lambda u: Decay(
        d.amplitude, d.tau, u * d.amplitude, d.noise, d.n, d.span, d.seed))))

_PSDS = st.builds(
    lambda peak, floor_ratio, **rest: Psd(peak=peak, floor=peak * floor_ratio, **rest),
    omega0=_log_uniform(1e4, 1e7), q=_log_uniform(5.0, 1e3), peak=_log_uniform(1e-25, 1e-10),
    floor_ratio=_log_uniform(1e-16, 1e-2), noise=_NOISE, n=st.integers(100, 1001),
    span=st.floats(10.0, 80.0), spur=st.one_of(st.none(), st.floats(0.55, 0.95)),
    seed=_SEED)


def _bench_psd(jitter, spur_index):
    """bench/workloads.py's PSD: m = 4e-11 kg, Q_eff = 300, T_eff = 6.82 mK, 1 % noise."""
    omega0 = 8.42e5 * jitter
    peak = 4.0 * K_B * 6.82e-3 / (4e-11 * (omega0 / 300.0) * omega0**2)
    return Psd(omega0, 300.0, peak, 1e-36, 0.01, 1001, 60.0, spur_index / 1001, 5)


def _ssq(model, x, y, params):
    r = y - model(x, *params)
    return float(r @ r)


def _assert_matches_oracle(model, x, y, p0, maxfev):
    params, rms = fitting.least_squares(model, x, y, p0, maxfev, "test")
    ssq = _ssq(model, x, y, params)
    assert math.isclose(rms, math.sqrt(ssq / len(y)), rel_tol=1e-9,
                        abs_tol=1e-15 * np.abs(y).max())   # rounding on an exact fit
    # never worse than the fit it replaced; on noiseless samples, residuals
    # within 1e-12 of the data count as an exact fit
    replaced = curve_fit_params(model, x, y, p0, maxfev)
    exact = 1e-24 * float(y @ y)
    assert ssq <= _ssq(model, x, y, replaced) * (1 + 1e-8) + exact
    # with forward differences MINPACK can stop ~1e-6 short of the minimum
    # where a floor sits decades below the peak, so the parameters are
    # compared with its fit from the exact Jacobian
    oracle = curve_fit_params(model, x, y, p0, maxfev, complex_step_jacobian(model))
    assert ssq <= _ssq(model, x, y, oracle) * (1 + 1e-8) + exact
    if model is fitting._decay:   # A, tau and B, when B is fitted
        np.testing.assert_allclose(params, oracle, rtol=1e-6, atol=0)
    else:   # amplitude, omega_eff and gamma_eff up to sign, and the floor
        np.testing.assert_allclose(np.abs(params[:3]), np.abs(oracle[:3]), rtol=1e-6, atol=0)
        assert abs(params[3] - oracle[3]) <= 1e-6 * y.max()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_DECAYS, _PSDS))
# bench/workloads.py's ringdowns and PSDs at both ends of their jitter, e^+-0.1
@example(Decay(1.7, 1.145e-6 * math.exp(-0.1), 0.2, 1e-3 / 1.7, 200, 6e-6 / (1.145e-6 * math.exp(-0.1)), 1))
@example(Decay(1.7, 1.145e-6 * math.exp(0.1), 0.2, 1e-3 / 1.7, 200, 6e-6 / (1.145e-6 * math.exp(0.1)), 2))
@example(Decay(0.8, 2.67 * math.exp(-0.1), None, 1e-3, 300, 10.0 / (2.67 * math.exp(-0.1)), 3))
@example(Decay(0.8, 2.67 * math.exp(0.1), None, 1e-3, 300, 10.0 / (2.67 * math.exp(0.1)), 4))
@example(_bench_psd(math.exp(-0.1), 780))
@example(_bench_psd(math.exp(0.1), 819))
def test_least_squares_matches_curve_fit(case):
    _assert_matches_oracle(*case.problem())


@pytest.mark.parametrize("name, exclude", [("ringdown", False), ("mech", False),
                                           ("psd", False), ("psd", True)])
def test_least_squares_matches_curve_fit_on_pinned_inputs(fit_inputs, name, exclude):
    d, spur_band = fit_inputs
    x, y = read_csv(d / f"{name}.csv").values()
    if name == "psd":
        bands = [tuple(map(float, spur_band.split(":")))] if exclude else []
        problem = _problem(cooling.fit_psd, x, y, exclude_bands=bands)
    else:
        problem = _problem(fitting.fit_exponential_decay, x, y, name == "ringdown")
    _assert_matches_oracle(*problem)


_X = np.linspace(0.0, 1.0, 20)


def test_least_squares_parameter_without_effect_raises_fit_error():
    with pytest.raises(FitError, match="singular"):
        fitting.least_squares(lambda x, a, b: a * x, _X, 3.0 * _X, (1.0, 1.0), 1000, "test")


def test_least_squares_nan_trial_steps_raise_fit_error():
    """Finite at the initial guess and its difference steps, NaN at every trial."""
    calls = []

    def model(x, a):
        calls.append(a)
        return a * x if len(calls) <= 1 + 3 else np.full_like(x, np.nan)

    with pytest.raises(FitError, match="damping"):
        fitting.least_squares(model, _X, 3.0 * _X, (1.0,), 1000, "test")


def test_least_squares_call_budget_raises_fit_error():
    with pytest.raises(FitError, match="3 model calls"):
        fitting.least_squares(lambda x, a: np.exp(a * x), _X, np.exp(3.0 * _X), (1.0,), 3, "test")
